"""The telemetry plane's standing contracts, asserted differentially.

Three invariants from the observability charter:

* **observe-only** - a fully subscribed run produces bit-identical
  :class:`~repro.sim.stats.SimulationStats` to a no-sink run;
* **near-zero inactive cost** - with no sink attached the
  instrumented engine's wall clock stays within a small margin of a
  subscribed run's (the emission sites sit off the per-tick hot
  path, so even the subscribed side is cheap);
* **deterministic export** - identical runs yield byte-identical
  Chrome-trace payloads (wall clock only enters via the writer's
  metadata stamp, which is excluded here by exporting pre-write).
"""

import json
import time

import pytest

from repro.obs.events import BUS, subscribed
from repro.obs.export import ChromeTraceBuilder, CountingSink, JsonlSink


@pytest.fixture(autouse=True)
def _smoke(monkeypatch):
    """Shrink the benchmark workloads; assert no bus leaks out."""
    monkeypatch.setenv("BENCH_SMOKE", "1")
    assert not BUS.active
    yield
    assert not BUS.active


def _run(key):
    from repro.eval.engines import WORKLOADS

    return WORKLOADS[key][1]("compiled")


@pytest.mark.parametrize(
    "key", ["fir", "mixed_dividers", "ddc_pipeline", "governed_burst"]
)
def test_fully_subscribed_run_is_bit_identical(key, tmp_path):
    baseline = _run(key)
    builder = ChromeTraceBuilder()
    counting = CountingSink()
    jsonl = JsonlSink(tmp_path / "events.jsonl")
    with subscribed(builder), subscribed(counting), subscribed(jsonl):
        traced = _run(key)
    assert traced == baseline


def test_trace_sees_engine_activity(tmp_path):
    counting = CountingSink()
    with subscribed(counting):
        _run("ddc_pipeline")
    assert counting.total > 0
    assert counting.by_category.get("engine", 0) > 0


def test_governed_run_emits_control_and_power_events():
    counting = CountingSink()
    with subscribed(counting):
        _run("governed_burst")
    assert counting.by_category.get("control", 0) > 0
    assert counting.by_category.get("power", 0) > 0


def _best_of(fn, repeats=9):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("key", ["fir", "mixed_dividers"])
def test_inactive_bus_overhead_under_two_percent(key):
    """No-sink runs must not pay for the instrumentation.

    Strictly stronger than the contract: the comparison run has a
    live (no-op) sink, so it pays every emission site's event
    construction - the inactive side must still land within 2% of it
    (plus a small absolute epsilon for scheduler noise on sub-
    millisecond smoke runs).  The repeats interleave both sides so
    frequency drift biases them equally.
    """
    _run(key)  # warm caches (imports, kernels, lockstep plans)
    silent = float("inf")
    sunk = float("inf")
    noop = lambda event: None  # noqa: E731 - cheapest possible sink
    for _ in range(9):
        start = time.perf_counter()
        _run(key)
        silent = min(silent, time.perf_counter() - start)
        with subscribed(noop):
            start = time.perf_counter()
            _run(key)
            sunk = min(sunk, time.perf_counter() - start)
    assert silent <= sunk * 1.02 + 300e-6, (
        f"{key}: no-sink run {silent * 1e3:.3f} ms vs subscribed "
        f"{sunk * 1e3:.3f} ms - the inactive path is paying for "
        f"telemetry"
    )


#: Untraced runs before the compared pair.  The process-wide lockstep
#: tables (shared plans, round code) make a run's events depend on the
#: runs before it until they settle.  ddc_pipeline's one run() window
#: is long enough to hunt: its first run builds and compiles every
#: round, and every later run replays them from the shared plans.
#: governed_burst's epoch windows are shorter than LOCKSTEP_HUNT_TICKS,
#: so no run of it hunts and its first traced run already repeats.
WARM_UPS = {"ddc_pipeline": 1, "governed_burst": 0}


@pytest.mark.parametrize("key", ["ddc_pipeline", "governed_burst"])
def test_exporter_output_is_deterministic(key):
    for _ in range(WARM_UPS[key]):
        _run(key)
    payloads = []
    for _ in range(2):
        builder = ChromeTraceBuilder()
        with subscribed(builder):
            builder.process(key)
            _run(key)
        payloads.append(
            json.dumps(builder.to_chrome(), sort_keys=True)
        )
    assert payloads[0] == payloads[1]
