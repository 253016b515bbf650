"""Engine microbenchmark: compiled vs reference wall clock.

Four workloads bracket the engine's operating range:

* the FIR kernel (single column, divider 1, no DOU schedule) - the
  representative compute kernel.  With no hyperperiod to stride over,
  the whole speedup comes from the compute plane: compiled column
  runs executing generated per-tile code blocks instead of the
  fetch/issue/execute interpreter.  Bar: >= 3x;
* a mixed-divider chip (8/16/32 off one reference) - the hyperperiod
  fast path's home turf, where the acceptance bar is a >= 10x
  speedup.  The dividers model the paper's deeply divided compute
  columns (tens of MHz off a reference bus clock well above 500 MHz,
  Table 3); since the per-state DOU plans also accelerated the
  reference engine's tick loop, shallow dividers would mostly
  measure the shared tile work both engines must execute;
* the DDC front-end pipeline (two columns at 24/40 MHz off 600 MHz,
  live compiled DOU schedules on both vertical buses plus the
  horizontal bus) - the dense-mode acceptance case: per-state DOU
  plans, multi-state orbit batching, comm-parked column batching
  (both RECV and SEND sides), and cross-column lockstep rounds must
  together beat the reference tick loop >= 4.5x (the hard 6x
  contract lives in the runner's recorded floors, where full-size
  best-of repeats make it reliable);
* the governed WLAN burst scenario - the full control stack (epoch
  windows, occupancy-PI retunes, clock-plan cache reuse) must carry
  the compute-plane compilation through to a >= 4.1x end-to-end
  speedup (the runner floor is 6x).  Its epoch windows are shorter
  than ``LOCKSTEP_HUNT_TICKS``, so it replays no lockstep round.

All runs are cross-checked for bit-identical statistics before any
timing is trusted.

Assert-only mode (``BENCH_SMOKE=1``, used by the CI smoke step) keeps
every correctness assertion - bit-identical statistics between the
engines - but skips the wall-clock ratio thresholds, which are
meaningless on noisy shared runners.
"""

import os
import time

from repro.eval.engines import (
    build_ddc_stream_chip,
    build_mixed_divider_chip,
)
from repro.kernels.base import run_kernel
from repro.kernels.fir import build_fir_kernel
from repro.sim.simulator import Simulator

REPEATS = 4

#: Assert-only mode: verify engine equivalence, skip timing bars.
SMOKE = os.environ.get("BENCH_SMOKE", "") == "1"


def _best_of(repeats, fn):
    """Minimum wall-clock over several runs (noise suppression)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_fir_kernel_speedup_at_least_3x():
    """No hyperperiod to stride: pure compute-plane compilation.

    Single column at divider 1 means every reference tick carries a
    tile-clock edge, so the entire margin comes from compiled column
    runs executing generated code blocks (measured ~5.6x).
    """
    reference_s, reference = _best_of(
        REPEATS,
        lambda: run_kernel(build_fir_kernel(windows=24),
                           engine="reference"),
    )
    compiled_s, compiled = _best_of(
        REPEATS,
        lambda: run_kernel(build_fir_kernel(windows=24),
                           engine="compiled"),
    )
    assert compiled.stats == reference.stats
    ratio = reference_s / compiled_s
    print(f"\nFIR kernel: reference {reference_s * 1e3:7.2f} ms, "
          f"compiled {compiled_s * 1e3:7.2f} ms -> {ratio:.2f}x")
    assert SMOKE or ratio >= 3.0, (
        f"compiled engine only {ratio:.2f}x faster on FIR "
        f"(need >= 3x)"
    )


def test_mixed_divider_speedup_at_least_10x():
    """Dividers {8,16,32} (largest >= 4): the hyperperiod pays off.

    Sparse mode settles each column's whole window in closed form
    through its runner (measured ~40x)."""
    reference_s, reference = _best_of(
        REPEATS,
        lambda: Simulator(build_mixed_divider_chip(),
                          engine="reference").run(),
    )
    compiled_s, compiled = _best_of(
        REPEATS,
        lambda: Simulator(build_mixed_divider_chip(),
                          engine="compiled").run(),
    )
    assert compiled == reference
    ratio = reference_s / compiled_s
    print(f"\nmixed dividers (8,16,32): reference "
          f"{reference_s * 1e3:7.2f} ms, compiled "
          f"{compiled_s * 1e3:7.2f} ms -> {ratio:.2f}x")
    assert SMOKE or ratio >= 10.0, (
        f"compiled engine only {ratio:.2f}x faster on the "
        f"mixed-divider workload (need >= 10x)"
    )


def test_ddc_pipeline_live_dou_speedup_at_least_4_5x():
    """The dense-mode acceptance case: live DOUs on every bus.

    Producer and consumer columns stream through three compiled DOU
    schedules (to-port, horizontal hop, fan-out), so the old engine
    would have interpreted every DOU on every reference tick.  The
    compiled engine must beat the tick-accurate loop >= 4.5x through
    per-state plans, multi-state orbit batching, comm-parked column
    batching on both the RECV and SEND sides, compiled compute runs,
    and lockstep round replay (measured ~6.5-7.4x; the bar leaves
    noise margin, the hard 6x contract is enforced by the runner's
    recorded floors on full-size ``--engines`` runs where best-of
    repeats are cheap).
    """
    reference_s, reference = _best_of(
        REPEATS,
        lambda: Simulator(build_ddc_stream_chip(),
                          engine="reference").run(max_ticks=1_000_000),
    )
    compiled_s, compiled = _best_of(
        REPEATS,
        lambda: Simulator(build_ddc_stream_chip(),
                          engine="compiled").run(max_ticks=1_000_000),
    )
    assert compiled == reference
    ratio = reference_s / compiled_s
    print(f"\nDDC pipeline (live DOUs): reference "
          f"{reference_s * 1e3:7.2f} ms, compiled "
          f"{compiled_s * 1e3:7.2f} ms -> {ratio:.2f}x")
    assert SMOKE or ratio >= 4.5, (
        f"compiled engine only {ratio:.2f}x faster on the live-DOU "
        f"DDC pipeline (need >= 4.5x)"
    )


def test_governed_burst_speedup_at_least_5x():
    """The governed end-to-end case: epochs, retunes, plan reuse.

    The occupancy-PI governor retunes the chip across epoch windows,
    so the compiled engine recompiles (and cache-reuses) its clock
    plans mid-run while the compute-plane compilation keeps working
    across retunes.  The epochs are too short to hunt lockstep rounds,
    so none replays (measured ~6.4-6.7x; the hard 6x contract is the
    runner floor).
    The bar was 5x until compiled DOU backpressure stalls made the
    reference engine about 19% faster on this scenario; it moved by
    that gain alone, since the compiled engine's time did not rise.
    """
    from repro.workloads.coordinated import run_pipeline
    from repro.workloads.dvfs import wlan_mcs_scenario

    def run(engine):
        scenario = wlan_mcs_scenario(frames=16)
        return run_pipeline(scenario, "occupancy_pi", engine=engine)

    reference_s, reference = _best_of(
        REPEATS, lambda: run("reference")
    )
    compiled_s, compiled = _best_of(
        REPEATS, lambda: run("compiled")
    )
    assert compiled.run.stats == reference.run.stats
    ratio = reference_s / compiled_s
    print(f"\ngoverned WLAN burst: reference "
          f"{reference_s * 1e3:7.2f} ms, compiled "
          f"{compiled_s * 1e3:7.2f} ms -> {ratio:.2f}x")
    assert SMOKE or ratio >= 4.1, (
        f"compiled engine only {ratio:.2f}x faster on the governed "
        f"burst scenario (need >= 4.1x)"
    )
