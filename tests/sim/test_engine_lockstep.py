"""Cross-column lockstep rounds: differentials, guards, shared cache.

The compiled engine's top striding tier records one hyperperiod-
aligned round of the whole chip (every DOU step, every column edge,
every comm-headed runner call) at a recurring control signature,
compiles it to a generated round function, and replays it while the
entry checks hold.  These tests pin the hazard cases around that
tier:

* steady periodic streaming must actually engage rounds (counter
  assertions - a silent fall-back to dense ticking is a failure);
* a governor retuning the divider tuple every epoch invalidates and
  rebuilds plans across tuples, mid-lap, without breaking the
  bit-identical contract;
* tiny buffer capacities force backpressure mid-orbit, so recorded
  rounds abort on their occupancy checks and the dense path finishes
  the window - still bit-identical;
* a plan built by one engine is rebound through the shared
  cross-engine cache by a structurally identical fresh engine, which
  must produce the same statistics without ever recording;
* a recorder arms only once a signature has recurred
  ``LOCKSTEP_ARM_RECURRENCES`` times on a chip structure, so a short
  regime compiles nothing until re-runs of the same structure have
  proved it recurs.

Every case is differential against the reference engine.  Tests that
assert engagement start from empty process-wide lockstep tables, so
no count or plan left by an earlier test can decide the outcome.
"""

import builtins

import pytest

from repro.arch.chip import Chip, PORT_POSITION
from repro.arch.config import ChipConfig, ColumnConfig
from repro.arch.dou_compiler import Transfer, compile_schedule
from repro.control import Governor, TransitionModel, run_governed
from repro.isa.assembler import assemble
from repro.sim import engine as engine_module
from repro.obs import subscribed
from repro.sim.engine import LOCKSTEP_ARM_RECURRENCES, CompiledEngine
from repro.sim.simulator import Simulator

#: Signatures of a streaming pair this short recur fewer than
#: LOCKSTEP_ARM_RECURRENCES times in one run, but recur.
SHORT_SAMPLES = 8


def build_streaming_pair(
    samples: int = 96, capacity: int = 8,
    dividers: tuple = (4, 2),
) -> Chip:
    """Producer column streaming into a consumer column.

    The producer loads, scales, and SENDs one word per iteration; the
    consumer RECVs and accumulates.  Both loops are long enough for
    the periodic steady state to recur at many hyperperiod
    boundaries, which is the shape the lockstep recorder needs.
    """
    producer = assemble(f"""
        tmask 0x1
        movi p0, 0
        loop {samples}
          ld r1, [p0++]
          lsl r1, r1, 1
          send r1
        endloop
        halt
    """, "producer")
    consumer = assemble(f"""
        movi r2, 0
        loop {samples}
          recv r1
          add r2, r2, r1
        endloop
        halt
    """, "consumer")
    to_port = compile_schedule(
        [[Transfer(src=0, dsts=(PORT_POSITION,))]], name="to-port"
    )
    fan_out = compile_schedule(
        [[Transfer(src=PORT_POSITION, dsts=(0, 1, 2, 3))]],
        name="fan-out",
    )
    horizontal = compile_schedule(
        [[Transfer(src=0, dsts=(1,))]], n_positions=2, name="hbus"
    )
    config = ChipConfig(
        reference_mhz=512.0,
        columns=(
            ColumnConfig(divider=dividers[0]),
            ColumnConfig(divider=dividers[1]),
        ),
        buffer_capacity=capacity,
        strict_schedules=False,
    )
    chip = Chip(config, programs=[producer, consumer],
                dou_programs=[to_port, fan_out],
                horizontal_dou=horizontal)
    chip.columns[0].tiles[0].load_memory(
        0, list(range(1, samples + 1))
    )
    return chip


@pytest.fixture
def fresh_lockstep_tables(monkeypatch):
    """Empty the process-wide recurrence counts, plans and codegen."""
    for name in ("_LOCK_RECURRENCES", "_SHARED_LOCK_PLANS",
                 "_FP_INTERN", "_ROUND_CODE_CACHE"):
        monkeypatch.setattr(engine_module, name, {})


@pytest.fixture
def round_compiles(monkeypatch):
    """Counts ``compile()`` calls made by the engine module: rounds."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return builtins.compile(*args, **kwargs)

    monkeypatch.setattr(engine_module, "compile", counting, raising=False)
    return calls


def counting_probe_hits(monkeypatch) -> list:
    """Signatures a fresh engine rebinds from the shared plan cache."""
    hits = []
    original_probe = CompiledEngine._lock_probe

    def counting_probe(self, sig):
        plan = original_probe(self, sig)
        if plan is not None:
            hits.append(sig)
        return plan

    monkeypatch.setattr(CompiledEngine, "_lock_probe", counting_probe)
    return hits


class EveryEpochToggler(Governor):
    """Retunes to a different divider tuple on every epoch boundary."""

    name = "every-epoch-toggler"

    def __init__(self, patterns):
        self.patterns = tuple(tuple(p) for p in patterns)

    def decide(self, telemetry):
        return self.patterns[
            telemetry.epoch_index % len(self.patterns)
        ]


# ----------------------------------------------------------------------
# steady state: rounds engage and stay bit-identical
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("fresh_lockstep_tables")
def test_lockstep_rounds_engage_on_steady_stream():
    reference = Simulator(
        build_streaming_pair(), engine="reference"
    ).run(max_ticks=100_000)
    engine = CompiledEngine(build_streaming_pair())
    compiled = engine.run(max_ticks=100_000)
    assert compiled == reference
    snapshot = engine.profile_snapshot()
    assert snapshot["lockstep_batches"] > 0
    assert snapshot["fused_runner_calls"] > 0


# ----------------------------------------------------------------------
# retune mid-lap: plans invalidate and rebuild across divider tuples
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("fresh_lockstep_tables")
def test_every_epoch_retune_differential():
    """A retune on every epoch boundary lands mid-lap by design.

    The lockstep signature pins the divider tuple, so each retune
    strands the previous tuple's plans and the cache accumulates
    plans per tuple; replay across the boundary would be wrong and
    must never happen.
    """
    patterns = [(4, 2), (8, 4), (2, 2)]
    governed = {}
    engines = {}
    for engine_name in ("reference", "compiled"):
        chip = build_streaming_pair(samples=192)
        driver = (
            CompiledEngine(chip)
            if engine_name == "compiled" else engine_name
        )
        engines[engine_name] = driver
        governed[engine_name] = run_governed(
            chip, EveryEpochToggler(patterns), engine=driver,
            epoch_ticks=128,
            transition_model=TransitionModel(relock_us=0.01),
            max_ticks=400_000,
        )
    reference, compiled = governed["reference"], governed["compiled"]
    assert compiled.stats == reference.stats
    assert compiled.timeline == reference.timeline
    assert compiled.transitions == reference.transitions
    assert compiled.transition_count > 0
    driver = engines["compiled"]
    assert driver.profile_snapshot()["lockstep_batches"] > 0
    # Plans really accumulated across more than one divider tuple
    # (the signature's second element is the tuple).
    tuples = {sig[1] for sig in driver._lock_plans}
    assert len(tuples) >= 2


# ----------------------------------------------------------------------
# backpressure mid-orbit: entry checks abort, dense path finishes
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("fresh_lockstep_tables")
@pytest.mark.parametrize("capacity", [1, 2])
def test_backpressure_mid_orbit_differential(capacity):
    """Tiny buffers block the stream mid-round; stats stay identical.

    At capacity 1 every word must be consumed before the next can
    land, so the DOUs spend most cycles blocked against full
    destinations inside the very rounds the recorder captures.  The
    recorded occupancy checks and validated transfer primitives must
    reproduce every one of those blocked cycles - and rounds must
    still engage, because the blocked pattern itself is periodic.
    """
    reference = Simulator(
        build_streaming_pair(capacity=capacity), engine="reference"
    ).run(max_ticks=200_000)
    chip = build_streaming_pair(capacity=capacity)
    engine = CompiledEngine(chip)
    compiled = engine.run(max_ticks=200_000)
    assert compiled == reference
    # The squeeze really blocked transfers, and rounds still engaged.
    assert chip.columns[0].dou.blocked_cycles > 0
    assert engine.profile_snapshot()["lockstep_batches"] > 0


# ----------------------------------------------------------------------
# shared cross-engine plan cache
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("fresh_lockstep_tables")
def test_shared_plan_cache_rebinds_across_engines(monkeypatch):
    """A fresh engine replays rounds it never recorded.

    Engine one builds and publishes plans; a structurally identical
    engine two must probe them at the signatures' first sighting,
    rebind the structural paths against its own machine objects, and
    still match the reference bit for bit.
    """
    reference = Simulator(
        build_streaming_pair(), engine="reference"
    ).run(max_ticks=100_000)
    first = CompiledEngine(build_streaming_pair())
    assert first.run(max_ticks=100_000) == reference
    assert engine_module._SHARED_LOCK_PLANS  # plans were published

    probe_hits = counting_probe_hits(monkeypatch)
    second = CompiledEngine(build_streaming_pair())
    compiled = second.run(max_ticks=100_000)
    assert compiled == reference
    assert probe_hits  # the fresh engine really rebound shared plans
    assert second.profile_snapshot()["lockstep_batches"] > 0


@pytest.mark.usefixtures("fresh_lockstep_tables")
def test_shared_plans_do_not_cross_structures(monkeypatch):
    """A different program never hits another structure's plans.

    The fingerprint pins full program text; a chip with a different
    loop count must miss every shared entry and fall back to its own
    recording - and still match its own reference run.
    """
    first = CompiledEngine(build_streaming_pair(samples=96))
    first.run(max_ticks=100_000)
    assert engine_module._SHARED_LOCK_PLANS

    probe_hits = counting_probe_hits(monkeypatch)
    reference = Simulator(
        build_streaming_pair(samples=80), engine="reference"
    ).run(max_ticks=100_000)
    other = CompiledEngine(build_streaming_pair(samples=80))
    assert other.run(max_ticks=100_000) == reference
    assert not probe_hits  # different fingerprint, no cross-hits


# ----------------------------------------------------------------------
# recurrence-gated arming
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("fresh_lockstep_tables")
def test_short_regime_compiles_no_round(round_compiles):
    """Signatures that recur fewer than the arming count build nothing.

    A round costs about as much to build as dozens of dense rounds, so
    a chip whose regime ends after a few recurrences must dense-step
    it on the exact path: no recording, no ``compile()``, and the same
    statistics as the reference engine.
    """
    reference = Simulator(
        build_streaming_pair(samples=SHORT_SAMPLES), engine="reference"
    ).run(max_ticks=100_000)
    engine = CompiledEngine(build_streaming_pair(samples=SHORT_SAMPLES))
    assert engine.run(max_ticks=100_000) == reference
    assert round_compiles == []
    assert not engine_module._SHARED_LOCK_PLANS
    counts = engine_module._LOCK_RECURRENCES.values()
    assert 0 < max(counts) < LOCKSTEP_ARM_RECURRENCES


@pytest.mark.usefixtures("fresh_lockstep_tables")
def test_recurrence_counts_carry_across_engines(
    monkeypatch, round_compiles,
):
    """Re-runs of one structure pool their recurrences.

    Each run of the short chip adds its recurrences to the same
    per-structure count, so some run arms the recorder and publishes
    a plan; every engine after that replays it from the signature's
    first sighting, with nothing recorded, built or compiled.
    """
    reference = Simulator(
        build_streaming_pair(samples=SHORT_SAMPLES), engine="reference"
    ).run(max_ticks=100_000)
    runs = 0
    while not engine_module._SHARED_LOCK_PLANS:
        runs += 1
        assert runs <= LOCKSTEP_ARM_RECURRENCES
        engine = CompiledEngine(
            build_streaming_pair(samples=SHORT_SAMPLES)
        )
        assert engine.run(max_ticks=100_000) == reference
    assert runs > 1  # one run alone never reached the arming count
    assert len(round_compiles) == len(engine_module._SHARED_LOCK_PLANS)

    builds = []
    original_build = engine_module._build_lock_plan

    def counting_build(*args):
        builds.append(args[1])
        return original_build(*args)

    monkeypatch.setattr(engine_module, "_build_lock_plan", counting_build)
    probe_hits = counting_probe_hits(monkeypatch)
    round_compiles.clear()
    later = CompiledEngine(build_streaming_pair(samples=SHORT_SAMPLES))
    assert later.run(max_ticks=100_000) == reference
    assert probe_hits
    assert later.profile_snapshot()["lockstep_batches"] > 0
    assert builds == []
    assert round_compiles == []


def test_recurrence_table_clears_at_its_cap(monkeypatch):
    """The process-wide count table is bounded like the plan caches."""
    cap = engine_module._SHARED_LOCK_CAP
    table = {("stale", index): 1 for index in range(cap - 1)}
    monkeypatch.setattr(engine_module, "_LOCK_RECURRENCES", table)
    monkeypatch.setattr(engine_module, "_FP_INTERN", {})
    engine = CompiledEngine(build_streaming_pair())
    assert engine._lock_recurred("a") == 1
    assert len(table) == cap
    # A known key only counts up; a new key at the cap clears first.
    assert engine._lock_recurred("a") == 2
    assert len(table) == cap
    assert engine._lock_recurred("b") == 1
    assert table == {(engine._lock_fingerprint(), "b"): 1}


@pytest.mark.usefixtures("fresh_lockstep_tables")
def test_lockstep_build_instant_per_built_plan():
    """Each built round emits one deterministic ``lockstep_build``.

    The instant carries the round length, the recurrence count that
    armed it, the emitted primitive and source-byte counts, and
    whether ``compile()`` ran: a rebuild of an evicted plan finds its
    source in the code cache and compiles nothing.
    """
    builds = []

    def collect(event):
        if event.name == "lockstep_build":
            builds.append(event)

    engine = CompiledEngine(build_streaming_pair())
    with subscribed(collect):
        engine.run(max_ticks=100_000)
    plans = [
        plan for plan in engine._lock_plans.values()
        if plan is not engine_module._PROBE_MISS
    ]
    assert builds
    assert sorted(
        (event.args["round_ticks"], event.args["source_bytes"])
        for event in builds
    ) == sorted((plan.period, len(plan.source)) for plan in plans)
    for event in builds:
        assert event.track == "engine"
        assert event.args["recurrences"] == LOCKSTEP_ARM_RECURRENCES
        assert event.args["primitives"] > 0
        assert event.args["compiled"] is True

    # Evict the shared plans: the counts already pass the gate, so the
    # next engine arms at its first recurrence and rebuilds the same
    # source without compiling it.
    engine_module._SHARED_LOCK_PLANS.clear()
    first_run = len(builds)
    again = CompiledEngine(build_streaming_pair())
    with subscribed(collect):
        again.run(max_ticks=100_000)
    assert len(builds) > first_run
    for event in builds[first_run:]:
        assert event.args["recurrences"] > LOCKSTEP_ARM_RECURRENCES
        assert event.args["compiled"] is False
