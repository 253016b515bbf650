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
  proved it recurs;
* a built round compiles at its first entry, exactly once per source
  (a round that never enters compiles nothing), and a round that
  stops mid-way settles exactly the writes its generated code had
  deferred, under external perturbation between windows.

Every case is differential against the reference engine.  Tests that
assert engagement start from empty process-wide lockstep tables, so
no count or plan left by an earlier test can decide the outcome.
"""

import builtins
import random
import re

import pytest

from repro.arch.chip import Chip, PORT_POSITION
from repro.arch.config import ChipConfig, ColumnConfig
from repro.arch.dou_compiler import Transfer, compile_schedule
from repro.control import Governor, TransitionModel, run_governed
from repro.isa.assembler import assemble
from repro.sim import engine as engine_module
from repro.obs import subscribed
from repro.sim.engine import (
    LOCKSTEP_ARM_RECURRENCES, CompiledEngine, ReferenceEngine,
)
from repro.sim.simulator import Simulator
from repro.sim.stats import collect

#: Signatures of a streaming pair this short recur fewer than
#: LOCKSTEP_ARM_RECURRENCES times in one run, but recur.
SHORT_SAMPLES = 8


def streaming_programs(samples: int) -> tuple:
    """Producer and consumer column programs plus their DOU programs.

    The producer loads, scales, and SENDs one word per iteration; the
    consumer RECVs and accumulates.
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
    return producer, consumer, to_port, fan_out


def build_streaming_pair(
    samples: int = 96, capacity: int = 8,
    dividers: tuple = (4, 2),
) -> Chip:
    """Producer column streaming into a consumer column.

    Both loops are long enough for the periodic steady state to recur
    at many hyperperiod boundaries, which is the shape the lockstep
    recorder needs.
    """
    producer, consumer, to_port, fan_out = streaming_programs(samples)
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


def build_fed_stream(dividers: tuple = (8, 4, 8)) -> Chip:
    """The streaming pair plus a halted third column whose DOU streams
    tile 0's write buffer into tile 1's read buffer.

    Nothing on the chip feeds or drains that stream: the test tops it
    up between windows (:func:`feed_stream`), so the DOU moves one
    word per tick through edge-free stretches - lap applications in
    the recorded rounds - until the backlog runs dry mid-round.
    """
    samples = 400
    producer, consumer, to_port, fan_out = streaming_programs(samples)
    stream = compile_schedule(
        [[Transfer(src=0, dsts=(1,))]], name="stream"
    )
    config = ChipConfig(
        reference_mhz=512.0,
        columns=tuple(ColumnConfig(divider=d) for d in dividers),
        buffer_capacity=64,
        strict_schedules=False,
    )
    chip = Chip(
        config,
        programs=[producer, consumer, assemble("halt", "parked")],
        dou_programs=[to_port, fan_out, stream],
        horizontal_dou=compile_schedule(
            [[Transfer(src=0, dsts=(1,))]], n_positions=3, name="hbus"
        ),
    )
    chip.columns[0].tiles[0].load_memory(0, list(range(1, samples + 1)))
    return chip


def feed_stream(chip: Chip, words: int) -> None:
    """Drain the fed stream's sink and queue ``words`` more words."""
    source = chip.columns[2].tiles[0].write_buffer
    sink = chip.columns[2].tiles[1].read_buffer
    while len(sink):
        sink.pop()
    for _ in range(min(words, source.capacity - len(source))):
        source.push(5)


def perturbed_differential(build, perturb, window: int) -> set:
    """Reference and compiled engines advanced window by window, the
    same perturbation applied to both chips between windows; every
    statistic must agree after every window.  Returns the
    ``(event, reason)`` pairs the lockstep instants reported."""
    chips = (build(), build())
    engines = (ReferenceEngine(chips[0]), CompiledEngine(chips[1]))
    reasons = set()

    def collect_reasons(event):
        if event.name in ("lockstep_abort", "lockstep_replay"):
            reasons.add((event.name, event.args["reason"]))

    with subscribed(collect_reasons):
        for index in range(400):
            for engine in engines:
                engine.advance(window)
            assert collect(chips[1]) == collect(chips[0]), index
            if chips[0].all_halted:
                break
            perturb(index, chips)
    assert chips[0].all_halted
    return reasons


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
    armed it, and the emitted primitive and source-byte counts.  The
    ``lockstep_compile`` instant at a round's first entry says whether
    ``compile()`` ran: a rebuild of an evicted plan finds its source in
    the code cache and compiles nothing.
    """
    builds = []
    compiles = []

    def collect(event):
        if event.name == "lockstep_build":
            builds.append(event)
        elif event.name == "lockstep_compile":
            compiles.append(event)

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
        assert "compiled" not in event.args
    assert compiles
    assert {event.args["source_bytes"] for event in compiles} <= {
        event.args["source_bytes"] for event in builds
    }
    for event in compiles:
        assert event.track == "engine"
        assert event.args["compiled"] is True

    # Evict the shared plans: the counts already pass the gate, so the
    # next engine arms at its first recurrence and rebuilds the same
    # source without compiling it.
    engine_module._SHARED_LOCK_PLANS.clear()
    first_run = len(builds)
    first_compiles = len(compiles)
    again = CompiledEngine(build_streaming_pair())
    with subscribed(collect):
        again.run(max_ticks=100_000)
    assert len(builds) > first_run
    for event in builds[first_run:]:
        assert event.args["recurrences"] > LOCKSTEP_ARM_RECURRENCES
    assert len(compiles) > first_compiles
    for event in compiles[first_compiles:]:
        assert event.args["compiled"] is False


# ----------------------------------------------------------------------
# the emitted round: compile at first entry, exact fixups, shape
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("fresh_lockstep_tables")
def test_round_that_never_enters_compiles_nothing(
    monkeypatch, round_compiles,
):
    """A built round whose entry checks never pass is never compiled.

    Every built plan gets an entry credit tuple no machine can hold,
    so each replay attempt fails its first check: the run dense-steps
    on the exact path, compiles no round, and reports every abort as a
    failed ``credits`` entry check at item 0.
    """
    original_build = engine_module._build_lock_plan

    def unenterable(*args):
        plan = original_build(*args)
        if plan is not None:
            credits, counters, occupancy = plan.entry
            plan.entry = ((-1,) * len(credits), counters, occupancy)
        return plan

    monkeypatch.setattr(engine_module, "_build_lock_plan", unenterable)
    reference = Simulator(
        build_streaming_pair(), engine="reference"
    ).run(max_ticks=100_000)
    replays = []

    def collect_replays(event):
        if event.name in ("lockstep_abort", "lockstep_replay"):
            replays.append(event)

    engine = CompiledEngine(build_streaming_pair())
    with subscribed(collect_replays):
        assert engine.run(max_ticks=100_000) == reference
    assert round_compiles == []
    assert engine.profile_snapshot()["lockstep_batches"] == 0
    assert replays
    for event in replays:
        assert event.name == "lockstep_abort"
        assert (event.args["reason"], event.args["item"]) == ("credits", 0)


@pytest.mark.usefixtures("fresh_lockstep_tables")
def test_entered_round_compiles_once_across_engines(
    monkeypatch, round_compiles,
):
    """A round that enters compiles exactly once per source.

    The building engine compiles each round at its first entry; a
    second engine of the same structure rebinds the plans from the
    shared cache, enters them, and compiles nothing.
    """
    reference = Simulator(
        build_streaming_pair(), engine="reference"
    ).run(max_ticks=100_000)
    first = CompiledEngine(build_streaming_pair())
    assert first.run(max_ticks=100_000) == reference
    entered = [
        plan for plan in first._lock_plans.values()
        if plan is not engine_module._PROBE_MISS and plan.fn is not None
    ]
    assert entered
    assert len(round_compiles) == len({plan.source for plan in entered})

    probe_hits = counting_probe_hits(monkeypatch)
    round_compiles.clear()
    second = CompiledEngine(build_streaming_pair())
    assert second.run(max_ticks=100_000) == reference
    assert probe_hits
    assert second.profile_snapshot()["lockstep_batches"] > 0
    assert round_compiles == []


@pytest.mark.usefixtures("fresh_lockstep_tables")
@pytest.mark.parametrize("dividers, window, words, reasons", [
    # Occupancy drift: entry checks fail, rounds still replay.
    ((4, 2, 2), 48, 20, {"occupancy"}),
    # A backlog that runs dry mid-round: diverging lap applications
    # and a clock edge off its recorded path.
    ((8, 4, 8), 96, 60, {"edge", "divergence"}),
])
def test_mid_round_aborts_settle_deferred_writes(
    dividers, window, words, reasons,
):
    """Rounds that stop part-way owe exactly the writes they deferred.

    The generated round sums its counter increments and writes them at
    round end; a DOU's state and counters wait until it is really
    stepped.  An abort must apply exactly what was owed at that site.
    Feeding the stream a varying backlog between windows makes rounds
    stop at entry, at a clock edge, and at a diverging lap; every
    statistic must match the reference engine after every window.
    """
    rng = random.Random(1)

    def perturb(index, chips):
        words_now = words if index % 3 else rng.randrange(words)
        for chip in chips:
            feed_stream(chip, words_now)

    seen = perturbed_differential(
        lambda: build_fed_stream(dividers), perturb, window,
    )
    assert {reason for _event, reason in seen} >= reasons


@pytest.mark.usefixtures("fresh_lockstep_tables")
def test_abort_instants_name_the_failed_check():
    """``lockstep_abort`` and ``lockstep_replay`` say why a round
    stopped: a forced entry failure reports its entry check at item 0,
    a forced mid-round divergence reports ``divergence`` at the round
    item that diverged, and a replay cut by the window says
    ``limit``."""
    events = []

    def collect_events(event):
        if event.name in ("lockstep_abort", "lockstep_replay"):
            events.append(event)

    # Entry: words pushed into the consumer's buffers between windows
    # move the buffers off the recorded occupancy windows.
    def push_words(index, chips):
        for chip in chips:
            buffer = chip.columns[1].tiles[index % 4].read_buffer
            if not buffer.is_full:
                buffer.push(7)

    with subscribed(collect_events):
        perturbed_differential(
            lambda: build_streaming_pair(samples=192, capacity=2),
            push_words, 37,
        )
    entry = [e for e in events if e.args["reason"] == "occupancy"]
    assert entry
    assert all(e.args["item"] == 0 for e in entry)
    assert any(e.args["reason"] == "limit" and "item" not in e.args
               for e in events)

    events.clear()
    rng = random.Random(1)

    def feed(index, chips):
        words_now = 60 if index % 3 else rng.randrange(60)
        for chip in chips:
            feed_stream(chip, words_now)

    with subscribed(collect_events):
        perturbed_differential(build_fed_stream, feed, 96)
    diverged = [e for e in events if e.args["reason"] == "divergence"]
    assert diverged
    assert all(e.args["item"] >= 0 for e in diverged)
    assert any(e.name == "lockstep_abort" for e in diverged)


@pytest.mark.usefixtures("fresh_lockstep_tables")
def test_generated_round_shape():
    """Only the hot path is code.

    No ``while True`` fallback blocks; ``run_edges`` appears only as
    an on-plan runner act (its result is the column's new credit);
    every abort is a one-line return of its site index; and each
    deferred counter is written at most once, at round end.
    """
    engine = CompiledEngine(build_streaming_pair())
    engine.run(max_ticks=100_000)
    sources = [
        plan.source for plan in engine._lock_plans.values()
        if plan is not engine_module._PROBE_MISS
    ]
    assert sources
    counter = re.compile(
        r"^\s*(\w+)\.(cycles|blocked_cycles|words_moved|"
        r"cycles_with_traffic|tile_cycles|comm_stalls) \+= \d+$"
    )
    runner_act = re.compile(
        r"^\s*credits\[\d+\] = rn\d+\.run_edges\(.*\) - 1$"
    )
    for source in sources:
        assert "while True" not in source
        writes = []
        for line in source.splitlines():
            if "run_edges" in line:
                assert runner_act.match(line), line
            if line.lstrip().startswith("if "):
                assert re.search(r": return \d+$", line), line
            match = counter.match(line)
            if match:
                writes.append(match.groups())
        assert writes
        assert len(writes) == len(set(writes))
