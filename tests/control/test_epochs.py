"""Epoch runner: equivalence, differential contract, gating, cache."""

import pytest

from repro.arch.chip import Chip, PORT_POSITION
from repro.arch.config import ChipConfig, ColumnConfig
from repro.arch.dou_compiler import Transfer, compile_schedule
from repro.control.epochs import run_governed
from repro.control.governor import Governor, StaticGovernor
from repro.control.transitions import TransitionModel
from repro.errors import ConfigurationError, SimulationError
from repro.isa.assembler import assemble
from repro.sim.engine import CompiledEngine
from repro.sim.simulator import Simulator

SAMPLES = 12


def spin_program(iterations: int):
    return assemble(f"""
        movi r0, 0
        loop {iterations}
          addi r0, r0, 1
        endloop
        halt
    """, "spin")


def build_mixed_divider_chip() -> Chip:
    config = ChipConfig(
        reference_mhz=512.0,
        columns=(ColumnConfig(divider=2), ColumnConfig(divider=4),
                 ColumnConfig(divider=8)),
    )
    return Chip(config, programs=[
        spin_program(300), spin_program(120), spin_program(40),
    ])


def build_streaming_chip() -> Chip:
    """Two columns with live DOU traffic (the dense striding mode)."""
    producer = assemble(f"""
        tmask 0x1
        movi p0, 0
        loop {SAMPLES}
          ld r1, [p0++]
          lsl r1, r1, 1
          send r1
        endloop
        halt
    """, "producer")
    consumer = assemble(f"""
        movi r2, 0
        loop {SAMPLES}
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
        columns=(ColumnConfig(divider=4), ColumnConfig(divider=2)),
        strict_schedules=False,
    )
    chip = Chip(config, programs=[producer, consumer],
                dou_programs=[to_port, fan_out],
                horizontal_dou=horizontal)
    chip.columns[0].tiles[0].load_memory(0, list(range(1, SAMPLES + 1)))
    return chip


class Toggler(Governor):
    """Deterministic divider wiggling across the whole ladder."""

    name = "toggler"

    def __init__(self, patterns):
        self.patterns = tuple(tuple(p) for p in patterns)

    def decide(self, telemetry):
        return self.patterns[
            telemetry.epoch_index % len(self.patterns)
        ]


# ----------------------------------------------------------------------
# the satellite acceptance: epoch-split == un-epoched, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("epoch_ticks", [8, 64, 1000])
@pytest.mark.parametrize("build", [
    build_mixed_divider_chip, build_streaming_chip,
])
def test_constant_governor_epochs_match_plain_compiled_run(
    build, epoch_ticks
):
    plain = Simulator(build(), engine="compiled").run(
        max_ticks=100_000
    )
    governed = run_governed(
        build(), StaticGovernor(), engine="compiled",
        epoch_ticks=epoch_ticks, max_ticks=100_000,
    )
    assert governed.stats == plain
    assert governed.transitions == ()
    assert len(governed.timeline) >= 1
    # collect() never attaches epochs; the attached variant carries
    # the full timeline without disturbing the underlying counters
    assert governed.stats.epochs == ()
    attached = governed.stats_with_epochs
    assert attached.epochs == governed.timeline
    assert attached.columns == plain.columns


# ----------------------------------------------------------------------
# differential: reference == compiled under any governor
# ----------------------------------------------------------------------
@pytest.mark.parametrize("build,patterns", [
    (build_mixed_divider_chip, [(2, 4, 8), (4, 8, 2), (8, 2, 4)]),
    (build_streaming_chip, [(4, 2), (8, 4), (2, 2)]),
])
def test_differential_governed_mixed_dividers(build, patterns):
    governed = {}
    for engine in ("reference", "compiled"):
        governed[engine] = run_governed(
            build(), Toggler(patterns), engine=engine,
            epoch_ticks=64,
            transition_model=TransitionModel(relock_us=0.01),
            max_ticks=200_000,
        )
    reference, compiled = governed["reference"], governed["compiled"]
    assert compiled.stats == reference.stats
    assert compiled.timeline == reference.timeline
    assert compiled.transitions == reference.transitions
    assert compiled.transition_count > 0  # retuning really happened


def test_epoch_activity_deltas_sum_to_run_totals():
    governed = run_governed(
        build_streaming_chip(),
        Toggler([(4, 2), (8, 4)]),
        epoch_ticks=64,
        transition_model=TransitionModel(relock_us=0.01),
    )
    halt_tick = governed.timeline[-1].end_tick
    for column in range(2):
        epoch_cycles = sum(
            e.column_activity[column].tile_cycles
            for e in governed.timeline
        )
        epoch_issued = sum(
            e.column_activity[column].issued
            for e in governed.timeline
        )
        stats_column = governed.stats.column(column)
        # the run's totals exceed the epochs' share only by the
        # post-halt drain bubbles
        assert epoch_issued == stats_column.issued
        drain = governed.stats.reference_ticks - halt_tick
        assert epoch_cycles <= stats_column.tile_cycles \
            <= epoch_cycles + drain


def test_frequency_residency_covers_the_whole_run():
    governed = run_governed(
        build_mixed_divider_chip(),
        Toggler([(2, 4, 8), (4, 4, 8)]),
        epoch_ticks=32,
        transition_model=TransitionModel(relock_us=0.01),
    )
    stats = governed.stats_with_epochs
    for column in range(3):
        residency = stats.frequency_residency(column)
        assert sum(residency.values()) == stats.reference_ticks
    # column 0 toggled between 256 and 128 MHz
    assert set(stats.frequency_residency(0)) == {256.0, 128.0}
    # column 2 never changed
    assert set(stats.frequency_residency(2)) == {64.0}


def test_relock_gating_freezes_the_retuned_column():
    """During the relock window the retuned column gets no edges."""
    relocked = run_governed(
        build_mixed_divider_chip(),
        Toggler([(2, 4, 8), (4, 4, 8)]),
        epoch_ticks=32,
        transition_model=TransitionModel(relock_us=0.05),  # 26 ticks
    )
    instant = run_governed(
        build_mixed_divider_chip(),
        Toggler([(2, 4, 8), (4, 4, 8)]),
        epoch_ticks=32,
        transition_model=TransitionModel(relock_us=0.0),
    )
    # same total work, but the gated run needs more wall-clock ticks
    assert relocked.stats.column(0).issued \
        == instant.stats.column(0).issued
    assert relocked.stats.reference_ticks \
        > instant.stats.reference_ticks


def test_compiled_plan_cache_is_keyed_by_divider_tuple():
    chip = build_mixed_divider_chip()
    engine = CompiledEngine(chip)
    run_governed(
        chip, Toggler([(2, 4, 8), (4, 8, 2), (2, 4, 8)]),
        engine=engine, epoch_ticks=32,
        transition_model=TransitionModel(relock_us=0.0),
    )
    # two distinct operating points -> exactly two compiled plans,
    # regardless of how many epochs revisited them
    assert set(engine._plans) == {(2, 4, 8), (4, 8, 2)}


def test_illegal_epoch_alignment_is_impossible_by_construction():
    """Every epoch END lands on the committed clock's hyperperiod
    grid, so every commit is legal - even with odd epoch_ticks."""
    governed = run_governed(
        build_mixed_divider_chip(),
        Toggler([(2, 4, 8), (4, 8, 2)]),
        epoch_ticks=37,  # not a multiple of the hyperperiod (8)
        transition_model=TransitionModel(relock_us=0.0),
    )
    for epoch in governed.timeline[:-1]:
        assert epoch.end_tick % 8 == 0


def test_off_phase_ladder_with_odd_dividers():
    """A divider-3 epoch entered at an off-phase tick must still
    commit its successor legally (the end tick, not merely the
    duration, is what the hyperperiod grid constrains)."""
    config = ChipConfig(
        reference_mhz=240.0,
        columns=(ColumnConfig(divider=2),),
    )
    def build():
        return Chip(config, programs=[spin_program(200)])

    runs = {}
    for engine in ("reference", "compiled"):
        runs[engine] = run_governed(
            build(), Toggler([(2,), (3,), (2,), (3,)]),
            engine=engine, epoch_ticks=4,
            transition_model=TransitionModel(relock_us=0.0),
        )
    assert runs["compiled"].stats == runs["reference"].stats
    assert runs["compiled"].timeline == runs["reference"].timeline
    assert runs["compiled"].transition_count > 0
    # each full epoch ends on its own clock's grid (the outgoing
    # clock at the next commit); the last may end early at halt
    for epoch in runs["compiled"].timeline[:-1]:
        assert epoch.end_tick % epoch.dividers[0] == 0


def test_direct_retune_off_boundary_is_rejected():
    chip = build_mixed_divider_chip()
    Simulator(chip, engine="reference").engine.advance(3)
    with pytest.raises(ConfigurationError, match="hyperperiod"):
        chip.retune((4, 4, 8))


def test_engine_instance_must_drive_the_governed_chip():
    chip_a, chip_b = build_mixed_divider_chip(), \
        build_mixed_divider_chip()
    with pytest.raises(ConfigurationError, match="different chip"):
        run_governed(chip_a, StaticGovernor(),
                     engine=CompiledEngine(chip_b))


def test_non_positive_epoch_windows_are_rejected():
    for kwargs in ({"epoch_ticks": 0}, {"epoch_ticks": -8},
                   {"epoch_hyperperiods": 0}):
        with pytest.raises(ConfigurationError, match="positive"):
            run_governed(build_mixed_divider_chip(),
                         StaticGovernor(), **kwargs)


def test_budget_error_when_workload_never_halts():
    with pytest.raises(SimulationError, match="exceeded"):
        run_governed(build_streaming_chip(), StaticGovernor(),
                     epoch_ticks=16, max_ticks=48)


def test_budget_parity_with_plain_run_on_partial_final_window():
    """A budget that is not a whole number of epochs still lets the
    chip halt inside the tail, exactly like a plain run would."""
    plain = Simulator(build_mixed_divider_chip(),
                      engine="reference").run()
    drain = 2 * build_mixed_divider_chip().clock.hyperperiod()
    halt_tick = plain.reference_ticks - drain
    budget = halt_tick + 3  # deliberately unaligned tail
    governed = run_governed(
        build_mixed_divider_chip(), StaticGovernor(),
        epoch_ticks=64, max_ticks=budget,
    )
    assert governed.stats == plain


def test_reused_stateful_governor_replays_identically():
    """A reused OccupancyPIGovernor must not leak integral state
    between runs - the cross-engine differential depends on it."""
    from repro.control.governor import OccupancyPIGovernor

    governor = OccupancyPIGovernor((2, 4, 8))
    runs = {}
    for engine in ("reference", "compiled"):
        runs[engine] = run_governed(
            build_streaming_chip(), governor, engine=engine,
            epoch_ticks=64,
            transition_model=TransitionModel(relock_us=0.01),
        )
    assert runs["compiled"].stats == runs["reference"].stats
    assert runs["compiled"].timeline == runs["reference"].timeline
