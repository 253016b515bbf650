"""Multi-state orbit batching and comm-parked column differentials.

The compiled engine's batching fast path settles three things
arithmetically that the reference engine steps tick by tick: DOUs
walking a closed orbit of states where no word can move, columns
parked on a RECV against empty buffers, and columns parked on a SEND
against full ones.  These tests pin the generalizations past the
original single-state/RECV-only fast path:

* period-2 and period-3 starved orbits (multi-state unconditional
  cycles, including an idle state inside a transferring orbit);
* SEND-parked columns under sustained backpressure, both the
  bounded-window deadlock shape and a run-to-completion pipeline;
* a runtime retune landing while a column is comm-parked (the
  governed epoch layer's hazard case), and relock gates that end
  inside, at the end of, or windows after the epoch that set them.

Every case is differential - the compiled engine must stay
bit-identical to the reference engine - and the batching paths are
asserted to have actually engaged via the engine's event counters,
so a regression that silently falls back to dense stepping fails too.
"""

import pytest

from repro.arch.chip import Chip, PORT_POSITION
from repro.arch.config import ChipConfig, ColumnConfig
from repro.arch.dou_compiler import Transfer, compile_schedule
from repro.isa.assembler import assemble
from repro.sim.engine import CompiledEngine, ReferenceEngine
from repro.sim.simulator import Simulator
from repro.sim.stats import collect


def _exchange_cycles(period: int) -> list:
    """Pairwise-exchange transfer cycles padded to ``period`` states.

    Cycle 0 swaps tiles 0<->1, cycle 1 swaps 2<->3; a third state (for
    ``period=3``) is an idle cycle - transfer-free states must stay
    orbit-eligible inside a transferring orbit.
    """
    cycles = [
        [Transfer(src=0, dsts=(1,)), Transfer(src=1, dsts=(0,))],
        [Transfer(src=2, dsts=(3,)), Transfer(src=3, dsts=(2,))],
    ]
    if period == 3:
        cycles.append([])
    return cycles


def build_orbit_chip(period: int, steps: int = 24) -> Chip:
    """One column whose DOU walks a period-``period`` orbit.

    Every tile sends then receives each iteration; the exchange is
    spread over the orbit's states, and the compute tail between
    communications starves every state - the span the compiled engine
    must settle in one jump per column edge.
    """
    program = assemble(f"""
        movi r3, 0
        loop {steps}
          movi r1, 5
          send r1
          recv r2
          add r3, r3, r2
          addi r3, r3, 1
          addi r3, r3, 1
        endloop
        halt
    """, "exchange-compute")
    schedule = compile_schedule(
        _exchange_cycles(period), name=f"orbit{period}"
    )
    config = ChipConfig(
        reference_mhz=600.0,
        columns=(ColumnConfig(divider=5),),
        strict_schedules=False,
    )
    return Chip(config, programs=[program], dou_programs=[schedule])


@pytest.mark.parametrize("period", [2, 3])
def test_starved_orbit_differential(period):
    """Period-2/3 orbits: bit-identical stats, batching engaged."""
    reference = Simulator(build_orbit_chip(period),
                          engine="reference").run(max_ticks=100_000)
    chip = build_orbit_chip(period)
    # The orbit really has the advertised period - otherwise the test
    # exercises the single-state path it is meant to generalize.
    dou = chip.columns[0].dou
    assert any(
        orbit is not None and len(orbit) == period
        for orbit in dou._orbits
    )
    engine = CompiledEngine(chip)
    compiled = engine.run(max_ticks=100_000)
    assert compiled == reference
    assert engine.profile_snapshot()["batch_events"] > 0


@pytest.mark.parametrize("period", [2, 3])
def test_starved_orbit_architectural_state(period):
    """Not just stats: per-tile register state agrees too."""
    chips = {}
    for engine in ("reference", "compiled"):
        chip = build_orbit_chip(period)
        Simulator(chip, engine=engine).run(max_ticks=100_000)
        chips[engine] = chip
    for ref_tile, cmp_tile in zip(chips["reference"].columns[0].tiles,
                                  chips["compiled"].columns[0].tiles):
        assert cmp_tile.regs.read("R3") == ref_tile.regs.read("R3")


# ----------------------------------------------------------------------
# SEND-parked columns
# ----------------------------------------------------------------------
def build_choked_sender() -> Chip:
    """A column sending into a buffer nobody drains.

    Tile 0 streams words through the DOU into tile 1's read buffer;
    the program never RECVs, so once the read buffer (capacity 8)
    backs up the DOU stops capturing, the write buffer fills, and the
    column parks on SEND forever - sustained backpressure with no
    release, the pure SEND-parked batching shape.
    """
    program = assemble("""
        tmask 0x1
        movi r1, 9
        loop 64
          send r1
          addi r1, r1, 1
        endloop
        halt
    """, "choked-sender")
    schedule = compile_schedule(
        [[Transfer(src=0, dsts=(1,))]], name="to-neighbour"
    )
    config = ChipConfig(
        reference_mhz=600.0,
        columns=(ColumnConfig(divider=4),),
        strict_schedules=False,
    )
    return Chip(config, programs=[program], dou_programs=[schedule])


def test_send_parked_column_bounded_window_differential():
    """A permanently parked sender: windows agree edge for edge.

    The run can never complete (the reader is the test, not a
    program), so the differential runs over bounded ``advance``
    windows - which is exactly where parked-edge settlement must
    charge the right number of stall cycles at every window end.
    """
    ref_chip, cmp_chip = build_choked_sender(), build_choked_sender()
    ref_engine = ReferenceEngine(ref_chip)
    cmp_engine = CompiledEngine(cmp_chip)
    for window in (37, 500, 2_000):
        assert cmp_engine.advance(window) == ref_engine.advance(window)
        assert collect(cmp_chip) == collect(ref_chip)
    # The column really parked on SEND and the compiled engine really
    # settled those edges arithmetically.
    assert cmp_chip.columns[0].blocked_on_send()
    assert cmp_chip.columns[0].comm_stalls > 0
    assert cmp_engine.profile_snapshot()["parked_edges"] > 0


def build_backpressure_pipeline(samples: int = 48) -> Chip:
    """Fast producer, slow consumer: SEND parking that releases.

    The producer column (divider 2) can generate words far faster
    than the consumer column (divider 36) retires them, so its write
    buffer saturates and it spends most of the run parked on SEND -
    but every consumer RECV eventually releases it, and the run
    completes.
    """
    producer = assemble(f"""
        tmask 0x1
        movi r1, 0
        loop {samples}
          addi r1, r1, 3
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
        reference_mhz=600.0,
        columns=(ColumnConfig(divider=2), ColumnConfig(divider=36)),
        strict_schedules=False,
        port_capacity=4,
    )
    return Chip(config, programs=[producer, consumer],
                dou_programs=[to_port, fan_out],
                horizontal_dou=horizontal)


def test_send_parked_pipeline_runs_to_completion():
    reference = Simulator(build_backpressure_pipeline(),
                          engine="reference").run(max_ticks=200_000)
    chip = build_backpressure_pipeline()
    engine = CompiledEngine(chip)
    compiled = engine.run(max_ticks=200_000)
    assert compiled == reference
    # Sustained backpressure: the producer stalled on SEND a lot, and
    # the batcher settled parked edges rather than stepping them.
    assert compiled.column(0).comm_stalls > 100
    assert engine.profile_snapshot()["parked_edges"] > 0
    # The integrator really saw every word (48 sends of 3,6,...,144).
    expected = sum(3 * (i + 1) for i in range(48))
    assert chip.columns[1].tiles[0].regs.read("R2") == expected


# ----------------------------------------------------------------------
# retune while parked (the governed epoch layer's hazard case)
# ----------------------------------------------------------------------
def test_retune_mid_parked_window_differential():
    """A runtime retune lands while the producer is SEND-parked.

    Drives both engines through the same epoch sequence by hand the
    way :mod:`repro.control.epochs` does: advance to a hyperperiod
    boundary (the producer is deep in backpressure parking by then),
    retune the dividers, gate the retuned column for relock, and run
    out.  The compiled engine recompiles its clock plan mid-run and
    must stay bit-identical through the parked/retune interleaving.
    """
    ref_chip = build_backpressure_pipeline()
    cmp_chip = build_backpressure_pipeline()
    ref_engine = ReferenceEngine(ref_chip)
    cmp_engine = CompiledEngine(cmp_chip)
    hyperperiod = ref_chip.clock.hyperperiod()
    window = 20 * hyperperiod
    assert cmp_engine.advance(window) == ref_engine.advance(window)
    assert collect(cmp_chip) == collect(ref_chip)
    # Both copies must actually be parked when the retune commits.
    assert ref_chip.columns[0].parked_on_comm()
    assert cmp_chip.columns[0].parked_on_comm()
    for chip in (ref_chip, cmp_chip):
        chip.retune((3, 24))
        chip.clock_gate_until[1] = chip.reference_ticks + 30
    consumed_ref = ref_engine.advance(400_000)
    consumed_cmp = cmp_engine.advance(400_000)
    assert consumed_cmp == consumed_ref
    assert ref_chip.all_halted and cmp_chip.all_halted
    assert collect(cmp_chip) == collect(ref_chip)


@pytest.mark.parametrize("window", [48, 1000])
@pytest.mark.parametrize("gated", [(0,), (1,), (0, 1)],
                         ids=["column0", "column1", "both"])
@pytest.mark.parametrize("gate", [1, 30, 48, 97, 1000, 5000])
def test_relock_gate_credits_differential(gate, gated, window):
    """Relock gates enter the compiled engine as edge credits.

    The same retune as above, then windowed epochs: gates that end
    inside the first window, exactly at its end, or several windows
    later must skip exactly the edges the reference loop skips, and
    each window must burn every credit it granted.
    """
    ref_chip = build_backpressure_pipeline()
    cmp_chip = build_backpressure_pipeline()
    ref_engine = ReferenceEngine(ref_chip)
    cmp_engine = CompiledEngine(cmp_chip)
    for engine in (ref_engine, cmp_engine):
        chip = engine.chip
        engine.advance(20 * chip.clock.hyperperiod())
        chip.retune((3, 24))
        for index in gated:
            chip.clock_gate_until[index] = chip.reference_ticks + gate
    while not ref_chip.all_halted:
        consumed = ref_engine.advance(window)
        assert cmp_engine.advance(window) == consumed
        assert collect(cmp_chip) == collect(ref_chip)
        assert cmp_engine._credits == [0, 0]
    assert cmp_chip.all_halted


def test_governed_scenario_differential():
    """The full governed stack end to end, reference vs compiled."""
    from repro.workloads.coordinated import run_pipeline
    from repro.workloads.dvfs import wlan_mcs_scenario

    results = {
        engine: run_pipeline(
            wlan_mcs_scenario(frames=4), "occupancy_pi", engine=engine
        )
        for engine in ("reference", "compiled")
    }
    assert results["compiled"].run.stats == results["reference"].run.stats
