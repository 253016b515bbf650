"""Engine layer: the reference/compiled differential.

The compiled engine's contract is bit-identical ``SimulationStats``
to the tick-accurate reference engine on any chip; these tests
enforce it on the configurations the acceptance criteria name: the
DDC front-end pipeline, a WLAN kernel, and multi-column mixed-divider
chips, with and without a DOU to step.
"""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.arch.chip import Chip, PORT_POSITION
from repro.arch.config import ChipConfig, ColumnConfig
from repro.arch.dou_compiler import Transfer, compile_schedule
from repro.eval.engines import WORKLOADS
from repro.isa.assembler import assemble
from repro.kernels.base import run_kernel
from repro.kernels.viterbi_acs import build_acs_kernel
from repro.sim.engine import (
    CompiledEngine,
    ReferenceEngine,
    create_engine,
)
from repro.sim.simulator import Simulator, run_single_column

SAMPLES = 12


def spin_program(iterations: int):
    return assemble(f"""
        movi r0, 0
        loop {iterations}
          addi r0, r0, 1
        endloop
        halt
    """, "spin")


def build_ddc_front_end() -> Chip:
    """The Section 2 DDC front-end: mixer 120 MHz -> CIC 200 MHz.

    Two columns at dividers 5 and 3 off a 600 MHz reference, streaming
    through compiled DOU schedules and the horizontal bus - the same
    topology as the full-flow integration test.
    """
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
        reference_mhz=600.0,
        columns=(ColumnConfig(divider=5), ColumnConfig(divider=3)),
        strict_schedules=False,
    )
    chip = Chip(config, programs=[producer, consumer],
                dou_programs=[to_port, fan_out],
                horizontal_dou=horizontal)
    chip.columns[0].tiles[0].load_memory(0, list(range(1, SAMPLES + 1)))
    return chip


def build_mixed_divider_chip() -> Chip:
    """Compute-only columns at dividers 2/4/8, staggered halt times."""
    config = ChipConfig(
        reference_mhz=800.0,
        columns=(ColumnConfig(divider=2), ColumnConfig(divider=4),
                 ColumnConfig(divider=8)),
    )
    return Chip(config, programs=[
        spin_program(300), spin_program(120), spin_program(40),
    ])


# ----------------------------------------------------------------------
# differential: compiled == reference, bit for bit
# ----------------------------------------------------------------------
def test_differential_ddc_front_end_pipeline():
    reference = Simulator(build_ddc_front_end(),
                          engine="reference").run(max_ticks=100_000)
    compiled = Simulator(build_ddc_front_end(),
                         engine="compiled").run(max_ticks=100_000)
    assert compiled == reference


def test_differential_wlan_viterbi_acs_kernel():
    reference = run_kernel(build_acs_kernel(), engine="reference")
    compiled = run_kernel(build_acs_kernel(), engine="compiled")
    assert compiled.stats == reference.stats


def test_differential_multi_column_mixed_dividers():
    reference = Simulator(build_mixed_divider_chip(),
                          engine="reference").run()
    compiled = Simulator(build_mixed_divider_chip(),
                         engine="compiled").run()
    assert compiled == reference
    # Staggered halts really exercised the owed-edge reconstruction.
    assert compiled.column(0).bubbles > 0
    assert compiled.column(2).bubbles > 0


@pytest.mark.parametrize("workload", ["fir", "mixed_dividers"])
def test_zero_dou_chip_takes_no_lockstep_safepoint(monkeypatch, workload):
    """With no DOU to step, even a long ``run()`` window is orbit
    batch events alone: it never computes a lockstep signature."""
    _, run = WORKLOADS[workload]
    signatures = []
    signature = CompiledEngine._lock_signature

    def counted(engine, tick, period):
        signatures.append(tick)
        return signature(engine, tick, period)

    monkeypatch.setattr(CompiledEngine, "_lock_signature", counted)
    assert run("compiled") == run("reference")
    assert signatures == []


@pytest.mark.parametrize("divider", [1, 3, 4])
def test_differential_single_column_sweep(divider):
    program = spin_program(25)
    _, reference = run_single_column(program, divider=divider,
                                     engine="reference")
    _, compiled = run_single_column(program, divider=divider,
                                    engine="compiled")
    assert compiled == reference


def test_compiled_architectural_state_matches():
    """Not just stats: the architectural end state agrees too."""
    chips = {}
    for engine in ("reference", "compiled"):
        chip = build_ddc_front_end()
        Simulator(chip, engine=engine).run(max_ticks=100_000)
        chips[engine] = chip
    for reference_col, compiled_col in zip(
        chips["reference"].columns, chips["compiled"].columns
    ):
        for ref_tile, cmp_tile in zip(reference_col.tiles,
                                      compiled_col.tiles):
            assert cmp_tile.regs.read("R2") == ref_tile.regs.read("R2")


# ----------------------------------------------------------------------
# run() contract parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["reference", "compiled"])
def test_deadlock_detection_per_engine(engine):
    program = assemble("recv r0\nhalt")  # nobody ever sends
    with pytest.raises(SimulationError, match="exceeded 500"):
        run_single_column(program, max_ticks=500, engine=engine)


@pytest.mark.parametrize("engine", ["reference", "compiled"])
def test_deadlock_detection_mixed_dividers(engine):
    config = ChipConfig(
        reference_mhz=800.0,
        columns=(ColumnConfig(divider=2), ColumnConfig(divider=8)),
    )
    chip = Chip(config, programs=[
        spin_program(10), assemble("recv r0\nhalt"),
    ])
    with pytest.raises(SimulationError, match="exceeded 400"):
        Simulator(chip, engine=engine).run(max_ticks=400)


@pytest.mark.parametrize("build_chip", [
    build_mixed_divider_chip, build_ddc_front_end,
])
def test_budget_boundary_matches_reference(build_chip):
    """Engines agree at the exact max_ticks budget boundary.

    The reference loop spends one iteration observing all_halted after
    the final step, so a chip halting on its last in-budget tick still
    raises; the compiled engine must reproduce that exactly.
    """
    generous = Simulator(build_chip(), engine="reference").run(
        max_ticks=100_000
    )
    hyperperiod = build_chip().clock.hyperperiod()
    halt_tick = generous.reference_ticks - 2 * hyperperiod
    for engine in ("reference", "compiled"):
        with pytest.raises(SimulationError):
            Simulator(build_chip(), engine=engine).run(
                max_ticks=halt_tick
            )
        stats = Simulator(build_chip(), engine=engine).run(
            max_ticks=halt_tick + 1
        )
        assert stats == generous


def test_manual_stepping_then_run():
    """Step a few reference ticks by hand, then run() compiled."""
    reference = Simulator(build_mixed_divider_chip(),
                          engine="reference").run()
    sim = Simulator(build_mixed_divider_chip(), engine="compiled")
    for _ in range(5):
        sim.chip.step_reference_tick()
    assert sim.chip.reference_ticks == 5
    assert sim.run() == reference


# ----------------------------------------------------------------------
# bounded windows (the epoch primitive)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("window", [1, 7, 64, 1000])
def test_advance_matches_reference_stepping(window):
    """advance(n) is bit-identical to n reference ticks on any chip."""
    reference = build_ddc_front_end()
    compiled = build_ddc_front_end()
    ref_engine = ReferenceEngine(reference)
    cmp_engine = CompiledEngine(compiled)
    while True:
        consumed_ref = ref_engine.advance(window)
        consumed_cmp = cmp_engine.advance(window)
        assert consumed_cmp == consumed_ref
        from repro.sim.stats import collect
        assert collect(compiled) == collect(reference)
        if consumed_ref < window:
            break
    assert reference.all_halted and compiled.all_halted


def test_advance_stops_at_the_halt_observation_tick():
    chip = build_mixed_divider_chip()
    halted = Simulator(build_mixed_divider_chip(),
                       engine="reference").run()
    engine = CompiledEngine(chip)
    consumed = engine.advance(10_000_000)
    # run() drains two hyperperiods past the halt observation tick.
    drain = 2 * chip.clock.hyperperiod()
    assert consumed == halted.reference_ticks - drain
    assert engine.advance(100) == 0  # already halted: consumes nothing


# ----------------------------------------------------------------------
# factory / facade
# ----------------------------------------------------------------------
def test_create_engine_rejects_unknown_name():
    """Unknown engine names are a configuration mistake, not a
    simulation failure - callers can catch them separately."""
    with pytest.raises(ConfigurationError, match="unknown engine"):
        create_engine("warp", build_mixed_divider_chip())
    with pytest.raises(ConfigurationError, match="unknown engine"):
        create_engine("auto", build_mixed_divider_chip())
    with pytest.raises(ConfigurationError, match="available"):
        Simulator(build_mixed_divider_chip(), engine="warp")


def test_auto_engine_defaults_to_compiled():
    """The simulator's default engine is the compiled one, and it
    matches the reference bit for bit."""
    sim = Simulator(build_mixed_divider_chip())
    assert isinstance(sim.engine, CompiledEngine)
    assert sim.run() == Simulator(build_mixed_divider_chip(),
                                  engine="reference").run()


def test_simulator_accepts_engine_instance():
    chip = build_mixed_divider_chip()
    sim = Simulator(chip, engine=CompiledEngine(chip))
    assert sim.run() == Simulator(build_mixed_divider_chip()).run()
