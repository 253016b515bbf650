"""Two clock domains end to end on a built chip.

A producer column at 120 MHz (divider 5 off a 600 MHz reference)
streams scaled samples through the horizontal bus into a consumer
column at 200 MHz (divider 3) - the Section 2 DDC front-end topology
with real programs, compiled DOU schedules, rationally related clocks,
and voltage-crossing buffers absorbing the rate mismatch.
"""

import pytest

from repro.arch.builder import build_chip_plan
from repro.arch.chip import Chip, PORT_POSITION
from repro.arch.dou_compiler import Transfer, compile_schedule
from repro.isa.assembler import assemble
from repro.sdf.graph import SdfGraph
from repro.sdf.mapping import ColumnAssignment, SdfMapper
from repro.sim.simulator import Simulator

SAMPLES = 12


@pytest.fixture(scope="module")
def pipeline_chip():
    graph = SdfGraph("front-end")
    graph.add_actor("producer", cycles_per_firing=7.5)
    graph.add_actor("consumer", cycles_per_firing=12.5)
    graph.add_edge("producer", "consumer", produce=1, consume=1)
    app = SdfMapper().map(graph, [
        ColumnAssignment("Producer", ("producer",), 4),
        ColumnAssignment("Consumer", ("consumer",), 4),
    ], iteration_rate_msps=64.0)
    # Permissive schedules: the compiled DOU patterns are free-running
    # (they retry until data arrives) rather than cycle-exact.
    plan = build_chip_plan(app, reference_mhz=600.0,
                           strict_schedules=False)

    producer = assemble(f"""
        tmask 0x1            ; tile 0 owns the output stream
        movi p0, 0
        loop {SAMPLES}
          ld r1, [p0++]
          lsl r1, r1, 1      ; x2 "mix"
          send r1
        endloop
        halt
    """, "producer")
    consumer = assemble(f"""
        movi r2, 0
        loop {SAMPLES}
          recv r1
          add r2, r2, r1     ; running integrator
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
        [[Transfer(src=0, dsts=(1,))]],
        n_positions=2, name="hbus",
    )
    chip = Chip(
        plan.config,
        programs=[producer, consumer],
        dou_programs=[to_port, fan_out],
        horizontal_dou=horizontal,
    )
    chip.columns[0].tiles[0].load_memory(0, list(range(1, SAMPLES + 1)))
    stats = Simulator(chip).run(max_ticks=100_000)
    return chip, stats, plan


def test_clock_plan_matches_section2(pipeline_chip):
    _, _, plan = pipeline_chip
    config = plan.config
    assert config.columns[0].divider == 5   # 120 MHz
    assert config.columns[1].divider == 3   # 200 MHz
    assert config.resolve_voltages() == (0.8, 1.0)


def test_data_crosses_the_domains_correctly(pipeline_chip):
    chip, _, _ = pipeline_chip
    expected = sum(2 * x for x in range(1, SAMPLES + 1))
    for tile in chip.columns[1].tiles:
        assert tile.regs.read_signed("R2") == expected


def test_faster_consumer_stalls_on_the_slower_producer(pipeline_chip):
    """The 200 MHz consumer outruns the 120 MHz producer and waits in
    its RECV - absorbed by the buffers, not by failure."""
    chip, stats, _ = pipeline_chip
    assert chip.columns[1].comm_stalls > 0
    assert stats.column(1).issued == 1 + 2 * SAMPLES


def test_clock_ratio_observed(pipeline_chip):
    """Tile cycles accrue at the rational clock ratio (5:3 dividers)."""
    chip, stats, _ = pipeline_chip
    ratio = stats.column(1).tile_cycles / stats.column(0).tile_cycles
    assert ratio == pytest.approx(5.0 / 3.0, rel=0.05)


def test_every_word_crossed_the_horizontal_bus(pipeline_chip):
    _, stats, _ = pipeline_chip
    assert stats.horizontal_words == SAMPLES
