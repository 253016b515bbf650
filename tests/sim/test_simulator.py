"""Cycle-level simulator end-to-end behaviours."""

import pytest

from repro.errors import SimulationError
from repro.arch.config import ChipConfig, ColumnConfig
from repro.arch.chip import Chip
from repro.arch.dou import DouCycle, DouProgram, DouState, linear_schedule
from repro.isa.assembler import assemble
from repro.sim.simulator import Simulator, run_single_column


def test_mac_kernel_computes_dot_product():
    program = assemble("""
        movi p0, 0
        movi p1, 16
        movi a0, 0
        loop 4
          ld r1, [p0++]
          ld r2, [p1++]
          mac a0, r1, r2
        endloop
        mov r0, a0
        halt
    """)
    chip, stats = run_single_column(
        program,
        memory_images={0: {0: [1, 2, 3, 4], 16: [5, 6, 7, 8]}},
    )
    assert chip.columns[0].tiles[0].regs.read("R0") == 70
    # 3 setup + 4*3 loop body + 1 move = 16 issued instructions
    assert stats.column(0).issued == 16


def test_simd_executes_on_all_tiles_with_per_tile_data():
    program = assemble("""
        tid r0
        movi r1, 10
        mul r2, r0, r1
        halt
    """)
    chip, _ = run_single_column(program)
    values = [t.regs.read("R2") for t in chip.columns[0].tiles]
    assert values == [0, 10, 20, 30]


def test_dou_broadcast_synchronizes_column():
    program = assemble("""
        tid r0
        send r0
        recv r2
        halt
    """)
    cycle = DouCycle(
        closed=frozenset((0, b) for b in range(4)),
        drives=((0, 0),),
        captures=((0, 0), (1, 0), (2, 0), (3, 0)),
    )
    chip, stats = run_single_column(
        program,
        dou_program=linear_schedule([cycle]),
        strict_schedules=False,
        max_ticks=1000,
    )
    received = [t.regs.read("R2") for t in chip.columns[0].tiles]
    assert received == [0, 0, 0, 0]  # tile 0's id broadcast to all


def test_neighbour_exchange_on_disjoint_segments():
    program = assemble("""
        tid r0
        send r0
        recv r2
        halt
    """)
    cycle = DouCycle(
        closed=frozenset({(0, 0), (0, 2)}),
        drives=((0, 0), (2, 0)),
        captures=((0, 0), (1, 0), (2, 0), (3, 0)),
    )
    chip, _ = run_single_column(
        program,
        dou_program=linear_schedule([cycle]),
        strict_schedules=False,
        max_ticks=1000,
    )
    assert [t.regs.read("R2") for t in chip.columns[0].tiles] \
        == [0, 0, 2, 2]


def test_input_port_feeds_tiles():
    # The port position (4) drives split 0 to tile 0.
    program = assemble("""
        recv r0
        recv r1
        add r2, r0, r1
        halt
    """)
    cycle = DouCycle(
        closed=frozenset((0, b) for b in range(4)),
        drives=((4, 0),),
        captures=((0, 0), (1, 0), (2, 0), (3, 0)),
    )
    chip, _ = run_single_column(
        program,
        dou_program=linear_schedule([cycle]),
        input_words=[11, 22] * 4,
        strict_schedules=False,
        max_ticks=1000,
    )
    tile = chip.columns[0].tiles[0]
    assert tile.regs.read("R0") == 11
    assert tile.regs.read("R1") == 22
    assert tile.regs.read("R2") == 33


def test_deadlock_detection():
    program = assemble("recv r0\nhalt")  # nobody ever sends
    with pytest.raises(SimulationError):
        run_single_column(program, max_ticks=500)


def test_two_column_pipeline_through_horizontal_bus():
    """Producer column -> horizontal bus -> consumer column."""
    producer = assemble("""
        movi r0, 5
        loop 4
          addi r0, r0, 1
          send r0
        endloop
        halt
    """)
    consumer = assemble("""
        movi r3, 0
        loop 4
          recv r1
          add r3, r3, r1
        endloop
        halt
    """)
    # Column 0 vertical DOU: tile 0 -> port (position 4).
    v0 = linear_schedule([DouCycle(
        closed=frozenset((0, b) for b in range(4)),
        drives=((0, 0),),
        captures=((4, 0),),
    )])
    # Column 1 vertical DOU: port -> all four tiles.
    v1 = linear_schedule([DouCycle(
        closed=frozenset((0, b) for b in range(4)),
        drives=((4, 0),),
        captures=((0, 0), (1, 0), (2, 0), (3, 0)),
    )])
    horizontal = linear_schedule([DouCycle(
        closed=frozenset({(0, 0)}),
        drives=((0, 0),),
        captures=((1, 0),),
    )])
    config = ChipConfig(
        reference_mhz=100.0,
        columns=(ColumnConfig(), ColumnConfig()),
        strict_schedules=False,
    )
    chip = Chip(config, programs=[producer, consumer],
                dou_programs=[v0, v1], horizontal_dou=horizontal)
    Simulator(chip).run(max_ticks=2000)
    # producer sends 6,7,8,9 -> consumer sums to 30 on every tile
    assert all(
        t.regs.read("R3") == 30 for t in chip.columns[1].tiles
    )


def test_rate_matched_producer_consumer():
    """A 2x-faster producer throttled by ZORM never overruns."""
    producer = assemble("""
        tmask 0x1          ; only tile 0 produces (its buffer is the
                           ; one the DOU drains)
        loop 8
          movi r0, 1
          send r0
        endloop
        halt
    """)
    consumer = assemble("""
        movi r3, 0
        loop 8
          recv r1
          add r3, r3, r1
        endloop
        halt
    """)
    v0 = linear_schedule([DouCycle(
        closed=frozenset((0, b) for b in range(4)),
        drives=((0, 0),),
        captures=((4, 0),),
    )])
    v1 = linear_schedule([DouCycle(
        closed=frozenset((0, b) for b in range(4)),
        drives=((4, 0),),
        captures=((0, 0), (1, 0), (2, 0), (3, 0)),
    )])
    horizontal = linear_schedule([DouCycle(
        closed=frozenset({(0, 0)}),
        drives=((0, 0),),
        captures=((1, 0),),
    )])
    config = ChipConfig(
        reference_mhz=100.0,
        columns=(
            # producer: full rate but throttled 1 nop per 2 issues
            ColumnConfig(divider=1, zorm=(2, 1)),
            ColumnConfig(divider=2),
        ),
        strict_schedules=False,
        buffer_capacity=4,
    )
    chip = Chip(config, programs=[producer, consumer],
                dou_programs=[v0, v1], horizontal_dou=horizontal)
    stats = Simulator(chip).run(max_ticks=4000)
    assert all(t.regs.read("R3") == 8 for t in chip.columns[1].tiles)
    assert stats.column(0).zorm_nops > 0


def test_stats_frequency_helper():
    program = assemble("""
        loop 10
          nop
        endloop
        halt
    """)
    _, stats = run_single_column(program, reference_mhz=200.0)
    cps = stats.cycles_per_sample(0, samples=10)
    assert cps >= 1.0
    assert stats.frequency_for_rate(0, 10, 2.0) == pytest.approx(
        cps * 2.0
    )
