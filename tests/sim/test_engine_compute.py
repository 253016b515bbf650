"""Compute-plane compilation differentials: runner vs reference.

The compiled engine pre-executes column compute through three layers -
per-run generated code blocks, loop iteration inside one runner call
(closed form for affine ADDI/NOP bodies), and comm-headed run issue
with lightweight ENDLOOP resolution.  Each layer must be invisible:
statistics and architectural state bit-identical to the reference
engine, errors raised with the same message from the same cross-tile
ordering.

These tests drive every dispatch kind the runner compiles (straight
runs, loop plans, comm-headed runs, light loop ends) plus the shapes
it must *refuse* (branches, dynamic TMASK) and the fallbacks it must
take (bounds pre-check failure), always differentially.
"""

import pytest

from repro.errors import SimulationError
from repro.arch.chip import Chip
from repro.arch.config import ChipConfig, ColumnConfig
from repro.arch.dou_compiler import exchange_schedule
from repro.isa.assembler import assemble
from repro.sim.engine import CompiledEngine
from repro.sim.simulator import Simulator, run_single_column


def _differential(source, divider=1, memory_images=None,
                  dou_program=None, strict=True, max_ticks=200_000):
    """Run one program under both engines; stats and registers agree.

    Returns the compiled-engine chip for extra architectural asserts.
    """
    program = assemble(source)
    chips = {}
    stats = {}
    for engine in ("reference", "compiled"):
        chip, run_stats = run_single_column(
            program,
            dou_program=dou_program,
            divider=divider,
            memory_images=memory_images,
            strict_schedules=strict,
            max_ticks=max_ticks,
            engine=engine,
        )
        chips[engine] = chip
        stats[engine] = run_stats
    assert stats["compiled"] == stats["reference"]
    for ref_tile, cmp_tile in zip(chips["reference"].columns[0].tiles,
                                  chips["compiled"].columns[0].tiles):
        assert cmp_tile.regs._values == ref_tile.regs._values
        assert cmp_tile.memory == ref_tile.memory
    return chips["compiled"]


# ----------------------------------------------------------------------
# arithmetic semantics through the generated code blocks
# ----------------------------------------------------------------------
def test_signed_arithmetic_block_semantics():
    """MIN/MAX/NEG/ABS/ASR on negative values, exact two's-complement."""
    chip = _differential("""
        movi r1, 0
        movi r2, 5
        sub r1, r1, r2      ; r1 = -5
        min r3, r1, r2
        max r4, r1, r2
        abs r5, r1
        neg r6, r2
        asr r7, r1, 1       ; arithmetic: -3
        lsr r0, r1, 1       ; logical: huge positive
        halt
    """)
    tile = chip.columns[0].tiles[0]
    assert tile.regs.read_signed("R3") == -5
    assert tile.regs.read_signed("R4") == 5
    assert tile.regs.read("R5") == 5
    assert tile.regs.read_signed("R6") == -5
    assert tile.regs.read_signed("R7") == -3
    assert tile.regs.read("R0") == (-5 & 0xFFFFFFFF) >> 1


def test_multiply_and_mac_block_semantics():
    """MUL/MULH 32x32 and the 40-bit signed MAC accumulator."""
    chip = _differential("""
        movi r1, 0
        movi r2, 70000
        sub r1, r1, r2      ; r1 = -70000
        mul r3, r2, r2      ; low 32 of 4.9e9: wraps
        mulh r4, r2, r2     ; high 32
        mac a0, r1, r2      ; A0 = -4.9e9 in 40-bit two's complement
        mac a0, r1, r2
        halt
    """)
    tile = chip.columns[0].tiles[0]
    assert tile.regs.read("R3") == (70000 * 70000) & 0xFFFFFFFF
    assert tile.regs.read("R4") == (70000 * 70000) >> 32
    assert tile.regs.read_signed("A0") == -2 * 70000 * 70000
    assert tile.mac_operations == 2


def test_memory_walk_with_post_increment():
    """LD/ST pointer walks, including the dst==ptr aliasing case."""
    words = list(range(10, 42))
    chip = _differential("""
        movi p0, 0
        movi p1, 16
        movi r2, 0
        loop 16
          ld r1, [p0++]
          add r2, r2, r1
          st [p1++], r2
        endloop
        ld p0, [p0]         ; dst aliases the post-read pointer
        halt
    """, memory_images={t: {0: words} for t in range(4)})
    tile = chip.columns[0].tiles[0]
    assert tile.regs.read("R2") == sum(words[:16])
    # mem[16..31] holds the running prefix sums of words[0..15].
    assert tile.memory[16] == words[0]
    assert tile.memory[31] == sum(words[:16])


# ----------------------------------------------------------------------
# shapes the runner must refuse or fall back on
# ----------------------------------------------------------------------
def test_branches_stay_differential():
    """Backward BNE off tile 0's register: control stays reference."""
    _differential("""
        movi r0, 6
        movi r1, 1
        movi r2, 0
        again:
          add r2, r2, r0
          sub r0, r0, r1
          bne r0, again
        halt
    """)


def test_tmask_phases_stay_differential():
    """Mask changes partition the run; per-tile divergence is exact."""
    chip = _differential("""
        tmask 0x3
        movi r1, 10
        tmask 0xF
        addi r1, r1, 5
        tmask 0x1
        addi r1, r1, 100
        tmask 0xF
        halt
    """)
    values = [t.regs.read("R1") for t in chip.columns[0].tiles]
    assert values == [115, 15, 5, 5]


def test_ld_bounds_error_matches_reference():
    """Both engines raise the same error from the same tile.

    Tile 0 stays in bounds; tile 1's TID-derived address is the first
    out-of-bounds access, so the generated block's pre-check must
    refuse the whole run and the scalar fallback must surface tile 1's
    error - not tile 0's partial progress, not a different tile.
    """
    source = """
        tid r1
        lsl r1, r1, 13      ; tile i -> address 8192*i
        movi p0, 0
        add p0, p0, r1
        ld r2, [p0]
        halt
    """
    program = assemble(source)
    errors = {}
    for engine in ("reference", "compiled"):
        with pytest.raises(SimulationError) as info:
            run_single_column(program, engine=engine)
        errors[engine] = str(info.value)
    assert errors["compiled"] == errors["reference"]
    assert "tile 1" in errors["reference"]


# ----------------------------------------------------------------------
# comm-headed runs and light ENDLOOP resolution
# ----------------------------------------------------------------------
def test_comm_headed_exchange_loop():
    """SEND/RECV at run heads inside a loop with a compute tail.

    The neighbour-exchange kernel shape: comm instructions may only
    issue as the first edge of a runner call (their buffer effects
    must land at exactly the current tick), and the loop's ENDLOOP
    resolves through the lightweight path because the body contains
    comm and therefore compiles no closed-form loop plan.
    """
    chip = _differential("""
        movi r2, 1
        movi r3, 0
        loop 20
          send r2
          recv r1
          add r3, r3, r1
          addi r2, r2, 1
        endloop
        mov r0, r3
        halt
    """, dou_program=exchange_schedule(), strict=False, divider=3)
    # Every tile swapped with its neighbour each iteration: the sums
    # are equal because both sides send the same series.
    values = [t.regs.read("R0") for t in chip.columns[0].tiles]
    assert values == [sum(range(1, 21))] * 4


def test_comm_headed_send_only_stream():
    """A SEND-headed producer into a pairwise exchange, no RECV."""
    _differential("""
        tmask 0x5           ; tiles 0 and 2 produce
        movi r1, 3
        loop 6
          send r1
          addi r1, r1, 2
        endloop
        halt
    """, dou_program=exchange_schedule(), strict=False, divider=2)


# ----------------------------------------------------------------------
# compiled loops
# ----------------------------------------------------------------------
def _run_compiled(config, program, prepare=lambda chip: None):
    """Reference stats, compiled stats, the compiled chip and engine."""

    def build():
        chip = Chip(config, programs=[program])
        prepare(chip)
        return chip

    reference = Simulator(build(), engine="reference").run()
    chip = build()
    engine = CompiledEngine(chip)
    return reference, engine.run(), chip, engine


def test_long_fir_loop_runs_in_one_runner_call():
    """A long LD/LD/MAC loop runs its body once per iteration, every
    iteration inside the same runner call."""
    taps = 4096
    program = assemble(f"""
        movi p0, 0
        movi p1, {taps}
        loop {taps}
          ld r1, [p0++]
          ld r2, [p1++]
          mac a0, r1, r2
        endloop
        halt
    """)
    config = ChipConfig(
        reference_mhz=100.0,
        columns=(ColumnConfig(divider=1),),
        memory_words=2 * taps + 8,
    )
    samples = [(i * 7 + 3) & 0xFFFF for i in range(taps)]
    coeffs = [(i * 5 + 1) & 0xFF for i in range(taps)]

    def load(chip):
        for tile in chip.columns[0].tiles:
            tile.load_memory(0, samples)
            tile.load_memory(taps, coeffs)

    reference, compiled, chip, engine = _run_compiled(
        config, program, load,
    )
    assert compiled == reference
    expected = sum(a * b for a, b in zip(samples, coeffs))
    assert chip.columns[0].tiles[0].regs.read_signed("A0") == expected
    profile = engine.profile_snapshot()
    assert profile["runner_edges"] >= 3 * taps
    assert profile["vector_batches"] == 0


def test_affine_loop_settles_in_closed_form():
    """An ADDI/NOP loop body settles every iteration in one batch,
    with the counters wrapped exactly as the reference wraps them."""
    trips = 1000
    program = assemble(f"""
        movi r1, 0
        movi r2, 5
        loop {trips}
          addi r1, r1, 3
          nop
          addi r2, r2, -7
        endloop
        halt
    """)
    config = ChipConfig(
        reference_mhz=100.0, columns=(ColumnConfig(divider=2),),
    )
    reference, compiled, chip, engine = _run_compiled(config, program)
    assert compiled == reference
    for tile in chip.columns[0].tiles:
        assert tile.regs.read("R1") == 3 * trips
        assert tile.regs.read_signed("R2") == 5 - 7 * trips
    profile = engine.profile_snapshot()
    assert profile["vector_batches"] == 1
    assert profile["vector_iterations"] == trips
