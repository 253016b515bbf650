"""Parked DOUs: a finite-``repeat`` program that idles forever.

A ``repeat=k`` DOU program is statically *live* (its reset state
transfers) but parks in a closed idle orbit once its repeats are
done.  The compiled engine keeps stepping it - the parked orbit is a
no-progress orbit, so its idle stretches batch arithmetically - and
these tests pin that the statistics, and every DOU counter the
statistics do not carry, stay bit-identical to the reference engine
through the park, retunes, and governed runs.
"""

import pytest

from repro.arch.chip import Chip
from repro.arch.config import ChipConfig, ColumnConfig
from repro.arch.dou_compiler import broadcast_schedule
from repro.control.epochs import run_governed
from repro.control.governor import Governor
from repro.isa.assembler import assemble
from repro.sim.engine import CompiledEngine, ReferenceEngine
from repro.sim.simulator import Simulator
from repro.sim.stats import collect

#: Words broadcast by the parking DOU before it idles forever.
WORDS = 6
#: Compute iterations that keep the column busy long after the park.
SPIN = 400


def _worker_program():
    return assemble(f"""
        loop {WORDS}
          recv r1
          add r2, r2, r1
        endloop
        movi r0, 0
        loop {SPIN}
          addi r0, r0, 1
        endloop
        halt
    """, "worker")


def build_parked_dou_chip(second_column: bool = False) -> Chip:
    """Column 0 broadcasts WORDS words then its DOU parks forever.

    The broadcast schedule uses ``repeat=WORDS``: statically live,
    dynamically quiescent after WORDS bus cycles - long before the
    column finishes its compute tail.  The words are primed into the
    write buffer so every transfer cycle succeeds under strict
    schedules.  ``second_column`` adds a compute-only column at a
    deeper divider so halts stagger and the engine switches striding
    modes mid-run.
    """
    columns = [ColumnConfig(divider=3)]
    programs = [_worker_program()]
    dous = [broadcast_schedule(src=0, repeat=WORDS)]
    if second_column:
        columns.append(ColumnConfig(divider=8))
        programs.append(assemble(f"""
            movi r0, 0
            loop {SPIN // 2}
              addi r0, r0, 1
            endloop
            halt
        """, "spinner"))
        dous.append(None)
    config = ChipConfig(
        reference_mhz=600.0,
        columns=tuple(columns),
    )
    chip = Chip(config, programs=programs, dou_programs=dous)
    for value in range(1, WORDS + 1):
        chip.columns[0].tiles[0].write_buffer.push(value)
    return chip


# ----------------------------------------------------------------------
# differential: parked repeat=k programs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("second_column", [False, True])
def test_differential_parked_dou(second_column):
    chips = {}
    stats = {}
    for engine in ("reference", "compiled"):
        chip = build_parked_dou_chip(second_column)
        stats[engine] = Simulator(chip, engine=engine).run()
        chips[engine] = chip
    assert stats["compiled"] == stats["reference"]
    # The words really moved before the park.
    assert stats["compiled"].column(0).bus_words == WORDS
    # SimulationStats carries neither DOU counter: compare them here.
    for ref_col, cmp_col in zip(chips["reference"].columns,
                                chips["compiled"].columns):
        assert cmp_col.dou.cycles == ref_col.dou.cycles
        assert cmp_col.dou.blocked_cycles == ref_col.dou.blocked_cycles
    assert chips["compiled"].columns[0].dou.cycles \
        == stats["compiled"].reference_ticks


def test_differential_parked_dou_architectural_state():
    chips = {}
    for engine in ("reference", "compiled"):
        chip = build_parked_dou_chip()
        Simulator(chip, engine=engine).run()
        chips[engine] = chip
    for ref_tile, cmp_tile in zip(chips["reference"].columns[0].tiles,
                                  chips["compiled"].columns[0].tiles):
        assert cmp_tile.regs.read("R2") == ref_tile.regs.read("R2")


# ----------------------------------------------------------------------
# parked DOUs across retune boundaries + plan invalidation
# ----------------------------------------------------------------------
def _drive_with_retunes(engine_name):
    chip = build_parked_dou_chip()
    engine = (ReferenceEngine if engine_name == "reference"
              else CompiledEngine)(chip)
    snapshots = []
    for dividers in ((6,), (3,), (6,), (12,)):
        consumed = engine.advance(120)  # 120 = multiple of every divider
        snapshots.append((consumed, collect(chip)))
        if chip.all_halted:
            break
        chip.retune(dividers)
    stats = engine.run()
    return snapshots, stats, engine


def test_demotion_survives_retune_boundaries():
    ref_snapshots, ref_stats, _ = _drive_with_retunes("reference")
    cmp_snapshots, cmp_stats, _ = _drive_with_retunes("compiled")
    assert cmp_snapshots == ref_snapshots
    assert cmp_stats == ref_stats


def test_plan_cache_invalidates_per_divider_tuple():
    _, _, engine = _drive_with_retunes("compiled")
    # One compiled plan per distinct divider tuple the run visited.
    assert set(engine._plans) >= {(6,), (3,)}
    for key, plan in engine._plans.items():
        assert plan.period == key[0]
        assert len(plan.edges) == plan.period
    # Revisiting an operating point reuses the cached object.
    chip = engine.chip
    assert engine._plan() is engine._plans[chip.clock.dividers]


# ----------------------------------------------------------------------
# governed runs (epoch layer) with a parking DOU
# ----------------------------------------------------------------------
class _HoppingGovernor(Governor):
    """Deterministically hops operating points for a few epochs.

    The hops stop after four decisions (each one costs a 60-tick
    PLL-relock gate, so endless alternation would starve the column),
    leaving the run to finish at the fast point.
    """

    name = "hopping"

    def __init__(self):
        self._count = 0

    def reset(self):
        self._count = 0

    def decide(self, telemetry):
        self._count += 1
        if self._count <= 4:
            return (6,) if self._count % 2 else (3,)
        return (3,)


@pytest.mark.parametrize("engine", ["reference", "compiled"])
def test_governed_run_with_parked_dou_is_engine_invariant(engine):
    runs = {}
    for name in ("reference", engine):
        chip = build_parked_dou_chip()
        runs[name] = run_governed(
            chip, _HoppingGovernor(), engine=name,
            epoch_hyperperiods=40,
        )
    assert runs[engine].stats == runs["reference"].stats
    assert runs[engine].timeline == runs["reference"].timeline
    assert runs[engine].transitions == runs["reference"].transitions
    assert len(runs[engine].timeline) > 2  # the run really epoch-split
