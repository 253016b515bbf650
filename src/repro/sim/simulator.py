"""The multi-clock-domain simulation driver.

:class:`Simulator` is a thin facade over the pluggable engine layer
(:mod:`repro.sim.engine`): it builds the named engine (or takes an
engine instance) and runs the chip to completion.  The default
``engine="compiled"`` is the hyperperiod-compiled fast path (the
differential tests guarantee bit-identical statistics); pass
``engine="reference"`` to force tick-by-tick stepping.
"""

from __future__ import annotations

from repro.arch.chip import Chip
from repro.arch.config import ChipConfig, ColumnConfig
from repro.arch.dou import DouProgram
from repro.isa.program import Program
from repro.sim.engine import DEFAULT_MAX_TICKS, Engine, create_engine
from repro.sim.stats import SimulationStats

__all__ = ["DEFAULT_MAX_TICKS", "Simulator", "run_single_column"]


class Simulator:
    """Runs a chip to completion and snapshots statistics."""

    def __init__(
        self,
        chip: Chip,
        engine: str | Engine = "compiled",
    ) -> None:
        self.chip = chip
        if isinstance(engine, Engine):
            self.engine = engine
        else:
            self.engine = create_engine(engine, chip)

    def run(
        self,
        max_ticks: int = DEFAULT_MAX_TICKS,
        drain_hyperperiods: int = 2,
    ) -> SimulationStats:
        """Run until every column halts.

        After all columns halt, the buses are drained for a couple of
        clock hyperperiods so in-flight words settle into their
        destination buffers.

        Raises
        ------
        SimulationError
            If the tick budget is exhausted first - almost always a
            deadlocked communication schedule.
        """
        return self.engine.run(
            max_ticks=max_ticks,
            drain_hyperperiods=drain_hyperperiods,
        )


def run_single_column(
    program: Program,
    dou_program: DouProgram | None = None,
    reference_mhz: float = 100.0,
    divider: int = 1,
    memory_images: dict | None = None,
    input_words: list | None = None,
    read_primes: dict | None = None,
    strict_schedules: bool = True,
    max_ticks: int = DEFAULT_MAX_TICKS,
    engine: str = "compiled",
) -> tuple[Chip, SimulationStats]:
    """Build, load, and run a one-column chip; returns (chip, stats).

    ``memory_images`` maps tile index to ``{base: [words]}`` preloads;
    ``input_words`` feeds the column's horizontal-in port (available to
    DOU states that drive from the port position); ``read_primes``
    maps tile index to words seeded into its read buffer at startup -
    the architectural equivalent of SDF initial tokens, needed to
    prime tile-to-tile pipelines under lockstep SIMD issue.
    """
    config = ChipConfig(
        reference_mhz=reference_mhz,
        columns=(ColumnConfig(divider=divider),),
        strict_schedules=strict_schedules,
    )
    chip = Chip(config, programs=[program], dou_programs=[dou_program])
    if memory_images:
        for tile_index, images in memory_images.items():
            for base, words in images.items():
                chip.columns[0].tiles[tile_index].load_memory(base, words)
    if input_words:
        chip.feed_column(0, input_words)
    if read_primes:
        for tile_index, words in read_primes.items():
            for word in words:
                chip.columns[0].tiles[tile_index].read_buffer.push(word)
    stats = Simulator(chip, engine=engine).run(max_ticks=max_ticks)
    return chip, stats
