"""Epoch timeline: governed runs over any simulation engine.

An *epoch* is a window of reference ticks with a constant divider
tuple.  The governed runner alternates

    feed/observe -> govern -> (plan transitions, retune, gate) ->
    advance one epoch window

until the workload halts, then drains the buses exactly like a plain
run.  Everything engine-facing goes through
:meth:`~repro.sim.engine.Engine.advance`, so the same loop drives the
tick-accurate :class:`~repro.sim.engine.ReferenceEngine` (the
differential oracle) and the hyperperiod-compiled
:class:`~repro.sim.engine.CompiledEngine` (which recompiles its
activity plan per divider tuple behind a cache) - and produces
bit-identical statistics on both.

Epoch windows always *end on the committed clock's hyperperiod grid*
(an epoch may start off-phase right after a retune), so the next
commit point is automatically legal; the
:class:`~repro.control.transitions.TransitionModel` enforces the rule
and prices each change (PLL-relock gating plus rail transition
energy).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.errors import ConfigurationError, SimulationError
from repro.control.governor import Governor, Telemetry
from repro.control.transitions import TransitionModel
from repro.obs.events import BUS
from repro.sim.engine import DEFAULT_MAX_TICKS, Engine, create_engine
from repro.sim.stats import (
    EpochColumnActivity,
    EpochRecord,
    SimulationStats,
)

__all__ = ["GovernedRun", "run_governed", "snapshot_telemetry"]


@dataclass(frozen=True)
class GovernedRun:
    """A finished governed run.

    ``stats`` is the plain ``collect()`` output - bit-comparable with
    an ungoverned run of the same chip (the constant-governor
    equivalence test relies on this); ``stats_with_epochs`` carries
    the timeline for residency histograms and energy accounting.
    """

    stats: SimulationStats
    timeline: tuple
    transitions: tuple
    governor: str

    @property
    def stats_with_epochs(self) -> SimulationStats:
        """The same stats with the epoch timeline attached."""
        return replace(self.stats, epochs=self.timeline)

    @property
    def transition_count(self) -> int:
        """Committed per-column operating-point changes."""
        return len(self.transitions)

    @property
    def transition_energy_nj(self) -> float:
        """Total rail-transition energy across the run."""
        return sum(t.energy_nj for t in self.transitions)


def snapshot_telemetry(
    chip, epoch_index: int, extras: dict | None = None
) -> Telemetry:
    """The governor-visible state at one epoch boundary.

    Reads only cheap, architecturally real signals: the live divider
    tuple, per-column halt flags, the fill fraction (0..1) and word
    count of each column's horizontal input port, and the output-port
    fill - all of the inter-domain buffers the hardware already has.
    ``extras`` merges harness-level signals (deadline slack,
    calibrated cycles-per-word) that a policy may consume.  The
    snapshot never mutates the chip, so taking it is free of
    simulation side effects on either engine.
    """
    return Telemetry(
        epoch_index=epoch_index,
        reference_tick=chip.reference_ticks,
        reference_mhz=chip.clock.reference_mhz,
        dividers=chip.clock.dividers,
        halted=tuple(column.halted for column in chip.columns),
        input_fill=tuple(
            len(column.h_in) / column.h_in.capacity
            for column in chip.columns
        ),
        output_fill=tuple(
            len(column.h_out) / column.h_out.capacity
            for column in chip.columns
        ),
        backlog_words=tuple(
            len(column.h_in) for column in chip.columns
        ),
        extras=dict(extras or {}),
    )


def _column_snapshot(chip) -> list:
    return [
        (
            column.tile_cycles,
            column.controller.issued,
            column.controller.bubbles + column.comm_stalls,
            column.dou.words_retired,
        )
        for column in chip.columns
    ]


def _activity_deltas(before: list, after: list) -> tuple:
    return tuple(
        EpochColumnActivity(
            tile_cycles=b2 - b1,
            issued=i2 - i1,
            idle=d2 - d1,
            bus_words=w2 - w1,
        )
        for (b1, i1, d1, w1), (b2, i2, d2, w2) in zip(before, after)
    )


def run_governed(
    chip,
    governor: Governor,
    transition_model: TransitionModel | None = None,
    engine: str | Engine = "compiled",
    epoch_ticks: int | None = None,
    epoch_hyperperiods: int = 4,
    max_ticks: int = DEFAULT_MAX_TICKS,
    drain_hyperperiods: int = 2,
    before_epoch: Callable | None = None,
    telemetry_extras: Callable | None = None,
) -> GovernedRun:
    """Run a chip to completion under a feedback clock governor.

    Parameters
    ----------
    engine:
        Engine name or instance; both engines produce bit-identical
        results for the same governor (the differential contract).
    epoch_ticks / epoch_hyperperiods:
        Window length between governor decisions.  Windows are
        extended so their end tick lands on the committed clock's
        hyperperiod grid, keeping the next commit legal even when
        the window starts off-phase after a retune.
    before_epoch:
        ``callable(chip, epoch_index)`` invoked at each boundary
        before telemetry is read - the hook scenario harnesses use to
        feed frames and drain outputs.
    telemetry_extras:
        ``callable(chip, epoch_index) -> dict`` merged into
        :class:`~repro.control.governor.Telemetry.extras` (deadline
        slack and similar harness-level signals).

    Raises
    ------
    SimulationError
        If the workload has not halted within ``max_ticks``.
    """
    if epoch_ticks is not None and epoch_ticks < 1:
        raise ConfigurationError(
            f"epoch_ticks must be positive, got {epoch_ticks}"
        )
    if epoch_ticks is None and epoch_hyperperiods < 1:
        raise ConfigurationError(
            f"epoch_hyperperiods must be positive, got "
            f"{epoch_hyperperiods}"
        )
    if isinstance(engine, Engine):
        if engine.chip is not chip:
            raise ConfigurationError(
                "the engine instance drives a different chip than "
                "the one being governed"
            )
        runner = engine
    else:
        runner = create_engine(engine, chip)
    model = transition_model or TransitionModel()
    governor.reset()  # a reused instance must replay identically
    start = chip.reference_ticks
    deadline = start + max_ticks
    timeline = []
    transitions = []
    epoch = 0
    while not chip.all_halted:
        if chip.reference_ticks >= deadline:
            raise SimulationError(
                f"governed run exceeded {max_ticks} reference ticks "
                f"without halting"
            )
        if before_epoch is not None:
            before_epoch(chip, epoch)
        extras = telemetry_extras(chip, epoch) \
            if telemetry_extras is not None else None
        telemetry = snapshot_telemetry(chip, epoch, extras)
        target = tuple(governor.decide(telemetry))
        if BUS.active:
            # The decision with its inputs: what the governor saw and
            # what rung it chose - the observable loop state a
            # feedback-control consumer replays a policy from.
            BUS.instant(
                "govern",
                tick=chip.reference_ticks,
                category="control",
                track="governor",
                args={
                    "epoch": epoch,
                    "governor": governor.name,
                    "input_fill": telemetry.input_fill,
                    "output_fill": telemetry.output_fill,
                    "backlog_words": telemetry.backlog_words,
                    "slack": telemetry.extras.get("ticks_to_deadline"),
                    "dividers": telemetry.dividers,
                    "target": target,
                },
            )
        if target != chip.clock.dividers:
            planned = model.plan(
                chip.reference_ticks, chip.clock, target,
                tiles_per_column=chip.config.tiles_per_column,
            )
            for record in planned:
                chip.clock_gate_until[record.column] = (
                    record.tick + record.relock_ticks
                )
            chip.retune(target)
            transitions.extend(planned)
            if BUS.active:
                for record in planned:
                    BUS.instant(
                        "retune_commit",
                        tick=record.tick,
                        category="control",
                        track=f"column{record.column}",
                        args={
                            "from": record.from_divider,
                            "to": record.to_divider,
                            "relock_ticks": record.relock_ticks,
                            "energy_nj": record.energy_nj,
                        },
                    )
        hyperperiod = chip.clock.hyperperiod()
        duration = epoch_ticks if epoch_ticks is not None \
            else epoch_hyperperiods * hyperperiod
        # Align the epoch's END TICK (not merely its duration) to the
        # committed clock's hyperperiod grid: commits are legal only
        # where tick % hyperperiod == 0, and an epoch may start
        # off-phase of a freshly committed clock (e.g. divider 3
        # entered at tick 4).
        end = -(-(chip.reference_ticks + duration) // hyperperiod) \
            * hyperperiod
        duration = end - chip.reference_ticks
        remaining = deadline - chip.reference_ticks
        if duration > remaining:
            # Last-chance partial window: the chip may still halt
            # inside the remaining budget (matching a plain run with
            # the same max_ticks).  No commit follows an unaligned
            # end - if it does not halt, the loop top raises.
            duration = remaining
        before = _column_snapshot(chip)
        epoch_start = chip.reference_ticks
        runner.advance(duration)
        timeline.append(EpochRecord(
            index=epoch,
            start_tick=epoch_start,
            end_tick=chip.reference_ticks,
            dividers=chip.clock.dividers,
            column_activity=_activity_deltas(
                before, _column_snapshot(chip)
            ),
        ))
        if BUS.active:
            BUS.span(
                f"epoch{epoch}",
                epoch_start,
                chip.reference_ticks,
                category="control",
                track="governor",
                args={"dividers": chip.clock.dividers},
            )
        epoch += 1
    # All halted: the engine's own run() contributes zero live ticks
    # and performs exactly the standard post-halt bus drain.
    stats = runner.run(
        max_ticks=max(1, deadline - chip.reference_ticks),
        drain_hyperperiods=drain_hyperperiods,
    )
    return GovernedRun(
        stats=stats,
        timeline=tuple(timeline),
        transitions=tuple(transitions),
        governor=governor.name,
    )
