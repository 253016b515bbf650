"""Chip-level coordination of per-column clock governors.

PR 3's governors tune one column at a time from local signals; the
paper's whole-chip story (Section 2.4) is that rationally clocked
*pipelines* let every stage run at exactly the rate its kernel needs.
:class:`CoordinatedGovernor` closes that gap: it owns one per-column
governor per pipeline stage and layers three cross-domain policies on
top of their local proposals:

* **rate matching** - adjacent stages are coupled through the
  occupancy of the SDF channel between them (the voltage-adapting
  inter-column buffer): while the channel holds data, the consumer is
  never allowed to run slower, in words per reference tick, than its
  producer, so an upstream slowdown propagates downstream instead of
  overflowing the buffer - and an upstream *speed-up* drags the
  downstream stages with it before their local controllers would have
  reacted;
* **coordinated commits** - the merged divider tuple is returned as
  one decision, so the epoch runner commits every domain's retune at
  the same hyperperiod-legal boundary through the one
  :class:`~repro.control.transitions.TransitionModel` plan (a single
  relock window, one transition record per changed column);
* **halted-column parking and power gating** - a column whose program
  has finished is parked on the slowest ladder rung, and
  :func:`plan_power_gating` turns the epoch timeline's quiescent
  windows into gate segments the energy accounting can price (gated
  rail = retention leakage only, re-wake = rail recharge), with the
  break-even left to the energy-aware caller.

The governor is still a deterministic function of the telemetry
stream, so coordinated multi-column runs stay bit-identical between
the reference and compiled engines - the property the
``--coordinated`` evaluation asserts per scenario.
:class:`IndependentSlackGovernor` is the uncoordinated baseline it is
compared against: the same per-stage slack governors with no
cross-domain state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from repro.errors import ConfigurationError
from repro.control.governor import (
    GOVERNOR_KINDS,
    Governor,
    SlackGovernor,
    Telemetry,
    validate_ladder,
)

__all__ = [
    "CoordinatedGovernor",
    "GateSegment",
    "IndependentSlackGovernor",
    "plan_power_gating",
]


class CoordinatedGovernor(Governor):
    """Cross-domain policy over one per-column governor per stage.

    Parameters
    ----------
    ladder:
        Discrete divider ladder shared by every stage (positive
        integers; validated at construction).
    cycles_per_word:
        Per-stage tile cycles one word costs - the rate currency the
        matching pass converts dividers into (a stage at divider ``d``
        sustains ``1 / (d * cycles_per_word)`` words per reference
        tick).  Its length fixes the pipeline depth.
    governors:
        One governor per stage, each managing exactly its own column.
        Defaults to a per-stage
        :class:`~repro.control.governor.SlackGovernor`, which turns
        the per-stage deadline signals published by the harness
        (``extras["stage_words_to_deadline"]``) into the slowest
        deadline-safe rung.
    guard:
        Guard band forwarded to the default per-stage slack governors.
    high_water:
        Channel occupancy fraction above which the consumer stage is
        forced one rung faster than both its proposal and its current
        operating point - the overflow safety valve.
    match_occupancy:
        Channel occupancy fraction above which the rate-matching
        constraint binds.  Below it the channel is absorbing normal
        burst skew - that is what the voltage-adapting buffers are
        for - and forcing the consumer up to the producer's
        instantaneous rate would over-provision stages that are
        mostly waiting; above it the backlog is real and the consumer
        must at least keep pace.
    park_halted:
        Park halted columns on the slowest ladder rung (the retune is
        legality-checked and priced like any other; the gated-rail
        accounting then makes the parked column nearly free).
    rate_ratios:
        Output words each stage produces per input word it consumes
        (default all 1.0).  A decimating stage (a CIC, an entropy
        coder) has ratio < 1, an expanding stage (a demapper) > 1;
        the matching pass uses the ratio to convert a producer's
        *consumption* rate into the word rate it actually delivers
        downstream.
    predecessors:
        Per-stage producer indices describing the stage graph
        (default the linear chain ``(), (0,), (1,), ...``).  A fork
        is two stages naming the same producer; a join names several.
        A join's availability cap follows the *slower* branch - word
        pairs complete only as fast as the laggard delivers - while
        its overflow rate matching keeps pace with the branches'
        combined arrival rate.
    """

    name = "coordinated"

    def __init__(
        self,
        ladder,
        cycles_per_word: Sequence[float],
        governors: Sequence[Governor] | None = None,
        guard: float = 1.25,
        high_water: float = 0.5,
        match_occupancy: float = 0.25,
        park_halted: bool = True,
        rate_ratios: Sequence[float] | None = None,
        predecessors: Sequence[Sequence[int]] | None = None,
    ) -> None:
        self.ladder = validate_ladder(ladder)
        self.cycles_per_word = tuple(float(c) for c in cycles_per_word)
        if not self.cycles_per_word:
            raise ConfigurationError(
                "cycles_per_word needs at least one stage"
            )
        for stage, cycles in enumerate(self.cycles_per_word):
            if cycles <= 0:
                raise ConfigurationError(
                    f"cycles_per_word for stage {stage} must be "
                    f"positive, got {cycles}"
                )
        n = len(self.cycles_per_word)
        if rate_ratios is None:
            rate_ratios = (1.0,) * n
        self.rate_ratios = tuple(float(r) for r in rate_ratios)
        if len(self.rate_ratios) != n:
            raise ConfigurationError(
                f"{n} stages but {len(self.rate_ratios)} rate ratios"
            )
        for stage, ratio in enumerate(self.rate_ratios):
            if ratio <= 0:
                raise ConfigurationError(
                    f"rate ratio for stage {stage} must be positive, "
                    f"got {ratio}"
                )
        if predecessors is None:
            predecessors = ((),) + tuple(
                (stage - 1,) for stage in range(1, n)
            )
        self.predecessors = tuple(
            tuple(int(p) for p in preds) for preds in predecessors
        )
        if len(self.predecessors) != n:
            raise ConfigurationError(
                f"{n} stages but {len(self.predecessors)} predecessor "
                f"entries"
            )
        for stage, preds in enumerate(self.predecessors):
            for pred in preds:
                if not 0 <= pred < stage:
                    raise ConfigurationError(
                        f"stage {stage} lists predecessor {pred}; "
                        f"producers must be earlier stages"
                    )
        if governors is None:
            governors = [
                SlackGovernor(self.ladder, columns=(i,), guard=guard)
                for i in range(len(self.cycles_per_word))
            ]
        governors = list(governors)
        if len(governors) != len(self.cycles_per_word):
            raise ConfigurationError(
                f"{len(self.cycles_per_word)} stages but "
                f"{len(governors)} per-column governors"
            )
        self.governors = governors
        if not 0.0 <= high_water <= 1.0:
            raise ConfigurationError(
                "high_water must be an occupancy fraction in [0, 1]"
            )
        self.high_water = high_water
        if not 0.0 <= match_occupancy <= 1.0:
            raise ConfigurationError(
                "match_occupancy must be an occupancy fraction in "
                "[0, 1]"
            )
        self.match_occupancy = match_occupancy
        self.park_halted = park_halted

    @property
    def n_stages(self) -> int:
        """Pipeline depth (one column per stage)."""
        return len(self.cycles_per_word)

    def reset(self) -> None:
        """Reset every owned per-column governor."""
        for governor in self.governors:
            governor.reset()

    # ------------------------------------------------------------------
    # the decision
    # ------------------------------------------------------------------
    def decide(self, telemetry: Telemetry) -> tuple:
        """Merge per-stage proposals under the cross-domain policy.

        Pass order matters: the per-stage proposals sweep upstream to
        downstream so each stage's availability cap can use the
        divider just decided for its producer, then the rate-matching
        sweep (same direction, same reason), then the high-water
        emergency boost, and finally halted-column parking - the only
        pass allowed to touch a halted column.
        """
        n = self.n_stages
        if len(telemetry.dividers) != n:
            raise ConfigurationError(
                f"coordinator manages {n} stages but telemetry "
                f"reports {len(telemetry.dividers)} columns"
            )
        dividers = list(telemetry.dividers)
        for stage, governor in enumerate(self.governors):
            if telemetry.halted[stage]:
                continue
            proposal = governor.decide(
                self._stage_view(telemetry, stage, dividers)
            )
            dividers[stage] = proposal[stage]
        for stage in range(n):
            if telemetry.halted[stage] \
                    or not self.predecessors[stage]:
                continue
            dividers[stage] = self._rate_matched(
                telemetry, dividers, stage
            )
        for stage in range(n):
            if telemetry.halted[stage]:
                continue
            if telemetry.input_fill[stage] > self.high_water:
                floor = min(dividers[stage], telemetry.dividers[stage])
                # One rung faster than the floor.  The committed
                # divider may sit off the ladder (a chip booted at an
                # operating point the governor would never pick): snap
                # to the nearest not-slower rung first, and if the
                # floor already outruns every rung, keep it - an
                # emergency boost must never slow the stage down.
                if floor < self.ladder[0]:
                    dividers[stage] = floor
                    continue
                index = 0
                for position, rung in enumerate(self.ladder):
                    if rung <= floor:
                        index = position
                dividers[stage] = self.ladder[max(0, index - 1)]
        if self.park_halted:
            for stage in range(n):
                if telemetry.halted[stage]:
                    dividers[stage] = self.ladder[-1]
        return tuple(dividers)

    def _stage_view(
        self, telemetry: Telemetry, stage: int, decided: list
    ) -> Telemetry:
        """Telemetry as stage ``stage``'s own governor sees it.

        The chip-level deadline signals are rewritten into the
        single-column form the stock governors consume: the stage's
        own words owed (``stage_words_to_deadline[stage]`` when the
        harness publishes it, the end-to-end figure otherwise - the
        conservative fallback), the shared deadline window, and the
        stage's own per-word cost.

        The owed words are additionally capped by *availability*: a
        stage cannot process more than its current backlog plus what
        its producers - at the dividers just decided for them this
        sweep - can deliver inside the deadline window.  This is how
        an upstream slowdown propagates downstream: fewer deliverable
        words mean a slower deadline-safe rung for the consumer, where
        an uncoordinated stage would spin fast and starve.  A join's
        delivery is gated by its *slowest* running branch (word pairs
        complete only when every branch has contributed), scaled by
        the branch count - the Versa-style join rule.
        """
        extras = dict(telemetry.extras)
        stage_words = extras.get("stage_words_to_deadline")
        ticks = extras.get("ticks_to_deadline")
        if stage_words is not None:
            words = stage_words[stage]
            preds = self.predecessors[stage]
            running = [
                p for p in preds if not telemetry.halted[p]
            ]
            if running and len(running) == len(preds) and ticks:
                per_branch = min(
                    int(
                        ticks * self.rate_ratios[p]
                        / (decided[p] * self.cycles_per_word[p])
                    )
                    for p in running
                )
                deliverable = telemetry.backlog_words[stage] \
                    + len(preds) * per_branch
                words = min(words, deliverable)
            extras["words_to_deadline"] = words
        extras["cycles_per_word"] = self.cycles_per_word[stage]
        return replace(telemetry, extras=extras)

    def _rate_matched(
        self, telemetry: Telemetry, dividers: list, stage: int
    ) -> int:
        """Slowest rung at least as fast as the upstream delivery.

        The constraint binds only while the channel into ``stage``
        is genuinely filling (occupancy fraction above
        ``match_occupancy``) and some upstream stage is still running;
        a sub-threshold trickle is burst skew the buffer exists to
        absorb.  Matching never relaxes the stage below its own
        proposal's speed - it can only make a consumer faster, the
        deadline floor is the per-stage governor's job.

        The producer side is the *combined* delivery rate of every
        running predecessor in output words per reference tick (a
        producer consuming a word every ``d * c`` ticks delivers
        ``ratio / (d * c)`` words per tick; a join's channel fills at
        the branches' sum) - so a consumer behind a decimator relaxes
        by the decimation factor, and a consumer behind an expander
        speeds up by it.
        """
        proposal = dividers[stage]
        running = [
            p for p in self.predecessors[stage]
            if not telemetry.halted[p]
        ]
        if not running:
            return proposal
        if telemetry.input_fill[stage] <= self.match_occupancy:
            return proposal
        if len(running) == 1:
            # Exact form for the common single-producer case (no
            # reciprocal round trip): ticks between delivered words.
            p = running[0]
            upstream_interval = (
                dividers[p] * self.cycles_per_word[p]
                / self.rate_ratios[p]
            )
        else:
            upstream_interval = 1.0 / sum(
                self.rate_ratios[p]
                / (dividers[p] * self.cycles_per_word[p])
                for p in running
            )
        # Largest ladder rung whose word interval still meets the
        # upstream delivery rate; the fastest rung if even that is
        # too slow (the stage then simply cannot fall further behind).
        matched = None
        for divider in self.ladder:
            if divider * self.cycles_per_word[stage] \
                    <= upstream_interval:
                matched = divider
        if matched is None:
            matched = self.ladder[0]
        return min(proposal, matched)


GOVERNOR_KINDS[CoordinatedGovernor.name] = CoordinatedGovernor


class IndependentSlackGovernor(Governor):
    """Per-column deadline governors with no cross-domain state.

    The uncoordinated middle ground the evaluation compares against:
    every stage runs a :class:`SlackGovernor` on the *chip-global*
    deadline signal (due words not yet out of the pipe) with its own
    per-word cost.  Each stage therefore provisions as if it alone had
    to clear the whole remaining backlog - deadline-safe, but blind to
    how much of that work other stages have already retired, to what
    its producer can actually deliver, and to any gating opportunity;
    exactly the information the chip-level coordinator adds.
    """

    name = "independent"

    def __init__(
        self,
        ladder,
        cycles_per_word,
        guard: float = 1.25,
        word_scales=None,
    ) -> None:
        self.cycles_per_word = tuple(float(c) for c in cycles_per_word)
        if not self.cycles_per_word:
            raise ConfigurationError(
                "cycles_per_word needs at least one stage"
            )
        if word_scales is None:
            word_scales = (1.0,) * len(self.cycles_per_word)
        self.word_scales = tuple(float(s) for s in word_scales)
        if len(self.word_scales) != len(self.cycles_per_word):
            raise ConfigurationError(
                f"{len(self.cycles_per_word)} stages but "
                f"{len(self.word_scales)} word scales"
            )
        for stage, scale in enumerate(self.word_scales):
            if scale <= 0:
                raise ConfigurationError(
                    f"word scale for stage {stage} must be positive, "
                    f"got {scale}"
                )
        self.governors = [
            SlackGovernor(ladder, columns=(i,), guard=guard)
            for i in range(len(self.cycles_per_word))
        ]

    def reset(self) -> None:
        for governor in self.governors:
            governor.reset()

    def decide(self, telemetry: Telemetry) -> tuple:
        dividers = list(telemetry.dividers)
        for stage, governor in enumerate(self.governors):
            if telemetry.halted[stage]:
                continue
            extras = dict(telemetry.extras)
            # Only the stage's own per-word cost and static rate scale
            # are local knowledge; the words owed stay chip-global (no
            # per-stage progress sharing between independent
            # controllers).  The scale converts the chip-global exit
            # words into the stage's own input words - a decimator's
            # upstream owes more words than leave the pipe - rounded
            # up so the conversion can only speed a stage up.
            extras.pop("stage_words_to_deadline", None)
            extras["cycles_per_word"] = self.cycles_per_word[stage]
            words = extras.get("words_to_deadline")
            scale = self.word_scales[stage]
            if words is not None and scale != 1.0:
                extras["words_to_deadline"] = int(
                    math.ceil(words * scale)
                )
            view = replace(telemetry, extras=extras)
            dividers[stage] = governor.decide(view)[stage]
        return tuple(dividers)


GOVERNOR_KINDS[IndependentSlackGovernor.name] = IndependentSlackGovernor


# ----------------------------------------------------------------------
# power gating of quiescent windows
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GateSegment:
    """A maximal run of epochs one column spent fully quiescent.

    ``start_epoch``/``end_epoch`` index into the governed run's
    timeline (half-open, like ranges); ``start_tick``/``end_tick``
    are the corresponding reference ticks.  ``wake`` is True when a
    non-quiescent window for the same column follows the segment, so
    gating it must price a rail re-wake
    (:meth:`~repro.control.transitions.TransitionModel.wake_energy_nj`);
    a segment running to the end of the timeline powers off for good
    and owes no wake charge.
    """

    column: int
    start_epoch: int
    end_epoch: int
    start_tick: int
    end_tick: int
    wake: bool

    @property
    def epochs(self) -> int:
        """Number of epoch windows the segment spans."""
        return self.end_epoch - self.start_epoch

    @property
    def duration_ticks(self) -> int:
        """Reference ticks the segment spans."""
        return self.end_tick - self.start_tick


def _is_quiescent(activity) -> bool:
    """Whether a window recorded no issue and no bus word."""
    return activity.issued == 0 and activity.bus_words == 0


def plan_power_gating(timeline: Sequence) -> tuple:
    """Candidate gate segments of a governed run's epoch timeline.

    A (epoch, column) window is *gateable* when the recorded activity
    shows zero issued instructions and zero bus words: nothing the
    column did in that window could have depended on its rail being
    up, so charging it at the gated rate keeps the energy books exact
    (halted columns satisfy this permanently; a stage stalled on an
    empty channel satisfies it for as long as no word arrives).
    Consecutive gateable windows merge into one maximal
    :class:`GateSegment` per column, ordered by (column, start).

    The planner is deliberately energy-blind: whether a segment is
    worth gating (retention savings vs the re-wake rail charge) is
    decided by the caller holding the power model - see
    ``repro.workloads.coordinated.charge_pipeline_ledger``.
    """
    timeline = list(timeline)
    if not timeline:
        return ()
    for epoch in timeline:
        if not epoch.column_activity:
            raise ConfigurationError(
                f"epoch {epoch.index} carries no column activity - "
                f"gating needs the per-window deltas"
            )
    n_columns = len(timeline[0].dividers)
    segments = []
    for column in range(n_columns):
        start = None
        for position, epoch in enumerate(timeline):
            quiet = _is_quiescent(epoch.column_activity[column])
            if quiet and start is None:
                start = position
            elif not quiet and start is not None:
                segments.append(GateSegment(
                    column=column,
                    start_epoch=start,
                    end_epoch=position,
                    start_tick=timeline[start].start_tick,
                    end_tick=timeline[position].start_tick,
                    wake=True,
                ))
                start = None
        if start is not None:
            segments.append(GateSegment(
                column=column,
                start_epoch=start,
                end_epoch=len(timeline),
                start_tick=timeline[start].start_tick,
                end_tick=timeline[-1].end_tick,
                wake=False,
            ))
    return tuple(segments)
