"""Feedback clock governors: per-epoch divider decisions.

A governor closes the loop the paper leaves open: Section 2.4 picks
each column's divider once, at startup, from the rate-matched
schedule; a :class:`Governor` instead observes cheap cross-domain
signals at every epoch boundary - inter-column buffer occupancy and
per-frame completion margin, both already present in the machine
model - and retunes dividers at the next legal commit point.

Three policies ship:

* :class:`StaticGovernor` - the do-nothing baseline reproducing the
  paper's startup-only behaviour (and the worst-case-provisioning
  yardstick the evaluation compares against);
* :class:`OccupancyPIGovernor` - a discrete PI controller on the fill
  level of each managed column's input :class:`~repro.arch.buffers`
  port, the buffer-occupancy feedback of the GALS CMP control-loop
  literature;
* :class:`SlackGovernor` - a deadline governor that picks the slowest
  divider still meeting the next frame deadline from the measured
  completion margin (slack), with a configurable guard band.

Governors are deterministic functions of the telemetry stream, so a
governed run is exactly reproducible on either simulation engine -
the property the differential tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = [
    "Governor",
    "OccupancyPIGovernor",
    "SlackGovernor",
    "StaticGovernor",
    "Telemetry",
    "validate_ladder",
]


def validate_ladder(ladder, context: str | None = None) -> tuple:
    """Normalize a divider ladder; raise on anything unusable.

    A ladder is the discrete operating-point set a governor moves
    along: a non-empty collection of positive integer clock dividers
    with no duplicates.  Returns the sorted tuple (fastest rung
    first); every governor constructor funnels through this check so
    a bad ladder fails at construction time with a
    :class:`~repro.errors.ConfigurationError`, not mid-run.

    ``context`` names the parameter's origin (a generated scenario, a
    stage index) and every error pinpoints the offending rung by
    position, so a failure out of a randomized sweep is
    self-describing instead of "a ladder somewhere was bad".
    """
    prefix = f"{context}: " if context else ""
    rungs = tuple(ladder)
    if not rungs:
        raise ConfigurationError(
            f"{prefix}ladder needs at least one divider"
        )
    for position, divider in enumerate(rungs):
        # Type-check before sorting so a malformed entry fails here,
        # as a ConfigurationError, not inside sorted() as a TypeError.
        if not isinstance(divider, int) or divider < 1:
            raise ConfigurationError(
                f"{prefix}ladder rung {position} (divider "
                f"{divider!r}) is not a positive integer in ladder "
                f"{rungs}"
            )
    if len(set(rungs)) != len(rungs):
        seen: dict = {}
        for position, divider in enumerate(rungs):
            if divider in seen:
                raise ConfigurationError(
                    f"{prefix}ladder rung {position} duplicates rung "
                    f"{seen[divider]} (divider {divider}) in ladder "
                    f"{rungs}"
                )
            seen[divider] = position
    return tuple(sorted(rungs))


@dataclass(frozen=True)
class Telemetry:
    """What a governor sees at one epoch boundary.

    ``reference_tick`` is the boundary's position in reference ticks
    and ``reference_mhz`` the reference clock, so policies can convert
    between ticks and wall time; ``dividers`` and ``halted`` are
    per-column tuples of the committed operating points and halt
    flags.  ``input_fill``/``output_fill`` are the managed ports'
    occupancy fractions in [0, 1] (the voltage-adapting
    :class:`~repro.arch.buffers` between clock domains);
    ``backlog_words`` counts words queued at each column's input
    including any upstream spill the harness is holding.  ``extras``
    carries harness-specific signals (deadline slack, cycles-per-word
    calibration) for policies that need them.  Snapshots are
    immutable - a governor must be a pure function of this record for
    governed runs to replay identically on both engines.
    """

    epoch_index: int
    reference_tick: int
    reference_mhz: float
    dividers: tuple
    halted: tuple
    input_fill: tuple
    output_fill: tuple
    backlog_words: tuple
    extras: dict = field(default_factory=dict)


class Governor:
    """Decides the next epoch's divider tuple from telemetry.

    The policy interface of the control loop: at every epoch boundary
    the runner snapshots a :class:`Telemetry` record and asks the
    governor for the divider tuple to commit next.  Implementations
    must be *deterministic functions of the telemetry stream* (any
    internal state reset by :meth:`reset`) - that purity is what
    keeps a governed run bit-identical between the reference and
    compiled engines, and it is the only behavioural requirement
    beyond returning dividers the chip's ladder can realize.
    """

    name = "governor"

    def decide(self, telemetry: Telemetry) -> tuple:
        """The divider tuple to commit for the next epoch.

        Returning the current dividers unchanged is always legal and
        costs nothing; any change is priced and legality-checked by
        the :class:`~repro.control.transitions.TransitionModel`.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Drop any per-run controller state.

        Called by the epoch runner at the start of every governed run
        so a reused governor instance reproduces the same decision
        stream - the determinism the differential tests rely on.
        Stateless policies inherit this no-op.
        """


class StaticGovernor(Governor):
    """Startup-only clocking: today's Synchroscalar, as a governor.

    Holds one divider tuple for the whole run - either the tuple
    given at construction (committed at the first epoch boundary) or,
    with ``dividers=None``, whatever the chip booted with.  It never
    reacts to telemetry, so it reproduces the paper's Section 2.4
    behaviour exactly and doubles as the worst-case-provisioning
    yardstick every evaluation compares against; a run under this
    governor is bit-identical to the same chip run without the
    control layer at all (the constant-governor equivalence test).
    """

    name = "static"

    def __init__(self, dividers=None) -> None:
        self.dividers = None if dividers is None else tuple(dividers)

    def decide(self, telemetry: Telemetry) -> tuple:
        if self.dividers is None:
            return telemetry.dividers
        return self.dividers


def _ladder_index(ladder: tuple, divider: int) -> int:
    """Position of ``divider`` on the ladder (must be a member)."""
    try:
        return ladder.index(divider)
    except ValueError:
        raise ConfigurationError(
            f"divider {divider} is not on the ladder {ladder}"
        ) from None


def slowest_safe_divider(
    ladder,
    ticks: float,
    words: float,
    cycles_per_word: float,
    guard: float = 1.0,
) -> int | None:
    """Largest divider still delivering the owed cycles in ``ticks``.

    The one provisioning rule shared by the deadline governor (per
    decision) and worst-case static provisioning (once, for the peak
    frame): a column at ``reference / divider`` has ``ticks / divider``
    tile cycles available, which must cover
    ``guard * words * cycles_per_word``.  Returns ``None`` when even
    the fastest rung falls short.
    """
    needed = guard * words * cycles_per_word
    for divider in sorted(ladder, reverse=True):
        if ticks / divider >= needed:
            return divider
    return None


class OccupancyPIGovernor(Governor):
    """PI control on input-buffer occupancy.

    Per managed column the controller tracks the fill level of the
    column's input port against a setpoint: a building backlog
    (positive error) integrates into a speed-up, a starved buffer
    integrates into a slow-down.  The control output moves the column
    along a discrete divider ladder - speeding up by as many rungs as
    the output demands (bursts need fast reaction to protect
    deadlines) but slowing down one rung per epoch (relaxing is never
    urgent), with a deadband so rail transitions are not thrashed.
    """

    name = "occupancy_pi"

    def __init__(
        self,
        ladder,
        columns=None,
        setpoint: float = 0.05,
        kp: float = 30.0,
        ki: float = 4.0,
        deadband: float = 0.5,
        integral_clamp: tuple = (-0.5, 3.0),
    ) -> None:
        self.ladder = validate_ladder(ladder)
        self.columns = None if columns is None else tuple(columns)
        self.setpoint = setpoint
        self.kp = kp
        self.ki = ki
        self.deadband = deadband
        # Asymmetric anti-windup: long idle stretches must not bank a
        # slow-down debt that masks the next burst (speeding up late
        # misses deadlines; slowing down late only costs energy).
        self.integral_floor, self.integral_ceiling = integral_clamp
        self._integral: dict = {}

    def reset(self) -> None:
        self._integral.clear()

    def decide(self, telemetry: Telemetry) -> tuple:
        managed = self.columns if self.columns is not None \
            else tuple(range(len(telemetry.dividers)))
        dividers = list(telemetry.dividers)
        for column in managed:
            if telemetry.halted[column]:
                continue
            error = telemetry.input_fill[column] - self.setpoint
            integral = self._integral.get(column, 0.0) + error
            integral = max(self.integral_floor,
                           min(self.integral_ceiling, integral))
            control = self.kp * error + self.ki * integral
            index = _ladder_index(self.ladder, dividers[column])
            if control > self.deadband:
                rungs = max(1, int(control / max(self.deadband, 1e-9)))
                index = max(0, index - rungs)
            elif control < -self.deadband \
                    and telemetry.backlog_words[column] == 0:
                # Relax one rung at a time, and only with the input
                # buffer empty: a residual backlog at a slower clock
                # is exactly how decay frames miss their deadlines.
                index = min(len(self.ladder) - 1, index + 1)
            if self.ladder[index] != dividers[column]:
                integral = 0.0  # bumpless restart at the new rung
            self._integral[column] = integral
            dividers[column] = self.ladder[index]
        return tuple(dividers)


class SlackGovernor(Governor):
    """Deadline governor: slowest divider that still makes the frame.

    The harness publishes, per epoch, the words still owed before the
    next frame deadline, the reference ticks remaining until it, and
    the measured tile cycles each word costs
    (``extras["words_to_deadline"]``, ``extras["ticks_to_deadline"]``,
    ``extras["cycles_per_word"]``).  The governor picks the largest
    divider whose clock still delivers the owed cycles inside the
    remaining window scaled by a guard band - per-frame completion
    margin turned directly into an operating point.  With nothing
    owed it parks on the slowest rung.
    """

    name = "slack"

    def __init__(
        self,
        ladder,
        columns=None,
        guard: float = 1.25,
    ) -> None:
        self.ladder = validate_ladder(ladder)
        if guard < 1.0:
            raise ConfigurationError("guard must be >= 1.0")
        self.columns = None if columns is None else tuple(columns)
        self.guard = guard

    def decide(self, telemetry: Telemetry) -> tuple:
        words = telemetry.extras.get("words_to_deadline")
        ticks = telemetry.extras.get("ticks_to_deadline")
        cycles_per_word = telemetry.extras.get("cycles_per_word")
        if words is None or ticks is None or cycles_per_word is None:
            return telemetry.dividers
        managed = self.columns if self.columns is not None \
            else tuple(range(len(telemetry.dividers)))
        dividers = list(telemetry.dividers)
        for column in managed:
            if telemetry.halted[column]:
                continue
            dividers[column] = self._divider_for(
                words, ticks, cycles_per_word
            )
        return tuple(dividers)

    def _divider_for(
        self, words: int, ticks: int, cycles_per_word: float
    ) -> int:
        if words <= 0:
            return self.ladder[-1]
        divider = slowest_safe_divider(
            self.ladder, ticks, words, cycles_per_word, self.guard
        )
        return divider if divider is not None else self.ladder[0]
