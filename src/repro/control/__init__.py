"""Runtime DVFS control subsystem.

Closes the loop the paper leaves static: feedback
:mod:`governors <repro.control.governor>` observe buffer occupancy
and deadline slack at epoch boundaries, a
:mod:`transition model <repro.control.transitions>` prices and
legality-checks each divider/rail change (PLL relock, rail
charge/discharge, hyperperiod-boundary commits), the
:mod:`epoch runner <repro.control.epochs>` drives any simulation
engine through the resulting `(ClockTree, duration)` timeline with
bit-identical statistics on the compiled and reference paths, and the
:mod:`chip-level coordinator <repro.control.coordinator>` governs
multi-column pipelines end to end - per-stage governors under a
cross-domain rate-matching policy, single-boundary commits, and
power gating of quiescent columns.
"""

from repro.control.governor import (
    GOVERNOR_KINDS,
    Governor,
    OccupancyPIGovernor,
    SlackGovernor,
    StaticGovernor,
    Telemetry,
    create_governor,
    validate_ladder,
)
from repro.control.transitions import TransitionModel, TransitionRecord
from repro.control.epochs import (
    GovernedRun,
    run_governed,
    snapshot_telemetry,
)
from repro.control.coordinator import (
    CoordinatedGovernor,
    GateSegment,
    IndependentSlackGovernor,
    plan_power_gating,
)

__all__ = [
    "CoordinatedGovernor",
    "GOVERNOR_KINDS",
    "GateSegment",
    "Governor",
    "GovernedRun",
    "IndependentSlackGovernor",
    "OccupancyPIGovernor",
    "SlackGovernor",
    "StaticGovernor",
    "Telemetry",
    "TransitionModel",
    "TransitionRecord",
    "create_governor",
    "plan_power_gating",
    "run_governed",
    "snapshot_telemetry",
    "validate_ladder",
]
