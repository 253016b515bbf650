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
