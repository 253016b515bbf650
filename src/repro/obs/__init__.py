"""Unified telemetry plane: event bus and exporters.

Synchroscalar's whole argument is about where time and energy go -
per-domain frequency residency, stall/starve behaviour at domain
boundaries, gating windows - and this package is the one structured
surface every layer reports into and every consumer reads from:

:mod:`repro.obs.events`
    Typed span/instant/counter events on a process-wide
    :data:`~repro.obs.events.BUS`.  Emission compiles down to a
    single attribute check when no sink is subscribed, so the
    instrumented engine/control/power/batch layers cost nothing on
    untraced runs (the contract the overhead tests pin down).

:mod:`repro.obs.export`
    Sinks and exporters: a Chrome-trace/Perfetto JSON builder that
    renders a run as a timeline with one track per clock domain, a
    JSONL streaming sink for service-style consumers, and a counting
    sink for cheap run summaries.

Tracing never changes simulation behaviour: a fully subscribed run
and a no-sink run produce bit-identical
:class:`~repro.sim.stats.SimulationStats` (asserted differentially),
because sinks only observe - no emission site steers control flow.
"""
