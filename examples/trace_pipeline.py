"""Trace a compiled DDC run into a Perfetto-loadable timeline.

Runs the DDC streaming pipeline twice through the telemetry plane:
once into a counting sink (to show what the run emits) and once into
the Chrome-trace builder plus a JSONL stream, then writes both
artifacts.  Open the JSON in https://ui.perfetto.dev or
``chrome://tracing`` — one process per run, one track per clock
domain (``column0`` ... ``columnN``) plus ``engine``, ``governor``,
and ``ledger`` rows.

    python examples/trace_pipeline.py [out_dir]
"""

import sys
from pathlib import Path

from repro.eval.engines import build_ddc_stream_chip
from repro.obs.events import subscribed
from repro.obs.export import (
    ChromeTraceBuilder,
    CountingSink,
    JsonlSink,
    write_chrome_trace,
)
from repro.sim.engine import create_engine


def run_once():
    chip = build_ddc_stream_chip(samples=40)
    return create_engine("compiled", chip).run()


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")

    # Pass 1: count what a traced run emits (and warm the lockstep
    # plan caches so the timeline below replays deterministic rounds).
    counting = CountingSink()
    with subscribed(counting):
        stats = run_once()
    print(f"run complete: {stats.reference_ticks} reference ticks, "
          f"{stats.total_bus_words} bus words")
    summary = counting.summary()
    print(f"telemetry: {summary['events']} events "
          f"(kinds {summary['by_kind']})")

    # Pass 2: identical run, exported.  Bit-identical stats are the
    # plane's standing contract — assert it like the tests do.
    builder = ChromeTraceBuilder()
    builder.process("ddc_pipeline")
    trace_path = out_dir / "trace_ddc.json"
    jsonl_path = out_dir / "events_ddc.jsonl"
    with subscribed(builder), JsonlSink(jsonl_path) as stream:
        with subscribed(stream):
            traced = run_once()
    assert traced == stats, "telemetry must be observe-only"

    write_chrome_trace(trace_path, builder)
    print(f"wrote {trace_path} "
          f"(open in https://ui.perfetto.dev) and {jsonl_path}")


if __name__ == "__main__":
    main()
