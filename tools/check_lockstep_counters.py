"""Assert the compiled engine's striding tiers engaged in a bench run.

The speedup floors catch a perf regression only on full-size runs;
what they cannot see is a *guard* regression - a change that makes
lockstep rounds, fused comm-headed runner calls, orbit laps, or
closed-form loop batches silently stop engaging while the fallback
still produces correct (bit-identical) statistics at a fraction of
the speed.  On
smoke-sized CI runs the wall clocks are noise but the event counters
are exact, so this tool reads a profiled ``BENCH_engine.json`` and
fails when any watched counter is zero on a workload that is known
to drive it.

``ddc_pipeline`` is the canonical probe: live DOUs on every bus keep
the orbit batcher, the lockstep compiler, and the comm-headed run
fusion all active even at smoke sizes.  ``mixed_dividers`` runs
``ADDI``-only loops, which the column runner settles in closed form
(``vector_batches``).

Usage::

    python tools/check_lockstep_counters.py BENCH_engine.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# workload -> profile counters that must be strictly positive there.
REQUIRED_COUNTERS = {
    "ddc_pipeline": (
        "lockstep_batches",
        "orbit_laps",
        "fused_runner_calls",
    ),
    "mixed_dividers": ("vector_batches",),
}


def check(payload: dict) -> list:
    """Returns a list of failure strings (empty = pass)."""
    failures = []
    workloads = payload.get("workloads", {})
    for key, counters in REQUIRED_COUNTERS.items():
        entry = workloads.get(key)
        if entry is None:
            failures.append(f"workload {key!r} missing from artifact")
            continue
        profile = entry.get("profile")
        if not isinstance(profile, dict):
            failures.append(
                f"{key}: no profile attached - run the bench with "
                f"--profile"
            )
            continue
        for counter in counters:
            value = profile.get(counter, 0)
            status = "ok" if value > 0 else "NOT ENGAGED"
            print(f"{key:<16} {counter:<20} {value:>8}  {status}")
            if value <= 0:
                failures.append(
                    f"{key}: {counter} is {value} - the tier never "
                    f"engaged"
                )
    return failures


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when a compiled-engine striding tier did "
                    "not engage in a profiled benchmark artifact."
    )
    parser.add_argument(
        "artifact", metavar="BENCH_ENGINE_JSON",
        help="a BENCH_engine.json produced with --profile",
    )
    args = parser.parse_args(argv)
    payload = json.loads(Path(args.artifact).read_text())
    if payload.get("artifact") != "BENCH_engine":
        print(
            f"FAIL: not a BENCH_engine artifact: "
            f"{payload.get('artifact')!r}",
            file=sys.stderr,
        )
        return 1
    failures = check(payload)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("all watched striding counters engaged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
