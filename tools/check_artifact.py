"""Check BENCH_* artifacts and Chrome traces against their rules.

Usage::

    PYTHONPATH=src python tools/check_artifact.py bench-artifacts/*.json
    PYTHONPATH=src python tools/check_artifact.py trace.json \
        --require-track column0 --require-track governor
    PYTHONPATH=src python tools/check_artifact.py BENCH_fuzz.json \
        --min-cases 200

Each rule is written once, beside the code that writes the artifact;
this tool only dispatches on the payload:

* a payload with ``traceEvents`` is a Chrome trace:
  :func:`repro.obs.export.validate_chrome_trace`, with its track rules;
* every ``BENCH_*`` artifact carries a clean ``outcomes`` block:
  :func:`repro.sim.resilience.check_outcomes`;
* ``BENCH_engine`` also gets :func:`repro.eval.engines.check_bench`
  (profile counters, engaged tiers) and
  :func:`repro.eval.engines.compare_baseline` against ``--baseline``;
* ``BENCH_fuzz`` also gets :func:`repro.eval.fuzz.check_bench`;
* ``BENCH_dvfs`` and ``BENCH_coordinated`` also get
  :func:`repro.eval.governed.check_bench`.

Prints one verdict per path and exits non-zero if any path fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.eval import engines, fuzz, governed
from repro.obs.export import validate_chrome_trace
from repro.sim.resilience import check_outcomes

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent \
    / "benchmarks" / "engine_baseline.json"


def check(payload, baseline: dict, min_cases: int = 1,
          tracks: tuple = ()) -> list:
    """Failure strings for one parsed payload (empty = pass)."""
    if isinstance(payload, dict) and "traceEvents" in payload:
        return validate_chrome_trace(payload, tracks)
    artifact = payload.get("artifact") if isinstance(payload, dict) \
        else None
    if not isinstance(artifact, str) or not artifact.startswith("BENCH_"):
        return [f"neither a Chrome trace nor a BENCH_* artifact "
                f"(artifact={artifact!r})"]
    failures = check_outcomes(payload)
    if artifact == "BENCH_engine":
        failures += engines.check_bench(payload)
        failures += engines.compare_baseline(payload, baseline)
    elif artifact == "BENCH_fuzz":
        failures += fuzz.check_bench(payload, min_cases)
    elif artifact.removeprefix("BENCH_") in governed.SUITES:
        failures += governed.check_bench(payload)
    return failures


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Check BENCH_* artifacts and Chrome traces."
    )
    parser.add_argument("paths", nargs="+", metavar="JSON")
    parser.add_argument(
        "--baseline", default=str(DEFAULT_BASELINE), metavar="JSON",
        help="BENCH_engine baseline to diff against "
             "(default: benchmarks/engine_baseline.json)",
    )
    parser.add_argument(
        "--min-cases", type=int, default=1, metavar="N",
        help="fewest cases a BENCH_fuzz sweep may have run (default 1)",
    )
    parser.add_argument(
        "--require-track", action="append", dest="tracks", default=[],
        metavar="NAME",
        help="fail a trace without this track (repeatable)",
    )
    args = parser.parse_args(argv)
    baseline = json.loads(Path(args.baseline).read_text())
    failed = False
    for path in args.paths:
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, ValueError) as error:
            failures = [f"unreadable: {error}"]
        else:
            failures = check(payload, baseline, args.min_cases,
                             args.tracks)
        for failure in failures:
            print(f"FAIL: {path}: {failure}", file=sys.stderr)
        if not failures:
            kind = "Chrome trace" if "traceEvents" in payload \
                else f"{payload['artifact']}, outcomes fault-free"
            print(f"ok: {path} ({kind})")
        failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
