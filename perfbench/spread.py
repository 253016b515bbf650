"""Steadiness check: run one workload on ten seeds, report spreads.

    python3 perfbench/spread.py --workload corpus-cold

Runs the workload with ``--seed`` 1 to 10, printing each run's metrics,
then for every end-to-end metric the ten values' median and their
spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound from ``BENCHMARK.json``.  A steady benchmark
keeps every spread except ``setup_s``'s under a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The ``--seed`` values of one set of runs.
SEEDS = range(1, 11)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--corpus-seed", type=int, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict = {name: [] for name in bounds}
    for seed in SEEDS:
        command = [sys.executable, *spec["command"][1:],
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        if args.corpus_seed is not None:
            command += ["--corpus-seed", str(args.corpus_seed)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} ops failed")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={value[-1]:.4g}" for name, value in values.items()
        ), flush=True)
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        flag = "" if name == "setup_s" or spread < bounds[name] / 3 \
            else "  <-- above a third of the bound"
        print(f"{args.workload} {name:<16} median {median:12.5g} "
              f"spread {spread:6.3f} bound {bounds[name]}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
