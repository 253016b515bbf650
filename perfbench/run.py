"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload corpus-cold --seed 11 \\
        --seconds 20 --trace 0

Run from the root of a checkout.  Every measured process is a fresh
interpreter started by this script (``worker.py``), one at a time:

1. ``expect`` (only when the records are not cached yet) - the
   reference engine's results for every input of the run, stored under
   ``.bench_build/perfbench/`` keyed by a hash of ``src/`` and of
   ``workloads.py``;
2. ``measure`` - set-up plus the fixed set of timed ops, each checked
   against the records;
3. with ``--trace 0``, ``SETUPS - 1`` more ``setup`` processes, so
   ``setup_s`` is the median of ``SETUPS`` cold starts; with
   ``--trace 1``, one ``trace`` process whose op wall time over the
   ``measure`` process's gives ``trace.overhead_ratio``.

The last stdout line is the JSON result; the lines before it print
every metric by name with its unit, plus ``op_fail_ratio``, which the
JSON carries as ``failed`` and ``attempted``.  Exits non-zero, printing
no result, when the program under ``src/`` is missing or a process
fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import CORPUS_SEED, WORKLOADS, Spec  # noqa: E402

#: Cold starts per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3

#: Wall-clock budget of one invocation, kept under the 180 s limit.
BUDGET_S = 170.0

#: Where expected records and span files go (inside the checkout).
CACHE = ROOT / ".bench_build" / "perfbench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_instr_per_s": "instr/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def source_hash() -> str:
    """Content hash of the program and of the workload definitions, so
    records never outlive either."""
    digest = hashlib.sha256()
    for path in [*sorted((ROOT / "src").rglob("*.py")),
                 HERE / "workloads.py"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Runner:
    """Starts worker processes one at a time within the budget."""

    def __init__(self, args: argparse.Namespace, ops: int) -> None:
        self.args = args
        self.ops = ops
        self.deadline = time.monotonic() + BUDGET_S

    def worker(self, role: str, records: Path, spans: Path | None = None,
               ) -> tuple:
        """Run one worker to completion; (its JSON report, start time)."""
        command = [
            sys.executable, str(HERE / "worker.py"), role,
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--corpus-seed", str(self.args.corpus_seed),
            "--ops", str(self.ops),
            "--records", str(records),
        ]
        if spans is not None:
            command += ["--spans", str(spans)]
        if self.args.corrupt_expected:
            command.append("--corrupt-expected")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError(f"{role}: out of time budget")
        started = time.perf_counter()
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=remaining,
        )
        if done.returncode != 0 or not done.stdout.strip():
            raise RuntimeError(
                f"{role} worker exited {done.returncode}:\n"
                f"{done.stderr[-2000:]}"
            )
        return json.loads(done.stdout.strip().splitlines()[-1]), started


def tail(times: list) -> tuple:
    """(value, percentile): the highest percentile with 10 ops beyond.

    Every run has at least 15 ops (``Workload.ops_for``).
    """
    ordered = sorted(times)
    rank = len(ordered) - 11
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(report: dict, setups: list) -> dict:
    times = report["op_s"]
    tail_s, _ = tail(times)
    return {
        "setup_s": statistics.median(setups),
        "sim_instr_per_s": report["instructions"] / sum(times),
        "op_ms_p50": 1e3 * statistics.median(times),
        "op_ms_tail": 1e3 * tail_s,
        "cpu_s": report["cpu_s"],
        "peak_rss_mb": report["peak_rss_mb"],
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    """Every per-layer metric of a traced run, with its unit."""
    layers = dict(traced["layers"])
    layers["setup.import_s"] = traced["import_s"]
    layers["sim.ticks"] = traced["ticks"]
    layers["sim.instructions"] = traced["instructions"]
    layers["trace.overhead_ratio"] = (
        sum(traced["op_s"]) / sum(untraced["op_s"])
    )
    return {name: (value, per_layer_unit(name))
            for name, value in sorted(layers.items())}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("trace.overhead_ratio", "trace.coverage"):
        return "ratio"
    return "count"


def print_shares(workload: str, attempted: int, metrics: dict) -> None:
    """Each layer's self time as a share of the traced op wall time."""
    wall = metrics["trace.op_wall_s"][0]
    print(f"{workload}: layer self time over {attempted} ops, "
          f"{wall:.3f} s traced op wall")
    for name, (value, unit) in metrics.items():
        if unit == "s" and not name.startswith(("trace.", "setup.")):
            print(f"  {name:<28} {value:10.4f} s "
                  f"{100 * value / wall:6.2f} %")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=CORPUS_SEED,
                        help="input seed (case order, kernel data)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="sizes the fixed op count of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=CORPUS_SEED,
                        help="generate_scenario seed of the corpus "
                             "(default: the ROADMAP corpus)")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="falsify the expected records (self-test)")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'repro'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    ops = workload.ops_for(args.seconds)

    CACHE.mkdir(parents=True, exist_ok=True)
    key = workload.expected_key(Spec(args.seed, args.corpus_seed, ops))
    records = CACHE / f"expected-{key}-{source_hash()}.json"
    runner = Runner(args, ops)
    try:
        if not records.exists():
            runner.worker("expect", records)
        report, started = runner.worker("measure", records)
        setups = [report["first_op"] - started]
        if args.trace:
            spans = CACHE / (f"spans-{args.workload}-s{args.seed}"
                             f"-c{args.corpus_seed}.json.gz")
            traced, _ = runner.worker("trace", records, spans)
        else:
            for _ in range(SETUPS - 1):
                sample, started = runner.worker("setup", records)
                setups.append(sample["first_op"] - started)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for error in report["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    attempted = len(report["op_s"])
    failed = report["failed"]
    if args.trace:
        failed = max(failed, traced["failed"])
        metrics = per_layer(traced, report)
        print_shares(args.workload, attempted, metrics)
        print(f"  spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value
                   in end_to_end(report, setups).items()}
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    _, tail_pct = tail(report["op_s"])
    print(f"{args.workload} op_fail_ratio = {failed / attempted:.6g} "
          f"ratio ({failed} of {attempted} ops failed); op_ms_tail is "
          f"p{tail_pct:.1f} of {attempted} ops")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
