"""One benchmark process: a fresh interpreter, one client, one thread.

``run.py`` starts this script once per role and reads the JSON object
it prints as its last stdout line:

``expect``
    build the reference-engine records for the run's inputs and write
    them to ``--records`` (untimed, outside every measured process);
``setup``
    import, generate inputs and warm up, then report the moment the
    first timed op would start and exit (one more ``setup_s`` sample);
``measure``
    set up, then time every op, checking each against ``--records``;
``trace``
    the same as ``measure`` with every layer boundary wrapped.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, Spec, corrupt  # noqa: E402


def cpu_seconds() -> float:
    """User plus system CPU of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def measure(workload, state, n: int, records: dict, tracer=None) -> dict:
    """Time ``n`` ops back to back; check each outside its timing."""
    times, errors = [], []
    cpu = 0.0
    work = {"instructions": 0, "ticks": 0}
    for k in range(n):
        cpu_start = cpu_seconds()
        if tracer is not None:
            tracer.begin_op(k)
        start = perf_counter()
        try:
            result = workload.op(state, k)
        except Exception as exc:  # a failed op is counted, never fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = ""
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        cpu += cpu_seconds() - cpu_start
        times.append(elapsed)
        if not error:
            try:
                checked = workload.check(state, k, result, records)
            except Exception as exc:  # a malformed result fails its op
                error = f"check raised {type(exc).__name__}: {exc}"
            else:
                error = checked.error
        if not error:
            work["instructions"] += checked.instructions
            work["ticks"] += checked.ticks
        if error:
            errors.append(f"op {k}: {error}")
    return {
        "op_s": times,
        "cpu_s": cpu,
        "failed": len(errors),
        "errors": errors[:5],
        **work,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role",
                        choices=("expect", "setup", "measure", "trace"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--corpus-seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--records", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--corrupt-expected", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    spec = Spec(args.seed, args.corpus_seed, args.ops)

    for module in workload.imports:
        importlib.import_module(module)
    imported = perf_counter()

    if args.role == "expect":
        records = workload.expected(spec)
        path = Path(args.records)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        tmp.write_text(json.dumps(records, indent=1) + "\n")
        os.replace(tmp, path)
        print(json.dumps({"records": len(records)}))
        return 0

    tracer = None
    if args.role == "trace":
        from layers import Tracer

        tracer = Tracer()
        tracer.install()

    state = workload.setup(spec)
    first_op = perf_counter()
    report = {"first_op": first_op, "import_s": imported - STARTED}
    if args.role == "setup":
        print(json.dumps(report))
        return 0

    records = json.loads(Path(args.records).read_text())
    if args.corrupt_expected:
        records = corrupt(records)
    report.update(measure(workload, state, args.ops, records, tracer))
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if tracer is not None:
        report["layers"] = tracer.metrics()
        if args.spans:
            tracer.write(args.spans, {
                "workload": args.workload, "seed": args.seed,
                "corpus_seed": args.corpus_seed, "ops": args.ops,
            })
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
