"""Regenerate every table and figure: ``python -m repro.eval.runner``.

Options::

    python -m repro.eval.runner                      # all, to stdout
    python -m repro.eval.runner --experiment fig8    # one experiment
    python -m repro.eval.runner --output results/    # write .txt files
    python -m repro.eval.runner --jobs 4             # render in parallel
    python -m repro.eval.runner --measured           # sim-driven power
    python -m repro.eval.runner --dvfs               # governor eval
    python -m repro.eval.runner --coordinated -j 0   # pipeline eval
    python -m repro.eval.runner --engines --profile  # engine bench
    python -m repro.eval.runner --fuzz --fuzz-seed 23  # property sweep
    python -m repro.eval.runner --engines --trace trace.json  # timeline
    python -m repro.eval.runner --fuzz \
        --retries 2 --job-timeout 300 --keep-going  # supervision knobs

Experiments are independent pure functions of the model, so they
render concurrently through :func:`repro.sim.batch.parallel_map`.

``--measured`` regenerates the power experiments (Table 4, Figure 6,
and the Figure 8 sweep) from simulated activity batched through
:func:`repro.sim.batch.run_many`, and emits a ``BENCH_power.json``
artifact recording the measured-vs-analytical deltas and the
energy-ledger conservation audit; ``--jobs`` fans the kernel runs
across workers.

``--dvfs`` and ``--coordinated`` are the two suites of
:mod:`repro.eval.governed`: the bursty one-column scenarios under the
runtime-DVFS governors, and the multi-column pipelines under static /
independent / coordinated governance.  Each runs every (scenario,
policy) pair as one supervised job on both engines, asserts its
energy-ordering contract at zero misses with every governed run
bit-identical across engines, and emits ``BENCH_dvfs.json`` or
``BENCH_coordinated.json``; ``--jobs`` fans the pairs across
workers.  ``BENCH_SMOKE=1`` shortens the traces for CI.

``--fuzz`` sweeps one seed of the generative scenario engine
(:mod:`repro.workloads.generate`) through the invariant suite -
engine bit-identity, determinism, zero misses, energy conservation,
ledger books - and emits ``BENCH_fuzz.json`` with per-class coverage
counts.  Any failure names its ``(seed, index)`` pair; replay with
``tools/repro_fuzz_case.py``.  ``--fuzz-seed`` / ``--fuzz-count``
select the suite; ``--jobs`` fans cases across workers;
``BENCH_SMOKE=1`` shrinks the count.

``--engines`` times every benchmark workload under the reference and
compiled engines (:mod:`repro.eval.engines`), asserts bit-identical
statistics, and emits ``BENCH_engine.json`` with per-workload wall
clocks and speedups - the compiled fabric's perf trajectory.  On
full-size runs the recorded per-workload speedup floors are enforced
(the process exits non-zero below a floor); ``BENCH_SMOKE=1`` shrinks
the workload sizes for CI and disables floor enforcement.  Add
``--profile`` for per-phase wall-clock attribution (compile, dense
ticks, batched jumps, settlement, drain) in the JSON payload, and
``--trace out.json`` to export a Chrome-trace/Perfetto timeline of
the timeline-bearing workloads (after the timing loops, so sinks
never touch the recorded wall clocks).

Every batch runs supervised (:mod:`repro.sim.resilience`: retries,
per-job timeouts, worker crash containment, compiled-to-reference
engine fallback - see ``docs/robustness.md``).
``--job-timeout`` / ``--retries`` / ``--keep-going`` install the
process-default :class:`~repro.sim.resilience.FaultPolicy`; they
apply to every mode but ``--engines``, which runs no jobs.

Every BENCH artifact carries a ``telemetry`` block - event counts by
kind and category from the run's bus subscription plus the
traced/untraced overhead ratio where one was measured - and an
``outcomes`` block tallying supervised-job results (settled jobs,
retries, timeouts, crashes, failures, degradations), both stamped by
:func:`emit_artifact`, the single emit path all five evaluations
share.  ``tools/check_artifact.py`` checks a written
artifact against the rules its producing module owns.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.eval import fig5, fig6, fig7, fig8, fig9, fig10
from repro.eval import table1, table2, table3, table4
from repro.sim.batch import parallel_map
from repro.sim.resilience import (
    FaultPolicy,
    outcomes_snapshot,
    reset_outcome_counters,
    set_default_policy,
)

_EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
}

#: Experiments with a measured (simulation-driven) variant.
_MEASURED_EXPERIMENTS = ("table4", "fig6", "fig8")


def _render(name: str) -> str:
    """Render one experiment (module-level for worker pickling)."""
    return _EXPERIMENTS[name].render()


def run_all(names: list | None = None, jobs: int | None = 1) -> dict:
    """{experiment id: rendered text} for the selected experiments.

    Each render is one supervised job; ``jobs`` fans them across
    worker processes (``jobs=1``, the default, stays in-process;
    ``jobs=None`` sizes the worker count to the host).
    """
    selected = names or list(_EXPERIMENTS)
    unknown = set(selected) - set(_EXPERIMENTS)
    if unknown:
        raise KeyError(
            f"unknown experiment(s) {sorted(unknown)}; valid: "
            f"{sorted(_EXPERIMENTS)}"
        )
    rendered = parallel_map(_render, selected, processes=jobs)
    return dict(zip(selected, rendered))


def run_measured(names: list | None = None, processes: int | None = 1) -> dict:
    """{experiment id: measured render} plus the BENCH payload.

    The kernel simulations behind every measured render share one
    :func:`repro.sim.batch.run_many` batch (each kernel's activity is
    memoized process-wide),
    so Table 4, Figure 6, and the Figure 8 sweep price each kernel
    run once, on ``processes`` workers.  Returns the rendered texts
    under their experiment ids and the JSON payload under
    ``"BENCH_power"``.
    """
    from repro.eval.measured import bench_payload, evaluate_all

    selected = list(names) if names else list(_MEASURED_EXPERIMENTS)
    unknown = set(selected) - set(_MEASURED_EXPERIMENTS)
    if unknown:
        raise KeyError(
            f"experiment(s) {sorted(unknown)} have no measured "
            f"variant; valid: {sorted(_MEASURED_EXPERIMENTS)}"
        )
    # Every application is evaluated regardless of the render
    # selection: the BENCH payload always covers the full Table 4,
    # and the kernel runs behind it are memoized process-wide.
    evaluations = evaluate_all(processes=processes)
    outputs = {}
    for name in selected:
        if name == "fig8":
            outputs[name] = fig8.render_measured(processes)
        else:
            outputs[name] = _EXPERIMENTS[name].render_measured(
                evaluations
            )
    outputs["BENCH_power"] = bench_payload(evaluations)
    return outputs


def write_results(outputs: dict, directory: str) -> list:
    """Write each experiment's text to ``directory/<name>.txt``."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in outputs.items():
        target = path / f"{name}.txt"
        target.write_text(text + "\n")
        written.append(target)
    return written


def write_bench(directory: str | Path, payload: dict) -> Path:
    """Write ``payload`` to ``directory/<payload["artifact"]>.json``."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    target = path / f"{payload['artifact']}.json"
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return target


def emit_artifact(
    payload: dict,
    output: str | None,
    renders: list | None = None,
    telemetry: dict | None = None,
) -> Path:
    """The one emit path every BENCH evaluation shares.

    Stamps the telemetry summary into the payload, prints the
    human-readable renders, writes the artifact with
    :func:`write_bench`, and announces the written path.
    ``telemetry`` defaults to an explicit zero block so consumers can
    distinguish "nothing subscribed" from "field missing".

    Also stamps the run's job-outcome tallies (settled jobs, retries,
    timeouts, worker crashes, failures, engine degradations) from
    :func:`repro.sim.resilience.outcomes_snapshot` under
    ``outcomes`` - a benchmark artifact produced by a run that
    silently retried or degraded jobs is not comparable, and
    ``tools/check_artifact.py`` holds the line in CI
    (:func:`repro.sim.resilience.check_outcomes`).
    """
    summary = dict(telemetry) if telemetry is not None else {
        "events": 0, "by_kind": {}, "by_category": {},
    }
    summary.setdefault("overhead_ratio", None)
    payload["telemetry"] = summary
    payload["outcomes"] = outcomes_snapshot()
    for text in renders or ():
        if text:
            print(text)
    target = write_bench(output or ".", payload)
    print(f"wrote {target}")
    return target


def main(argv: list | None = None) -> None:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures."
    )
    parser.add_argument(
        "--experiment", "-e", action="append", dest="experiments",
        choices=sorted(_EXPERIMENTS), default=None,
        help="run one experiment (repeatable); default: all",
    )
    parser.add_argument(
        "--output", "-o", default=None, metavar="DIR",
        help="write each experiment to DIR/<name>.txt",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="run N supervised jobs in parallel: experiment renders, "
             "--measured kernel runs, --fuzz cases, --dvfs and "
             "--coordinated pairs (0 = one per CPU)",
    )
    parser.add_argument(
        "--measured", action="store_true",
        help="regenerate Table 4 / Figure 6 / Figure 8 from simulated "
             "activity and emit BENCH_power.json",
    )
    parser.add_argument(
        "--dvfs", action="store_true",
        help="run the bursty scenarios under the DVFS governors, "
             "assert the energy-vs-deadline contract, and emit "
             "BENCH_dvfs.json",
    )
    parser.add_argument(
        "--coordinated", action="store_true",
        help="run the multi-column pipeline scenarios under static, "
             "independent, and coordinated governance, assert the "
             "energy-ordering and bit-identical-engines contract, "
             "and emit BENCH_coordinated.json",
    )
    parser.add_argument(
        "--fuzz", action="store_true",
        help="sweep one seed of the generative scenario engine "
             "through the invariant suite (bit-identity, "
             "determinism, zero misses, conservation, ledger books) "
             "and emit BENCH_fuzz.json with per-class coverage",
    )
    parser.add_argument(
        "--fuzz-seed", type=int, default=None, metavar="SEED",
        help="with --fuzz: suite seed (default 11); any failing case "
             "reproduces from its (seed, index) pair alone",
    )
    parser.add_argument(
        "--fuzz-count", type=int, default=None, metavar="N",
        help="with --fuzz: number of generated cases (default 200, "
             "or 24 under BENCH_SMOKE=1)",
    )
    parser.add_argument(
        "--engines", action="store_true",
        help="time every benchmark workload under the reference and "
             "compiled engines, assert bit-identical statistics, "
             "enforce the recorded speedup floors on full-size runs, "
             "and emit BENCH_engine.json",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="with --engines: add one instrumented compiled run per "
             "workload and attach its per-phase wall-clock "
             "attribution to BENCH_engine.json",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="with --engines: re-run the timeline-bearing workloads "
             "with the telemetry bus subscribed (after the timing "
             "loops) and write a Chrome-trace/Perfetto JSON to FILE",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget; over-budget workers are "
             "terminated and the job retried (applies to every mode "
             "but --engines)",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry each timed-out or crashed job up to N times "
             "(default 2; applies to every mode but --engines); a "
             "job that raises settles failed after one attempt",
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help="collect-partial mode: supervise every job to a typed "
             "outcome before failing instead of aborting the sweep on "
             "the first terminal failure (applies to every mode but "
             "--engines)",
    )
    args = parser.parse_args(argv)
    jobs = None if args.jobs == 0 else args.jobs
    reset_outcome_counters()  # each artifact tallies its own run
    if (
        args.job_timeout is not None or args.retries is not None
        or args.keep_going
    ):
        set_default_policy(FaultPolicy(
            max_retries=args.retries if args.retries is not None else 2,
            timeout_s=args.job_timeout,
            keep_going=args.keep_going,
        ))
    if args.profile and not args.engines:
        parser.error("--profile only applies to --engines")
    if args.trace and not args.engines:
        parser.error("--trace only applies to --engines")
    exclusive = [
        name for name, chosen in (
            ("--measured", args.measured),
            ("--dvfs", args.dvfs),
            ("--coordinated", args.coordinated),
            ("--fuzz", args.fuzz),
            ("--engines", args.engines),
        ) if chosen
    ]
    if len(exclusive) > 1:
        parser.error(
            f"{' and '.join(exclusive)} are separate evaluations; "
            f"run them one at a time"
        )
    if (
        args.fuzz_seed is not None or args.fuzz_count is not None
    ) and not args.fuzz:
        parser.error("--fuzz-seed/--fuzz-count only apply to --fuzz")
    if args.fuzz:
        from repro.eval import fuzz
        from repro.obs.events import subscribed
        from repro.obs.export import CountingSink

        if args.experiments:
            parser.error("--fuzz generates its own scenarios; drop "
                         "--experiment")
        seed = args.fuzz_seed if args.fuzz_seed is not None \
            else fuzz.DEFAULT_SEED
        sink = CountingSink()
        with subscribed(sink):
            rows = fuzz.evaluate(seed, args.fuzz_count, processes=jobs)
        emit_artifact(
            fuzz.bench_payload(rows, seed), args.output,
            renders=[fuzz.render(rows, seed)],
            telemetry=sink.summary(),
        )
        return
    if args.engines:
        from repro.eval import engines

        if args.experiments:
            parser.error("--engines runs its own workloads; drop "
                         "--experiment")
        if args.jobs != 1:
            parser.error("--engines times workloads sequentially so "
                         "wall clocks are comparable; --jobs does "
                         "not apply")
        evaluations = engines.evaluate_all(profile=args.profile)
        # Tracing happens after every timing loop so no sink ever
        # touches the recorded wall clocks (the telemetry block then
        # carries the measured traced/untraced overhead ratio).
        telemetry = (
            engines.trace_workloads(args.trace) if args.trace
            else None
        )
        # The profile table prints before the floor check below can
        # raise: a failing floor is exactly when the counters are
        # needed to see which striding tier stopped engaging.
        profile_table = engines.render_profile(evaluations)
        emit_artifact(
            engines.bench_payload(evaluations), args.output,
            renders=[engines.render(evaluations), profile_table],
            telemetry=telemetry,
        )
        failed = engines.below_floor(evaluations)
        if failed:
            floors = ", ".join(
                f"{key} < {engines.SPEEDUP_FLOORS[key]}x"
                for key in failed
            )
            raise SystemExit(
                f"speedup below recorded floor: {floors}"
            )
        return
    if args.dvfs or args.coordinated:
        from repro.eval import governed
        from repro.obs.events import subscribed
        from repro.obs.export import CountingSink

        name = "dvfs" if args.dvfs else "coordinated"
        if args.experiments:
            parser.error(f"--{name} runs its own scenarios; drop "
                         f"--experiment")
        sink = CountingSink()
        with subscribed(sink):
            evaluations = governed.evaluate(name, processes=jobs)
        emit_artifact(
            governed.bench_payload(name, evaluations), args.output,
            renders=[governed.render(evaluations)],
            telemetry=sink.summary(),
        )
        return
    if args.measured:
        from repro.obs.events import subscribed
        from repro.obs.export import CountingSink

        names = args.experiments
        if names is not None:
            unsupported = sorted(
                set(names) - set(_MEASURED_EXPERIMENTS)
            )
            if unsupported:
                parser.error(
                    f"experiment(s) {unsupported} have no measured "
                    f"variant; --measured supports "
                    f"{sorted(_MEASURED_EXPERIMENTS)}"
                )
        sink = CountingSink()
        with subscribed(sink):
            measured = run_measured(names, processes=jobs)
        payload = measured.pop("BENCH_power")
        if args.output:
            for written in write_results(measured, args.output):
                print(f"wrote {written}")
        else:
            for name, text in measured.items():
                print("=" * 72)
                print(f"== {name} (measured)")
                print("=" * 72)
                print(text)
                print()
        emit_artifact(
            payload, args.output,
            telemetry=sink.summary(),
        )
        return
    outputs = run_all(args.experiments, jobs=jobs)
    if args.output:
        for target in write_results(outputs, args.output):
            print(f"wrote {target}")
        return
    for name, text in outputs.items():
        print("=" * 72)
        print(f"== {name}")
        print("=" * 72)
        print(text)
        print()


if __name__ == "__main__":
    main()
