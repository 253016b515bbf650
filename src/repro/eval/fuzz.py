"""Property-based fuzz evaluation: generated scenarios at scale.

``python -m repro.eval.runner --fuzz`` sweeps one seed's generated
scenario suite (:mod:`repro.workloads.generate`) through the standing
invariant suite - reference/compiled bit-identity, run determinism,
zero deadline misses, energy conservation, ledger books balancing -
and emits the ``BENCH_fuzz.json`` artifact with per-class case
counts.  Any failing case aborts the evaluation with its
``(seed, index)`` pair in the message; replay it verbosely with
``python tools/repro_fuzz_case.py SEED INDEX``.

``--fuzz-seed`` / ``--fuzz-count`` select the suite (defaults below);
``BENCH_SMOKE=1`` shrinks the count so CI's tier-1 lane exercises the
full path cheaply while the dedicated fuzz lane runs the real sweep.
"""

from __future__ import annotations

from collections import Counter

from repro.eval.smoke import smoke
from repro.sim.batch import parallel_map
from repro.workloads.generate import (
    APPS,
    CONSERVATION_TOLERANCE,
    TOPOLOGIES,
    check_case,
)

__all__ = [
    "DEFAULT_COUNT",
    "DEFAULT_SEED",
    "INVARIANTS",
    "bench_payload",
    "check_bench",
    "evaluate",
    "render",
]

#: Default suite identity; CI's fuzz matrix overrides the seed.
DEFAULT_SEED = 11
DEFAULT_COUNT = 200

_SMOKE_COUNT = 24

#: The properties every generated case is held to (documentation
#: mirrored into the artifact; the enforcement lives in
#: :func:`repro.workloads.generate.check_invariants`).
INVARIANTS = (
    "reference/compiled engines bit-identical "
    "(statistics, timeline, transitions)",
    "repeated runs fingerprint identically (determinism)",
    "zero deadline misses under the sampled governor",
    f"energy conservation relative error <= {CONSERVATION_TOLERANCE}",
    "energy ledger books balance (totals equal summed entries; "
    "gated windows carry retention leakage only)",
)


def default_count() -> int:
    """The sweep size: the full suite, or the smoke shard in CI."""
    return _SMOKE_COUNT if smoke() else DEFAULT_COUNT


def evaluate(
    seed: int = DEFAULT_SEED,
    count: int | None = None,
    processes: int | None = None,
) -> list:
    """Check ``count`` generated cases of one seed; return the rows.

    Each case is one supervised job of
    :func:`repro.sim.batch.parallel_map`, labelled with its pair and
    regenerated from the bare ``(seed, index)`` - the same path a
    human repro takes.  A case that still fails after its retries
    raises :class:`~repro.errors.BatchError` naming the pair; there is
    nothing to shrink.
    """
    if count is None:
        count = default_count()
    cases = [(seed, index) for index in range(count)]
    labels = [f"fuzz (seed {seed}, index {index})"
              for _, index in cases]
    return parallel_map(
        check_case, cases, processes=processes, labels=labels,
    )


def bench_payload(
    rows: list, seed: int = DEFAULT_SEED
) -> dict:
    """The ``BENCH_fuzz.json`` content."""
    classes = Counter(row["class"] for row in rows)
    apps = Counter(row["app"] for row in rows)
    topologies = Counter(row["topology"] for row in rows)
    governors = Counter(row["governor"] for row in rows)
    worst = max(
        (row["conservation_error"] for row in rows), default=0.0
    )
    return {
        "artifact": "BENCH_fuzz",
        "description": "Property-based sweep of generated pipeline "
                       "scenarios (full app matrix; linear, "
                       "decimating, and fork/join topologies) "
                       "through the invariant suite; any failure "
                       "reproduces from its (seed, index) pair",
        "smoke": smoke(),
        "seed": seed,
        "cases": len(rows),
        "failures": 0,
        "invariants": list(INVARIANTS),
        "conservation_tolerance": CONSERVATION_TOLERANCE,
        "worst_conservation_error": worst,
        "coverage": {
            "apps": {app: apps.get(app, 0) for app in APPS},
            "topologies": {
                topology: topologies.get(topology, 0)
                for topology in TOPOLOGIES
            },
            "governors": dict(sorted(governors.items())),
            "classes": dict(sorted(classes.items())),
        },
        "totals": {
            "simulated_words": sum(
                row["total_words"] for row in rows
            ),
            "energy_nj": round(
                sum(row["energy_nj"] for row in rows), 3
            ),
            "transitions": sum(row["transitions"] for row in rows),
            "gate_segments": sum(
                row["gate_segments"] for row in rows
            ),
            "rail_wakes": sum(row["rail_wakes"] for row in rows),
        },
    }


def render(rows: list, seed: int = DEFAULT_SEED) -> str:
    """Human-readable coverage summary."""
    classes = Counter(row["class"] for row in rows)
    lines = [
        f"fuzz seed {seed}: {len(rows)} generated scenarios, "
        f"0 failures",
        f"{'class (app/topology/governor)':<38} {'cases':>5}",
        "-" * 44,
    ]
    for key in sorted(classes):
        lines.append(f"{key:<38} {classes[key]:>5}")
    worst = max(
        (row["conservation_error"] for row in rows), default=0.0
    )
    lines.append(
        f"worst conservation error {worst:.3g} "
        f"(tolerance {CONSERVATION_TOLERANCE})"
    )
    return "\n".join(lines)


def check_bench(payload: dict, min_cases: int = 1) -> list:
    """Failures in a ``BENCH_fuzz`` payload (empty = valid).

    The sweep must have run at least ``min_cases`` cases with zero
    failures, each case one supervised job (``outcomes["ok"]`` equals
    the case count), every app and topology of the stratified
    generator must have a positive case count, the per-class counts
    must add up to the case count, and the worst conservation error
    must sit inside
    :data:`~repro.workloads.generate.CONSERVATION_TOLERANCE`, the
    tolerance the artifact must also state.
    """
    failures = []
    cases = payload.get("cases")
    if not isinstance(cases, int) or isinstance(cases, bool) \
            or cases < min_cases:
        failures.append(
            f"cases must be an integer >= {min_cases}, got {cases!r}"
        )
    if payload.get("failures") != 0:
        failures.append(f"failures must be 0, got "
                        f"{payload.get('failures')!r}")
    outcomes = payload.get("outcomes")
    settled = outcomes.get("ok") if isinstance(outcomes, dict) else None
    if settled != cases:
        failures.append(f"outcomes['ok'] must count the {cases!r} "
                        f"supervised case jobs, got {settled!r}")
    if not isinstance(payload.get("seed"), int):
        failures.append(f"seed must be an integer, got "
                        f"{payload.get('seed')!r}")
    invariants = payload.get("invariants")
    if not isinstance(invariants, list) or not invariants:
        failures.append("invariants must be a non-empty list")
    if payload.get("conservation_tolerance") != CONSERVATION_TOLERANCE:
        failures.append(
            f"conservation_tolerance must state the sweep's "
            f"{CONSERVATION_TOLERANCE}, got "
            f"{payload.get('conservation_tolerance')!r}"
        )
    worst = payload.get("worst_conservation_error")
    if not isinstance(worst, (int, float)) \
            or worst > CONSERVATION_TOLERANCE:
        failures.append(
            f"worst conservation error {worst!r} is not within "
            f"{CONSERVATION_TOLERANCE}"
        )
    coverage = payload.get("coverage")
    if not isinstance(coverage, dict):
        failures.append(f"coverage must be a mapping, got "
                        f"{type(coverage).__name__}")
        return failures
    for axis, members in (("apps", APPS), ("topologies", TOPOLOGIES)):
        counts = coverage.get(axis)
        if not isinstance(counts, dict):
            failures.append(f"coverage[{axis!r}] missing")
            continue
        for member in members:
            count = counts.get(member)
            if not isinstance(count, int) or count <= 0:
                failures.append(
                    f"coverage[{axis!r}][{member!r}] must be a "
                    f"positive case count, got {count!r}"
                )
    classes = coverage.get("classes")
    if isinstance(classes, dict) and isinstance(cases, int):
        total = sum(value for value in classes.values()
                    if isinstance(value, int))
        if total != cases:
            failures.append(f"per-class counts sum to {total}, not "
                            f"the declared {cases} cases")
    return failures
