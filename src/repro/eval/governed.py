"""Governed evaluations: retuned clock domains vs worst-case provisioning.

``python -m repro.eval.runner --dvfs`` and ``--coordinated`` run the
two suites of :data:`SUITES` - bursty one-column scenarios under
static provisioning and two feedback governors, and the paper's app
matrix as multi-column pipelines under static, independent and
chip-level coordinated governance - and emit ``BENCH_<suite>.json``.
The contract, per scenario:

* every policy meets **zero deadline misses** at the end of the pipe;
* energy conservation is exact (ledger total equals charged power x
  time plus transition and re-wake charges, to float tolerance);
* every ``(policy, baseline)`` energy ordering of the suite holds
  strictly: both feedback governors below static, and **coordinated
  < independent < static** - the coordinator's rate matching,
  per-stage deadline decomposition, and power gating must beat both
  uncoordinated extremes, not just the static straw man;
* every governed run is **bit-identical between the reference and
  compiled engines** - statistics, epoch timeline, and transition
  records - so the whole-chip control story inherits the engine
  layer's exactness guarantee.

Every (scenario, policy) pair is one supervised job of
:func:`repro.sim.batch.parallel_map`, labelled like
``coordinated (ddc_pipeline, static)``.  ``BENCH_SMOKE=1`` shortens
the frame traces so CI exercises every assertion cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.eval.smoke import smoke
from repro.sim.batch import parallel_map
from repro.workloads.coordinated import (
    PIPELINE_GOVERNORS,
    PipelineResult,
    aes_pipeline_scenario,
    ddc_pipeline_scenario,
    mpeg4_pipeline_scenario,
    run_pipeline,
    stereo_pipeline_scenario,
    wlan_rx_pipeline_scenario,
)
from repro.workloads.dvfs import mpeg4_scene_scenario, wlan_mcs_scenario
from repro.workloads.generate import CONSERVATION_TOLERANCE


@dataclass(frozen=True)
class Suite:
    """One governed artifact, ``BENCH_<suite name>.json``.

    ``policies`` start with ``static``, the baseline savings are quoted
    against; ``orderings`` are the ``(policy, baseline)`` pairs whose
    energy the contract requires strictly below the baseline's.
    ``findings(key, results)`` words a scenario's findings, and
    ``scenario_fields`` / ``result_fields`` return the payload fields
    the suite adds (before and after the shared trace fields).
    """

    description: str
    scenarios: tuple
    policies: tuple
    orderings: tuple
    smoke_frames: int
    findings: Callable
    scenario_fields: Callable
    result_fields: Callable


def _saving(result: PipelineResult, baseline: PipelineResult) -> float:
    """Percent of ``baseline``'s energy that ``result`` saves."""
    return 100 * (1 - result.energy_nj / baseline.energy_nj)


def _residency(result: PipelineResult, column: int) -> dict:
    return {
        f"{frequency:g}": ticks
        for frequency, ticks in sorted(
            result.frequency_residency(column).items()
        )
    }


def _feedback_findings(key: str, results: dict) -> list:
    return [
        f"{key}: {kind} saves "
        f"{_saving(result, results['static']):.1f}% "
        f"vs static at zero misses"
        for kind, result in results.items() if kind != "static"
    ]


def _coordination_findings(key: str, results: dict) -> list:
    static, independent, coordinated = (
        results[kind] for kind in PIPELINE_GOVERNORS
    )
    return [
        f"{key}: coordinated saves "
        f"{_saving(coordinated, static):.1f}% vs static and "
        f"{_saving(coordinated, independent):.1f}% vs independent at "
        f"zero misses ({coordinated.wake_count} rail re-wakes priced)"
    ]


def _pipeline_fields(scenario) -> tuple:
    stages = [
        {"name": stage.name, "cycles_per_word": stage.cycles_per_word,
         "words_in": stage.words_in, "words_out": stage.words_out}
        for stage in scenario.stages
    ]
    head = {
        "stages": stages,
        "predecessors": [list(p) for p in scenario.stage_predecessors],
        "total_exit_words": scenario.total_exit_words,
    }
    return head, {"static_dividers": list(scenario.static_dividers()),
                  "engines_bit_identical": True}


def _pipeline_result(result: PipelineResult) -> dict:
    return {
        "gated_segments": len(result.gate_segments),
        "gated_time_us": round(result.gated_time_us, 3),
        "gated_nj": round(result.gated_nj, 4),
        "rail_wakes": result.wake_count,
        "frequency_residency_ticks": {
            f"col{column}": _residency(result, column)
            for column in range(result.scenario.n_stages)
        },
    }


#: The governed suites, by name.
SUITES = {
    "dvfs": Suite(
        description="Feedback DVFS governors vs static worst-case "
                    "provisioning on bursty scenarios (energy at "
                    "zero deadline misses, conservation exact "
                    "including transition charges)",
        scenarios=(wlan_mcs_scenario, mpeg4_scene_scenario),
        policies=("static", "occupancy_pi", "slack"),
        orderings=(("occupancy_pi", "static"), ("slack", "static")),
        smoke_frames=10,
        findings=_feedback_findings,
        scenario_fields=lambda scenario: (
            {}, {"static_divider": scenario.static_dividers()[0]}
        ),
        result_fields=lambda result: {
            "frequency_residency_ticks": _residency(result, 0),
        },
    ),
    "coordinated": Suite(
        description="Chip-level coordinated governance of "
                    "multi-column pipelines vs independent "
                    "per-column governors and static worst-case "
                    "provisioning (energy at zero deadline misses; "
                    "gated-rail accounting with re-wake charges; "
                    "reference/compiled engines bit-identical)",
        # The full app matrix of the paper's Section 3 (DDC, 802.11a
        # receive, AES, MPEG-4, stereo), every one governed end to end.
        scenarios=(
            ddc_pipeline_scenario,
            wlan_rx_pipeline_scenario,
            aes_pipeline_scenario,
            mpeg4_pipeline_scenario,
            stereo_pipeline_scenario,
        ),
        policies=PIPELINE_GOVERNORS,
        orderings=(
            ("independent", "static"), ("coordinated", "independent"),
        ),
        smoke_frames=8,
        findings=_coordination_findings,
        scenario_fields=_pipeline_fields,
        result_fields=_pipeline_result,
    ),
}


def run_pair(pair: tuple) -> PipelineResult:
    """One job: a ``(scenario, policy)`` pair, run on both engines.

    Returns the compiled run; the reference run must match it bit for
    bit (statistics, timeline, transitions) - the acceptance
    criterion that keeps governed striding honest.
    """
    scenario, kind = pair
    compiled = run_pipeline(scenario, kind, engine="compiled")
    reference = run_pipeline(scenario, kind, engine="reference")
    if compiled.run.stats != reference.run.stats \
            or compiled.run.timeline != reference.run.timeline \
            or compiled.run.transitions != reference.run.transitions:
        raise AssertionError(
            f"{scenario.key}/{kind}: compiled and reference engines "
            f"disagree on a governed run - the bit-identical contract "
            f"is broken"
        )
    return compiled


def evaluate(
    name: str, frames: int | None = None, processes: int | None = 1
) -> dict:
    """{scenario key: {policy: PipelineResult}} for suite ``name``.

    ``frames`` sizes every trace; ``None`` keeps each scenario's own
    length, or the suite's smoke length under ``BENCH_SMOKE``.  Each
    pair is one supervised job (:func:`run_pair`); ``processes`` fans
    them across worker processes (``1``, the default, stays
    in-process; ``None`` sizes the worker count to the host).  A pair
    that still fails after its retries raises
    :class:`~repro.errors.BatchError` naming its label.
    """
    suite = SUITES[name]
    if frames is None and smoke():
        frames = suite.smoke_frames
    # `is not None`, not truthiness: an explicit frames=0 must reach
    # the scenario constructor and fail its no-frames validation
    # loudly instead of silently running the full default trace.
    # The scenarios are built here, so that fails before any job.
    pairs = [
        (scenario, kind)
        for scenario in (
            factory(frames=frames) if frames is not None else factory()
            for factory in suite.scenarios
        )
        for kind in suite.policies
    ]
    results = parallel_map(
        run_pair, pairs, processes=processes,
        labels=[f"{name} ({scenario.key}, {kind})"
                for scenario, kind in pairs],
    )
    evaluations: dict = {}
    for (scenario, kind), result in zip(pairs, results):
        evaluations.setdefault(scenario.key, {})[kind] = result
    return evaluations


def check_contract(name: str, evaluations: dict) -> list:
    """Assert suite ``name``'s contract; return the human findings.

    Explicit raises, not assert statements: this is the production
    contract behind the CI artifact and must survive ``python -O``.
    """
    suite = SUITES[name]
    findings = []
    for key, results in evaluations.items():
        for kind, result in results.items():
            if result.deadline_misses != 0:
                raise AssertionError(
                    f"{key}/{kind}: {result.deadline_misses} deadline "
                    f"misses - the contract requires zero"
                )
            if result.conservation_error > CONSERVATION_TOLERANCE:
                raise AssertionError(
                    f"{key}/{kind}: energy conservation error "
                    f"{result.conservation_error:.3g} exceeds "
                    f"{CONSERVATION_TOLERANCE}"
                )
        for kind, baseline in suite.orderings:
            energy = results[kind].energy_nj
            if energy >= results[baseline].energy_nj:
                raise AssertionError(
                    f"{key}: {kind} ({energy:.1f} nJ) does not beat "
                    f"{baseline} ({results[baseline].energy_nj:.1f} nJ)"
                )
        findings += suite.findings(key, results)
    return findings


def bench_payload(name: str, evaluations: dict) -> dict:
    """The ``BENCH_<name>.json`` content."""
    suite = SUITES[name]
    findings = check_contract(name, evaluations)
    scenarios = {}
    for key, results in evaluations.items():
        static = results["static"]
        scenario = static.scenario
        head, tail = suite.scenario_fields(scenario)
        scenarios[key] = {
            "name": scenario.name,
            **head,
            "frames": scenario.n_frames,
            "frame_loads": list(scenario.frame_loads),
            "frame_ticks": scenario.frame_ticks,
            "reference_mhz": scenario.reference_mhz,
            "divider_ladder": list(scenario.divider_ladder),
            **tail,
            "governors": {
                kind: {
                    "energy_nj": round(result.energy_nj, 3),
                    "transition_nj": round(result.transition_nj, 3),
                    "transition_count": result.transition_count,
                    "deadline_misses": result.deadline_misses,
                    "epochs": len(result.run.timeline),
                    "average_mw": round(result.average_mw, 3),
                    "idle_fraction": round(result.idle_fraction, 4),
                    "simulated_time_us":
                        result.run.stats.simulated_time_us,
                    "conservation_relative_error":
                        result.conservation_error,
                    **suite.result_fields(result),
                    "savings_percent": None if kind == "static"
                    else round(_saving(result, static), 2),
                }
                for kind, result in results.items()
            },
        }
    return {
        "artifact": f"BENCH_{name}",
        "description": suite.description,
        "smoke": smoke(),
        "conservation_tolerance": CONSERVATION_TOLERANCE,
        "contract": findings,
        "scenarios": scenarios,
    }


def check_bench(payload: dict) -> list:
    """Failures in a ``BENCH_dvfs`` or ``BENCH_coordinated`` payload.

    Every scenario must list exactly its suite's policies, and, each
    (scenario, policy) pair being one supervised job,
    ``outcomes["ok"]`` must equal the number of pairs listed.
    """
    policies = SUITES[payload["artifact"].removeprefix("BENCH_")].policies
    scenarios = payload.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        return [f"scenarios must be a non-empty mapping, got "
                f"{scenarios!r}"]
    failures = []
    listed = 0
    for key, scenario in scenarios.items():
        governors = scenario.get("governors") \
            if isinstance(scenario, dict) else None
        governors = list(governors) if isinstance(governors, dict) else []
        if set(governors) != set(policies):
            failures.append(f"scenarios[{key!r}] must list the policies "
                            f"{list(policies)}, got {governors}")
        listed += len(governors)
    outcomes = payload.get("outcomes")
    settled = outcomes.get("ok") if isinstance(outcomes, dict) else None
    if settled != listed:
        failures.append(f"outcomes['ok'] must count the {listed} "
                        f"supervised (scenario, policy) jobs, got "
                        f"{settled!r}")
    return failures


def render(evaluations: dict) -> str:
    """Human-readable comparison table."""
    header = (
        f"{'scenario':<18} {'policy':<13} {'energy nJ':>11} "
        f"{'vs static':>9} {'misses':>6} {'trans':>5} "
        f"{'trans nJ':>8} {'gates':>5} {'wakes':>5}"
    )
    lines = [header, "-" * len(header)]
    for key, results in evaluations.items():
        for kind, result in results.items():
            savings = "-" if kind == "static" else (
                f"-{_saving(result, results['static']):.1f}%"
            )
            lines.append(
                f"{key:<18} {kind:<13} {result.energy_nj:>11.1f} "
                f"{savings:>9} {result.deadline_misses:>6} "
                f"{result.transition_count:>5} "
                f"{result.transition_nj:>8.1f} "
                f"{len(result.gate_segments):>5} "
                f"{result.wake_count:>5}"
            )
    return "\n".join(lines)
