"""Runtime-DVFS evaluation: governors vs worst-case provisioning.

``python -m repro.eval.runner --dvfs`` runs every bursty scenario
under the three governor policies (static worst-case provisioning,
occupancy-PI, deadline slack), asserts the subsystem's contract -
feedback governors spend *strictly less* energy than static
provisioning while missing *zero* deadlines, with per-domain energy
conservation exact including transition charges - and emits the
``BENCH_dvfs.json`` artifact.

``BENCH_SMOKE=1`` shrinks the frame traces so CI exercises the whole
pipeline and its assertions without paying the full trace length.
"""

from __future__ import annotations

from repro.eval.runner import smoke
from repro.workloads.coordinated import PipelineResult, run_pipeline
from repro.workloads.dvfs import mpeg4_scene_scenario, wlan_mcs_scenario

#: Governor policies compared per scenario (static is the baseline).
GOVERNORS = ("static", "occupancy_pi", "slack")

#: Conservation tolerance for the time-varying energy ledger.
CONSERVATION_TOLERANCE = 1e-9

#: Scenario factories; BENCH_SMOKE shortens the traces.
SCENARIOS = {
    "wlan_mcs": wlan_mcs_scenario,
    "mpeg4_scene": mpeg4_scene_scenario,
}

_SMOKE_FRAMES = 10


def evaluate_scenario(key: str, frames: int | None = None) -> dict:
    """{governor: PipelineResult} for one scenario."""
    factory = SCENARIOS[key]
    if frames is None and smoke():
        frames = _SMOKE_FRAMES
    # `is not None`, not truthiness: an explicit frames=0 must reach
    # the scenario constructor and fail its no-frames validation
    # loudly instead of silently running the full default trace.
    scenario = factory(frames=frames) if frames is not None \
        else factory()
    return {
        kind: run_pipeline(scenario, kind) for kind in GOVERNORS
    }


def evaluate_all(frames: int | None = None) -> dict:
    """{scenario key: {governor: PipelineResult}} for every scenario."""
    return {
        key: evaluate_scenario(key, frames=frames)
        for key in SCENARIOS
    }


def check_contract(evaluations: dict) -> list:
    """Assert the DVFS acceptance contract; returns human findings.

    Per scenario: every governor misses zero deadlines, both feedback
    governors consume strictly less energy than static worst-case
    provisioning, and every ledger conserves energy exactly
    (including transition charges).
    """
    findings = []
    for key, results in evaluations.items():
        static = results["static"]
        for kind, result in results.items():
            # Explicit raises, not assert statements: this is the
            # production contract behind the CI artifact and must
            # survive python -O.
            if result.deadline_misses != 0:
                raise AssertionError(
                    f"{key}/{kind}: {result.deadline_misses} deadline "
                    f"misses - the DVFS contract requires zero"
                )
            if result.conservation_error > CONSERVATION_TOLERANCE:
                raise AssertionError(
                    f"{key}/{kind}: energy conservation error "
                    f"{result.conservation_error:.3g} exceeds "
                    f"{CONSERVATION_TOLERANCE}"
                )
            if kind == "static":
                continue
            if result.energy_nj >= static.energy_nj:
                raise AssertionError(
                    f"{key}/{kind}: {result.energy_nj:.1f} nJ is not "
                    f"below static provisioning "
                    f"({static.energy_nj:.1f} nJ)"
                )
            findings.append(
                f"{key}: {kind} saves "
                f"{100 * (1 - result.energy_nj / static.energy_nj):.1f}% "
                f"vs static at zero misses"
            )
    return findings


def _result_payload(result: PipelineResult) -> dict:
    residency = result.frequency_residency(0)
    return {
        "energy_nj": round(result.energy_nj, 3),
        "transition_nj": round(result.transition_nj, 3),
        "transition_count": result.transition_count,
        "deadline_misses": result.deadline_misses,
        "epochs": len(result.run.timeline),
        "average_mw": round(result.average_mw, 3),
        "idle_fraction": round(result.idle_fraction, 4),
        "simulated_time_us": result.run.stats.simulated_time_us,
        "conservation_relative_error": result.conservation_error,
        "frequency_residency_ticks": {
            f"{frequency:g}": ticks
            for frequency, ticks in sorted(residency.items())
        },
    }


def bench_payload(evaluations: dict | None = None) -> dict:
    """The ``BENCH_dvfs.json`` content."""
    evaluations = evaluations or evaluate_all()
    findings = check_contract(evaluations)
    scenarios = {}
    for key, results in evaluations.items():
        scenario = results["static"].scenario
        static_nj = results["static"].energy_nj
        scenarios[key] = {
            "name": scenario.name,
            "frames": scenario.n_frames,
            "frame_loads": list(scenario.frame_loads),
            "frame_ticks": scenario.frame_ticks,
            "reference_mhz": scenario.reference_mhz,
            "divider_ladder": list(scenario.divider_ladder),
            "static_divider": scenario.static_dividers()[0],
            "governors": {
                kind: dict(
                    _result_payload(result),
                    savings_percent=(
                        None if kind == "static" else round(
                            100 * (1 - result.energy_nj / static_nj), 2
                        )
                    ),
                )
                for kind, result in results.items()
            },
        }
    return {
        "artifact": "BENCH_dvfs",
        "description": "Feedback DVFS governors vs static worst-case "
                       "provisioning on bursty scenarios (energy at "
                       "zero deadline misses, conservation exact "
                       "including transition charges)",
        "smoke": smoke(),
        "conservation_tolerance": CONSERVATION_TOLERANCE,
        "contract": findings,
        "scenarios": scenarios,
    }


def render(evaluations: dict | None = None) -> str:
    """Human-readable comparison table."""
    evaluations = evaluations or evaluate_all()
    lines = []
    header = (
        f"{'scenario':<14} {'governor':<13} {'energy nJ':>11} "
        f"{'vs static':>9} {'misses':>6} {'trans':>5} "
        f"{'trans nJ':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for key, results in evaluations.items():
        static_nj = results["static"].energy_nj
        for kind, result in results.items():
            savings = "-" if kind == "static" else (
                f"-{100 * (1 - result.energy_nj / static_nj):.1f}%"
            )
            lines.append(
                f"{key:<14} {kind:<13} {result.energy_nj:>11.1f} "
                f"{savings:>9} {result.deadline_misses:>6} "
                f"{result.transition_count:>5} "
                f"{result.transition_nj:>8.1f}"
            )
    return "\n".join(lines)

