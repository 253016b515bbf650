"""Coordinated multi-domain evaluation: govern pipelines end to end.

``python -m repro.eval.runner --coordinated`` runs every multi-column
pipeline scenario under the three policies (static per-stage
worst-case provisioning, independent per-column governors, the
chip-level coordinator), asserts the subsystem's contract, and emits
the ``BENCH_coordinated.json`` artifact.  The contract, per scenario:

* every policy meets **zero deadline misses** at the end of the pipe;
* total energy orders **coordinated < independent < static** - the
  coordinator's rate matching, per-stage deadline decomposition, and
  power gating must beat both uncoordinated extremes, not just the
  static straw man;
* energy conservation is exact (ledger total equals charged power x
  time plus transition and re-wake charges, to float tolerance);
* every governed run is **bit-identical between the reference and
  compiled engines** - statistics, epoch timeline, and transition
  records - so the whole-chip control story inherits the engine
  layer's exactness guarantee.

``BENCH_SMOKE=1`` shortens the frame traces so CI exercises the full
pipeline and every assertion cheaply.
"""

from __future__ import annotations

from repro.eval.runner import smoke
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

#: Pipeline policies compared per scenario (static is the baseline).
GOVERNORS = PIPELINE_GOVERNORS

#: Conservation tolerance for the gated, time-varying energy ledger.
CONSERVATION_TOLERANCE = 1e-9

#: Scenario factories - the full app matrix of the paper's Section 3
#: (DDC, 802.11a receive, AES, MPEG-4, stereo), every one governed
#: end to end; BENCH_SMOKE shortens the traces.
SCENARIOS = {
    "ddc_pipeline": ddc_pipeline_scenario,
    "wlan_rx_pipeline": wlan_rx_pipeline_scenario,
    "aes_pipeline": aes_pipeline_scenario,
    "mpeg4_pipeline": mpeg4_pipeline_scenario,
    "stereo_pipeline": stereo_pipeline_scenario,
}

_SMOKE_FRAMES = 8


def evaluate_scenario(key: str, frames: int | None = None) -> dict:
    """{policy: PipelineResult} for one scenario, differentially run.

    Every policy executes on *both* engines; the compiled result is
    returned and the reference run must match it bit for bit
    (statistics, timeline, transitions) - the acceptance criterion
    that keeps multi-column governed striding honest.
    """
    factory = SCENARIOS[key]
    if frames is None and smoke():
        frames = _SMOKE_FRAMES
    # `is not None`, not truthiness: an explicit frames=0 must reach
    # the scenario constructor and fail its no-frames validation
    # loudly instead of silently running the full default trace.
    scenario = factory(frames=frames) if frames is not None \
        else factory()
    results = {}
    for kind in GOVERNORS:
        compiled = run_pipeline(scenario, kind, engine="compiled")
        reference = run_pipeline(scenario, kind, engine="reference")
        if compiled.run.stats != reference.run.stats \
                or compiled.run.timeline != reference.run.timeline \
                or compiled.run.transitions != reference.run.transitions:
            raise AssertionError(
                f"{key}/{kind}: compiled and reference engines "
                f"disagree on a governed multi-column run - the "
                f"bit-identical contract is broken"
            )
        results[kind] = compiled
    return results


def evaluate_all(frames: int | None = None) -> dict:
    """{scenario key: {policy: PipelineResult}} for every scenario."""
    return {
        key: evaluate_scenario(key, frames=frames)
        for key in SCENARIOS
    }


def check_contract(evaluations: dict) -> list:
    """Assert the coordinated-governance contract; return findings.

    Explicit raises, not assert statements: this is the production
    contract behind the CI artifact and must survive ``python -O``.
    """
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
        static = results["static"]
        independent = results["independent"]
        coordinated = results["coordinated"]
        if independent.energy_nj >= static.energy_nj:
            raise AssertionError(
                f"{key}: independent governors "
                f"({independent.energy_nj:.1f} nJ) do not beat "
                f"static provisioning ({static.energy_nj:.1f} nJ)"
            )
        if coordinated.energy_nj >= independent.energy_nj:
            raise AssertionError(
                f"{key}: coordination ({coordinated.energy_nj:.1f} "
                f"nJ) does not beat independent per-column governors "
                f"({independent.energy_nj:.1f} nJ)"
            )
        findings.append(
            f"{key}: coordinated saves "
            f"{100 * (1 - coordinated.energy_nj / static.energy_nj):.1f}% "
            f"vs static and "
            f"{100 * (1 - coordinated.energy_nj / independent.energy_nj):.1f}% "
            f"vs independent at zero misses "
            f"({coordinated.wake_count} rail re-wakes priced)"
        )
    return findings


def _result_payload(result: PipelineResult) -> dict:
    residency = {
        column: result.frequency_residency(column)
        for column in range(result.scenario.n_stages)
    }
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
        "gated_segments": len(result.gate_segments),
        "gated_time_us": round(result.gated_time_us, 3),
        "gated_nj": round(result.gated_nj, 4),
        "rail_wakes": result.wake_count,
        "frequency_residency_ticks": {
            f"col{column}": {
                f"{frequency:g}": ticks
                for frequency, ticks in sorted(table.items())
            }
            for column, table in residency.items()
        },
    }


def bench_payload(evaluations: dict | None = None) -> dict:
    """The ``BENCH_coordinated.json`` content."""
    evaluations = evaluations or evaluate_all()
    findings = check_contract(evaluations)
    scenarios = {}
    for key, results in evaluations.items():
        scenario = results["static"].scenario
        static_nj = results["static"].energy_nj
        scenarios[key] = {
            "name": scenario.name,
            "stages": [
                {
                    "name": stage.name,
                    "cycles_per_word": stage.cycles_per_word,
                    "words_in": stage.words_in,
                    "words_out": stage.words_out,
                }
                for stage in scenario.stages
            ],
            "predecessors": [
                list(preds) for preds in scenario.stage_predecessors
            ],
            "total_exit_words": scenario.total_exit_words,
            "frames": scenario.n_frames,
            "frame_loads": list(scenario.frame_loads),
            "frame_ticks": scenario.frame_ticks,
            "reference_mhz": scenario.reference_mhz,
            "divider_ladder": list(scenario.divider_ladder),
            "static_dividers": list(scenario.static_dividers()),
            "engines_bit_identical": True,
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
        "artifact": "BENCH_coordinated",
        "description": "Chip-level coordinated governance of "
                       "multi-column pipelines vs independent "
                       "per-column governors and static worst-case "
                       "provisioning (energy at zero deadline misses; "
                       "gated-rail accounting with re-wake charges; "
                       "reference/compiled engines bit-identical)",
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
        f"{'scenario':<18} {'policy':<13} {'energy nJ':>11} "
        f"{'vs static':>9} {'misses':>6} {'trans':>5} "
        f"{'gates':>5} {'wakes':>5}"
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
                f"{key:<18} {kind:<13} {result.energy_nj:>11.1f} "
                f"{savings:>9} {result.deadline_misses:>6} "
                f"{result.transition_count:>5} "
                f"{len(result.gate_segments):>5} "
                f"{result.wake_count:>5}"
            )
    return "\n".join(lines)

