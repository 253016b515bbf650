"""The --dvfs evaluation: contract, payload, CLI artifact."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.eval.governed import (
    SUITES,
    bench_payload,
    check_contract,
    evaluate,
    render,
)
from repro.eval.runner import main

GOVERNORS = SUITES["dvfs"].policies
FRAMES = 8

#: ``bench_payload("dvfs", evaluate("dvfs", frames=8))["scenarios"]``,
#: recorded from the former single-column harness; the one-stage
#: pipelines must reproduce every number bit for bit.
GOLDEN = Path(__file__).parent / "golden" / "dvfs_scenarios_frames8.json"


@pytest.fixture(scope="module")
def evaluations():
    return evaluate("dvfs", frames=FRAMES)


def test_every_scenario_runs_every_governor(evaluations):
    assert set(evaluations) == {"wlan_mcs", "mpeg4_scene"}
    for results in evaluations.values():
        assert set(results) == set(GOVERNORS)


def test_contract_holds(evaluations):
    findings = check_contract("dvfs", evaluations)
    # one finding per (scenario, feedback governor)
    assert len(findings) == len(evaluations) * (len(GOVERNORS) - 1)
    for finding in findings:
        assert "zero misses" in finding


def test_bench_payload_shape(evaluations):
    payload = bench_payload("dvfs", evaluations)
    assert payload["artifact"] == "BENCH_dvfs"
    for key, scenario in payload["scenarios"].items():
        static = scenario["governors"]["static"]
        assert static["savings_percent"] is None
        assert static["deadline_misses"] == 0
        for kind in ("occupancy_pi", "slack"):
            governed = scenario["governors"][kind]
            assert governed["deadline_misses"] == 0
            assert governed["savings_percent"] > 0
            assert governed["energy_nj"] < static["energy_nj"]
            assert governed["conservation_relative_error"] <= 1e-9
            residency = governed["frequency_residency_ticks"]
            assert sum(residency.values()) > 0
            assert 0.0 <= governed["idle_fraction"] <= 1.0
        # worst-case provisioning shows up as stalled cycles
        assert static["idle_fraction"] > 0.3
    assert json.dumps(payload)  # JSON-serializable end to end


def test_scenarios_match_golden(evaluations):
    scenarios = bench_payload("dvfs", evaluations)["scenarios"]
    # The ~1e-16 conservation residue comes from ``sum()`` over floats,
    # whose rounding changed in Python 3.12; ``check_contract`` bounds
    # it, and the rounded energies pin the arithmetic.
    for scenario in scenarios.values():
        for entry in scenario["governors"].values():
            del entry["conservation_relative_error"]
    text = json.dumps(scenarios, indent=2) + "\n"
    assert text == GOLDEN.read_text()


@pytest.mark.parametrize("kind, change", [
    ("slack", lambda results: {"deadline_misses": 1}),
    ("static", lambda results: {"conservation_error": 2e-9}),
    ("occupancy_pi", lambda results: {"ledger": results["static"].ledger}),
], ids=["deadline-miss", "conservation", "energy-ordering"])
def test_contract_violation_names_its_scenario(evaluations, kind, change):
    results = evaluations["mpeg4_scene"]
    broken = {**evaluations, "mpeg4_scene": {
        **results, kind: replace(results[kind], **change(results)),
    }}
    with pytest.raises(AssertionError, match="mpeg4_scene"):
        check_contract("dvfs", broken)


@pytest.mark.parametrize("frames", [0, -1])
@pytest.mark.parametrize("factory", SUITES["dvfs"].scenarios)
def test_empty_trace_fails_in_the_scenario(factory, frames):
    with pytest.raises(ConfigurationError, match=": no frames"):
        factory(frames=frames)


def test_render_mentions_every_governor(evaluations):
    text = render(evaluations)
    for kind in GOVERNORS:
        assert kind in text
    assert "vs static" in text


def test_cli_dvfs_writes_artifact(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BENCH_SMOKE", "1")
    main(["--dvfs", "-o", str(tmp_path)])
    out = capsys.readouterr().out
    assert "BENCH_dvfs.json" in out
    artifact = tmp_path / "BENCH_dvfs.json"
    payload = json.loads(artifact.read_text())
    assert payload["smoke"] is True
    assert payload["contract"]
    assert payload["outcomes"]["ok"] == 6  # one job per pair
    # Pairs run in worker processes: each PipelineResult crosses the
    # pipe, and the artifact must not change.
    main(["--dvfs", "-j", "2", "-o", str(tmp_path / "j2")])
    fanned = json.loads((tmp_path / "j2" / "BENCH_dvfs.json").read_text())
    assert fanned["scenarios"] == payload["scenarios"]
    assert fanned["contract"] == payload["contract"]
    assert fanned["outcomes"] == payload["outcomes"]


def test_cli_dvfs_rejects_conflicting_flags(tmp_path):
    with pytest.raises(SystemExit):
        main(["--dvfs", "-e", "table4", "-o", str(tmp_path)])
    with pytest.raises(SystemExit):
        main(["--dvfs", "--measured", "-o", str(tmp_path)])
