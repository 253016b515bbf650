"""The --dvfs evaluation: contract, payload, CLI artifact."""

import json
from pathlib import Path

import pytest

from repro.eval.dvfs import (
    GOVERNORS,
    bench_payload,
    check_contract,
    evaluate_all,
    render,
    write_bench,
)
from repro.eval.runner import main

FRAMES = 8

#: ``bench_payload(evaluate_all(frames=8))["scenarios"]`` recorded from
#: the former single-column harness; the one-stage pipelines must
#: reproduce every number bit for bit.
GOLDEN = Path(__file__).parent / "golden" / "dvfs_scenarios_frames8.json"


@pytest.fixture(scope="module")
def evaluations():
    return evaluate_all(frames=FRAMES)


def test_every_scenario_runs_every_governor(evaluations):
    assert set(evaluations) == {"wlan_mcs", "mpeg4_scene"}
    for results in evaluations.values():
        assert set(results) == set(GOVERNORS)


def test_contract_holds(evaluations):
    findings = check_contract(evaluations)
    # one finding per (scenario, feedback governor)
    assert len(findings) == len(evaluations) * (len(GOVERNORS) - 1)
    for finding in findings:
        assert "zero misses" in finding


def test_bench_payload_shape(evaluations):
    payload = bench_payload(evaluations)
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
    scenarios = bench_payload(evaluations)["scenarios"]
    # The ~1e-16 conservation residue comes from ``sum()`` over floats,
    # whose rounding changed in Python 3.12; ``check_contract`` bounds
    # it, and the rounded energies pin the arithmetic.
    for scenario in scenarios.values():
        for entry in scenario["governors"].values():
            del entry["conservation_relative_error"]
    text = json.dumps(scenarios, indent=2) + "\n"
    assert text == GOLDEN.read_text()


def test_render_mentions_every_governor(evaluations):
    text = render(evaluations)
    for kind in GOVERNORS:
        assert kind in text
    assert "vs static" in text


def test_write_bench(tmp_path, evaluations):
    target = write_bench(tmp_path, bench_payload(evaluations))
    assert target.name == "BENCH_dvfs.json"
    loaded = json.loads(target.read_text())
    assert loaded["artifact"] == "BENCH_dvfs"


def test_cli_dvfs_writes_artifact(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BENCH_SMOKE", "1")
    main(["--dvfs", "-o", str(tmp_path)])
    out = capsys.readouterr().out
    assert "BENCH_dvfs.json" in out
    artifact = tmp_path / "BENCH_dvfs.json"
    payload = json.loads(artifact.read_text())
    assert payload["smoke"] is True
    assert payload["contract"]


def test_cli_dvfs_rejects_conflicting_flags(tmp_path):
    with pytest.raises(SystemExit):
        main(["--dvfs", "-e", "table4", "-o", str(tmp_path)])
    with pytest.raises(SystemExit):
        main(["--dvfs", "--measured", "-o", str(tmp_path)])
    with pytest.raises(SystemExit):
        main(["--dvfs", "-j", "4", "-o", str(tmp_path)])
