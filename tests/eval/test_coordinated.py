"""The --coordinated evaluation: contract, payload, CLI artifact."""

import json
from pathlib import Path

import pytest

from repro.eval.coordinated import (
    GOVERNORS,
    bench_payload,
    check_contract,
    evaluate_all,
    render,
    write_bench,
)
from repro.eval.runner import main

FRAMES = 6

#: ``bench_payload(evaluate_all(frames=6))["scenarios"]`` recorded from
#: the harness's ``Fraction`` deadline arithmetic; its integer form must
#: reproduce every number bit for bit.
GOLDEN = Path(__file__).parent / "golden" \
    / "coordinated_scenarios_frames6.json"


@pytest.fixture(scope="module")
def evaluations():
    return evaluate_all(frames=FRAMES)


def test_every_scenario_runs_every_policy(evaluations):
    assert set(evaluations) == {
        "ddc_pipeline", "wlan_rx_pipeline", "aes_pipeline",
        "mpeg4_pipeline", "stereo_pipeline",
    }
    for results in evaluations.values():
        assert set(results) == set(GOVERNORS)


def test_contract_holds(evaluations):
    findings = check_contract(evaluations)
    assert len(findings) == len(evaluations)
    for finding in findings:
        assert "zero misses" in finding
        assert "vs independent" in finding


def test_bench_payload_shape(evaluations):
    payload = bench_payload(evaluations)
    assert payload["artifact"] == "BENCH_coordinated"
    for key, scenario in payload["scenarios"].items():
        assert scenario["engines_bit_identical"] is True
        assert len(scenario["stages"]) == len(
            scenario["static_dividers"]
        )
        static = scenario["governors"]["static"]
        independent = scenario["governors"]["independent"]
        coordinated = scenario["governors"]["coordinated"]
        assert static["savings_percent"] is None
        assert static["transition_count"] == 0
        for governed in (static, independent, coordinated):
            assert governed["deadline_misses"] == 0
            assert governed["conservation_relative_error"] <= 1e-9
        assert coordinated["energy_nj"] < independent["energy_nj"]
        assert independent["energy_nj"] < static["energy_nj"]
        assert coordinated["savings_percent"] \
            > independent["savings_percent"]
        # Only the coordinator gates rails - and it prices re-wakes.
        assert coordinated["gated_segments"] > 0
        assert coordinated["rail_wakes"] > 0
        assert independent["gated_segments"] == 0
        # Per-column residency covers every stage.
        residency = coordinated["frequency_residency_ticks"]
        assert len(residency) == len(scenario["stages"])
        for table in residency.values():
            assert sum(table.values()) > 0
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


def test_render_mentions_every_policy(evaluations):
    text = render(evaluations)
    for kind in GOVERNORS:
        assert kind in text
    assert "wakes" in text


def test_write_bench(tmp_path, evaluations):
    target = write_bench(tmp_path, bench_payload(evaluations))
    assert target.name == "BENCH_coordinated.json"
    loaded = json.loads(target.read_text())
    assert loaded["artifact"] == "BENCH_coordinated"


def test_cli_coordinated_writes_artifact(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BENCH_SMOKE", "1")
    main(["--coordinated", "-o", str(tmp_path)])
    out = capsys.readouterr().out
    assert "BENCH_coordinated.json" in out
    artifact = tmp_path / "BENCH_coordinated.json"
    payload = json.loads(artifact.read_text())
    assert payload["smoke"] is True
    assert payload["contract"]


def test_cli_coordinated_rejects_conflicting_flags(tmp_path):
    with pytest.raises(SystemExit):
        main(["--coordinated", "-e", "table4", "-o", str(tmp_path)])
    with pytest.raises(SystemExit):
        main(["--coordinated", "--dvfs", "-o", str(tmp_path)])
    with pytest.raises(SystemExit):
        main(["--coordinated", "--engines", "-o", str(tmp_path)])
    with pytest.raises(SystemExit):
        main(["--coordinated", "-j", "4", "-o", str(tmp_path)])
