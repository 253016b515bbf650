"""Acceptance: eval regenerated from simulated activity via run_many.

The ISSUE 2 criteria: ``--measured`` rebuilds Table 4 and Figure 6
from measured activity, the measured interconnect power sits inside
the documented tolerance windows for DDC and the WLAN configurations,
and per-domain energy is conserved (ledger total == application power
x simulated time within float tolerance).
"""

import json

import pytest

from repro.eval import fig6, fig8, table4
from repro.eval.measured import (
    TOLERANCES,
    bench_payload,
    evaluate_all,
)
from repro.eval.runner import main, run_measured


@pytest.fixture(scope="module")
def evaluations():
    return evaluate_all()


def test_interconnect_within_documented_tolerance(evaluations):
    for key, window_name in (
        ("ddc", "DDC"),
        ("wlan", "802.11a"),
        ("wlan_aes", "802.11a + AES"),
    ):
        evaluation = evaluations[key]
        low, high = TOLERANCES[window_name]
        ratio = evaluation.interconnect_ratio
        assert low <= ratio <= high, (
            f"{window_name}: interconnect ratio {ratio:.3f} outside "
            f"[{low}, {high}]"
        )
        assert evaluation.within_tolerance


def test_energy_conserved_per_application(evaluations):
    for evaluation in evaluations.values():
        expected = evaluation.measured.total_mw * evaluation.time_us
        assert evaluation.ledger.total_nj == pytest.approx(
            expected, rel=1e-9
        )
        assert evaluation.conservation_error < 1e-9
        # domains mirror components one to one
        assert len(evaluation.ledger.domains) \
            == len(evaluation.measured.components)


def test_measured_never_exceeds_calibrated_interconnect(evaluations):
    """Counted transfers undershoot the calibrated profiles (which
    back-solve Table 4 residuals); both DDC and WLAN stay below."""
    for key in ("ddc", "wlan"):
        assert evaluations[key].interconnect_ratio <= 1.0


def test_table4_measured_render(evaluations):
    text = table4.render_measured(evaluations)
    assert "Table 4 (measured)" in text
    assert "CIC Integrator" in text
    assert "sim" in text and "cal" in text
    assert "energy ledger" in text
    assert "documented window" in text


def test_fig6_measured_render(evaluations):
    text = fig6.render_measured(evaluations)
    assert "Figure 6 (measured)" in text
    assert "802.11a" in text
    bars = fig6.compute_measured(evaluations)
    assert len(bars) == 6
    for bar in bars:
        assert bar.unscaled_mw >= bar.scaled_mw


def test_fig8_measured_sweep_anchor():
    measured = fig8.measured_words_per_step()
    calibrated_study_words = 135.6
    assert 0.05 * calibrated_study_words <= measured \
        <= calibrated_study_words
    text = fig8.render_measured()
    assert "Figure 8 (measured)" in text
    assert "words/step" in text


def test_run_measured_selection():
    outputs = run_measured(["table4"])
    assert set(outputs) == {"table4", "BENCH_power"}
    with pytest.raises(KeyError):
        run_measured(["table1"])


def test_bench_payload_shape(evaluations):
    payload = bench_payload(evaluations)
    assert payload["artifact"] == "BENCH_power"
    ddc = payload["applications"]["ddc"]
    names = [c["name"] for c in ddc["components"]]
    assert "CIC Integrator" in names
    sources = {c["name"]: c["source"] for c in ddc["components"]}
    assert sources["CIC Integrator"] == "measured"
    assert sources["CIC Comb"] == "measured"  # gather/scatter kernel
    wlan = payload["applications"]["wlan"]
    wlan_sources = {
        c["name"]: c["source"] for c in wlan["components"]
    }
    assert wlan_sources["FFT"] == "analytical"  # still no kernel
    energy = ddc["energy"]
    assert energy["ledger_total_nj"] == pytest.approx(
        energy["power_times_time_nj"], rel=1e-9
    )
    assert ddc["within_tolerance"] is True


def test_cli_measured_writes_bench_artifact(tmp_path, capsys):
    main(["--measured", "-e", "table4", "-o", str(tmp_path)])
    out = capsys.readouterr().out
    assert "BENCH_power.json" in out
    artifact = tmp_path / "BENCH_power.json"
    assert artifact.exists()
    payload = json.loads(artifact.read_text())
    assert set(payload["applications"]) == {
        "ddc", "stereo", "wlan", "wlan_aes", "mpeg4_qcif",
        "mpeg4_cif",
    }
    assert (tmp_path / "table4.txt").exists()


def test_cli_measured_jobs_match_serial(tmp_path, monkeypatch):
    """``--measured -j 2`` runs the kernels in workers: same artifact."""
    from repro.sim.resilience import reset_outcome_counters
    from repro.workloads import measured

    batches = []
    run_many = measured.run_many

    def recorded(requests, processes, **kwargs):
        batches.append(processes)
        return run_many(requests, processes=processes, **kwargs)

    monkeypatch.setattr(measured, "run_many", recorded)
    payloads = []
    for jobs in ("1", "2"):
        # A fresh memo, so the second run simulates in its workers.
        monkeypatch.setattr(measured, "_ACTIVITY_MEMO", {})
        reset_outcome_counters()
        main(["--measured", "-j", jobs, "-o", str(tmp_path / jobs)])
        payload = json.loads(
            (tmp_path / jobs / "BENCH_power.json").read_text()
        )
        payload.pop("telemetry")
        payloads.append(payload)
    assert payloads[0] == payloads[1]
    assert set(batches) == {1, 2}
