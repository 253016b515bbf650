"""Engine wall-clock evaluation and the BENCH_engine artifact."""

import json

import pytest

from repro.eval import engines
from repro.eval.runner import main


@pytest.fixture(autouse=True)
def _smoke(monkeypatch):
    # Shrink every workload: the eval's assertions (bit-identical
    # statistics between engines) are size-independent.
    monkeypatch.setenv("BENCH_SMOKE", "1")


def test_evaluate_workload_asserts_identical_stats():
    evaluation = engines.evaluate_workload("ddc_pipeline", repeats=1)
    assert evaluation["timings"]["reference"] > 0
    assert evaluation["timings"]["compiled"] > 0
    assert evaluation["stats"].total_bus_words > 0


def test_bench_payload_shape():
    evaluations = {
        key: engines.evaluate_workload(key, repeats=1)
        for key in ("fir", "ddc_pipeline")
    }
    payload = engines.bench_payload(evaluations)
    assert payload["artifact"] == "BENCH_engine"
    assert payload["smoke"] is True
    for key in ("fir", "ddc_pipeline"):
        workload = payload["workloads"][key]
        assert workload["identical_stats"] is True
        assert workload["speedup"] == pytest.approx(
            workload["reference_s"] / workload["compiled_s"], rel=0.01
        )
        assert workload["reference_ticks"] > 0


def test_render_lists_every_workload():
    evaluations = {
        "fir": engines.evaluate_workload("fir", repeats=1),
    }
    text = engines.render(evaluations)
    assert "fir" in text and "speedup" in text


def test_cli_engines_writes_artifact(tmp_path, capsys):
    main(["--engines", "--output", str(tmp_path)])
    out = capsys.readouterr().out
    assert "speedup" in out
    assert (tmp_path / "BENCH_engine.json").exists()
    payload = json.loads((tmp_path / "BENCH_engine.json").read_text())
    assert set(payload["workloads"]) == set(engines.WORKLOADS)


def test_cli_engines_rejects_conflicting_flags(capsys):
    with pytest.raises(SystemExit):
        main(["--engines", "--dvfs"])
    with pytest.raises(SystemExit):
        main(["--engines", "--experiment", "table1"])
    with pytest.raises(SystemExit):
        main(["--engines", "--jobs", "2"])
    with pytest.raises(SystemExit):
        main(["--profile"])  # --profile needs --engines


# ----------------------------------------------------------------------
# recorded floors
# ----------------------------------------------------------------------
def _fake_evaluation(reference_s, compiled_s):
    class _Stats:
        reference_ticks = 100
        total_bus_words = 10

    return {
        "timings": {"reference": reference_s, "compiled": compiled_s},
        "stats": _Stats(),
    }


def test_below_floor_skipped_under_smoke():
    # fir floor is 3.5; a 1.0x evaluation is below it, but smoke runs
    # never enforce floors (they measure fixed costs, not striding).
    evaluations = {"fir": _fake_evaluation(1.0, 1.0)}
    assert engines.below_floor(evaluations) == []


def test_below_floor_detects_regression(monkeypatch):
    monkeypatch.delenv("BENCH_SMOKE", raising=False)
    evaluations = {
        "fir": _fake_evaluation(10.0, 1.0),       # 10x: fine
        "ddc_pipeline": _fake_evaluation(2.0, 1.0),  # 2x < 6.0 floor
    }
    assert engines.below_floor(evaluations) == ["ddc_pipeline"]
    payload = engines.bench_payload(evaluations)
    assert payload["workloads"]["fir"]["below_floor"] is False
    assert payload["workloads"]["ddc_pipeline"]["below_floor"] is True
    assert payload["workloads"]["ddc_pipeline"]["floor"] == 6.0
    assert "[below floor]" in engines.render(evaluations)


def test_every_workload_has_a_floor_of_at_least_3x():
    """The tentpole contract: every workload >= 3x, floors included."""
    assert set(engines.SPEEDUP_FLOORS) == set(engines.WORKLOADS)
    assert all(floor >= 3.0 for floor in
               engines.SPEEDUP_FLOORS.values())


# ----------------------------------------------------------------------
# --profile attribution
# ----------------------------------------------------------------------
def test_profile_attaches_phase_attribution(tmp_path):
    evaluation = engines.evaluate_workload(
        "ddc_pipeline", repeats=1, profile=True
    )
    profile = evaluation["profile"]
    assert profile["engines"] == 1
    assert profile["compile_s"] > 0
    assert profile["dense_s"] > 0
    assert profile["batch_events"] > 0
    assert profile["parked_edges"] > 0
    payload = engines.bench_payload({"ddc_pipeline": evaluation})
    entry = payload["workloads"]["ddc_pipeline"]
    assert entry["profile"]["batched_ticks"] > 0
    # The payload is JSON-serializable with the profile attached.
    json.dumps(payload)


def test_profile_registry_is_cleared_after_use():
    from repro.sim import engine as engine_module

    engines.evaluate_workload("fir", repeats=1, profile=True)
    assert engine_module.PROFILE_REGISTRY is None


def test_cli_engines_profile_flag(tmp_path, capsys):
    main(["--engines", "--profile", "--output", str(tmp_path)])
    payload = json.loads((tmp_path / "BENCH_engine.json").read_text())
    for entry in payload["workloads"].values():
        assert "profile" in entry
        assert entry["profile"]["runner_calls"] >= 0


def test_ddc_stream_chip_is_live_and_rate_matched():
    chip = engines.build_ddc_stream_chip(samples=8)
    assert chip.clock.ratio(0, 1) == (3, 5)
    assert not chip.columns[0].dou.program.is_inert()
    assert not chip.columns[1].dou.program.is_inert()
    assert chip.horizontal_dou is not None
