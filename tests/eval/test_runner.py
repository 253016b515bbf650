"""Runner CLI behaviours."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.eval.runner import main, run_all, write_results


def test_run_all_selection():
    outputs = run_all(["table1", "fig5"])
    assert set(outputs) == {"table1", "fig5"}


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError):
        run_all(["fig99"])


def test_write_results(tmp_path):
    outputs = run_all(["table1"])
    written = write_results(outputs, str(tmp_path / "results"))
    assert len(written) == 1
    assert written[0].read_text().startswith("Table 1")


def test_cli_single_experiment(capsys):
    main(["--experiment", "table2"])
    out = capsys.readouterr().out
    assert "== table2" in out
    assert "32 KB SRAM" in out


def test_cli_output_directory(tmp_path, capsys):
    main(["-e", "table1", "-o", str(tmp_path)])
    out = capsys.readouterr().out
    assert "wrote" in out
    assert (tmp_path / "table1.txt").exists()


def test_module_entry_point_runs_without_warnings():
    """``python -m repro.eval.runner`` must not make runpy warn.

    runpy warns when the package's ``__init__`` has already imported
    the module it is about to run as ``__main__``.
    """
    src = str(Path(repro.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.eval.runner", "-e", "table1"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "== table1" in result.stdout


def test_trace_requires_engines(capsys):
    with pytest.raises(SystemExit):
        main(["--trace", "out.json"])
    assert "--engines" in capsys.readouterr().err


def test_supervision_flags_install_a_default_policy(capsys):
    from repro.sim.resilience import (
        default_policy,
        set_default_policy,
    )

    assert default_policy() is None
    try:
        main([
            "--experiment", "table1",
            "--job-timeout", "120", "--retries", "3", "--keep-going",
        ])
        policy = default_policy()
        assert policy is not None
        assert policy.max_retries == 3
        assert policy.timeout_s == 120.0
        assert policy.keep_going is True
    finally:
        set_default_policy(None)


def test_no_supervision_flags_leave_the_fast_path_alone():
    from repro.sim.resilience import default_policy

    main(["--experiment", "table1"])
    assert default_policy() is None


def test_emit_artifact_stamps_outcomes_block(tmp_path):
    from repro.eval.runner import emit_artifact
    from repro.sim.resilience import reset_outcome_counters

    reset_outcome_counters()
    target = emit_artifact({"artifact": "BENCH_fake"}, str(tmp_path))
    assert target == tmp_path / "BENCH_fake.json"
    outcomes = json.loads(target.read_text())["outcomes"]
    assert set(outcomes) == {
        "ok", "degraded", "failed", "timed_out", "worker_crashed",
        "retries",
    }
    assert all(count == 0 for count in outcomes.values())


@pytest.mark.parametrize("artifact", [
    "BENCH_engine", "BENCH_dvfs", "BENCH_coordinated", "BENCH_fuzz",
    "BENCH_power",
])
def test_write_bench(tmp_path, artifact):
    from repro.eval.runner import write_bench

    payload = {"artifact": artifact, "values": [1, 2.5, None]}
    target = write_bench(tmp_path / "out", payload)
    assert target == tmp_path / "out" / f"{artifact}.json"
    assert json.loads(target.read_text()) == payload
