"""The outcomes rule every BENCH artifact is held to.

The rule is :func:`repro.sim.resilience.check_outcomes`;
``tools/check_artifact.py`` applies it to every ``BENCH_*`` artifact.
"""

import importlib.util
import json
from pathlib import Path

from repro.sim.resilience import check_outcomes, outcomes_snapshot

_TOOL = Path(__file__).parents[2] / "tools" / "check_artifact.py"
_spec = importlib.util.spec_from_file_location("check_artifact", _TOOL)
check_artifact = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_artifact)


def _payload(**overrides):
    outcomes = dict.fromkeys(outcomes_snapshot(), 0)
    outcomes.update(overrides)
    return {"artifact": "BENCH_power", "outcomes": outcomes}


def test_clean_block_passes():
    assert check_outcomes(_payload(ok=9)) == []


def test_missing_block_fails():
    failures = check_outcomes({"artifact": "BENCH_dvfs"})
    assert len(failures) == 1 and "outcomes" in failures[0]


def test_every_required_counter_must_be_present():
    payload = _payload()
    del payload["outcomes"]["worker_crashed"]
    failures = check_outcomes(payload)
    assert len(failures) == 1 and "worker_crashed" in failures[0]


def test_counters_must_be_nonnegative_integers():
    assert check_outcomes(_payload(retries=-1))
    assert check_outcomes(_payload(ok="3"))
    assert check_outcomes(_payload(degraded=True))
    assert check_outcomes(_payload(retries="not-a-number"))


def test_nonzero_fault_counters_fail_strict_mode():
    failures = check_outcomes(_payload(ok=8, retries=2))
    assert len(failures) == 1
    assert "retries=2" in failures[0]


def test_unknown_extra_keys_are_ignored():
    assert check_outcomes(_payload(ok=1, future_counter=5)) == []


def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.json"
    clean.write_text(json.dumps(_payload(ok=4)))
    dirty = tmp_path / "dirty.json"
    dirty.write_text(json.dumps(_payload(ok=3, timed_out=1)))
    assert check_artifact.main([str(clean)]) == 0
    assert check_artifact.main([str(dirty)]) == 1
    captured = capsys.readouterr()
    assert "fault-free" in captured.out
    assert "timed_out=1" in captured.err
