"""The BENCH_engine rules: baseline diff, profile counters, outcomes.

The rules live in :mod:`repro.eval.engines` and
:mod:`repro.sim.resilience`; ``tools/check_artifact.py`` applies them.
"""

import importlib.util
import json
from pathlib import Path

from repro.eval.engines import (
    ENGAGED_TIERS,
    PROFILE_COUNTERS,
    WORKLOADS,
    build_mixed_divider_chip,
    check_bench,
    compare_baseline,
)
from repro.sim.engine import CompiledEngine
from repro.sim.resilience import check_outcomes, outcomes_snapshot

_TOOL = Path(__file__).parents[2] / "tools" / "check_artifact.py"
_spec = importlib.util.spec_from_file_location("check_artifact", _TOOL)
check_artifact = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_artifact)


def _artifact(speedups, smoke=True):
    return {
        "artifact": "BENCH_engine",
        "smoke": smoke,
        "workloads": {
            key: {"speedup": speedup}
            for key, speedup in speedups.items()
        },
    }


def _profile(**overrides):
    block = dict.fromkeys(PROFILE_COUNTERS, 0)
    block.update(overrides)
    return block


def _outcomes(**overrides):
    block = dict.fromkeys(outcomes_snapshot(), 0)
    block.update(overrides)
    return block


def _engine(speedup=3.0, **outcomes):
    """A complete fresh artifact: every workload, profile, outcomes."""
    payload = _artifact(dict.fromkeys(WORKLOADS, speedup))
    for key, entry in payload["workloads"].items():
        entry["profile"] = _profile(
            **dict.fromkeys(ENGAGED_TIERS.get(key, ()), 1)
        )
    payload["outcomes"] = _outcomes(**outcomes)
    return payload


def test_within_tolerance_passes(capsys):
    baseline = _artifact({"fir": 3.0, "ddc": 2.0})
    fresh = _artifact({"fir": 2.5, "ddc": 2.4})  # -17% and +20%
    assert compare_baseline(fresh, baseline) == []
    out = capsys.readouterr().out
    assert "ok" in out and "REGRESSED" not in out


def test_regression_fails(capsys):
    baseline = _artifact({"fir": 3.0})
    fresh = _artifact({"fir": 2.0})  # -33%
    failures = compare_baseline(fresh, baseline)
    assert len(failures) == 1 and "fir" in failures[0]
    assert "REGRESSED" in capsys.readouterr().out


def test_missing_workload_fails(capsys):
    failures = compare_baseline(_artifact({}), _artifact({"fir": 3.0}))
    assert any("missing" in f for f in failures)


def test_smoke_mismatch_fails(capsys):
    failures = compare_baseline(
        _artifact({"fir": 3.0}, smoke=False),
        _artifact({"fir": 3.0}, smoke=True),
    )
    assert any("smoke" in f for f in failures)


def test_complete_profile_block_passes():
    assert check_bench(_engine()) == []


def test_profile_missing_counters_fails_with_named_diff(capsys):
    fresh = _engine()
    profile = fresh["workloads"]["fir"]["profile"]
    del profile["lockstep_batches"]
    del profile["orbit_laps"]
    failures = check_bench(fresh)
    assert len(failures) == 1
    assert "lockstep_batches" in failures[0]
    assert "orbit_laps" in failures[0]
    assert "fir" in failures[0]


def test_profile_schema_checked_on_extra_workloads():
    # A workload absent from the baseline skips the speedup gate but
    # still has its profile schema enforced.
    fresh = _engine()
    fresh["workloads"]["new_workload"] = {
        "speedup": 1.0, "profile": {"dense_ticks": 1},
    }
    failures = check_bench(fresh)
    assert len(failures) == 1 and "new_workload" in failures[0]


def test_profile_block_is_optional():
    # Runs without --profile carry no block; nothing to validate on
    # a workload no engaged-tier rule watches.
    fresh = _engine()
    del fresh["workloads"]["fir"]["profile"]
    assert check_bench(fresh) == []


def test_improvements_and_extras_never_fail(capsys):
    baseline = _artifact({"fir": 3.0})
    fresh = _artifact({"fir": 30.0, "new_workload": 1.0})
    assert compare_baseline(fresh, baseline) == []
    assert "unchecked: new_workload" in capsys.readouterr().out


def test_committed_baseline_is_valid(capsys):
    """The checked-in baseline parses and covers every workload."""
    baseline = json.loads(Path(check_artifact.DEFAULT_BASELINE).read_text())
    assert baseline["artifact"] == "BENCH_engine"
    assert baseline["smoke"] is True  # CI compares smoke runs
    assert set(baseline["workloads"]) == set(WORKLOADS)
    for entry in baseline["workloads"].values():
        assert entry["speedup"] > 0
    # Its profiles and outcomes satisfy the same rules a fresh
    # artifact's must.
    assert check_bench(baseline) == []
    assert check_outcomes(baseline) == []
    assert compare_baseline(baseline, baseline) == []


def test_committed_baseline_carries_exactly_the_current_keys():
    """No stale or missing key: a counter the engine dropped must leave
    the baseline with it, or the dense-share rule reads a dead phase."""
    baseline = json.loads(Path(check_artifact.DEFAULT_BASELINE).read_text())
    snapshot = CompiledEngine(build_mixed_divider_chip()).profile_snapshot()
    assert set(snapshot) == set(PROFILE_COUNTERS)
    for key, entry in baseline["workloads"].items():
        counters = set(entry["profile"]) - {"engines"}
        assert counters == set(PROFILE_COUNTERS), key
    assert set(baseline["outcomes"]) == set(outcomes_snapshot())


def test_cli_exit_codes(tmp_path, capsys):
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(_engine(3.0)))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_engine(3.1)))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_engine(1.0)))
    assert check_artifact.main(
        [str(good), "--baseline", str(baseline_path)]
    ) == 0
    assert check_artifact.main(
        [str(bad), "--baseline", str(baseline_path)]
    ) == 1


def test_clean_outcomes_block_passes(capsys):
    baseline = _engine(ok=12)
    assert check_artifact.check(_engine(ok=12), baseline) == []


def test_fresh_retries_fail_the_gate(capsys):
    failures = check_artifact.check(
        _engine(ok=11, retries=2, timed_out=2), _engine()
    )
    assert len(failures) == 1 and "retries" in failures[0]


def test_fresh_degraded_jobs_fail_the_gate(capsys):
    failures = check_artifact.check(_engine(ok=12, degraded=1), _engine())
    assert len(failures) == 1 and "degraded" in failures[0]


def test_baseline_outcomes_never_fail_the_fresh_run(capsys):
    # Only the fresh run's cleanliness gates; a baseline recorded
    # before the counters existed (or with old faults) still compares.
    baseline = _engine(ok=12, retries=3, degraded=1)
    assert check_artifact.check(_engine(ok=12), baseline) == []


def test_missing_outcomes_blocks_are_forward_compatible(capsys):
    # Baseline predates the block: it still compares, and the fresh
    # run is still gated.
    baseline = _engine()
    del baseline["outcomes"]
    assert check_artifact.check(_engine(ok=12), baseline) == []
    failures = check_artifact.check(_engine(ok=12, retries=1), baseline)
    assert len(failures) == 1 and "retries" in failures[0]
    # A fresh artifact without the block fails: every BENCH artifact
    # the runner writes carries one.
    fresh = _engine()
    del fresh["outcomes"]
    failures = check_artifact.check(fresh, baseline)
    assert len(failures) == 1 and "outcomes" in failures[0]


def test_unknown_outcome_keys_and_junk_counts_are_ignored(capsys):
    # Unknown keys are the schema growing; the baseline diff never
    # reads the outcomes block, junk included (the outcomes rule
    # rejects junk counts: test_outcomes_artifact).
    assert check_artifact.check(
        _engine(ok=12, future_counter=7), _engine()
    ) == []
    fresh = _engine(ok=12, future_counter=7, retries="not-a-number")
    assert compare_baseline(fresh, _engine()) == []
