"""tools/check_artifact.py: one failing payload per rule it applies.

Every case starts from a payload that passes (each artifact kind has
one passing case below) and breaks one rule; the checker must exit
non-zero and report that rule.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.eval import fuzz, governed
from repro.eval.engines import ENGAGED_TIERS, PROFILE_COUNTERS, WORKLOADS
from repro.sim.resilience import outcomes_snapshot
from repro.workloads.generate import APPS, TOPOLOGIES

_TOOL = Path(__file__).parents[2] / "tools" / "check_artifact.py"
_spec = importlib.util.spec_from_file_location("check_artifact", _TOOL)
check_artifact = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_artifact)


def _clean():
    return dict.fromkeys(outcomes_snapshot(), 0)


def _engine():
    workloads = {}
    for key in WORKLOADS:
        profile = dict.fromkeys(PROFILE_COUNTERS, 0)
        profile.update(dense_s=0.5, settle_s=0.5)
        profile.update(dict.fromkeys(ENGAGED_TIERS.get(key, ()), 1))
        workloads[key] = {"speedup": 3.0, "profile": profile}
    return {"artifact": "BENCH_engine", "smoke": True,
            "workloads": workloads, "outcomes": _clean()}


def _fuzz():
    rows = [
        {"class": f"{app}/{topology}/static", "app": app,
         "topology": topology, "governor": "static",
         "conservation_error": 1e-15, "total_words": 8,
         "energy_nj": 1.0, "transitions": 0, "gate_segments": 0,
         "rail_wakes": 0}
        for app in APPS for topology in TOPOLOGIES
    ]
    payload = fuzz.bench_payload(rows, seed=11)  # 15 cases
    payload["outcomes"] = {**_clean(), "ok": len(rows)}
    return payload


def _trace():
    def track(tid, name):
        return {"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
                "args": {"name": name}}  # metadata needs no ts

    return {"traceEvents": [
        track(1, "column0"),
        track(2, "governor"),
        {"ph": "X", "name": "window", "pid": 1, "tid": 1, "ts": 0,
         "dur": 5},
        {"ph": "i", "name": "decide", "pid": 1, "tid": 2, "ts": 3.5},
    ]}


def _bench(artifact):
    return lambda: {"artifact": artifact, "outcomes": _clean()}


def _governed(name):
    """A passing governed payload: one scenario, one job per policy."""
    policies = governed.SUITES[name].policies
    return lambda: {
        "artifact": f"BENCH_{name}",
        "scenarios": {"s": {"governors": dict.fromkeys(policies, {})}},
        "outcomes": {**_clean(), "ok": len(policies)},
    }


def put(*path):
    """A mutation setting ``payload[path[0]]...[path[-2]] = path[-1]``."""
    *keys, value = path

    def mutate(payload):
        for key in keys[:-1]:
            payload = payload[key]
        payload[keys[-1]] = value
    return mutate


def drop(*keys):
    """A mutation deleting ``payload[keys[0]]...[keys[-1]]``."""
    def mutate(payload):
        for key in keys[:-1]:
            payload = payload[key]
        del payload[keys[-1]]
    return mutate


def _run(tmp_path, payload, args=(), baseline=None):
    path = tmp_path / "artifact.json"
    path.write_text(
        payload if isinstance(payload, str) else json.dumps(payload)
    )
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(baseline or _engine()))
    return check_artifact.main(
        [str(path), "--baseline", str(baseline_path), *args]
    )


PASSING = {
    "trace": (_trace, ["--require-track", "column0",
                       "--require-track", "governor"]),
    "BENCH_engine": (_engine, []),
    "BENCH_fuzz": (_fuzz, ["--min-cases", "15"]),
    "BENCH_dvfs": (_governed("dvfs"), []),
    "BENCH_coordinated": (_governed("coordinated"), []),
    "BENCH_power": (_bench("BENCH_power"), []),
}


@pytest.mark.parametrize("kind", PASSING)
def test_valid_artifact_passes(tmp_path, capsys, kind):
    make, args = PASSING[kind]
    assert _run(tmp_path, make(), args) == 0
    assert "ok:" in capsys.readouterr().out


def _case(rule, make, mutate, expect, args=(), baseline=None):
    return pytest.param(make, mutate, expect, list(args), baseline,
                        id=rule)


def _regressed_dense_share(payload):
    profile = payload["workloads"]["fir"]["profile"]
    profile.update(dense_s=0.7, settle_s=0.3)  # 50% -> 70%


_FAULTS = [name for name in outcomes_snapshot() if name != "ok"]

RULES = [
    # fuzz: repro.eval.fuzz.check_bench
    _case("fuzz-min-cases", _fuzz, None, "cases must be an integer >= 16",
          ["--min-cases", "16"]),
    _case("fuzz-cases-int", _fuzz, put("cases", "15"), "cases must be"),
    _case("fuzz-failures", _fuzz, put("failures", 1), "failures must be 0"),
    _case("fuzz-outcomes-ok", _fuzz, put("outcomes", "ok", 0),
          "outcomes['ok'] must count the 15 supervised case jobs"),
    _case("fuzz-seed", _fuzz, put("seed", "11"), "seed must be"),
    _case("fuzz-invariants", _fuzz, put("invariants", []),
          "invariants must be a non-empty list"),
    _case("fuzz-coverage-mapping", _fuzz, put("coverage", []),
          "coverage must be a mapping"),
    _case("fuzz-axis-missing", _fuzz, drop("coverage", "apps"),
          "coverage['apps'] missing"),
    _case("fuzz-app-count", _fuzz, put("coverage", "apps", "aes", 0),
          "coverage['apps']['aes']"),
    _case("fuzz-topology-count", _fuzz,
          drop("coverage", "topologies", "fork_join"),
          "coverage['topologies']['fork_join']"),
    _case("fuzz-class-sum", _fuzz,
          put("coverage", "classes", "aes/linear/static", 2),
          "per-class counts sum to 16"),
    _case("fuzz-conservation", _fuzz,
          put("worst_conservation_error", 1e-6), "worst conservation"),
    # The producer's tolerance counts, not the one the artifact states.
    _case("fuzz-conservation-declared", _fuzz,
          lambda p: p.update(conservation_tolerance=1e-3,
                             worst_conservation_error=1e-6),
          "worst conservation"),
    _case("fuzz-tolerance-stated", _fuzz,
          put("conservation_tolerance", "1e-9"),
          "conservation_tolerance must state"),
    # governed: repro.eval.governed.check_bench
    _case("governed-scenarios", _governed("dvfs"), put("scenarios", {}),
          "scenarios must be a non-empty mapping"),
    _case("governed-policies", _governed("coordinated"),
          drop("scenarios", "s", "governors", "independent"),
          "scenarios['s'] must list the policies"),
    _case("governed-outcomes-ok", _governed("dvfs"),
          put("outcomes", "ok", 2),
          "outcomes['ok'] must count the 3 supervised (scenario, policy) "
          "jobs"),
    # outcomes: repro.sim.resilience.check_outcomes, on every BENCH_*
    _case("outcomes-missing", _governed("dvfs"), drop("outcomes"),
          "no 'outcomes' mapping"),
    _case("outcomes-missing-engine", _engine, drop("outcomes"),
          "no 'outcomes' mapping"),
    _case("outcomes-missing-fuzz", _fuzz, drop("outcomes"),
          "no 'outcomes' mapping"),
    _case("outcomes-tally-missing", _bench("BENCH_power"),
          drop("outcomes", "worker_crashed"), "outcomes['worker_crashed']"),
    _case("outcomes-negative", _governed("dvfs"),
          put("outcomes", "ok", -1), "non-negative integer"),
    _case("outcomes-not-int", _governed("dvfs"),
          put("outcomes", "ok", "3"), "non-negative integer"),
    _case("outcomes-bool", _governed("dvfs"),
          put("outcomes", "ok", True), "non-negative integer"),
    *(
        _case(f"outcomes-fault-{name}", _governed("coordinated"),
              put("outcomes", name, 1), f"{name}=1")
        for name in _FAULTS
    ),
    # trace: repro.obs.export.validate_chrome_trace
    _case("trace-unreadable", lambda: '{"traceEvents": [', None,
          "unreadable"),
    _case("trace-events-list", _trace, put("traceEvents", {}),
          "missing traceEvents list"),
    _case("trace-events-empty", _trace, put("traceEvents", []),
          "traceEvents is empty"),
    _case("trace-event-object", _trace,
          lambda p: p["traceEvents"].append(5), "not an object"),
    _case("trace-phase", _trace, put("traceEvents", 2, "ph", "Q"),
          "unknown phase"),
    _case("trace-name", _trace, put("traceEvents", 3, "name", 7),
          "missing name"),
    _case("trace-pid", _trace, put("traceEvents", 2, "pid", "1"),
          "non-integer pid"),
    _case("trace-tid", _trace, put("traceEvents", 3, "tid", 1.0),
          "non-integer tid"),
    _case("trace-ts", _trace, drop("traceEvents", 3, "ts"),
          "non-numeric ts"),
    _case("trace-dur", _trace, drop("traceEvents", 2, "dur"),
          "complete event missing dur"),
    _case("trace-dur-negative", _trace, put("traceEvents", 2, "dur", -1),
          "negative dur"),
    _case("trace-column-track", _trace,
          put("traceEvents", 0, "args", "name", "engine"), "column<i>"),
    _case("trace-required-track", _trace, None,
          "required track 'ledger' missing", ["--require-track", "ledger"]),
    # lockstep: repro.eval.engines.check_bench (ENGAGED_TIERS)
    _case("lockstep-workload", _engine, drop("workloads", "ddc_pipeline"),
          "'ddc_pipeline' missing from artifact"),
    _case("lockstep-profile", _engine,
          drop("workloads", "mixed_dividers", "profile"),
          "mixed_dividers: no profile attached"),
    *(
        _case(f"lockstep-{counter}", _engine,
              put("workloads", key, "profile", counter, 0),
              f"{key}: {counter} is 0")
        for key, counters in ENGAGED_TIERS.items() for counter in counters
    ),
    # compare: repro.eval.engines.check_bench (PROFILE_COUNTERS) and
    # repro.eval.engines.compare_baseline
    _case("compare-artifact", _engine, None, "not a BENCH_engine artifact",
          baseline={"artifact": "BENCH_dvfs"}),
    _case("compare-smoke", _engine, put("smoke", False),
          "smoke flags differ"),
    _case("compare-baseline-workload", _engine, None,
          "'fft' missing from fresh run",
          baseline={**_engine(), "workloads": {
              **_engine()["workloads"], "fft": {"speedup": 2.0}}}),
    _case("compare-profile-counter", _engine,
          drop("workloads", "fir", "profile", "orbit_laps"),
          "fir: profile block is missing required counters: orbit_laps"),
    _case("compare-profile-counter-extra", _engine,
          put("workloads", "new", {"speedup": 1.0,
                                   "profile": {"dense_ticks": 1}}),
          "new: profile block is missing"),
    _case("compare-speedup", _engine,
          put("workloads", "fir", "speedup", 2.3), "fir: speedup 2.30x"),
    _case("compare-dense-share", _engine, _regressed_dense_share,
          "fir: dense-phase share grew"),
]


@pytest.mark.parametrize("make, mutate, expect, args, baseline", RULES)
def test_rule_fails(tmp_path, capsys, make, mutate, expect, args,
                    baseline):
    payload = make()
    if mutate is not None:
        mutate(payload)
    assert _run(tmp_path, payload, args, baseline) == 1
    assert expect in capsys.readouterr().err


def test_every_path_is_reported(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_governed("dvfs")()))
    assert check_artifact.main([str(good), str(tmp_path / "absent")]) == 1
    captured = capsys.readouterr()
    assert f"ok: {good}" in captured.out
    assert "absent: unreadable" in captured.err
