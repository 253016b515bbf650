"""Chaos suite: supervised sweeps survive every injected fault class.

The standing contract (docs/robustness.md): with seeded injection of
worker kills, per-job timeouts, and engine faults, ``run_many``
completes the sweep with statistics **bit-identical** to a fault-free
run, and every retry and degradation is visible in the outcomes, the
counters, and on the obs bus.  A generated-case fuzz sweep on the
same supervisor comes out with the fault-free rows under worker
kills, and a case that overruns its budget settles ``timed_out``
under its ``(seed, index)`` label; a governed (scenario, policy) pair
does the same under its ``coordinated (<scenario>, <policy>)`` label,
and a pair that raises runs exactly once.

CI runs this file once per seed of its matrix (``CHAOS_SEED``); the
injector is a pure function of the seed, so any red cell replays
locally with the same environment variable.
"""

import os

import pytest

from repro.arch.config import ChipConfig, ColumnConfig
from repro.errors import BatchError, SimulationError
from repro.eval import fuzz, governed
from repro.isa.assembler import assemble
from repro.obs.events import subscribed
from repro.sim.batch import RunRequest, run_many
from repro.sim.faultinject import FaultInjector, FaultSpec
from repro.sim.resilience import (
    FaultPolicy,
    Job,
    outcomes_snapshot,
    require_ok,
    reset_outcome_counters,
    set_default_policy,
    supervise,
)
from repro.workloads.coordinated import (
    PIPELINE_GOVERNORS,
    ddc_pipeline_scenario,
)
from repro.workloads.generate import check_case

SEED = int(os.environ.get("CHAOS_SEED", "11"))


class _Recorder:
    def __init__(self):
        self.names = []

    def handle(self, event):
        self.names.append(event.name)


@pytest.fixture(autouse=True)
def _clean_counters():
    reset_outcome_counters()
    yield
    reset_outcome_counters()


def _request(iterations, divider, label):
    program = assemble(f"""
        movi r0, 0
        loop {iterations}
          addi r0, r0, 1
        endloop
        halt
    """, "spin")
    return RunRequest(
        config=ChipConfig(
            reference_mhz=100.0,
            columns=(ColumnConfig(divider=divider),),
        ),
        programs=(program,),
        engine="compiled",
        label=label,
    )


def _sweep():
    """A small DSE-shaped sweep: six jobs, one a duplicate request."""
    requests = [
        _request(iterations, divider, f"cfg{i}")
        for i, (iterations, divider) in enumerate(
            [(8, 1), (12, 2), (16, 4), (10, 8), (20, 2)]
        )
    ]
    requests.append(_request(12, 2, "cfg1-duplicate"))
    return requests


@pytest.fixture(scope="module")
def baseline():
    """Fault-free stats for the sweep (the bit-identity anchor)."""
    outcomes = run_many(_sweep(), processes=1)
    assert all(o.status == "ok" for o in outcomes)
    return [o.stats for o in outcomes]


# The per-class injections below run at rate=1.0 on the first
# attempt: every job exercises the fault path, retries run clean, so
# the sweep must converge regardless of seed - while the seed still
# varies backoff jitter through the hash.

def test_worker_kills_serial(baseline):
    injector = FaultInjector(
        SEED, [FaultSpec("kill_worker", rate=1.0, attempts=(1,))]
    )
    recorder = _Recorder()
    with subscribed(recorder):
        outcomes = run_many(
            _sweep(), processes=1,
            policy=FaultPolicy(max_retries=2, backoff_base_s=0.0),
            injector=injector,
        )
    assert all(o.ok for o in outcomes)
    assert [o.stats for o in outcomes] == baseline
    snapshot = outcomes_snapshot()
    assert snapshot["worker_crashed"] == 6  # the duplicate runs too
    assert snapshot["retries"] == 6
    assert recorder.names.count("job_worker_crashed") == 6
    assert recorder.names.count("job_retry") == 6


def test_worker_kills_real_processes(baseline):
    injector = FaultInjector(
        SEED, [FaultSpec("kill_worker", rate=1.0, attempts=(1,))]
    )
    outcomes = run_many(
        _sweep(), processes=2,
        policy=FaultPolicy(max_retries=2, backoff_base_s=0.0),
        injector=injector,
    )
    assert all(o.ok for o in outcomes)
    assert [o.stats for o in outcomes] == baseline
    assert outcomes_snapshot()["worker_crashed"] == 6


def test_job_timeouts_serial(baseline):
    injector = FaultInjector(
        SEED, [FaultSpec("delay_job", rate=1.0, attempts=(1,),
                         delay_s=0.05)]
    )
    recorder = _Recorder()
    with subscribed(recorder):
        outcomes = run_many(
            _sweep(), processes=1,
            policy=FaultPolicy(max_retries=2, timeout_s=0.02,
                               backoff_base_s=0.0),
            injector=injector,
        )
    assert all(o.ok for o in outcomes)
    assert [o.stats for o in outcomes] == baseline
    assert outcomes_snapshot()["timed_out"] == 6
    assert recorder.names.count("job_timeout") == 6


def test_job_timeouts_real_processes(baseline):
    injector = FaultInjector(
        SEED, [FaultSpec("delay_job", rate=1.0, attempts=(1,),
                         delay_s=0.8)]
    )
    outcomes = run_many(
        _sweep(), processes=2,
        policy=FaultPolicy(max_retries=2, timeout_s=0.2,
                           backoff_base_s=0.0),
        injector=injector,
    )
    assert all(o.ok for o in outcomes)
    assert [o.stats for o in outcomes] == baseline
    assert outcomes_snapshot()["timed_out"] >= 6


def test_engine_faults_degrade_bit_identical(baseline):
    injector = FaultInjector(
        SEED, [FaultSpec("raise_in_engine", rate=1.0, attempts=(1,))]
    )
    recorder = _Recorder()
    with subscribed(recorder):
        outcomes = run_many(
            _sweep(), processes=1,
            policy=FaultPolicy(max_retries=2, backoff_base_s=0.0),
            injector=injector,
        )
    assert all(o.ok for o in outcomes)
    assert all(o.status == "degraded" for o in outcomes)
    # the reference fallback is bit-identical - the engine contract
    assert [o.stats for o in outcomes] == baseline
    assert outcomes_snapshot()["degraded"] == 6
    assert recorder.names.count("job_degraded") == 6


def test_fault_storm_converges_bit_identical(baseline):
    """All fault classes armed at once, partial rates, seed-varied.

    Which jobs get hit depends on the seed (that is the point of the
    CI matrix); whatever fires, the sweep must converge to
    bit-identical statistics with every fault accounted for.
    """
    injector = FaultInjector(SEED, [
        FaultSpec("kill_worker", rate=0.5, attempts=(1,)),
        FaultSpec("raise_in_engine", rate=0.5, attempts=(1,)),
        FaultSpec("delay_job", rate=0.4, attempts=(1,),
                  delay_s=0.05),
    ])
    outcomes = run_many(
        _sweep(), processes=1,
        policy=FaultPolicy(max_retries=3, timeout_s=0.02,
                           backoff_base_s=0.0),
        injector=injector,
    )
    assert all(o.ok for o in outcomes)
    assert [o.stats for o in outcomes] == baseline
    snapshot = outcomes_snapshot()
    # bookkeeping is self-consistent: every retry stems from a
    # classified fault attempt
    assert snapshot["retries"] == (
        snapshot["worker_crashed"] + snapshot["timed_out"]
        + snapshot["failed"]
    )


def test_supervised_run_many_is_a_drop_in_under_faults(baseline):
    """require_ok(run_many(policy=..., injector=...)) passes through."""
    injector = FaultInjector(
        SEED, [FaultSpec("kill_worker", rate=1.0, attempts=(1,))]
    )
    outcomes = require_ok(run_many(
        _sweep(), processes=1,
        policy=FaultPolicy(max_retries=2, backoff_base_s=0.0),
        injector=injector,
    ))
    assert [o.stats for o in outcomes] == baseline


# A fuzz sweep: generated-case check_case jobs labelled the way
# repro.eval.fuzz.evaluate labels them, through the same supervisor.

FUZZ_SEED, FUZZ_COUNT = 11, 4


@pytest.fixture(scope="module")
def fuzz_rows():
    """Fault-free rows of the four-case sweep."""
    return fuzz.evaluate(FUZZ_SEED, FUZZ_COUNT, processes=1)


def _fuzz_sweep(processes, policy, injector):
    jobs = [
        Job(check_case, (FUZZ_SEED, index),
            f"fuzz (seed {FUZZ_SEED}, index {index})")
        for index in range(FUZZ_COUNT)
    ]
    outcomes = [None] * len(jobs)
    supervise(jobs, outcomes, processes, policy, injector)
    return outcomes


@pytest.mark.parametrize("processes", [1, 2])
def test_fuzz_sweep_survives_worker_kills(fuzz_rows, processes):
    injector = FaultInjector(
        SEED, [FaultSpec("kill_worker", rate=1.0, attempts=(1,))]
    )
    outcomes = _fuzz_sweep(
        processes, FaultPolicy(max_retries=2, backoff_base_s=0.0),
        injector,
    )
    assert [o.stats for o in outcomes] == fuzz_rows
    assert [o.retries for o in outcomes] == [1] * FUZZ_COUNT
    assert outcomes_snapshot()["worker_crashed"] == FUZZ_COUNT


def test_hung_fuzz_case_times_out_under_its_label():
    injector = FaultInjector(
        SEED, [FaultSpec("delay_job", rate=1.0, attempts=(1, 2),
                         delay_s=5.0)]
    )
    outcomes = _fuzz_sweep(
        2, FaultPolicy(max_retries=1, timeout_s=0.2, backoff_base_s=0.0,
                       keep_going=True),
        injector,
    )
    assert [o.status for o in outcomes] == ["timed_out"] * FUZZ_COUNT
    assert [o.label for o in outcomes] == [
        f"fuzz (seed {FUZZ_SEED}, index {index})"
        for index in range(FUZZ_COUNT)
    ]
    assert all(o.attempts == 2 for o in outcomes)


def test_fail_fast_fuzz_sweep_names_the_pair():
    # What `runner --fuzz --job-timeout` does to a case over budget.
    set_default_policy(FaultPolicy(max_retries=0, timeout_s=0.001))
    try:
        with pytest.raises(BatchError, match=(
            rf"job 'fuzz \(seed {FUZZ_SEED}, index \d\)' timed_out"
        )):
            fuzz.evaluate(FUZZ_SEED, FUZZ_COUNT, processes=2)
    finally:
        set_default_policy(None)


# Governed pairs: one coordinated scenario's (scenario, policy) jobs,
# labelled the way repro.eval.governed.evaluate labels them.

def _governed_pairs(processes, policy, injector):
    scenario = ddc_pipeline_scenario(frames=2)
    jobs = [
        Job(governed.run_pair, (scenario, kind),
            f"coordinated (ddc_pipeline, {kind})")
        for kind in PIPELINE_GOVERNORS
    ]
    outcomes = [None] * len(jobs)
    supervise(jobs, outcomes, processes, policy, injector)
    return outcomes


def test_hung_governed_pairs_time_out_under_their_labels():
    injector = FaultInjector(
        SEED, [FaultSpec("delay_job", rate=1.0, attempts=(1, 2),
                         delay_s=5.0)]
    )
    outcomes = _governed_pairs(
        2, FaultPolicy(max_retries=1, timeout_s=0.2, backoff_base_s=0.0,
                       keep_going=True),
        injector,
    )
    assert [o.status for o in outcomes] == ["timed_out"] * 3
    assert [o.label for o in outcomes] == [
        f"coordinated (ddc_pipeline, {kind})" for kind in PIPELINE_GOVERNORS
    ]
    assert all(o.attempts == 2 for o in outcomes)


def test_fail_fast_governed_sweep_names_the_pair():
    # What `runner --coordinated --job-timeout` does to a pair over budget.
    set_default_policy(FaultPolicy(max_retries=0, timeout_s=0.001))
    try:
        with pytest.raises(BatchError, match=(
            r"job 'coordinated \(\w+, \w+\)' timed_out"
        )):
            governed.evaluate("coordinated", frames=2, processes=2)
    finally:
        set_default_policy(None)


def test_raising_governed_pair_runs_once(monkeypatch):
    calls = []

    def broken(scenario, kind, engine):
        calls.append(kind)
        raise SimulationError(f"{scenario.key}/{kind}: pipeline broke")

    monkeypatch.setattr(governed, "run_pipeline", broken)
    outcomes = _governed_pairs(
        1, FaultPolicy(max_retries=2, backoff_base_s=0.0, keep_going=True),
        None,
    )
    assert [o.status for o in outcomes] == ["failed"] * 3
    assert [o.attempts for o in outcomes] == [1] * 3
    assert calls == list(PIPELINE_GOVERNORS)
    assert outcomes_snapshot()["retries"] == 0
