"""Chaos suite: supervised sweeps survive every injected fault class.

The standing contract (ISSUE 9 / docs/robustness.md): with seeded
injection of worker kills, per-job timeouts, engine faults, and cache
corruption, ``run_many_outcomes`` completes the sweep with statistics
**bit-identical** to a fault-free run, and every retry, degradation,
and quarantine is visible in the outcomes, the counters, and on the
obs bus.  A generated-case fuzz sweep on the same supervisor comes out
with the fault-free rows under worker kills, and a case that overruns
its budget settles ``timed_out`` under its ``(seed, index)`` label.

CI runs this file once per seed of its matrix (``CHAOS_SEED``); the
injector is a pure function of the seed, so any red cell replays
locally with the same environment variable.
"""

import os

import pytest

from repro.arch.config import ChipConfig, ColumnConfig
from repro.errors import BatchError
from repro.eval import fuzz
from repro.isa.assembler import assemble
from repro.obs.events import subscribed
from repro.sim.batch import ResultCache, run_many, RunRequest
from repro.sim.faultinject import FaultInjector, FaultSpec
from repro.sim.resilience import (
    FaultPolicy,
    Job,
    outcomes_snapshot,
    reset_outcome_counters,
    run_many_outcomes,
    set_default_policy,
    supervise,
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
    """A small DSE-shaped sweep, in-batch duplicate included."""
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
    outcomes = run_many_outcomes(_sweep(), processes=1)
    assert all(o.status == "ok" for o in outcomes)
    return [o.stats for o in outcomes]


# The per-class injections below run at rate=1.0 on the first
# attempt: every job exercises the fault path, retries run clean, so
# the sweep must converge regardless of seed - while the seed still
# varies backoff jitter and corruption positions through the hash.

def test_worker_kills_serial(baseline):
    injector = FaultInjector(
        SEED, [FaultSpec("kill_worker", rate=1.0, attempts=(1,))]
    )
    recorder = _Recorder()
    with subscribed(recorder):
        outcomes = run_many_outcomes(
            _sweep(), processes=1,
            policy=FaultPolicy(max_retries=2, backoff_base_s=0.0),
            injector=injector,
        )
    assert all(o.ok for o in outcomes)
    assert [o.stats for o in outcomes] == baseline
    snapshot = outcomes_snapshot()
    assert snapshot["worker_crashed"] == 5  # unique jobs, not dupes
    assert snapshot["retries"] == 5
    assert recorder.names.count("job_worker_crashed") == 5
    assert recorder.names.count("job_retry") == 5


def test_worker_kills_real_processes(baseline):
    injector = FaultInjector(
        SEED, [FaultSpec("kill_worker", rate=1.0, attempts=(1,))]
    )
    outcomes = run_many_outcomes(
        _sweep(), processes=2,
        policy=FaultPolicy(max_retries=2, backoff_base_s=0.0),
        injector=injector,
    )
    assert all(o.ok for o in outcomes)
    assert [o.stats for o in outcomes] == baseline
    assert outcomes_snapshot()["worker_crashed"] == 5


def test_job_timeouts_serial(baseline):
    injector = FaultInjector(
        SEED, [FaultSpec("delay_job", rate=1.0, attempts=(1,),
                         delay_s=0.05)]
    )
    recorder = _Recorder()
    with subscribed(recorder):
        outcomes = run_many_outcomes(
            _sweep(), processes=1,
            policy=FaultPolicy(max_retries=2, timeout_s=0.02,
                               backoff_base_s=0.0),
            injector=injector,
        )
    assert all(o.ok for o in outcomes)
    assert [o.stats for o in outcomes] == baseline
    assert outcomes_snapshot()["timed_out"] == 5
    assert recorder.names.count("job_timeout") == 5


def test_job_timeouts_real_processes(baseline):
    injector = FaultInjector(
        SEED, [FaultSpec("delay_job", rate=1.0, attempts=(1,),
                         delay_s=0.8)]
    )
    outcomes = run_many_outcomes(
        _sweep(), processes=2,
        policy=FaultPolicy(max_retries=2, timeout_s=0.2,
                           backoff_base_s=0.0),
        injector=injector,
    )
    assert all(o.ok for o in outcomes)
    assert [o.stats for o in outcomes] == baseline
    assert outcomes_snapshot()["timed_out"] >= 5


def test_engine_faults_degrade_bit_identical(baseline):
    injector = FaultInjector(
        SEED, [FaultSpec("raise_in_engine", rate=1.0, attempts=(1,))]
    )
    recorder = _Recorder()
    with subscribed(recorder):
        outcomes = run_many_outcomes(
            _sweep(), processes=1,
            policy=FaultPolicy(max_retries=2, backoff_base_s=0.0),
            injector=injector,
        )
    assert all(o.ok for o in outcomes)
    assert all(o.status == "degraded" for o in outcomes)
    # the reference fallback is bit-identical - the engine contract
    assert [o.stats for o in outcomes] == baseline
    assert outcomes_snapshot()["degraded"] == 5
    assert recorder.names.count("job_degraded") == 5


def test_cache_corruption_quarantines_and_recomputes(
    baseline, tmp_path
):
    cache_dir = tmp_path / "cache"
    warm = ResultCache(cache_dir)
    first = run_many_outcomes(_sweep(), processes=1, cache=warm)
    assert [o.stats for o in first] == baseline
    injector = FaultInjector(
        SEED, [FaultSpec("corrupt_cache", rate=1.0)]
    )
    corrupted = injector.corrupt_cache(ResultCache(cache_dir))
    assert len(corrupted) == 5  # every unique on-disk entry
    recorder = _Recorder()
    rehydrated = ResultCache(cache_dir)
    with subscribed(recorder):
        again = run_many_outcomes(
            _sweep(), processes=1, cache=rehydrated
        )
    assert all(o.ok for o in again)
    assert [o.stats for o in again] == baseline
    assert rehydrated.quarantined == 5
    assert recorder.names.count("cache_corrupt") == 5
    assert outcomes_snapshot()["cache_quarantined"] == 5
    quarantine = cache_dir / "quarantine"
    assert len(list(quarantine.glob("*.stats"))) == 5
    # the refreshed entries verify clean on a third pass
    third = ResultCache(cache_dir)
    final = run_many_outcomes(_sweep(), processes=1, cache=third)
    assert all(o.cached for o in final)
    assert [o.stats for o in final] == baseline


def test_fault_storm_converges_bit_identical(baseline, tmp_path):
    """All fault classes armed at once, partial rates, seed-varied.

    Which jobs get hit depends on the seed (that is the point of the
    CI matrix); whatever fires, the sweep must converge to
    bit-identical statistics with every fault accounted for.
    """
    cache_dir = tmp_path / "storm-cache"
    warm = ResultCache(cache_dir)
    run_many_outcomes(_sweep(), processes=1, cache=warm)
    injector = FaultInjector(SEED, [
        FaultSpec("kill_worker", rate=0.5, attempts=(1,)),
        FaultSpec("raise_in_engine", rate=0.5, attempts=(1,)),
        FaultSpec("delay_job", rate=0.4, attempts=(1,),
                  delay_s=0.05),
        FaultSpec("corrupt_cache", rate=0.6),
    ])
    injector.corrupt_cache(ResultCache(cache_dir))
    cache = ResultCache(cache_dir)
    outcomes = run_many_outcomes(
        _sweep(), processes=1,
        policy=FaultPolicy(max_retries=3, timeout_s=0.02,
                           backoff_base_s=0.0),
        injector=injector, cache=cache,
    )
    assert all(o.ok for o in outcomes)
    assert [o.stats for o in outcomes] == baseline
    snapshot = outcomes_snapshot()
    assert snapshot["cache_quarantined"] == cache.quarantined
    # bookkeeping is self-consistent: every retry stems from a
    # classified fault attempt
    assert snapshot["retries"] == (
        snapshot["worker_crashed"] + snapshot["timed_out"]
        + snapshot["failed"]
    )


def test_supervised_run_many_is_a_drop_in_under_faults(baseline):
    """run_many(policy=..., injector=...) returns plain BatchResults."""
    injector = FaultInjector(
        SEED, [FaultSpec("kill_worker", rate=1.0, attempts=(1,))]
    )
    results = run_many(
        _sweep(), processes=1,
        policy=FaultPolicy(max_retries=2, backoff_base_s=0.0),
        injector=injector,
    )
    assert [r.stats for r in results] == baseline


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
