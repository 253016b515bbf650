"""Supervised batch execution: outcomes, retries, degradation."""

import pytest

from repro.arch.config import ChipConfig, ColumnConfig
from repro.errors import BatchError
from repro.isa.assembler import assemble
from repro.obs.events import subscribed
from repro.sim.batch import RunRequest, execute, run_many
from repro.sim.faultinject import FaultInjector, FaultSpec
from repro.sim.resilience import (
    FaultPolicy,
    JobOutcome,
    backoff_delay,
    outcomes_snapshot,
    require_ok,
    reset_outcome_counters,
    set_default_policy,
)


class _Recorder:
    def __init__(self):
        self.events = []

    def handle(self, event):
        self.events.append(event)

    def names(self):
        return [event.name for event in self.events]


@pytest.fixture(autouse=True)
def _clean_counters():
    reset_outcome_counters()
    yield
    reset_outcome_counters()
    set_default_policy(None)


def make_request(iterations=12, divider=1, engine="compiled",
                 label=""):
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
        engine=engine,
        label=label,
    )


def deadlocked_request(label):
    """A request both engines reject: nobody ever sends."""
    return RunRequest(
        config=ChipConfig(
            reference_mhz=100.0,
            columns=(ColumnConfig(divider=1),),
        ),
        programs=(assemble("recv r0\nhalt"),),
        max_ticks=300,
        label=label,
    )


FAST = FaultPolicy(max_retries=2, backoff_base_s=0.0)


def test_policy_validation():
    with pytest.raises(ValueError):
        FaultPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        FaultPolicy(timeout_s=0.0)
    with pytest.raises(ValueError):
        FaultPolicy(backoff_factor=0.5)


def test_backoff_is_deterministic_capped_and_jittered():
    policy = FaultPolicy(backoff_base_s=0.1, backoff_factor=2.0,
                         backoff_max_s=0.5)
    first = backoff_delay(policy, "k" * 64, 1)
    assert first == backoff_delay(policy, "k" * 64, 1)
    assert 0.05 <= first < 0.15  # base x [0.5, 1.5)
    assert backoff_delay(policy, "k" * 64, 2) \
        != backoff_delay(policy, "j" * 64, 2)
    assert backoff_delay(policy, "k" * 64, 9) < 0.75  # capped x 1.5


def test_fault_free_outcomes_match_run_many():
    requests = [make_request(divider=d, label=f"d{d}")
                for d in (1, 2, 4)]
    outcomes = run_many(requests, processes=1)
    assert [o.status for o in outcomes] == ["ok"] * 3
    assert [o.stats for o in outcomes] == [execute(r) for r in requests]
    assert [o.label for o in outcomes] == ["d1", "d2", "d4"]
    assert all(o.attempts == 1 and o.retries == 0 for o in outcomes)


def test_worker_crash_is_retried_to_success():
    requests = [make_request(divider=d) for d in (1, 2)]
    injector = FaultInjector(
        3, [FaultSpec("kill_worker", rate=1.0, attempts=(1,))]
    )
    recorder = _Recorder()
    with subscribed(recorder):
        outcomes = run_many(
            requests, processes=1, policy=FAST, injector=injector
        )
    assert [o.status for o in outcomes] == ["ok", "ok"]
    assert [o.retries for o in outcomes] == [1, 1]
    assert recorder.names().count("job_worker_crashed") == 2
    assert recorder.names().count("job_retry") == 2
    snapshot = outcomes_snapshot()
    assert snapshot["worker_crashed"] == 2
    assert snapshot["retries"] == 2
    assert snapshot["ok"] == 2


def test_engine_fault_degrades_to_reference_bit_identical():
    request = make_request(divider=4, label="deg")
    baseline = run_many([request], processes=1)
    injector = FaultInjector(
        5, [FaultSpec("raise_in_engine", rate=1.0, attempts=(1,))]
    )
    recorder = _Recorder()
    with subscribed(recorder):
        outcomes = run_many(
            [request], processes=1, policy=FAST, injector=injector
        )
    outcome = outcomes[0]
    assert outcome.status == "degraded" and outcome.degraded
    assert outcome.ok
    assert outcome.retries == 0  # same attempt, fallback engine
    assert outcome.stats == baseline[0].stats
    assert "job_degraded" in recorder.names()
    assert outcomes_snapshot()["degraded"] == 1


def test_job_failing_on_both_engines_settles_failed():
    policy = FaultPolicy(max_retries=1, backoff_base_s=0.0,
                         keep_going=True)
    outcomes = run_many([deadlocked_request("deadlock")],
                                 processes=1, policy=policy)
    assert outcomes[0].status == "failed"
    assert not outcomes[0].ok
    assert outcomes[0].stats is None
    # Deterministic: the failing attempt is not retried.
    assert outcomes[0].attempts == 1
    assert "exceeded 300" in outcomes[0].error
    assert "fallback also failed" in outcomes[0].error
    assert outcomes_snapshot()["failed"] == 1
    assert outcomes_snapshot()["retries"] == 0


def test_serial_timeout_is_posthoc_and_retried():
    request = make_request(label="slow")
    injector = FaultInjector(
        7, [FaultSpec("delay_job", rate=1.0, attempts=(1,),
                      delay_s=0.05)]
    )
    policy = FaultPolicy(max_retries=1, timeout_s=0.01,
                         backoff_base_s=0.0)
    recorder = _Recorder()
    with subscribed(recorder):
        outcomes = run_many(
            [request], processes=1, policy=policy, injector=injector
        )
    assert outcomes[0].status == "ok"
    assert outcomes[0].retries == 1
    assert "job_timeout" in recorder.names()
    assert outcomes_snapshot()["timed_out"] == 1


def test_fail_fast_raises_batch_error_with_label():
    requests = [make_request(divider=2, label="doomed")]
    injector = FaultInjector(
        9, [FaultSpec("kill_worker", rate=1.0, attempts=(1, 2))]
    )
    policy = FaultPolicy(max_retries=1, backoff_base_s=0.0)
    with pytest.raises(BatchError) as excinfo:
        run_many(
            requests, processes=1, policy=policy, injector=injector
        )
    assert excinfo.value.label == "doomed"
    assert excinfo.value.outcome.status == "worker_crashed"
    assert excinfo.value.outcome.attempts == 2


def test_keep_going_supervises_every_job_to_a_terminal_outcome():
    doomed = make_request(divider=2, iterations=9, label="doomed")
    also_doomed = make_request(divider=4, label="also-doomed")
    injector = FaultInjector(
        9, [FaultSpec("kill_worker", rate=1.0, attempts=(1, 2, 3))]
    )
    policy = FaultPolicy(max_retries=1, backoff_base_s=0.0,
                         keep_going=True)
    outcomes = run_many(
        [doomed, also_doomed], processes=1, policy=policy,
        injector=injector,
    )
    assert [o.label for o in outcomes] == ["doomed", "also-doomed"]
    assert all(o.status == "worker_crashed" for o in outcomes)
    assert all(o.attempts == 2 for o in outcomes)
    assert all(o.stats is None for o in outcomes)


def test_process_mode_crash_containment_bit_identical():
    requests = [make_request(divider=d, label=f"d{d}")
                for d in (1, 2, 4)]
    baseline = run_many(requests, processes=1)
    injector = FaultInjector(
        21, [FaultSpec("kill_worker", rate=1.0, attempts=(1,))]
    )
    outcomes = run_many(
        requests, processes=2, policy=FAST, injector=injector
    )
    assert [o.status for o in outcomes] == ["ok"] * 3
    assert [o.retries for o in outcomes] == [1, 1, 1]
    assert [o.stats for o in outcomes] \
        == [o.stats for o in baseline]


def test_run_many_uses_default_policy_and_supervises():
    requests = [make_request(divider=2, label="via-default")]
    injector_free_baseline = run_many(requests, processes=1)
    set_default_policy(FaultPolicy(max_retries=1,
                                   backoff_base_s=0.0))
    supervised = run_many(requests, processes=1)
    assert [o.stats for o in supervised] \
        == [o.stats for o in injector_free_baseline]
    assert outcomes_snapshot()["ok"] >= 1


def test_run_many_with_policy_raises_batch_error_on_failure():
    requests = [make_request(divider=2, label="dead")]
    injector = FaultInjector(
        2, [FaultSpec("kill_worker", rate=1.0, attempts=(1, 2))]
    )
    with pytest.raises(BatchError) as excinfo:
        require_ok(run_many(
            requests, processes=1,
            policy=FaultPolicy(max_retries=1, backoff_base_s=0.0,
                               keep_going=True),
            injector=injector,
        ))
    assert "dead" in str(excinfo.value)


def test_outcome_ok_property():
    ok = JobOutcome(label="", status="ok")
    degraded = JobOutcome(label="", status="degraded", degraded=True)
    dead = JobOutcome(label="", status="timed_out")
    assert ok.ok and degraded.ok and not dead.ok
