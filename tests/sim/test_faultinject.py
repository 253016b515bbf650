"""Deterministic fault injector: decisions and specs."""

import pytest

from repro.sim.faultinject import (
    FaultInjector,
    FaultSpec,
    InjectedWorkerCrash,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(kind="meteor_strike")
    with pytest.raises(ValueError):
        FaultSpec(kind="kill_worker", rate=1.5)
    with pytest.raises(ValueError):
        FaultSpec(kind="delay_job", delay_s=-1.0)
    with pytest.raises(TypeError):
        FaultInjector(1, ["kill_worker"])


def test_decisions_are_deterministic_per_seed():
    specs = [FaultSpec("kill_worker", rate=0.5, attempts=(1, 2))]
    one = FaultInjector(42, specs)
    twin = FaultInjector(42, specs)
    other = FaultInjector(43, specs)
    keys = [f"{i:064x}" for i in range(64)]
    pattern = [
        one.fires("kill_worker", key, 1) is not None for key in keys
    ]
    assert pattern == [
        twin.fires("kill_worker", key, 1) is not None for key in keys
    ]
    assert True in pattern and False in pattern  # rate 0.5 splits
    assert pattern != [
        other.fires("kill_worker", key, 1) is not None
        for key in keys
    ]


def test_rate_extremes_and_attempt_gating():
    always = FaultInjector(
        7, [FaultSpec("delay_job", rate=1.0, attempts=(1,))]
    )
    never = FaultInjector(
        7, [FaultSpec("delay_job", rate=0.0, attempts=(1,))]
    )
    assert always.fires("delay_job", "k", 1) is not None
    assert always.fires("delay_job", "k", 2) is None  # gated attempt
    assert always.fires("kill_worker", "k", 1) is None  # other kind
    assert never.fires("delay_job", "k", 1) is None


def test_kill_worker_raises_in_process():
    injector = FaultInjector(
        1, [FaultSpec("kill_worker", rate=1.0, attempts=(1,))]
    )
    with pytest.raises(InjectedWorkerCrash):
        injector.before_attempt("k", "job", 1, in_worker=False)
    # attempt 2 is clean
    injector.before_attempt("k", "job", 2, in_worker=False)


def test_injector_survives_pickling():
    import pickle

    injector = FaultInjector(
        11, [FaultSpec("kill_worker", rate=0.5, attempts=(1,))]
    )
    clone = pickle.loads(pickle.dumps(injector))
    for key in ("a" * 64, "b" * 64, "c" * 64):
        assert (
            (clone.fires("kill_worker", key, 1) is None)
            == (injector.fires("kill_worker", key, 1) is None)
        )
