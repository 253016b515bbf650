"""Batched runs: correctness, caching, and the parallel fan-out."""

import os
import time

import pytest

from repro.arch.config import ChipConfig, ColumnConfig
from repro.errors import BatchError
from repro.isa.assembler import assemble
from repro.sim.batch import (
    ResultCache,
    RunRequest,
    execute,
    parallel_map,
    request_key,
    run_many,
)
from repro.sim.simulator import run_single_column


def _square(x):
    return x * x


def make_request(iterations=20, divider=1, engine="compiled", label=""):
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


def test_execute_matches_run_single_column():
    request = make_request(iterations=15, divider=3)
    program = assemble("""
        movi r0, 0
        loop 15
          addi r0, r0, 1
        endloop
        halt
    """)
    _, expected = run_single_column(program, divider=3)
    assert execute(request) == expected


def test_request_key_distinguishes_configs_not_labels():
    base = make_request(divider=2, label="a")
    relabeled = make_request(divider=2, label="b")
    different = make_request(divider=4, label="a")
    assert request_key(base) == request_key(relabeled)
    assert request_key(base) != request_key(different)


def test_run_many_preserves_order_and_labels():
    requests = [
        make_request(divider=d, label=f"d{d}") for d in (4, 1, 2)
    ]
    results = run_many(requests)
    assert [r.label for r in results] == ["d4", "d1", "d2"]
    ticks = [r.stats.reference_ticks for r in results]
    assert ticks[0] > ticks[2] > ticks[1]  # slower divider, more ticks


def test_run_many_serves_repeats_from_cache():
    cache = ResultCache()
    requests = [make_request(divider=d) for d in (1, 2)]
    first = run_many(requests, cache=cache)
    assert [r.cached for r in first] == [False, False]
    second = run_many(requests, cache=cache)
    assert [r.cached for r in second] == [True, True]
    assert [r.stats for r in second] == [r.stats for r in first]
    assert cache.hits == 2 and cache.misses == 2


def test_run_many_dedupes_identical_requests_within_a_batch():
    cache = ResultCache()
    results = run_many([make_request(divider=2),
                        make_request(divider=2)], cache=cache)
    assert [r.cached for r in results] == [False, True]
    assert results[0].stats == results[1].stats
    # duplicates share one lookup: counters agree with executed work
    assert cache.misses == 1 and cache.hits == 0


def test_disk_cache_survives_a_new_cache_instance(tmp_path):
    request = make_request(divider=2)
    run_many([request], cache=ResultCache(tmp_path))
    rehydrated = ResultCache(tmp_path)
    results = run_many([request], cache=rehydrated)
    assert results[0].cached
    assert rehydrated.hits == 1


def test_run_many_engines_agree():
    reference = run_many([make_request(divider=4, engine="reference")])
    compiled = run_many([make_request(divider=4, engine="compiled")])
    assert reference[0].stats == compiled[0].stats


def test_run_many_across_worker_processes():
    requests = [make_request(divider=d) for d in (1, 2, 4)]
    parallel = run_many(requests, processes=2)
    serial = run_many(requests, processes=1)
    assert [r.stats for r in parallel] == [r.stats for r in serial]


def test_parallel_map_serial_and_pooled_agree():
    items = list(range(6))
    assert parallel_map(_square, items) == [x * x for x in items]
    assert parallel_map(_square, items, processes=2) \
        == [x * x for x in items]


def _slow_first(x):
    if x == 0:
        time.sleep(0.3)
    return x * x


@pytest.mark.parametrize("processes", [1, 2])
def test_parallel_map_progress_lands_in_item_order(processes):
    landed = []
    assert parallel_map(_slow_first, [0, 1, 2], processes=processes,
                        progress=landed.append) == [0, 1, 4]
    assert landed == [0, 1, 2]


def test_parallel_map_in_process_needs_no_pickling():
    offset = 3  # a closure over a lambda item: neither pickles
    assert parallel_map(lambda item: item() + offset, [lambda: 1],
                        processes=1) == [4]


def test_parallel_map_empty():
    assert parallel_map(_square, []) == []


def _explode_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x * x


def test_parallel_map_attaches_job_label_serial():
    with pytest.raises(BatchError) as excinfo:
        parallel_map(
            _explode_on_three, [1, 3, 5], processes=1,
            labels=["a", "b", "c"],
        )
    assert excinfo.value.label == "b"
    assert "'b'" in str(excinfo.value) and "boom" in str(excinfo.value)


def test_parallel_map_attaches_job_label_pooled():
    with pytest.raises(BatchError) as excinfo:
        parallel_map(
            _explode_on_three, [1, 2, 3, 4], processes=2,
            labels=["w", "x", "y", "z"],
        )
    assert excinfo.value.label == "y"
    assert "'y'" in str(excinfo.value)


def test_parallel_map_default_labels_name_the_item_index():
    with pytest.raises(BatchError) as excinfo:
        parallel_map(_explode_on_three, [0, 3], processes=2)
    assert "item 1" in str(excinfo.value)


def test_parallel_map_rejects_mismatched_labels():
    with pytest.raises(ValueError):
        parallel_map(_square, [1, 2], labels=["only-one"])


def test_parallel_map_pool_is_usable_after_worker_error():
    # A failing batch must leave no worker behind (none wedging the
    # next call) and parallel_map fully functional.
    with pytest.raises(BatchError):
        parallel_map(_explode_on_three, [3, 1], processes=2)
    assert parallel_map(_square, [5, 6], processes=2) == [25, 36]


def _exit_on_three(x):
    if x == 3:
        os._exit(1)
    return x * x


def test_parallel_map_worker_death_is_a_batch_error():
    with pytest.raises(BatchError) as excinfo:
        parallel_map(_exit_on_three, [1, 3], processes=2)
    assert excinfo.value.label == "item 1"
    assert excinfo.value.outcome.status == "worker_crashed"


def test_disk_cache_quarantines_truncated_pickle(tmp_path):
    """Regression (issue #9): a corrupt .stats entry crashed get()."""
    request = make_request(divider=2)
    from repro.sim.batch import request_key as key_of

    run_many([request], cache=ResultCache(tmp_path))
    key = key_of(request)
    # garbage where the pickle should be
    (tmp_path / f"{key}.stats").write_bytes(b"\x80\x04 truncated")
    poisoned = ResultCache(tmp_path)
    from repro.obs.events import subscribed

    events = []
    with subscribed(events.append):
        results = run_many([request], cache=poisoned)
    # treated as a miss, re-executed, quarantined - never a raise
    assert not results[0].cached
    assert poisoned.quarantined == 1
    assert (tmp_path / "quarantine" / f"{key}.stats").exists()
    assert not (tmp_path / "quarantine" / f"{key}.stats.tmp").exists()
    assert "cache_corrupt" in [event.name for event in events]
    # the rewritten entry serves clean again
    assert run_many([request], cache=ResultCache(tmp_path))[0].cached


def test_disk_cache_detects_flipped_byte_via_checksum(tmp_path):
    request = make_request(divider=4)
    from repro.sim.batch import request_key as key_of

    run_many([request], cache=ResultCache(tmp_path))
    key = key_of(request)
    path = tmp_path / f"{key}.stats"
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    poisoned = ResultCache(tmp_path)
    assert poisoned.get(key) is None
    assert poisoned.quarantined == 1
    assert poisoned.misses == 1


def test_disk_cache_quarantines_entry_missing_its_sidecar(tmp_path):
    request = make_request(divider=2)
    from repro.sim.batch import request_key as key_of

    cache = ResultCache(tmp_path)
    run_many([request], cache=cache)
    key = key_of(request)
    (tmp_path / f"{key}.sha256").unlink()
    rehydrated = ResultCache(tmp_path)
    assert rehydrated.get(key) is None
    assert rehydrated.quarantined == 1


def test_disk_cache_writes_are_atomic_with_sidecars(tmp_path):
    request = make_request(divider=2)
    from repro.sim.batch import CACHE_MAGIC, request_key as key_of

    run_many([request], cache=ResultCache(tmp_path))
    key = key_of(request)
    blob = (tmp_path / f"{key}.stats").read_bytes()
    assert blob.startswith(CACHE_MAGIC)
    import hashlib

    recorded = (tmp_path / f"{key}.sha256").read_text().strip()
    assert recorded == hashlib.sha256(blob).hexdigest()
    # no leftover temp files from the atomic rename
    assert not list(tmp_path.glob("*.tmp.*"))
