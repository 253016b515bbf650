"""Batched simulation runs with content-hash caching.

Design-space exploration wants hundreds of chip configurations
simulated, and almost all of them are pure functions of their inputs:
the same programs on the same dividers always yield the same
statistics.  ``run_many`` exploits both facts - it runs a list of
:class:`RunRequest` descriptions as supervised jobs
(:mod:`repro.sim.resilience`, in-process or across worker processes)
and memoizes every result in a content-addressed
:class:`ResultCache`, optionally persisted to disk so repeated sweeps
pay only for the points that changed.

``parallel_map`` runs any ``fn`` over a list of items on the same
supervisor: the fuzz sweep, the evaluation runner's renders, and the
bus-width explorer.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.arch.chip import Chip
from repro.arch.config import ChipConfig
from repro.arch.dou import DouProgram
from repro.obs.events import BUS
from repro.sim.engine import DEFAULT_MAX_TICKS, create_engine
from repro.sim.stats import SimulationStats

__all__ = [
    "BatchResult",
    "ResultCache",
    "RunRequest",
    "build_chip",
    "execute",
    "parallel_map",
    "request_key",
    "run_many",
]


@dataclass(frozen=True)
class RunRequest:
    """One self-contained, picklable simulation job.

    Only data crosses the process boundary - no callables - so a
    request can be hashed, shipped to a worker, and replayed later:

    ``memory_images``
        ``(column, tile, base, (words...))`` preload tuples.
    ``input_words``
        ``(column, (words...))`` horizontal-in port feeds.
    ``read_primes``
        ``(column, tile, (words...))`` read-buffer seeds (the
        architectural form of SDF initial tokens).
    """

    config: ChipConfig
    programs: tuple
    dou_programs: tuple | None = None
    horizontal_dou: DouProgram | None = None
    memory_images: tuple = ()
    input_words: tuple = ()
    read_primes: tuple = ()
    max_ticks: int = DEFAULT_MAX_TICKS
    drain_hyperperiods: int = 2
    engine: str = "compiled"
    label: str = ""


@dataclass(frozen=True)
class BatchResult:
    """One finished (or cache-served) batch entry."""

    label: str
    key: str
    stats: SimulationStats
    cached: bool


def request_key(request: RunRequest) -> str:
    """Content hash of a request (stable within an interpreter run).

    The key is a SHA-256 over the pickled request, so any change to
    the configuration, programs, schedules, or data yields a new cache
    entry; the ``label`` is presentation-only and excluded.
    """
    blob = pickle.dumps(replace(request, label=""), protocol=4)
    return hashlib.sha256(blob).hexdigest()


def build_chip(request: RunRequest) -> Chip:
    """Materialize a request's chip with all data loaded."""
    chip = Chip(
        request.config,
        programs=list(request.programs),
        dou_programs=(
            list(request.dou_programs)
            if request.dou_programs is not None else None
        ),
        horizontal_dou=request.horizontal_dou,
    )
    for column, tile, base, words in request.memory_images:
        chip.columns[column].tiles[tile].load_memory(base, list(words))
    for column, words in request.input_words:
        chip.feed_column(column, list(words))
    for column, tile, words in request.read_primes:
        for word in words:
            chip.columns[column].tiles[tile].read_buffer.push(word)
    return chip


def execute(request: RunRequest) -> SimulationStats:
    """Run one request to completion (worker entry point)."""
    chip = build_chip(request)
    engine = create_engine(request.engine, chip)
    return engine.run(
        max_ticks=request.max_ticks,
        drain_hyperperiods=request.drain_hyperperiods,
    )


#: On-disk cache format stamp: every payload starts with this magic
#: so a format bump (or a file from another tool entirely) reads as
#: corrupt-and-quarantined instead of unpickling garbage.
CACHE_MAGIC = b"RSTATS2\n"


class ResultCache:
    """Content-addressed stats cache: memory first, disk optional.

    With a ``directory`` every stored result is also pickled to
    ``<directory>/<key>.stats`` and survives the process; without one
    the cache is a plain in-memory memo.

    The disk tier is crash-safe: payloads are written to a temporary
    file and atomically renamed (a process dying mid-write never
    leaves a torn entry under the final name), every payload carries
    the :data:`CACHE_MAGIC` format stamp plus a SHA-256 checksum
    sidecar (``<key>.sha256``) verified on load, and anything that
    fails verification - truncated pickle, flipped bytes, missing
    sidecar, unknown format - is moved to ``<directory>/quarantine/``
    and treated as a miss (a ``cache_corrupt`` event on the bus, the
    ``cache_quarantined`` outcome counter, and :attr:`quarantined`
    record the eviction).
    """

    #: Bumped whenever the on-disk layout changes; encoded in
    #: :data:`CACHE_MAGIC` so older entries quarantine cleanly.
    FORMAT = 2

    def __init__(self, directory: str | Path | None = None) -> None:
        self._memory: dict = {}
        self.directory = Path(directory) if directory else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.stats"

    def _sidecar(self, key: str) -> Path:
        return self.directory / f"{key}.sha256"

    def _quarantine(self, key: str, reason: str) -> None:
        """Evict a corrupt entry (payload + sidecar) out of the way."""
        quarantine = self.directory / "quarantine"
        quarantine.mkdir(exist_ok=True)
        for target in (self._path(key), self._sidecar(key)):
            if target.exists():
                os.replace(target, quarantine / target.name)
        self.quarantined += 1
        # Lazy import: resilience imports this module at top level.
        from repro.sim.resilience import note_cache_quarantine

        note_cache_quarantine()
        if BUS.active:
            BUS.instant(
                "cache_corrupt", category="batch", track="jobs",
                args={
                    "key": key[:12], "reason": reason,
                    "quarantine": str(quarantine),
                },
            )

    def _load(self, key: str) -> SimulationStats | None:
        """Verified disk read; corrupt entries quarantine to a miss."""
        try:
            blob = self._path(key).read_bytes()
            sidecar = self._sidecar(key)
            if not sidecar.exists():
                raise ValueError("checksum sidecar missing")
            recorded = sidecar.read_text().strip()
            if recorded != hashlib.sha256(blob).hexdigest():
                raise ValueError("checksum mismatch")
            if not blob.startswith(CACHE_MAGIC):
                raise ValueError(
                    f"unknown cache format (expected "
                    f"{CACHE_MAGIC!r} stamp)"
                )
            return pickle.loads(blob[len(CACHE_MAGIC):])
        except Exception as exc:
            self._quarantine(key, f"{type(exc).__name__}: {exc}")
            return None

    def get(self, key: str) -> SimulationStats | None:
        """Look a key up; counts a hit or miss."""
        stats = self._memory.get(key)
        if stats is None and self.directory is not None:
            if self._path(key).exists():
                stats = self._load(key)
                if stats is not None:
                    self._memory[key] = stats
        if stats is None:
            self.misses += 1
            return None
        self.hits += 1
        return stats

    def _atomic_write(self, path: Path, data: bytes) -> None:
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    def put(self, key: str, stats: SimulationStats) -> None:
        """Store a result in memory (and on disk when configured).

        Payload first, sidecar second: a crash in between leaves an
        entry whose sidecar is missing, which the next :meth:`get`
        quarantines and re-executes - never a silently torn read.
        """
        self._memory[key] = stats
        if self.directory is None:
            return
        blob = CACHE_MAGIC + pickle.dumps(stats, protocol=4)
        self._atomic_write(self._path(key), blob)
        self._atomic_write(
            self._sidecar(key),
            hashlib.sha256(blob).hexdigest().encode() + b"\n",
        )

    def __len__(self) -> int:
        return len(self._memory)


def parallel_map(
    fn: Callable,
    items: Sequence,
    processes: int | None = None,
    progress: Callable[[int], None] | None = None,
    labels: Sequence[str] | None = None,
) -> list:
    """Order-preserving ``[fn(item) for item in items]``, supervised.

    Each item is one job of :func:`repro.sim.resilience.supervise`
    under the process default policy (retries, timeouts, crash
    containment).  ``processes=None`` sizes the worker count to the
    host; ``processes<=1`` or a batch of one runs in-process, where
    neither ``fn`` nor the items need to pickle.  ``progress`` is
    invoked with each item's index as its job settles, in item order
    - always in the *calling* process, so it may emit telemetry
    (forked workers only see a dead copy of the bus).

    A job that still fails after its retries raises
    :class:`~repro.errors.BatchError` naming its label (``labels[i]``
    when given, ``item i`` otherwise); no worker outlives the call.
    """
    from repro.sim import resilience

    items = list(items)
    if labels is None:
        labels = [f"item {index}" for index in range(len(items))]
    labels = list(labels)
    if len(labels) != len(items):
        raise ValueError(f"{len(labels)} labels for {len(items)} items")
    jobs = [resilience.Job(fn, item, label)
            for item, label in zip(items, labels)]
    outcomes: list = [None] * len(jobs)
    resilience.supervise(jobs, outcomes, processes, progress=progress)
    return [outcome.stats for outcome in resilience.require_ok(outcomes)]


def run_many(
    requests: Iterable[RunRequest],
    processes: int | None = None,
    cache: ResultCache | None = None,
    policy=None,
    injector=None,
) -> list[BatchResult]:
    """Execute a batch of requests, supervised, through the cache.

    :func:`~repro.sim.resilience.run_many_outcomes` does the work:
    cache hits never reach a worker, identical requests within one
    batch share a single execution (every copy past the first comes
    back ``cached=True``), fresh results are written back, and every
    execution runs under ``policy`` (a
    :class:`~repro.sim.resilience.FaultPolicy`; default the one
    :func:`~repro.sim.resilience.set_default_policy` installed, else
    ``FaultPolicy()``) with an optional fault ``injector``.  Results
    come back in request order; a job that still fails raises
    :class:`~repro.errors.BatchError`.  Callers that want per-job
    outcomes rather than a raise use ``run_many_outcomes``.
    """
    from repro.sim import resilience

    outcomes = resilience.run_many_outcomes(
        requests, processes, cache, policy, injector
    )
    return [
        BatchResult(outcome.label, outcome.key, outcome.stats,
                    outcome.cached)
        for outcome in resilience.require_ok(outcomes)
    ]
