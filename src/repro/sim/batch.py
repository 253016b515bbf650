"""Batched simulation runs on the supervised executor.

Design-space exploration wants many chip configurations simulated.
``run_many`` runs a list of :class:`RunRequest` descriptions as
supervised jobs (:mod:`repro.sim.resilience`, in-process or across
worker processes) and returns one
:class:`~repro.sim.resilience.JobOutcome` per request.

``parallel_map`` runs any ``fn`` over a list of items on the same
supervisor: the fuzz sweep, the evaluation runner's renders, and the
bus-width explorer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from repro.arch.chip import Chip
from repro.arch.config import ChipConfig
from repro.arch.dou import DouProgram
from repro.sim.engine import DEFAULT_MAX_TICKS, create_engine
from repro.sim.resilience import Job, JobOutcome, require_ok, supervise
from repro.sim.stats import SimulationStats

__all__ = [
    "RunRequest",
    "build_chip",
    "execute",
    "parallel_map",
    "run_many",
]


@dataclass(frozen=True)
class RunRequest:
    """One self-contained, picklable simulation job.

    Only data crosses the process boundary - no callables - so a
    request can be shipped to a worker and replayed later:

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
    items = list(items)
    if labels is None:
        labels = [f"item {index}" for index in range(len(items))]
    labels = list(labels)
    if len(labels) != len(items):
        raise ValueError(f"{len(labels)} labels for {len(items)} items")
    jobs = [Job(fn, item, label) for item, label in zip(items, labels)]
    outcomes: list = [None] * len(jobs)
    supervise(jobs, outcomes, processes, progress=progress)
    return [outcome.stats for outcome in require_ok(outcomes)]


def run_many(
    requests: Iterable[RunRequest],
    processes: int | None = None,
    policy=None,
    injector=None,
) -> list[JobOutcome]:
    """Supervise a batch of requests: one outcome per request, in order.

    Each request is one job of :func:`~repro.sim.resilience.supervise`
    labeled ``request.label`` (``request i`` when empty).  A
    compiled-engine request carries its reference-engine twin as the
    job's fallback input, so a compiled-engine internal error settles
    ``degraded`` with the same statistics.  ``policy`` (a
    :class:`~repro.sim.resilience.FaultPolicy`) defaults to the one
    :func:`~repro.sim.resilience.set_default_policy` installed, else
    ``FaultPolicy()``; ``injector`` is an optional fault injector.

    Under ``policy.keep_going`` the list covers every request;
    fail-fast mode raises :class:`~repro.errors.BatchError` on the
    first terminal failure instead.  Callers that need every job to
    succeed wrap the result in :func:`~repro.sim.resilience.require_ok`.
    """
    jobs = [
        Job(
            execute, request, request.label or f"request {index}",
            fallback=(
                replace(request, engine="reference")
                if request.engine == "compiled" else None
            ),
        )
        for index, request in enumerate(requests)
    ]
    outcomes: list = [None] * len(jobs)
    supervise(jobs, outcomes, processes, policy, injector)
    return outcomes
