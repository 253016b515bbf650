"""Supervised execution: the one executor every batch runs on.

Every sweep in this package goes through :func:`supervise`: the fuzz
sweep, the table renders and the bus-width explorer through
:func:`repro.sim.batch.parallel_map`, and RunRequest kernel batches
through :func:`repro.sim.batch.run_many`.  A :class:`Job` is
``fn(item)`` with a label and a key hashed from it, and supervision
settles each one into a typed :class:`JobOutcome` instead of a raised
exception:

* **Retry** - a :class:`FaultPolicy` caps retries; a retried attempt
  is requeued at once (every job is a deterministic local
  computation, so spacing attempts out buys nothing).
* **Per-job wall-clock timeouts** - in process mode an over-budget
  worker is terminated and the job rescheduled; in serial mode the
  timeout is enforced post-hoc (the result is discarded and the job
  retried) since an in-process attempt cannot be preempted.
* **Worker-crash containment** - in process mode each job attempt
  runs in its own worker process, so a crash (segfault, ``os._exit``,
  OOM kill) loses exactly one attempt; surviving pending jobs are
  unaffected and the crashed job is rescheduled on a fresh worker.
* **Fallback input** - a job may carry a second input that ``fn``
  runs on, within the same attempt, when the first call raises.
  :func:`~repro.sim.batch.run_many` gives every compiled-engine
  request its reference-engine twin, so a
  :class:`~repro.sim.engine.CompiledEngine` internal error settles
  ``degraded``, mirroring the engine's own lockstep
  abort-and-fall-back ladder.  Bit-identity between the two engines
  is a standing contract, so a degraded sweep still returns correct
  statistics - just slower.

Every retry, timeout, crash, and degradation is emitted on the
:data:`repro.obs.events.BUS` (category ``batch``, track ``jobs``) and
tallied process-wide; :func:`outcomes_snapshot` is the block the
evaluation runner stamps into every ``BENCH_*`` artifact, and
:func:`check_outcomes` is the rule it is held to.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import wait as _wait_ready
from typing import Callable

from repro.errors import BatchError, SimulationError
from repro.obs.events import BUS
from repro.sim.faultinject import InjectedWorkerCrash

__all__ = [
    "FaultPolicy",
    "Job",
    "JobOutcome",
    "check_outcomes",
    "default_policy",
    "outcomes_snapshot",
    "require_ok",
    "reset_outcome_counters",
    "set_default_policy",
    "supervise",
]

#: Outcome statuses a supervised job can settle into.  ``degraded``
#: is a success (result computed from the fallback input); the last
#: three are terminal failures.
STATUSES = ("ok", "degraded", "failed", "timed_out", "worker_crashed")


@dataclass(frozen=True)
class FaultPolicy:
    """The supervision knobs for one batched run.

    ``max_retries``
        Additional attempts after the first for a job whose worker
        crashed or timed out (so it runs at most ``1 + max_retries``
        times).  A job that raised settles ``failed`` after one
        attempt: the same input fails the same way again.
    ``timeout_s``
        Per-job wall-clock budget; ``None`` disables timeouts.
    ``keep_going``
        ``False`` (fail-fast) aborts the batch on the first terminal
        failure; ``True`` (collect-partial) supervises every job to
        an outcome and returns them all.
    """

    max_retries: int = 2
    timeout_s: float | None = None
    keep_going: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )


@dataclass(frozen=True)
class JobOutcome:
    """One supervised job's terminal state.

    ``stats`` holds the job's result (the
    :class:`~repro.sim.stats.SimulationStats` of a RunRequest) and is
    present exactly when :attr:`ok` (statuses ``ok`` and
    ``degraded``).  ``attempts`` counts executions; ``retries`` is
    ``attempts - 1``.  ``error`` summarizes the *last* failure for
    non-ok outcomes.
    """

    label: str
    status: str
    stats: object = None
    attempts: int = 0
    retries: int = 0
    degraded: bool = False
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the job produced a usable result."""
        return self.status in ("ok", "degraded")


class Job:
    """One unit of supervised work: ``fn(item)``.

    ``label`` names the job in events and errors.  ``key`` is the
    SHA-256 of the label (fault injection is a pure function of it);
    it never hashes the item, so an in-process job need not pickle.
    ``fallback``, when not ``None``, is the input
    ``fn`` runs on within the same attempt if ``fn(item)`` raises; a
    result computed from it settles ``degraded``.
    """

    __slots__ = ("fn", "item", "label", "key", "fallback", "attempts")

    def __init__(self, fn: Callable, item, label: str,
                 fallback=None) -> None:
        self.fn = fn
        self.item = item
        self.label = label
        self.key = hashlib.sha256(label.encode()).hexdigest()
        self.fallback = fallback
        self.attempts = 0


# ----------------------------------------------------------------------
# Outcome counters: the process-wide tally every BENCH_* artifact
# stamps (runner's emit_artifact) and CI validates.
# ----------------------------------------------------------------------

_COUNTER_FIELDS = (
    "ok", "degraded", "failed", "timed_out", "worker_crashed",
    "retries",
)
#: The tallies that count a fault; a clean run keeps them all zero.
_FAULT_FIELDS = tuple(field for field in _COUNTER_FIELDS if field != "ok")
_COUNTERS = dict.fromkeys(_COUNTER_FIELDS, 0)


def outcomes_snapshot() -> dict:
    """JSON-ready outcome tallies since the last reset.

    Keys are stable (:func:`check_outcomes` validates them): ``ok``,
    ``degraded``, ``failed``, ``timed_out``, ``worker_crashed``,
    ``retries``.  The success classes (``ok``, ``degraded``) count
    settled *jobs*; the failure classes count failed *attempts* (so a
    fault that was retried away is still visible, classified);
    ``retries`` counts rescheduled attempts.  A fault-free run has
    every key but ``ok`` at zero.
    """
    return dict(_COUNTERS)


def reset_outcome_counters() -> None:
    """Zero every outcome counter (test isolation)."""
    _COUNTERS.update(dict.fromkeys(_COUNTER_FIELDS, 0))


def check_outcomes(payload: dict) -> list:
    """Failures in a BENCH artifact's ``outcomes`` block (empty = clean).

    The block must be a mapping in which every tally of
    :func:`outcomes_snapshot` is a non-negative integer (unknown
    extra keys are ignored) and every fault tally is zero: wall clocks
    and statistics from a run that retried, timed out, lost a worker,
    or degraded an engine are not comparable to a clean run's.
    """
    outcomes = payload.get("outcomes")
    if not isinstance(outcomes, dict):
        return [f"artifact has no 'outcomes' mapping "
                f"(got {type(outcomes).__name__})"]
    failures = []
    for field in _COUNTER_FIELDS:
        value = outcomes.get(field)
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 0:
            failures.append(f"outcomes[{field!r}] must be a "
                            f"non-negative integer, got {value!r}")
    if failures:
        return failures
    dirty = [f"{field}={outcomes[field]}" for field in _FAULT_FIELDS
             if outcomes[field]]
    if dirty:
        return ["run recorded supervised-job faults: "
                + ", ".join(dirty)
                + " (wall clocks from a faulting run are not comparable)"]
    return []


# ----------------------------------------------------------------------
# Global default policy: set by runner flags, used by every batch
# that names none.
# ----------------------------------------------------------------------

_DEFAULT_POLICY: FaultPolicy | None = None


def set_default_policy(policy: FaultPolicy | None) -> None:
    """Install (or clear, with ``None``) the process default policy.

    Every batch without an explicit policy runs under it (or under
    ``FaultPolicy()`` when none is installed) - how the runner's
    ``--job-timeout`` / ``--retries`` / ``--keep-going`` flags reach
    the fuzz sweep, the renders, and the batches deep inside the
    measured-power pipeline.
    """
    global _DEFAULT_POLICY
    _DEFAULT_POLICY = policy


def default_policy() -> FaultPolicy | None:
    """The installed process default policy, if any."""
    return _DEFAULT_POLICY


# ----------------------------------------------------------------------
# One attempt: shared by worker processes and serial supervision.
# ----------------------------------------------------------------------

def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _attempt(job: Job, injector, attempt: int, in_worker: bool) -> tuple:
    """Execute one attempt; never raises except for injected kills.

    Returns ``("ok", result, degraded)`` or ``("error", summary,
    fell_back)``.  The fallback input runs *within* the same attempt
    (and the same timeout budget).
    """
    if injector is not None:
        injector.before_attempt(job.key, job.label, attempt, in_worker)
    fault = (
        injector.engine_fault(job.key, attempt)
        if injector is not None and job.fallback is not None else None
    )
    try:
        if fault is not None:
            raise SimulationError(
                f"injected compiled-engine fault in phase "
                f"{fault.phase!r}"
            )
        return ("ok", job.fn(job.item), False)
    except Exception as exc:
        if job.fallback is None:
            return ("error", _describe(exc), False)
        try:
            return ("ok", job.fn(job.fallback), True)
        except Exception as fallback_exc:
            return (
                "error",
                f"{_describe(exc)}; fallback also failed: "
                f"{_describe(fallback_exc)}",
                True,
            )


def _worker_entry(conn, job, injector, attempt):
    """Worker-process main: run one attempt, report through the pipe.

    A worker that dies without sending (kill, segfault) is detected
    parent-side as EOF on the pipe - the worker-crash path.
    """
    try:
        message = _attempt(job, injector, attempt, in_worker=True)
    except BaseException as exc:  # report, never crash silently
        message = ("error", _describe(exc), False)
    try:
        conn.send(message)
    except Exception as exc:  # an unpicklable result, say
        conn.send(("error", f"result not sent: {_describe(exc)}", False))
    finally:
        conn.close()


# ----------------------------------------------------------------------
# The supervisor.
# ----------------------------------------------------------------------

class _Supervisor:
    """Drives a list of jobs to outcomes under one policy."""

    def __init__(self, jobs, outcomes, policy, injector, progress):
        self.jobs = jobs
        self.outcomes = outcomes
        self.policy = policy
        self.injector = injector
        self.progress = progress
        self.landed = 0
        self.queue: list = list(range(len(jobs)))  # job indices

    # -- telemetry ------------------------------------------------------
    def _event(self, name: str, job: Job, **extra) -> None:
        if BUS.active:
            BUS.instant(
                name, category="batch", track="jobs",
                args={
                    "label": job.label,
                    "key": job.key[:12],
                    "attempt": job.attempts,
                    **extra,
                },
            )

    # -- settling -------------------------------------------------------
    def _land(self, index: int, outcome: JobOutcome) -> None:
        """Record a terminal outcome; report progress in job order."""
        self.outcomes[index] = outcome
        while (self.landed < len(self.outcomes)
               and self.outcomes[self.landed] is not None):
            if self.progress is not None:
                self.progress(self.landed)
            self.landed += 1

    def _settle(self, index: int, message: tuple) -> None:
        """Fold one attempt's result into retry-or-outcome."""
        job = self.jobs[index]
        kind, payload, degraded = message
        job.attempts += 1
        if kind == "ok":
            status = "degraded" if degraded else "ok"
            _COUNTERS[status] += 1
            self._event(
                "job_degraded" if degraded else "job_done", job
            )
            self._land(index, JobOutcome(
                label=job.label, status=status,
                stats=payload, attempts=job.attempts,
                retries=job.attempts - 1, degraded=degraded,
            ))
            return
        status = {
            "error": "failed",
            "crashed": "worker_crashed",
            "timeout": "timed_out",
        }[kind]
        # Failure-class counters tally *attempts*, not jobs, so a
        # recovered fault still shows up classified (a clean run
        # keeps them all zero either way).
        _COUNTERS[status] += 1
        self._event(
            {
                "failed": "job_failed",
                "worker_crashed": "job_worker_crashed",
                "timed_out": "job_timeout",
            }[status],
            job, reason=payload,
        )
        if status != "failed" and job.attempts <= self.policy.max_retries:
            _COUNTERS["retries"] += 1
            self._event("job_retry", job)
            self.queue.append(index)
            return
        outcome = JobOutcome(
            label=job.label, status=status,
            attempts=job.attempts, retries=job.attempts - 1,
            degraded=degraded, error=payload,
        )
        self._land(index, outcome)
        if not self.policy.keep_going:
            raise BatchError(
                f"job {job.label!r} {status} after {job.attempts} "
                f"attempt(s): {payload}",
                label=job.label, outcome=outcome,
            )

    # -- serial mode ----------------------------------------------------
    def run_serial(self) -> None:
        """In-process supervision: crashes and timeouts still settle.

        Injected kills arrive as :class:`InjectedWorkerCrash`;
        timeouts are post-hoc (an in-process attempt cannot be
        preempted, so an over-budget result is discarded and the job
        retried) - documented serial-mode semantics.
        """
        while self.queue:
            index = self.queue.pop(0)
            job = self.jobs[index]
            start = time.monotonic()
            try:
                message = _attempt(
                    job, self.injector, job.attempts + 1,
                    in_worker=False,
                )
            except InjectedWorkerCrash as exc:
                message = ("crashed", str(exc), False)
            elapsed = time.monotonic() - start
            timeout = self.policy.timeout_s
            if (
                timeout is not None and elapsed > timeout
                and message[0] == "ok"
            ):
                message = (
                    "timeout",
                    f"job took {elapsed:.3f}s, budget {timeout}s",
                    message[2],
                )
            self._settle(index, message)

    # -- process mode ---------------------------------------------------
    def run_pool(self, processes: int) -> None:
        """Supervise jobs across per-job worker processes.

        Each attempt gets a fresh worker (crash containment is the
        point: a dying worker loses one attempt, never the batch).
        The loop keeps ``processes`` workers busy, waits on their
        pipes, kills over-deadline workers, and requeues retries.
        """
        ctx = get_context()
        slots: dict = {}  # recv conn -> (process, index, deadline)
        try:
            while self.queue or slots:
                now = time.monotonic()
                self._launch_ready(ctx, slots, processes, now)
                timeout = self._poll_timeout(slots, now)
                for conn in _wait_ready(list(slots), timeout=timeout):
                    process, index, _ = slots.pop(conn)
                    try:
                        message = conn.recv()
                    except EOFError:
                        message = None
                    conn.close()
                    process.join()
                    self._settle(index, message or (
                        "crashed",
                        f"worker exited with code {process.exitcode} "
                        f"before reporting",
                        False,
                    ))
                now = time.monotonic()
                for conn in [
                    conn for conn, (_, _, deadline) in slots.items()
                    if deadline is not None and now >= deadline
                ]:
                    process, index, _ = slots.pop(conn)
                    process.terminate()
                    process.join()
                    conn.close()
                    self._settle(index, (
                        "timeout",
                        f"exceeded {self.policy.timeout_s}s budget; "
                        f"worker terminated",
                        False,
                    ))
        finally:
            # Fail-fast abort (or any error): no leaked workers.
            for process, _, _ in slots.values():
                process.terminate()
            for conn, (process, _, _) in slots.items():
                process.join()
                conn.close()

    def _launch_ready(self, ctx, slots, processes, now) -> None:
        while self.queue and len(slots) < processes:
            index = self.queue.pop(0)
            job = self.jobs[index]
            recv, send = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_worker_entry,
                args=(send, job, self.injector, job.attempts + 1),
            )
            process.start()
            send.close()
            deadline = (
                now + self.policy.timeout_s
                if self.policy.timeout_s is not None else None
            )
            slots[recv] = (process, index, deadline)

    def _poll_timeout(self, slots, now) -> float:
        """How long the next wait may block without missing an edge."""
        horizon = 0.5
        for _, _, deadline in slots.values():
            if deadline is not None:
                horizon = min(horizon, max(deadline - now, 0.0))
        return horizon


def supervise(
    jobs: list,
    outcomes: list,
    processes: int | None = None,
    policy: FaultPolicy | None = None,
    injector=None,
    progress: Callable[[int], None] | None = None,
) -> None:
    """Drive ``jobs`` to outcomes: ``outcomes[i]`` settles ``jobs[i]``.

    ``outcomes`` is filled in place as jobs settle, so a caller still
    holds every settled job when fail-fast mode raises
    :class:`~repro.errors.BatchError` on the first terminal failure.
    ``policy`` defaults to the process default
    (:func:`set_default_policy`), else ``FaultPolicy()``.
    ``processes=None`` sizes the worker count to the host;
    ``processes<=1`` or a batch of one runs in-process.  ``progress``
    is called with each job's index as it settles, in job order, in
    the calling process.
    """
    policy = policy or default_policy() or FaultPolicy()
    if processes is None:
        processes = min(len(jobs), os.cpu_count() or 1)
    processes = max(1, min(processes, len(jobs)))
    if BUS.active:
        # Lifecycle events are parent-side only: a forked worker
        # inherits a copy of the bus whose events die with it.
        BUS.instant(
            "batch_submitted", category="batch", track="jobs",
            args={"jobs": len(jobs), "processes": processes},
        )
    supervisor = _Supervisor(jobs, outcomes, policy, injector, progress)
    if processes == 1:
        supervisor.run_serial()
    else:
        supervisor.run_pool(processes)


def require_ok(outcomes: list) -> list:
    """``outcomes`` unchanged if every job succeeded, else BatchError.

    The error names the first failed job (a ``keep_going`` batch
    settles every job before its caller gets here).
    """
    failures = [outcome for outcome in outcomes if not outcome.ok]
    if failures:
        first = failures[0]
        raise BatchError(
            f"{len(failures)} of {len(outcomes)} jobs failed; "
            f"first: {first.label!r} ({first.status}: {first.error})",
            label=first.label, outcome=first,
        )
    return outcomes
