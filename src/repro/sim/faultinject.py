"""Deterministic, seeded fault injection for the batch plane.

The chaos harness needs faults that are *reproducible*: the same seed
against the same sweep must kill the same workers, delay the same
jobs, and corrupt the same cache entries on every run, so a failing
CI matrix cell can be replayed locally byte for byte.  Every decision
here is therefore a pure function of ``(seed, fault kind, job key,
attempt)`` - no RNG state, nothing time-dependent - which also
lets an injector travel to worker processes by pickling without
losing determinism.

Four fault classes cover the failure surface the supervision layer
(:mod:`repro.sim.resilience`) defends against:

``kill_worker``
    The worker dies without reporting - ``os._exit`` in a real worker
    process, :class:`InjectedWorkerCrash` when supervising in-process.

``delay_job``
    The job stalls for ``delay_s`` before executing, driving it past
    a :class:`~repro.sim.resilience.FaultPolicy` wall-clock timeout.

``raise_in_engine``
    The compiled engine raises an internal
    :class:`~repro.errors.SimulationError` mid-phase, exercising the
    retry-on-:class:`~repro.sim.engine.ReferenceEngine` degradation
    ladder.

``corrupt_cache``
    On-disk :class:`~repro.sim.batch.ResultCache` entries get a byte
    flipped (position chosen from the seed), exercising checksum
    verification and quarantine.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError

__all__ = [
    "FAULT_KINDS",
    "KILL_EXIT_CODE",
    "FaultInjector",
    "FaultSpec",
    "InjectedWorkerCrash",
    "corrupt_file_bytes",
]

#: The injectable fault classes, in ladder order.
FAULT_KINDS = (
    "kill_worker", "delay_job", "raise_in_engine", "corrupt_cache",
)

#: Exit code an injected worker kill dies with - distinctive enough
#: that a supervisor log line identifies the chaos harness at a
#: glance.
KILL_EXIT_CODE = 173


class InjectedWorkerCrash(ReproError):
    """In-process stand-in for a worker dying mid-job.

    Raised (instead of ``os._exit``) when the supervised batch runs
    serially, so the supervisor still sees a worker-crash outcome
    without the test suite losing its own process.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault class.

    ``rate``
        Probability a matching ``(key, attempt)`` fires, decided
        deterministically from the injector seed.  ``1.0`` hits every
        eligible attempt.
    ``attempts``
        Attempt numbers (1-based) the fault is eligible on.  The
        default ``(1,)`` faults only the first try, which is how the
        chaos suite guarantees a sweep converges: retries run clean.
    ``delay_s``
        Stall length for ``delay_job``.
    ``phase``
        Engine phase named in the injected ``raise_in_engine`` error.
    """

    kind: str
    rate: float = 1.0
    attempts: tuple = (1,)
    delay_s: float = 0.05
    phase: str = "run"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; valid: "
                f"{FAULT_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(
                f"fault rate {self.rate} outside [0, 1]"
            )
        if self.delay_s < 0:
            raise ValueError(f"negative delay_s {self.delay_s}")


def _fraction(seed: int, kind: str, key: str, attempt: int) -> float:
    """Uniform-in-[0,1) decision value for one (fault, job, attempt)."""
    digest = hashlib.sha256(
        f"{seed}:{kind}:{key}:{attempt}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


def corrupt_file_bytes(path: str | Path, seed: int) -> int:
    """Flip one byte of ``path`` at a seed-determined offset.

    Returns the flipped offset.  An empty file gains one garbage
    byte so the corruption is visible to checksums either way.
    """
    path = Path(path)
    blob = bytearray(path.read_bytes())
    if not blob:
        blob = bytearray(b"\xff")
        path.write_bytes(bytes(blob))
        return 0
    digest = hashlib.sha256(f"{seed}:{path.name}".encode()).digest()
    position = int.from_bytes(digest[:4], "big") % len(blob)
    blob[position] ^= 0xFF
    path.write_bytes(bytes(blob))
    return position


class FaultInjector:
    """Seeded fault oracle consulted by the supervision layer.

    Picklable (plain seed + spec tuple), so the same instance can be
    shipped to worker processes and keep making identical decisions
    there.
    """

    def __init__(self, seed: int, specs=()) -> None:
        self.seed = int(seed)
        self.specs = tuple(specs)
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(
                    f"expected FaultSpec, got {type(spec).__name__}"
                )

    def fires(
        self, kind: str, key: str, attempt: int
    ) -> FaultSpec | None:
        """The first armed spec of ``kind`` that hits, else None."""
        for spec in self.specs:
            if spec.kind != kind or attempt not in spec.attempts:
                continue
            if _fraction(self.seed, kind, key, attempt) < spec.rate:
                return spec
        return None

    def before_attempt(
        self, key: str, label: str, attempt: int, in_worker: bool
    ) -> None:
        """Pre-execution faults: worker kills and stalls.

        Called by the supervised attempt just before the engine runs.
        ``in_worker`` distinguishes a real worker process (which dies
        with :data:`KILL_EXIT_CODE`) from in-process supervision
        (which raises :class:`InjectedWorkerCrash` instead).
        """
        if self.fires("kill_worker", key, attempt) is not None:
            if in_worker:
                os._exit(KILL_EXIT_CODE)
            raise InjectedWorkerCrash(
                f"fault injector killed the worker running job "
                f"{label or key[:12]!r} (attempt {attempt})"
            )
        spec = self.fires("delay_job", key, attempt)
        if spec is not None:
            time.sleep(spec.delay_s)

    def engine_fault(self, key: str, attempt: int) -> FaultSpec | None:
        """The armed ``raise_in_engine`` spec for this attempt, if any."""
        return self.fires("raise_in_engine", key, attempt)

    def corrupt_cache(self, cache) -> list:
        """Corrupt armed on-disk entries of a ResultCache.

        Flips one byte in each ``.stats`` payload whose key the
        ``corrupt_cache`` spec selects (the checksum sidecar is left
        intact, so verification must catch the damage).  Returns the
        corrupted keys; a memory-only cache corrupts nothing.
        """
        if cache.directory is None:
            return []
        corrupted = []
        for path in sorted(cache.directory.glob("*.stats")):
            key = path.name[: -len(".stats")]
            if self.fires("corrupt_cache", key, 1) is not None:
                corrupt_file_bytes(path, self.seed)
                corrupted.append(key)
        return corrupted
