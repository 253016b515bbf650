"""Sinks and exporters for the telemetry bus.

:class:`ChromeTraceBuilder`
    Subscribes to the bus and renders the run as Chrome-trace /
    Perfetto JSON: one *process* per workload, one *thread* (track)
    per clock domain or layer row, spans as ``"X"`` complete events,
    instants as ``"i"``, sampled counters as ``"C"``.  Load the file
    in ``chrome://tracing`` or https://ui.perfetto.dev.

:class:`JsonlSink`
    One JSON object per event, for streaming/service consumers.
    Buffers in memory and writes on :meth:`~JsonlSink.flush` /
    :meth:`~JsonlSink.close` - forked batch workers inherit a copy of
    the bus, and a buffered sink guarantees they cannot interleave
    partial lines into the parent's file.

:class:`CountingSink`
    Cheap run summary: event totals by kind and category.  This is
    what the eval runner stamps into every ``BENCH_*`` artifact.

Determinism contract: every field the builders derive comes from the
events themselves (tick-based timestamps, stable track/pid ordering),
so two identical runs export byte-identical JSON.  Wall-clock only
enters through :func:`write_chrome_trace`'s top-level metadata stamp,
which comparisons strip.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import IO

from repro.obs.events import CounterEvent, Event, SpanEvent

__all__ = [
    "ChromeTraceBuilder",
    "CountingSink",
    "JsonlSink",
    "validate_chrome_trace",
    "write_chrome_trace",
]

#: Wall-clock metadata keys that determinism comparisons must ignore.
WALL_CLOCK_METADATA_KEYS = ("written_unix_s",)


def _event_to_record(event: Event) -> dict:
    """Flatten one bus event to a JSON-ready dict (JSONL line shape)."""
    record = {
        "kind": event.kind,
        "name": event.name,
        "category": event.category,
        "track": event.track,
        "tick": event.tick,
    }
    if isinstance(event, SpanEvent):
        record["duration"] = event.duration
    elif isinstance(event, CounterEvent):
        record["value"] = event.value
    if event.args:
        record["args"] = dict(event.args)
    return record


class CountingSink:
    """Totals by event kind and category - the cheapest useful sink."""

    def __init__(self) -> None:
        self.total = 0
        self.by_kind: dict = {}
        self.by_category: dict = {}

    def handle(self, event: Event) -> None:
        self.total += 1
        self.by_kind[event.kind] = self.by_kind.get(event.kind, 0) + 1
        self.by_category[event.category] = (
            self.by_category.get(event.category, 0) + 1
        )

    def summary(self) -> dict:
        """JSON-ready rollup (sorted keys for stable artifacts)."""
        return {
            "events": self.total,
            "by_kind": dict(sorted(self.by_kind.items())),
            "by_category": dict(sorted(self.by_category.items())),
        }


class JsonlSink:
    """Buffer events as JSON lines; write on flush/close.

    ``stream`` may be a path (opened lazily on first flush) or an
    already-open text file object.  Lines are ``sort_keys`` JSON so
    the stream is byte-deterministic for identical runs.
    """

    def __init__(self, stream) -> None:
        self._path = None
        self._file: IO | None = None
        if hasattr(stream, "write"):
            self._file = stream
        else:
            self._path = stream
        self.buffer: list = []

    def handle(self, event: Event) -> None:
        self.buffer.append(_event_to_record(event))

    def flush(self) -> None:
        """Write and clear the buffered events."""
        if not self.buffer:
            return
        if self._file is None:
            self._file = open(self._path, "a", encoding="utf-8")
        for record in self.buffer:
            self._file.write(json.dumps(record, sort_keys=True))
            self._file.write("\n")
        self._file.flush()
        self.buffer = []

    def close(self) -> None:
        self.flush()
        if self._file is not None and self._path is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ChromeTraceBuilder:
    """Render bus events as a Chrome-trace JSON timeline.

    Timestamps: Chrome traces are in microseconds.  With
    ``reference_mhz`` set, one reference tick is ``1/reference_mhz``
    µs, so the timeline reads in real time at the modelled reference
    clock; without it, one tick maps to one µs.  Events with
    ``tick=None`` (ledger totals, batch lifecycle) are placed at the
    latest timestamp seen so far in their process, keeping them
    visible without inventing a time base for them.

    Processes: call :meth:`process` to open a named process row
    (e.g. one per benchmarked workload); events emitted before any
    call land in a default ``"run"`` process.
    """

    def __init__(self, reference_mhz: float | None = None) -> None:
        self.reference_mhz = reference_mhz
        self._events: list = []
        #: process name -> pid, in first-open order (pid 1, 2, ...)
        self._pids: dict = {}
        #: (pid, track name) -> tid, in first-appearance order per pid
        self._tids: dict = {}
        self._pid = self._ensure_pid("run")
        self._last_ts: dict = {self._pid: 0.0}

    # -- structure -----------------------------------------------------
    def _ensure_pid(self, name: str) -> int:
        pid = self._pids.get(name)
        if pid is None:
            pid = len(self._pids) + 1
            self._pids[name] = pid
        return pid

    def process(self, name: str) -> None:
        """Route subsequent events into the process row ``name``."""
        self._pid = self._ensure_pid(name)
        self._last_ts.setdefault(self._pid, 0.0)

    def _tid(self, track: str) -> int:
        key = (self._pid, track)
        tid = self._tids.get(key)
        if tid is None:
            tid = sum(1 for p, _ in self._tids if p == self._pid) + 1
            self._tids[key] = tid
        return tid

    def _ts(self, tick: int | None) -> float:
        if tick is None:
            return self._last_ts[self._pid]
        ts = (
            tick / self.reference_mhz if self.reference_mhz
            else float(tick)
        )
        if ts > self._last_ts[self._pid]:
            self._last_ts[self._pid] = ts
        return ts

    # -- sink ----------------------------------------------------------
    def handle(self, event: Event) -> None:
        pid = self._pid
        tid = self._tid(event.track)
        ts = self._ts(event.tick)
        if isinstance(event, SpanEvent):
            duration = (
                event.duration / self.reference_mhz
                if self.reference_mhz else float(event.duration)
            )
            end = ts + duration
            if end > self._last_ts[pid]:
                self._last_ts[pid] = end
            entry = {
                "ph": "X", "name": event.name, "cat": event.category,
                "pid": pid, "tid": tid, "ts": ts, "dur": duration,
            }
        elif isinstance(event, CounterEvent):
            entry = {
                "ph": "C", "name": event.name, "cat": event.category,
                "pid": pid, "tid": tid, "ts": ts,
                "args": {"value": event.value},
            }
        else:
            entry = {
                "ph": "i", "name": event.name, "cat": event.category,
                "pid": pid, "tid": tid, "ts": ts, "s": "t",
            }
        if event.args and not isinstance(event, CounterEvent):
            entry["args"] = dict(event.args)
        self._events.append(entry)

    # -- export --------------------------------------------------------
    def _metadata_events(self) -> list:
        out = []
        for name, pid in self._pids.items():
            out.append({
                "ph": "M", "name": "process_name", "pid": pid,
                "tid": 0, "ts": 0,
                "args": {"name": name},
            })
        for (pid, track), tid in self._tids.items():
            out.append({
                "ph": "M", "name": "thread_name", "pid": pid,
                "tid": tid, "ts": 0,
                "args": {"name": track},
            })
        return out

    def to_chrome(self) -> dict:
        """The full Chrome-trace payload (deterministic)."""
        return {
            "traceEvents": self._metadata_events() + list(self._events),
            "displayTimeUnit": "ms",
            "metadata": {
                "tool": "repro.obs",
                "reference_mhz": self.reference_mhz,
                "processes": len(self._pids),
                "tracks": len(self._tids),
                "events": len(self._events),
            },
        }


def validate_chrome_trace(payload, tracks=None) -> list:
    """Structural problems with a Chrome-trace payload (empty = valid).

    Checks the shape ``chrome://tracing`` / Perfetto actually require:
    a ``traceEvents`` list whose entries carry a phase, a name, and -
    for timed phases - numeric pid/tid/ts (plus non-negative ``dur``
    for complete events).  When ``tracks`` is given (a list of track
    names, possibly empty), the trace must also hold a per-clock-domain
    ``column<i>`` track and every named track, where a track is a
    ``thread_name`` metadata row.
    """
    problems = []
    if not isinstance(payload, dict):
        return [f"payload is {type(payload).__name__}, expected dict"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents list"]
    if not events:
        problems.append("traceEvents is empty")
    present = set()
    for index, entry in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = entry.get("ph")
        if phase not in ("X", "i", "C", "M", "B", "E"):
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(entry.get("name"), str):
            problems.append(f"{where}: missing name")
        for field in ("pid", "tid"):
            if not isinstance(entry.get(field), int):
                problems.append(f"{where}: non-integer {field}")
        if phase != "M":
            if not isinstance(entry.get("ts"), (int, float)):
                problems.append(f"{where}: non-numeric ts")
        if phase == "X":
            duration = entry.get("dur")
            if not isinstance(duration, (int, float)):
                problems.append(f"{where}: complete event missing dur")
            elif duration < 0:
                problems.append(f"{where}: negative dur {duration}")
        args = entry.get("args")
        if phase == "M" and entry.get("name") == "thread_name" \
                and isinstance(args, dict) \
                and isinstance(args.get("name"), str):
            present.add(args["name"])
    if tracks is None:
        return problems
    named = sorted(present)
    if not any(track.startswith("column") for track in named):
        problems.append(
            "no per-clock-domain track (column<i>) in the trace; "
            f"tracks present: {named or 'none'}"
        )
    problems.extend(
        f"required track {track!r} missing; present: {named}"
        for track in tracks if track not in present
    )
    return problems


def write_chrome_trace(path, trace) -> dict:
    """Validate and write a trace; returns the written payload.

    ``trace`` is a :class:`ChromeTraceBuilder` or an already-built
    payload dict.  Raises ``ValueError`` listing every structural
    problem rather than writing a file viewers reject.  The payload
    gains one wall-clock stamp in ``metadata`` (see
    :data:`WALL_CLOCK_METADATA_KEYS`); everything else is
    deterministic.  Missing parent directories are created.
    """
    payload = (
        trace.to_chrome() if isinstance(trace, ChromeTraceBuilder)
        else trace
    )
    problems = validate_chrome_trace(payload)
    if problems:
        raise ValueError(
            "refusing to write invalid Chrome trace:\n  "
            + "\n  ".join(problems)
        )
    payload.setdefault("metadata", {})["written_unix_s"] = round(
        time.time(), 3
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return payload
