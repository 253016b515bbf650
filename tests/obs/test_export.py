"""Exporters: Chrome-trace builder, JSONL sink, validation, writer."""

import json

import pytest

from repro.obs.events import EventBus
from repro.obs.export import (
    ChromeTraceBuilder,
    CountingSink,
    JsonlSink,
    validate_chrome_trace,
    write_chrome_trace,
)


def _emit_sample(bus):
    bus.span("window:dense", 0, 100, track="engine",
             args={"dense_ticks": 40})
    bus.counter("divider", 4, tick=0, track="column0")
    bus.instant("halted", tick=80, track="column0")
    bus.instant("charge", category="power", track="ledger",
                args={"energy_nj": 1.5})  # tickless


def test_chrome_builder_structure():
    bus = EventBus()
    builder = bus.subscribe(ChromeTraceBuilder())
    builder.process("ddc")
    _emit_sample(bus)
    payload = builder.to_chrome()
    assert validate_chrome_trace(payload) == []
    events = payload["traceEvents"]
    phases = [entry["ph"] for entry in events]
    assert phases.count("X") == 1
    assert phases.count("C") == 1
    assert phases.count("i") == 2
    processes = {
        entry["args"]["name"]
        for entry in events
        if entry["ph"] == "M" and entry["name"] == "process_name"
    }
    tracks = {
        entry["args"]["name"]
        for entry in events
        if entry["ph"] == "M" and entry["name"] == "thread_name"
    }
    assert "ddc" in processes
    assert {"engine", "column0", "ledger"} <= tracks


def test_reference_mhz_scales_timestamps():
    bus = EventBus()
    builder = bus.subscribe(ChromeTraceBuilder(reference_mhz=100.0))
    bus.span("w", 200, 400, track="engine")
    span = [
        entry for entry in builder.to_chrome()["traceEvents"]
        if entry["ph"] == "X"
    ][0]
    assert span["ts"] == pytest.approx(2.0)   # 200 ticks @ 100 MHz
    assert span["dur"] == pytest.approx(2.0)


def test_tickless_events_placed_at_latest_time():
    bus = EventBus()
    builder = bus.subscribe(ChromeTraceBuilder())
    bus.span("w", 0, 50, track="engine")
    bus.instant("charge", category="power", track="ledger")
    instant = [
        entry for entry in builder.to_chrome()["traceEvents"]
        if entry["ph"] == "i"
    ][0]
    assert instant["ts"] == 50.0


def test_validate_rejects_malformed_payloads():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({}) == ["missing traceEvents list"]
    assert "traceEvents is empty" in validate_chrome_trace(
        {"traceEvents": []}
    )
    bad_phase = {"traceEvents": [{"ph": "Z", "name": "x"}]}
    assert any(
        "unknown phase" in problem
        for problem in validate_chrome_trace(bad_phase)
    )
    bad_dur = {"traceEvents": [{
        "ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0,
        "dur": -5,
    }]}
    assert any(
        "negative dur" in problem
        for problem in validate_chrome_trace(bad_dur)
    )


def test_write_chrome_trace_roundtrip(tmp_path):
    bus = EventBus()
    builder = bus.subscribe(ChromeTraceBuilder())
    _emit_sample(bus)
    target = tmp_path / "trace.json"
    written = write_chrome_trace(target, builder)
    loaded = json.loads(target.read_text())
    assert validate_chrome_trace(loaded) == []
    assert "written_unix_s" in loaded["metadata"]
    assert written["metadata"]["events"] == 4


def test_write_chrome_trace_creates_missing_directories(tmp_path):
    # ``runner --engines --trace DIR/trace.json`` writes the trace only
    # after the whole timing run; a missing DIR must not lose it.
    bus = EventBus()
    builder = bus.subscribe(ChromeTraceBuilder())
    _emit_sample(bus)
    target = tmp_path / "missing" / "nested" / "trace.json"
    write_chrome_trace(target, builder)
    assert validate_chrome_trace(json.loads(target.read_text())) == []


def test_write_refuses_invalid_trace(tmp_path):
    target = tmp_path / "trace.json"
    with pytest.raises(ValueError):
        write_chrome_trace(target, {"traceEvents": "nope"})
    assert not target.exists()


def test_jsonl_sink_buffers_then_writes(tmp_path):
    bus = EventBus()
    target = tmp_path / "events.jsonl"
    sink = bus.subscribe(JsonlSink(target))
    _emit_sample(bus)
    assert len(sink.buffer) == 4
    assert not target.exists()  # buffered: nothing written yet
    sink.close()
    lines = [
        json.loads(line)
        for line in target.read_text().splitlines()
    ]
    assert [record["kind"] for record in lines] == [
        "span", "counter", "instant", "instant",
    ]
    assert lines[0]["duration"] == 100
    assert lines[1]["value"] == 4
    assert lines[3]["args"]["energy_nj"] == 1.5


def test_jsonl_sink_context_manager(tmp_path):
    bus = EventBus()
    target = tmp_path / "events.jsonl"
    with JsonlSink(target) as sink:
        bus.subscribe(sink)
        bus.instant("x")
    assert len(target.read_text().splitlines()) == 1


def test_counting_sink_summary():
    bus = EventBus()
    sink = bus.subscribe(CountingSink())
    _emit_sample(bus)
    summary = sink.summary()
    assert summary["events"] == 4
    assert summary["by_kind"] == {
        "counter": 1, "instant": 2, "span": 1,
    }
    assert summary["by_category"] == {"engine": 3, "power": 1}
