"""The --fuzz evaluation: payload shape, coverage counts, CLI."""

import json

import pytest

from repro.eval.fuzz import (
    DEFAULT_SEED,
    INVARIANTS,
    bench_payload,
    evaluate,
    render,
)
from repro.eval.runner import main

COUNT = 15  # one full (app, topology) stratification lap


@pytest.fixture(scope="module")
def rows():
    return evaluate(DEFAULT_SEED, COUNT)


def test_evaluate_returns_one_row_per_case(rows):
    assert len(rows) == COUNT
    assert [row["index"] for row in rows] == list(range(COUNT))
    for row in rows:
        assert row["seed"] == DEFAULT_SEED
        assert row["deadline_misses"] == 0


def test_bench_payload_shape(rows):
    payload = bench_payload(rows, DEFAULT_SEED)
    assert payload["artifact"] == "BENCH_fuzz"
    assert payload["cases"] == COUNT
    assert payload["failures"] == 0
    assert payload["invariants"] == list(INVARIANTS)
    # 15 consecutive indices = every (app, topology) class once.
    assert all(
        count == 3 for count in payload["coverage"]["apps"].values()
    )
    assert all(
        count == 5
        for count in payload["coverage"]["topologies"].values()
    )
    assert sum(payload["coverage"]["classes"].values()) == COUNT
    assert payload["worst_conservation_error"] \
        <= payload["conservation_tolerance"]
    assert json.dumps(payload)  # JSON-serializable end to end


def test_render_names_every_class(rows):
    text = render(rows, DEFAULT_SEED)
    assert f"seed {DEFAULT_SEED}" in text
    for row in rows:
        assert row["class"] in text


def test_cli_fuzz_writes_artifact(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BENCH_SMOKE", raising=False)
    main([
        "--fuzz", "--fuzz-seed", "23", "--fuzz-count", "15",
        "-o", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert "BENCH_fuzz.json" in out
    payload = json.loads((tmp_path / "BENCH_fuzz.json").read_text())
    assert payload["seed"] == 23
    assert payload["cases"] == 15
    assert payload["telemetry"]["events"] > 0
    assert payload["outcomes"]["ok"] == 15  # one supervised job a case


def test_cli_fuzz_rejects_conflicting_flags(tmp_path):
    with pytest.raises(SystemExit):
        main(["--fuzz", "-e", "table4", "-o", str(tmp_path)])
    with pytest.raises(SystemExit):
        main(["--fuzz", "--coordinated", "-o", str(tmp_path)])
    with pytest.raises(SystemExit):
        main(["--fuzz-seed", "23", "-o", str(tmp_path)])
    with pytest.raises(SystemExit):
        main(["--fuzz-count", "10", "-o", str(tmp_path)])
