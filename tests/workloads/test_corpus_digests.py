"""Golden digests pin the generated governed corpus on both engines.

``corpus_digests.json`` holds one SHA-256 per case of
``generate_scenario(seed, 0..59)`` for seeds 11 and 23, over the
statistics, epoch timeline, transitions, deadline misses, gate
segments, rail wakes and rounded ledger energy
(:func:`repro.workloads.generate.case_digest`).  Tier-1 checks seed 11,
indices 0..14 - one case per app x topology class - on the reference
engine and on the compiled engine with lockstep hunting as shipped,
forced on in every window (``LOCKSTEP_HUNT_TICKS`` 0) and forced off
(infinite), so a change to how the compiled engine steps cannot move a
statistic unseen.  Each run also counts lockstep safepoint signatures
and replayed rounds: governed epochs are shorter than
``LOCKSTEP_HUNT_TICKS``, so as shipped the corpus takes no safepoint,
while forced-on hunting must really replay rounds.  It counts the DOU
interpreter's calls too: every cycle of the corpus, backpressure
included, has a compiled per-state path, so none may reach
``Dou._step_generic``.  The cases come from a pure-Python PCG64
stream, so the digests hold with numpy unimportable.  CI's fuzz lane
checks all 120 cases that way with ``tools/corpus_digests.py``, which
also rewrites the file after a deliberate change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.arch.dou import Dou
from repro.sim import engine as engine_module
from repro.sim.engine import CompiledEngine
from repro.workloads.generate import case_digest

GOLDEN = json.loads(
    Path(__file__).with_name("corpus_digests.json").read_text()
)
SEED = 11
CLASSES = 15


@pytest.mark.parametrize("engine, hunt_ticks", [
    ("reference", None),
    ("compiled", None),
    ("compiled", 0),
    ("compiled", float("inf")),
], ids=["reference", "compiled", "compiled-hunt-on", "compiled-hunt-off"])
def test_corpus_matches_golden_digests(monkeypatch, engine, hunt_ticks):
    if hunt_ticks is not None:
        monkeypatch.setattr(engine_module, "LOCKSTEP_HUNT_TICKS", hunt_ticks)
    interpreted = []
    signatures = []
    rounds = []
    generic = Dou._step_generic
    signature = CompiledEngine._lock_signature
    replay = CompiledEngine._lock_replay

    def counted(self):
        interpreted.append(self.program.name)
        return generic(self)

    def counted_signature(self, tick, period):
        signatures.append(tick)
        return signature(self, tick, period)

    def counted_replay(self, *args):
        tick, done = replay(self, *args)
        rounds.append(done)
        return tick, done

    monkeypatch.setattr(Dou, "_step_generic", counted)
    monkeypatch.setattr(CompiledEngine, "_lock_signature", counted_signature)
    monkeypatch.setattr(CompiledEngine, "_lock_replay", counted_replay)
    moved = [
        f"(seed {SEED}, index {index})"
        for index in range(CLASSES)
        if case_digest(SEED, index, engine) != GOLDEN[str(SEED)][index]
    ]
    assert not moved, (
        f"{engine} engine digests changed at {', '.join(moved)}; "
        f"rewrite with tools/corpus_digests.py --write only for a "
        f"deliberate change to a statistic"
    )
    assert not interpreted, (
        f"{len(interpreted)} DOU cycles fell back to the interpreter "
        f"on the {engine} engine, the first in {interpreted[0]}"
    )
    if hunt_ticks == 0:
        assert sum(rounds) > 0, "forced-on hunting replayed no round"
    else:
        assert not signatures, (
            f"the governed corpus took {len(signatures)} lockstep "
            f"safepoint signatures; its epochs should not hunt"
        )


def test_corpus_matches_golden_digests_without_numpy():
    """Scenario generation, both engines, the governors and the ledger
    run with numpy unimportable and still reproduce the digests."""
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "from repro.workloads.generate import case_digest\n"
        f"print([case_digest({SEED}, index, engine) for index in range(3)"
        " for engine in ('reference', 'compiled')])"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    golden = GOLDEN[str(SEED)]
    assert result.stdout.strip() == repr(
        [golden[index] for index in range(3) for _ in range(2)]
    )


def test_golden_file_covers_both_seeds():
    assert sorted(GOLDEN) == ["11", "23"]
    for digests in GOLDEN.values():
        assert len(digests) == 60
        assert len(set(digests)) == 60
