"""Golden digests pin the generated governed corpus on both engines.

``corpus_digests.json`` holds one SHA-256 per case of
``generate_scenario(seed, 0..59)`` for seeds 11 and 23, over the
statistics, epoch timeline, transitions, deadline misses, gate
segments, rail wakes and rounded ledger energy
(:func:`repro.workloads.generate.case_digest`).  Tier-1 checks seed 11,
indices 0..14 - one case per app x topology class - on the reference
engine and on the compiled engine with its lockstep hunting scope as
shipped, forced on in every window and forced off, so a change to how
the compiled engine steps cannot move a statistic unseen.  Each run
also counts the DOU interpreter's calls: every cycle of the corpus,
backpressure included, has a compiled per-state path, so none may
reach ``Dou._step_generic``.  CI's fuzz lane checks all 120 cases
with ``tools/corpus_digests.py``, which also rewrites the file after
a deliberate change.
"""

import json
from pathlib import Path

import pytest

from repro.arch.dou import Dou
from repro.sim.engine import CompiledEngine
from repro.workloads.generate import case_digest

GOLDEN = json.loads(
    Path(__file__).with_name("corpus_digests.json").read_text()
)
SEED = 11
CLASSES = 15


@pytest.mark.parametrize("engine, hunt", [
    ("reference", None),
    ("compiled", None),
    ("compiled", "long"),
    ("compiled", "cold"),
], ids=["reference", "compiled", "compiled-hunt-on", "compiled-hunt-off"])
def test_corpus_matches_golden_digests(monkeypatch, engine, hunt):
    if hunt is not None:
        monkeypatch.setattr(
            CompiledEngine, "_hunt_scope", lambda self, ticks: hunt
        )
    interpreted = []
    generic = Dou._step_generic

    def counted(self):
        interpreted.append(self.program.name)
        return generic(self)

    monkeypatch.setattr(Dou, "_step_generic", counted)
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


def test_golden_file_covers_both_seeds():
    assert sorted(GOLDEN) == ["11", "23"]
    for digests in GOLDEN.values():
        assert len(digests) == 60
        assert len(set(digests)) == 60
