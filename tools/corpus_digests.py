"""Check or rewrite the golden digests of the generated governed corpus.

``tests/workloads/corpus_digests.json`` pins one SHA-256 per case of
``generate_scenario(seed, 0..59)`` for seeds 11 and 23
(:func:`repro.workloads.generate.case_digest`).  Check mode runs every
case on both engines and names each ``(seed, index)`` whose digest
moved; ``--write`` rewrites the file from the reference engine, for a
deliberate change to a statistic (say why in CHANGES.md)::

    PYTHONPATH=src python tools/corpus_digests.py [--seed 11]
    PYTHONPATH=src python tools/corpus_digests.py --write
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# The governed stack draws its cases from a pure-Python PCG64 stream;
# with numpy unimportable, every check also proves no digest depends on
# whichever numpy release is installed.
sys.modules["numpy"] = None

from repro.workloads.generate import case_digest  # noqa: E402

GOLDEN = (
    Path(__file__).resolve().parent.parent
    / "tests" / "workloads" / "corpus_digests.json"
)
SEEDS = (11, 23)
COUNT = 60
ENGINES = ("reference", "compiled")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, choices=SEEDS, action="append",
                        help="check only this seed (repeatable)")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the digests from the reference engine")
    args = parser.parse_args(argv)
    if args.write:
        digests = {
            str(seed): [case_digest(seed, index, "reference")
                        for index in range(COUNT)]
            for seed in SEEDS
        }
        GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")
        print(f"wrote {GOLDEN}")
        return 0
    golden = json.loads(GOLDEN.read_text())
    mismatches = [
        f"(seed {seed}, index {index}) on the {engine} engine"
        for seed in args.seed or SEEDS
        for index in range(COUNT)
        for engine in ENGINES
        if case_digest(seed, index, engine) != golden[str(seed)][index]
    ]
    for line in mismatches:
        print(f"digest changed: {line}")
    if not mismatches:
        print("every corpus digest matches on both engines")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
