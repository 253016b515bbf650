"""Self-test of the benchmark's output check.

    python3 perfbench/selftest.py [WORKLOAD ...]

Runs ``run.py --seconds 1`` (15 ops on every workload, one block of
every app x topology class on the corpus ones) twice per workload: once
against the reference engine's records, where ``op_fail_ratio`` must be
0, and once against the same records falsified (``--corrupt-expected``),
where it must be 1.  A check that passes corrupted records would let a
wrong program through, so this must pass before the benchmark's figures
are trusted.  Exits non-zero on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def fail_ratio(workload: str, corrupt: bool) -> float:
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               workload, "--seconds", "1", "--trace", "0"]
    if corrupt:
        command.append("--corrupt-expected")
    done = subprocess.run(command, cwd=HERE.parent, capture_output=True,
                          text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["failed"] / result["attempted"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = parser.parse_args()
    bad = 0
    for workload in args.workloads:
        for corrupt, want in ((False, 0.0), (True, 1.0)):
            got = fail_ratio(workload, corrupt)
            verdict = "ok" if got == want else "FAIL"
            bad += got != want
            print(f"{workload:<15} {'corrupted' if corrupt else 'clean':<9}"
                  f" op_fail_ratio {got:.3g} (want {want:g}) {verdict}",
                  flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
