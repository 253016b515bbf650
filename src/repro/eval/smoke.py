"""``BENCH_SMOKE``: whether to shrink the evaluations to their CI size.

A leaf module, so the evaluation modules can read it without importing
the runner and, through it, every table and figure module.
"""

import os


def smoke() -> bool:
    """Whether ``BENCH_SMOKE`` asks for the shrunk CI-sized evaluations."""
    return os.environ.get("BENCH_SMOKE", "") not in ("", "0")
