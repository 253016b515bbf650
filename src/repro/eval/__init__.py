"""Per-table and per-figure experiment drivers.

Each module exposes ``compute()`` returning structured results and
``render()`` returning the text the paper's table/figure reports.
``runner.run_all()`` regenerates everything; EXPERIMENTS.md records
the paper-vs-measured comparison.
"""

from repro.eval import (  # noqa: F401
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    table1,
    table2,
    table3,
    table4,
)

__all__ = [
    "table1", "table2", "table3", "table4",
    "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
]
