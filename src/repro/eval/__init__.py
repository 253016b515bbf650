"""Per-table and per-figure experiment drivers.

Each module exposes ``compute()`` returning structured results and
``render()`` returning the text the paper's table/figure reports.
``runner.run_all()`` regenerates everything; EXPERIMENTS.md records
the paper-vs-measured comparison.
"""
