"""Ablation: what integer clock dividers really cost (beyond the paper).

Table 4 assigns frequency sets that no single reference clock divides
exactly; a real chip overshoots each column's clock to the nearest
achievable divider and pays the voltage of the actual frequency.
This bench sweeps reference choices and reports the minimum overhead
per application.
"""

import pytest

from repro.power.model import PowerModel
from repro.workloads.configs import all_applications
from repro.workloads.realization import best_reference


def test_integer_divider_overhead(benchmark):
    model = PowerModel()
    applications = all_applications()

    def run():
        return {
            key: best_reference(config.specs, model=model)
            for key, config in applications.items()
        }

    results = benchmark(run)
    print()
    print(f"{'application':14s} {'ideal mW':>9} {'real mW':>9} "
          f"{'ovh':>6} {'ref MHz':>8}  dividers")
    for key, result in results.items():
        dividers = [c.divider for c in result.components]
        print(f"{key:14s} {result.ideal_mw:9.1f} "
              f"{result.realized_mw:9.1f} "
              f"{100 * result.overhead_fraction:5.1f}% "
              f"{result.reference_mhz:8.0f}  {dividers}")
        assert result.overhead_fraction < 0.10
