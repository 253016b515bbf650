"""Ablation: automatic vs hand parallelization (paper Section 7).

The paper hand-parallelized every application and proposed an
automated tool as future work.  This bench runs our rail-crossing
allocator at the paper's tile budgets and checks it never loses to
the hand mappings - quantifying what the proposed tool would buy.
"""

import pytest

from repro.power.model import PowerModel
from repro.sdf.optimizer import ParallelizationOptimizer
from repro.tech.parameters import PAPER_TECHNOLOGY
from repro.workloads.parallel import parallel_studies


def test_auto_allocation(benchmark):
    optimizer = ParallelizationOptimizer()
    model = PowerModel(rails=PAPER_TECHNOLOGY.exploration_rails)
    studies = parallel_studies()

    def run():
        out = {}
        for key, study in studies.items():
            components = list(study.components)
            budget = study.tile_points[-1]
            hand = model.application_power(
                study.name, study.configuration(budget)
            ).total_mw
            auto = optimizer.optimize(components, tile_budget=budget)
            out[key] = (hand, auto.power_mw, auto.tiles_used)
        return out

    results = benchmark(run)
    print()
    print(f"{'app':8s} {'hand mW':>9} {'auto mW':>9} {'tiles':>6}")
    for key, (hand, auto, tiles) in results.items():
        print(f"{key:8s} {hand:9.1f} {auto:9.1f} {tiles:6d}")
        assert auto <= hand * 1.001
