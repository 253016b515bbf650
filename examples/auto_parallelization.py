"""Automatic parallelization: the tool the paper leaves to future work.

Section 7: "Future work will focus on a software tool chain to
automate and optimize application parallelization".  This example runs
our greedy rail-crossing allocator over each application's component
models and compares against the paper-derived hand mappings at the
same tile budgets.

    python examples/auto_parallelization.py
"""

from repro.power.model import PowerModel
from repro.sdf.optimizer import ParallelizationOptimizer
from repro.tech.parameters import PAPER_TECHNOLOGY
from repro.workloads.parallel import parallel_studies


def main() -> None:
    optimizer = ParallelizationOptimizer()
    model = PowerModel(rails=PAPER_TECHNOLOGY.exploration_rails)

    print("Greedy rail-crossing allocation vs hand mappings:\n")
    print(f"{'app':10s} {'budget':>6} {'hand mW':>9} {'auto mW':>9} "
          f"{'saved':>6}  allocation")
    for study in parallel_studies().values():
        components = list(study.components)
        for budget in study.tile_points:
            hand = model.application_power(
                study.name, study.configuration(budget)
            ).total_mw
            auto = optimizer.optimize(components, tile_budget=budget)
            saved = 100.0 * (1.0 - auto.power_mw / hand)
            alloc = ", ".join(
                f"{name.split()[0]}:{tiles}"
                for name, tiles in auto.allocations.items()
            )
            print(f"{study.name:10s} {budget:6d} {hand:9.1f} "
                  f"{auto.power_mw:9.1f} {saved:5.1f}%  [{alloc}]")

    print("\nSearch trace for the 50-tile DDC budget:")
    ddc = list(parallel_studies()["ddc"].components)
    result = optimizer.optimize(ddc, tile_budget=50)
    for step in result.history:
        print(f"  grow {step.component:16s} -> {step.tiles_after:2d} "
              f"tiles: {step.power_before_mw:7.1f} -> "
              f"{step.power_after_mw:7.1f} mW "
              f"(-{step.gain_mw:.1f})")
    print(f"  final: {result.power_mw:.1f} mW on {result.tiles_used} "
          f"tiles (budget {result.tile_budget})")
    print("\nEvery step jumps a component to the tile count that drops")
    print("its voltage rail - adding tiles without a rail crossing")
    print("only adds leakage and communication (Section 5.5).")


if __name__ == "__main__":
    main()
