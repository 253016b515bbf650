"""Design-space exploration: parallelism, bus width, and leakage.

Reproduces the three Section 5 studies interactively, then runs a
simulation-backed divider sweep through the batched run API:

* Figure 7 - how far to parallelize each application;
* Figure 8 - the Viterbi ACS bus-width/area trade-off that picked
  the 256-bit bus;
* Figures 9/10 - which parallelization survives leaky processes;
* a cycle-level clock-divider sweep batched through
  ``repro.sim.batch.run_many`` as supervised jobs.

    python examples/design_space_exploration.py
"""

from repro.arch.config import ChipConfig, ColumnConfig
from repro.isa.assembler import assemble
from repro.power.model import PowerModel
from repro.sim.batch import RunRequest, run_many
from repro.sim.resilience import require_ok
from repro.tech.parameters import PAPER_TECHNOLOGY
from repro.workloads.explorer import LeakageStudy, ViterbiBusStudy
from repro.workloads.parallel import parallel_studies


def parallelism() -> None:
    print("=" * 64)
    print("How much should one parallelize? (Figure 7)")
    print("=" * 64)
    model = PowerModel(rails=PAPER_TECHNOLOGY.exploration_rails)
    for study in parallel_studies().values():
        print(f"\n{study.name}:")
        for tiles in study.tile_points:
            power = model.application_power(
                study.name, study.configuration(tiles)
            )
            dark = 100.0 * power.overhead_mw / power.total_mw
            print(f"  {tiles:3d} tiles: {power.total_mw:7.1f} mW "
                  f"({dark:4.1f}% interconnect+leakage)")


def bus_width() -> None:
    print()
    print("=" * 64)
    print("Why a 256-bit bus? (Figure 8, Viterbi ACS)")
    print("=" * 64)
    study = ViterbiBusStudy()
    for tiles in (8, 16, 32):
        print(f"\n{tiles} tiles:")
        for width in (128, 256, 512, 1024):
            point = study.evaluate(tiles, width)
            if not point.feasible:
                print(f"  {width:5d} b: infeasible "
                      f"(needs {point.frequency_mhz:.0f} MHz)")
                continue
            print(f"  {width:5d} b: {point.power_mw:7.0f} mW at "
                  f"{point.frequency_mhz:4.0f} MHz / "
                  f"{point.voltage_v} V, {point.area_mm2:6.1f} mm^2")
    print("\n128->256 bits buys watts; 256->512 buys little and costs")
    print("a third more area - the paper's Section 5.3 argument.")


def leakage() -> None:
    print()
    print("=" * 64)
    print("Which design survives leaky silicon? (Figures 9/10)")
    print("=" * 64)
    study = LeakageStudy(parallel_studies()["mpeg4"])
    crossing = study.crossover_ma(12, 36)
    print("\nMPEG4 power (mW) vs per-tile leakage (mA):")
    for series in study.series():
        points = "  ".join(f"{p:6.0f}" for p in series.power_mw[::2])
        print(f"  {series.label:16s} {points}")
    print(f"\n12-vs-36-tile crossover at {crossing:.1f} mA/tile "
          f"(paper: 14.8 mA, i.e. 8.3 nA/transistor): below it the "
          f"wide design wins,")
    print("above it leakage taxes the extra tiles more than voltage "
          "scaling saves.")


def divider_sweep() -> None:
    """Batched cycle-level simulation across clock-divider choices."""
    print()
    print("=" * 64)
    print("Simulated divider sweep (repro.sim.batch.run_many)")
    print("=" * 64)
    program = assemble("""
        movi r0, 0
        loop 200
          addi r0, r0, 1
        endloop
        halt
    """, "spin")
    requests = [
        RunRequest(
            config=ChipConfig(
                reference_mhz=400.0,
                columns=(ColumnConfig(divider=1),
                         ColumnConfig(divider=divider)),
            ),
            programs=(program, program),
            label=f"dividers (1, {divider})",
        )
        for divider in (1, 2, 4, 8)
    ]
    outcomes = require_ok(run_many(requests))
    print("\nSame program, second column progressively slower:")
    for outcome in outcomes:
        slow = outcome.stats.column(1)
        print(f"  {outcome.label:18s} "
              f"{outcome.stats.reference_ticks:6d} reference ticks, "
              f"column-1 issue rate {slow.issue_rate:5.2f}")


def main() -> None:
    parallelism()
    bus_width()
    leakage()
    divider_sweep()


if __name__ == "__main__":
    main()
