"""Quickstart: evaluate a Synchroscalar design in five steps.

Runs the paper's Section 2 walkthrough: describe an application as an
SDF graph, map it onto columns, derive frequencies and voltages, run a
kernel on the cycle-level simulator, and evaluate the power model.

    python examples/quickstart.py
"""

from repro.arch.dou import DouCycle, linear_schedule
from repro.isa.assembler import assemble
from repro.power.interconnect import CommProfile
from repro.power.model import ComponentSpec, PowerModel
from repro.sdf.graph import SdfGraph
from repro.sdf.mapping import ColumnAssignment, SdfMapper
from repro.sim.simulator import run_single_column


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Describe the first two DDC stages as a dataflow graph.
    # ------------------------------------------------------------------
    graph = SdfGraph("ddc-front-end")
    graph.add_actor("mixer", cycles_per_firing=15.0)
    graph.add_actor("integrator", cycles_per_firing=25.0)
    graph.add_edge("mixer", "integrator", produce=1, consume=1)

    # ------------------------------------------------------------------
    # 2. Map each stage to a pair of columns (8 tiles) at 64 MS/s.
    # ------------------------------------------------------------------
    app = SdfMapper().map(
        graph,
        [
            ColumnAssignment("Mixer", ("mixer",), n_tiles=8),
            ColumnAssignment("Integrator", ("integrator",), n_tiles=8),
        ],
        iteration_rate_msps=64.0,
    )
    print("Operating points (Section 2's numbers):")
    for component in app.components:
        print(f"  {component.name:12s} {component.n_tiles:2d} tiles "
              f"@ {component.frequency_mhz:5.0f} MHz / "
              f"{component.voltage_v} V")
    print("Clock plan:", app.clock_dividers(reference_mhz=600.0))

    # ------------------------------------------------------------------
    # 3. Run a mixer-like MAC kernel on the cycle-level simulator.
    # ------------------------------------------------------------------
    kernel = assemble("""
        movi p0, 0       ; LO samples
        movi p1, 32      ; IF samples
        movi a0, 0
        loop 8
          ld r1, [p0++]
          ld r2, [p1++]
          mac a0, r1, r2
        endloop
        mov r7, a0
        send r7
        recv r0
        halt
    """, "mixer-kernel")
    loopback = linear_schedule([DouCycle(
        closed=frozenset((0, b) for b in range(4)),
        drives=((0, 0),),
        captures=((0, 0), (1, 0), (2, 0), (3, 0)),
    )])
    chip, stats = run_single_column(
        kernel,
        dou_program=loopback,
        memory_images={t: {0: [1] * 8, 32: [3] * 8} for t in range(4)},
        strict_schedules=False,
    )
    column = stats.column(0)
    print(f"\nSimulated kernel: {column.issued} instructions, "
          f"{column.tile_cycles} tile cycles, "
          f"{column.bus_words} bus word(s) moved")
    print(f"  result register R0 = "
          f"{chip.columns[0].tiles[0].regs.read('R0')} (8 x 1 x 3)")

    # ------------------------------------------------------------------
    # 4. Derive the frequency the measured kernel implies (Sec 4.1).
    # ------------------------------------------------------------------
    frequency = stats.frequency_for_rate(0, samples=8,
                                         sample_rate_msps=20.0)
    print(f"  at 20 MS/s this kernel needs {frequency:.0f} MHz")

    # ------------------------------------------------------------------
    # 5. Evaluate the three-term power model.
    # ------------------------------------------------------------------
    model = PowerModel()
    power = model.application_power("ddc-front-end", [
        ComponentSpec("Mixer", 8, 120.0, CommProfile(1.1)),
        ComponentSpec("Integrator", 8, 200.0, CommProfile(5.6)),
    ])
    print(f"\nPower at the Section 2 operating points: "
          f"{power.total_mw:.1f} mW")
    for component in power.components:
        print(f"  {component.name:12s} {component.total_mw:7.2f} mW "
              f"(dyn {component.dynamic_mw:6.2f}, "
              f"bus {component.bus_mw:5.2f}, "
              f"leak {component.leakage_mw:5.2f})")


if __name__ == "__main__":
    main()
