"""Figure 8: Viterbi ACS power vs area across bus widths and tiles."""

from __future__ import annotations

from repro.power.report import render_table
from repro.workloads.explorer import ANCHOR_TILES, ViterbiBusStudy


def compute() -> list:
    """All (tiles, bus width) points, feasible or not."""
    return ViterbiBusStudy().sweep()


def knee_gain(points: list | None = None, n_tiles: int = 16) -> dict:
    """Power reduction per bus doubling around the 256-bit choice.

    The paper picks 256 bits because 128->256 still helps
    significantly while 256->512 helps much less (Section 5.3).
    """
    points = points if points is not None else compute()
    by_width = {
        p.bus_width_bits: p for p in points
        if p.n_tiles == n_tiles and p.feasible
    }
    gains = {}
    for narrow, wide in ((128, 256), (256, 512), (512, 1024)):
        if narrow in by_width and wide in by_width:
            gains[f"{narrow}->{wide}"] = (
                by_width[narrow].power_mw - by_width[wide].power_mw
            )
    return gains


def _point_rows(points: list) -> list:
    rows = []
    for point in points:
        if point.feasible:
            rows.append((
                point.n_tiles, point.bus_width_bits,
                f"{point.frequency_mhz:.0f}", f"{point.voltage_v:.1f}",
                f"{point.power_mw:.0f}", f"{point.area_mm2:.1f}",
            ))
        else:
            rows.append((
                point.n_tiles, point.bus_width_bits,
                f"{point.frequency_mhz:.0f}", "-", "infeasible",
                f"{point.area_mm2:.1f}",
            ))
    return rows


def render() -> str:
    """Figure 8 as a table plus the knee summary."""
    gains = knee_gain()
    lines = [
        "Figure 8. Viterbi ACS power with varying bus widths and "
        "parallelization",
        render_table(
            ("Tiles", "Bus bits", "MHz", "V", "Power (mW)",
             "Area (mm^2)"),
            _point_rows(compute()),
        ),
        "",
        "Power saved per bus doubling (16 tiles): " + ", ".join(
            f"{k}: {v:.0f} mW" for k, v in gains.items()
        ),
    ]
    return "\n".join(lines)


def measured_words_per_step(processes: int | None = 1) -> float:
    """ACS words per trellis step at 16 tiles, from counted transfers.

    The butterfly kernel runs one 4-tile column slice through
    :func:`repro.sim.batch.run_many`; the full 16-tile component
    replicates it across four columns, each driving its own vertical
    bus, so per-step traffic scales with the column count.
    """
    from repro.workloads.measured import measured_activities

    activity = measured_activities(
        ["viterbi-acs-butterfly"], processes=processes
    )["viterbi-acs-butterfly"]
    scaled = activity.scaled_to(ANCHOR_TILES)
    # words/step = words/cycle * cycles/step; the kernel processes
    # one trellis step per logical sample.
    from repro.kernels.viterbi_acs import build_acs_kernel

    steps = build_acs_kernel().samples
    return scaled.bus_words / steps


def compute_measured(processes: int | None = 1) -> list:
    """The Figure 8 sweep re-anchored on measured ACS traffic."""
    return ViterbiBusStudy(
        anchor_words_per_step=measured_words_per_step(processes)
    ).sweep()


def render_measured(processes: int | None = 1) -> str:
    """Figure 8 redrawn from the measured communication anchor."""
    calibrated = ViterbiBusStudy().anchor_words_per_step
    measured = measured_words_per_step(processes)
    points = ViterbiBusStudy(
        anchor_words_per_step=measured
    ).sweep()
    gains = knee_gain(points)
    lines = [
        "Figure 8 (measured). Viterbi ACS sweep anchored on counted "
        "transfers",
        f"anchor traffic: measured {measured:.1f} words/step vs "
        f"calibrated {calibrated:.1f} (Table 4 residual back-solve)",
        render_table(
            ("Tiles", "Bus bits", "MHz", "V", "Power (mW)",
             "Area (mm^2)"),
            _point_rows(points),
        ),
        "",
        "Power saved per bus doubling (16 tiles): " + ", ".join(
            f"{k}: {v:.0f} mW" for k, v in gains.items()
        ),
    ]
    return "\n".join(lines)
