"""Design-space exploration: bus widths (Figure 8), leakage (9/10).

The Viterbi bus-width study rebuilds Figure 8's power-area trade-off:
for 8/16/32 tiles and bus widths 32..1024 bits, the ACS component's
required frequency is compute cycles plus communication serialization
cycles per trellis step; halving the bus width doubles the transfer
cycles, raising frequency and therefore voltage.  The model is
anchored so the paper's chosen point (16 tiles, 256-bit bus) lands
exactly on Table 4's 540 MHz / 1.7 V / ~3.85 W.

The leakage studies sweep per-tile leakage over Figure 9/10's x-axis
and locate crossovers between parallelization levels analytically
(power is affine in leakage current).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import FrequencyRangeError
from repro.power.interconnect import CommProfile
from repro.power.model import ComponentSpec, PowerModel
from repro.sim.batch import parallel_map
from repro.tech.area import AreaModel
from repro.tech.leakage import LEAKAGE_SWEEP_MA_PER_TILE
from repro.tech.parameters import PAPER_TECHNOLOGY
from repro.tech.wires import BusGeometry
from repro.workloads.parallel import ParallelStudy

#: One information bit per trellis step at 54 Mbps.
TRELLIS_STEPS_PER_SECOND_M = 54.0
N_TRELLIS_STATES = 64
ANCHOR_TILES = 16
ANCHOR_BUS_BITS = 256
ANCHOR_FREQUENCY_MHZ = 540.0
ANCHOR_BUS_POWER_MW = 1310.0  # Table 4 ACS residual over compute+leak
ANCHOR_VOLTAGE = 1.7
SIMD_OVERHEAD_SIGMA = 0.03


@dataclass(frozen=True)
class BusWidthPoint:
    """One (tiles, bus width) evaluation of the ACS."""

    n_tiles: int
    bus_width_bits: int
    frequency_mhz: float
    voltage_v: float
    power_mw: float
    area_mm2: float
    feasible: bool


class ViterbiBusStudy:
    """Figure 8's power-area curves for the Viterbi ACS.

    ``anchor_words_per_step`` overrides the calibrated anchor traffic
    (words crossing tile boundaries per trellis step at 16 tiles) -
    the measured pipeline passes the ACS kernel's counted transfers
    here to redraw the sweep from simulation instead of the Table 4
    residual.
    """

    def __init__(
        self,
        tech=PAPER_TECHNOLOGY,
        anchor_words_per_step: float | None = None,
    ) -> None:
        self.tech = tech
        self.model = PowerModel(tech=tech, rails=tech.exploration_rails)
        self.area = AreaModel(tech)
        # Words exchanged per trellis step grow with the tile count
        # (more metric shuffling crosses tile boundaries).  Calibrated
        # so the anchor's bus power matches its Table 4 residual.
        e_word = self.model.bus_mw(
            CommProfile(1.0), 1.0, ANCHOR_VOLTAGE
        )  # mW per (word/cycle * MHz)
        if anchor_words_per_step is None:
            anchor_words_per_step = (
                ANCHOR_BUS_POWER_MW
                / (e_word * TRELLIS_STEPS_PER_SECOND_M)
            )
        self.anchor_words_per_step = anchor_words_per_step
        self._words_per_extra_tile = anchor_words_per_step / (
            ANCHOR_TILES - 1
        )
        # Compute cycles: anchor total is 10 cycles/step (540 MHz at
        # 54 Msteps/s); communication serialization takes what the
        # anchor bus needs, compute the rest.
        anchor_total = ANCHOR_FREQUENCY_MHZ / TRELLIS_STEPS_PER_SECOND_M
        anchor_comm = self.comm_cycles_per_step(
            ANCHOR_TILES, ANCHOR_BUS_BITS
        )
        per_state = (anchor_total - anchor_comm) / (
            (N_TRELLIS_STATES / ANCHOR_TILES)
            * self._overhead(ANCHOR_TILES)
        )
        self._compute_per_state = per_state

    @staticmethod
    def _overhead(n_tiles: int) -> float:
        return 1.0 + SIMD_OVERHEAD_SIGMA * (n_tiles - 1)

    def words_per_step(self, n_tiles: int) -> float:
        """Path-metric words crossing tile boundaries per step."""
        return self._words_per_extra_tile * (n_tiles - 1)

    def comm_cycles_per_step(self, n_tiles: int, bus_bits: int) -> float:
        """Serialization cycles: words / (parallel 32-bit lanes).

        Lanes scale with both the bus width (more splits) and the
        column count (each column has its own vertical bus).
        """
        columns = max(1, math.ceil(n_tiles / self.tech.tiles_per_column))
        lanes = (bus_bits / 32.0) * columns
        return self.words_per_step(n_tiles) / lanes

    def compute_cycles_per_step(self, n_tiles: int) -> float:
        """ACS arithmetic cycles per trellis step per tile."""
        return (
            self._compute_per_state
            * (N_TRELLIS_STATES / n_tiles)
            * self._overhead(n_tiles)
        )

    def required_frequency_mhz(self, n_tiles: int, bus_bits: int) -> float:
        """Clock needed to sustain 54 Mbps."""
        cycles = (
            self.compute_cycles_per_step(n_tiles)
            + self.comm_cycles_per_step(n_tiles, bus_bits)
        )
        return cycles * TRELLIS_STEPS_PER_SECOND_M

    def evaluate(self, n_tiles: int, bus_bits: int) -> BusWidthPoint:
        """Power and area of one design point."""
        frequency = self.required_frequency_mhz(n_tiles, bus_bits)
        area = self.area.chip_area_mm2([n_tiles], bus_width_bits=bus_bits)
        try:
            voltage = self.model.curve.quantize_voltage(
                frequency, self.model.rails
            )
        except FrequencyRangeError:
            return BusWidthPoint(
                n_tiles, bus_bits, frequency, float("nan"),
                float("nan"), area, feasible=False,
            )
        geometry = BusGeometry(
            width_bits=bus_bits,
            n_splits=self.tech.bus_splits,
            length_mm=self.tech.bus_length_mm,
        )
        model = PowerModel(
            tech=self.tech, rails=self.tech.exploration_rails,
            bus_geometry=geometry,
        )
        words_per_cycle = self.words_per_step(n_tiles) * (
            TRELLIS_STEPS_PER_SECOND_M / frequency
        )
        spec = ComponentSpec(
            "Viterbi ACS", n_tiles, frequency,
            CommProfile(words_per_cycle), voltage_v=voltage,
        )
        power = model.component_power(spec)
        return BusWidthPoint(
            n_tiles=n_tiles,
            bus_width_bits=bus_bits,
            frequency_mhz=frequency,
            voltage_v=voltage,
            power_mw=power.total_mw,
            area_mm2=area,
            feasible=True,
        )

    def _evaluate_point(self, point: tuple) -> BusWidthPoint:
        """Picklable single-argument adapter for the batch fan-out."""
        return self.evaluate(*point)

    def sweep(
        self,
        tile_counts: tuple = (8, 16, 32),
        bus_widths: tuple = (32, 64, 128, 256, 512, 1024),
        processes: int | None = 1,
    ) -> list:
        """All Figure 8 points (including infeasible ones, flagged).

        Points are independent, so the grid fans out through
        :func:`repro.sim.batch.parallel_map`; ``processes=1`` (the
        default) evaluates in-process, ``processes=None`` sizes the
        worker count to the host.
        """
        grid = [(n, w) for n in tile_counts for w in bus_widths]
        return parallel_map(self._evaluate_point, grid, processes)


@dataclass(frozen=True)
class LeakageSeries:
    """One line of Figure 9/10: an app config across leakage currents."""

    label: str
    n_tiles: int
    leakage_ma: tuple
    power_mw: tuple


class LeakageStudy:
    """Sweeps a :class:`ParallelStudy` over per-tile leakage currents."""

    def __init__(self, study: ParallelStudy, tech=PAPER_TECHNOLOGY) -> None:
        self.study = study
        self.tech = tech

    def _power_at(self, total_tiles: int, leakage_ma: float) -> float:
        model = PowerModel(
            tech=self.tech,
            rails=self.tech.exploration_rails,
            leakage_ma_per_tile=leakage_ma,
        )
        specs = self.study.configuration(total_tiles)
        return model.application_power(self.study.name, specs).total_mw

    def series(
        self, leakage_points: tuple = LEAKAGE_SWEEP_MA_PER_TILE
    ) -> list:
        """One :class:`LeakageSeries` per allocation."""
        out = []
        for total in self.study.tile_points:
            powers = tuple(
                self._power_at(total, ma) for ma in leakage_points
            )
            out.append(LeakageSeries(
                label=f"{self.study.name} {total} Tiles",
                n_tiles=total,
                leakage_ma=tuple(leakage_points),
                power_mw=powers,
            ))
        return out

    def crossover_ma(self, tiles_a: int, tiles_b: int) -> float | None:
        """Leakage current where two configurations' power is equal.

        Power is affine in leakage (P = D + slope * I), so the
        intersection is exact.  Returns None for parallel lines or a
        negative intersection (one config dominates everywhere).
        """
        d_a = self._power_at(tiles_a, 0.0)
        d_b = self._power_at(tiles_b, 0.0)
        slope_a = self._power_at(tiles_a, 1.0) - d_a
        slope_b = self._power_at(tiles_b, 1.0) - d_b
        if math.isclose(slope_a, slope_b):
            return None
        crossing = (d_b - d_a) / (slope_a - slope_b)
        return crossing if crossing > 0 else None
