"""The Section 4.1 power model: P = P_tile + P_interconnect + P_leakage.

Each mapped application component (one row of Table 4) occupies a group
of columns forming a frequency/voltage domain.  The model computes

    P_tile         = U * (V / V_ref)^2 * f * n
    P_interconnect = words/cycle * E_word(V) * f
    P_leakage      = I_leak * V * n

per component, where V is either the minimum rail supporting f
(multiple-voltage mode, the Synchroscalar design point) or the single
highest rail in the application (single-voltage mode, the baseline of
Table 4's right-hand columns and Figure 6's dark bars).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.power.interconnect import CommProfile
from repro.tech.parameters import PAPER_TECHNOLOGY, TechnologyParameters
from repro.tech.vf_curve import VoltageFrequencyCurve
from repro.tech.wires import BusGeometry, WireModel


@dataclass(frozen=True)
class ComponentSpec:
    """One algorithmic block mapped onto a group of columns.

    ``voltage_v`` is normally left ``None`` and derived from the V-f
    curve; pass a value only to pin a rail (e.g. reproducing a paper
    row verbatim).
    """

    name: str
    n_tiles: int
    frequency_mhz: float
    comm: CommProfile = CommProfile()
    voltage_v: float | None = None

    def __post_init__(self) -> None:
        if self.n_tiles <= 0:
            raise ConfigurationError(f"{self.name}: n_tiles must be positive")
        if self.frequency_mhz <= 0:
            raise ConfigurationError(
                f"{self.name}: frequency must be positive"
            )


@dataclass(frozen=True)
class ComponentPower:
    """Power breakdown of one component at one operating point."""

    name: str
    n_tiles: int
    frequency_mhz: float
    voltage_v: float
    dynamic_mw: float
    bus_mw: float
    leakage_mw: float

    @property
    def total_mw(self) -> float:
        """Dynamic + interconnect + leakage power."""
        return self.dynamic_mw + self.bus_mw + self.leakage_mw

    @property
    def overhead_mw(self) -> float:
        """The non-compute share (interconnect + leakage, Figure 7)."""
        return self.bus_mw + self.leakage_mw


@dataclass(frozen=True)
class ApplicationPower:
    """Power of a full application mapping (one Table 4 section)."""

    name: str
    components: tuple

    @property
    def total_mw(self) -> float:
        """Sum of component totals (the Table 4 TOTAL row)."""
        return sum(c.total_mw for c in self.components)

    @property
    def n_tiles(self) -> int:
        """Total powered tiles across all components."""
        return sum(c.n_tiles for c in self.components)

    @property
    def compute_mw(self) -> float:
        """Dynamic tile power only (light bars of Figure 7)."""
        return sum(c.dynamic_mw for c in self.components)

    @property
    def overhead_mw(self) -> float:
        """Interconnect + leakage (dark bars of Figure 7)."""
        return sum(c.overhead_mw for c in self.components)

    def component(self, name: str) -> ComponentPower:
        """Look up one component's breakdown by name."""
        for comp in self.components:
            if comp.name == name:
                return comp
        raise KeyError(name)


class PowerModel:
    """Evaluates the Section 4.1 equations for component groups."""

    def __init__(
        self,
        tech: TechnologyParameters = PAPER_TECHNOLOGY,
        curve: VoltageFrequencyCurve | None = None,
        u_mw_per_mhz: float | None = None,
        leakage_ma_per_tile: float | None = None,
        rails: Sequence[float] | None = None,
        bus_geometry: BusGeometry | None = None,
    ) -> None:
        self.tech = tech
        self.curve = curve or VoltageFrequencyCurve.from_technology(tech)
        self.u_mw_per_mhz = (
            tech.tile_power_mw_per_mhz if u_mw_per_mhz is None
            else u_mw_per_mhz
        )
        self.v_reference = tech.u_reference_voltage
        self.leakage_ma_per_tile = (
            tech.tile_leakage_ma if leakage_ma_per_tile is None
            else leakage_ma_per_tile
        )
        self.rails = tuple(rails) if rails is not None else tech.voltage_rails
        self.bus_geometry = bus_geometry or BusGeometry(
            width_bits=tech.bus_width_bits,
            n_splits=tech.bus_splits,
            length_mm=tech.bus_length_mm,
        )
        self._wires = WireModel(tech)
        # Exact-input memo for the name-independent terms of
        # component_power: epoch-by-epoch energy ledgers evaluate the
        # same few (tiles, frequency, comm) operating points hundreds
        # of times per run.
        self._component_memo: dict = {}

    def with_leakage(self, leakage_ma_per_tile: float) -> "PowerModel":
        """A copy of this model at a different leakage current."""
        return PowerModel(
            tech=self.tech,
            curve=self.curve,
            u_mw_per_mhz=self.u_mw_per_mhz,
            leakage_ma_per_tile=leakage_ma_per_tile,
            rails=self.rails,
            bus_geometry=self.bus_geometry,
        )

    # ------------------------------------------------------------------
    # primitive terms
    # ------------------------------------------------------------------
    def voltage_for(self, frequency_mhz: float) -> float:
        """Minimum rail supporting ``frequency_mhz`` (Sec 4.1 step 8)."""
        return self.curve.quantize_voltage(frequency_mhz, self.rails)

    def tile_dynamic_mw(
        self, n_tiles: int, frequency_mhz: float, voltage_v: float
    ) -> float:
        """P_tile for one domain: U * (V/V_ref)^2 * f * n."""
        ratio = voltage_v / self.v_reference
        return self.u_mw_per_mhz * ratio * ratio * frequency_mhz * n_tiles

    def bus_mw(
        self, comm: CommProfile, frequency_mhz: float, voltage_v: float
    ) -> float:
        """P_interconnect for one domain's communication pattern."""
        return self._wires.bus_power_mw(
            words_per_cycle=comm.words_per_cycle,
            frequency_mhz=frequency_mhz,
            voltage=voltage_v,
            span_fraction=comm.span_fraction,
            switching_activity=comm.switching_activity,
            geometry=self.bus_geometry,
        )

    def leakage_mw(self, n_tiles: int, voltage_v: float) -> float:
        """P_leakage for ``n_tiles`` powered tiles at ``voltage_v``."""
        return self.leakage_ma_per_tile * voltage_v * n_tiles

    # ------------------------------------------------------------------
    # component / application evaluation
    # ------------------------------------------------------------------
    def component_power(
        self,
        spec: ComponentSpec,
        voltage_override: float | None = None,
    ) -> ComponentPower:
        """Evaluate one component at its own (or an overridden) rail."""
        comm = spec.comm
        key = (
            spec.n_tiles, spec.frequency_mhz,
            voltage_override if voltage_override is not None
            else spec.voltage_v,
            comm.words_per_cycle, comm.span_fraction,
            comm.switching_activity,
        )
        terms = self._component_memo.get(key)
        if terms is None:
            if voltage_override is not None:
                voltage = voltage_override
            elif spec.voltage_v is not None:
                voltage = spec.voltage_v
            else:
                voltage = self.voltage_for(spec.frequency_mhz)
            terms = (
                voltage,
                self.tile_dynamic_mw(
                    spec.n_tiles, spec.frequency_mhz, voltage
                ),
                self.bus_mw(comm, spec.frequency_mhz, voltage),
                self.leakage_mw(spec.n_tiles, voltage),
            )
            self._component_memo[key] = terms
        return ComponentPower(
            name=spec.name,
            n_tiles=spec.n_tiles,
            frequency_mhz=spec.frequency_mhz,
            voltage_v=terms[0],
            dynamic_mw=terms[1],
            bus_mw=terms[2],
            leakage_mw=terms[3],
        )

    def application_power(
        self,
        name: str,
        specs: Iterable[ComponentSpec],
        single_voltage: bool = False,
    ) -> ApplicationPower:
        """Evaluate a whole application mapping.

        ``single_voltage=True`` reruns every component at the highest
        rail any component needs - the baseline the paper compares
        against in Table 4 and Figure 6.
        """
        spec_list = list(specs)
        if not spec_list:
            raise ConfigurationError(f"{name}: application has no components")
        multi = [self.component_power(s) for s in spec_list]
        if not single_voltage:
            return ApplicationPower(name=name, components=tuple(multi))
        v_max = max(c.voltage_v for c in multi)
        pinned = [
            self.component_power(replace(s, voltage_v=None),
                                 voltage_override=v_max)
            for s in spec_list
        ]
        return ApplicationPower(name=name, components=tuple(pinned))


def savings_percent(multi_mw: float, single_mw: float) -> float:
    """Percent power saved by multiple voltage domains (Table 4)."""
    if single_mw <= 0:
        raise ValueError("single-voltage power must be positive")
    return 100.0 * (1.0 - multi_mw / single_mw)
