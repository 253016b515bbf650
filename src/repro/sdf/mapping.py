"""Mapping SDF applications onto Synchroscalar columns.

Implements steps 2-8 of the Section 4.1 procedure: partition actors
over column groups, derive each group's clock from its cycles-per-
iteration and the application's target iteration rate, quantize the
supply voltage on the V-f curve, choose integer clock dividers off the
reference PLL, and compute Zero-Overhead Rate-Matching settings for
columns whose divided clock runs faster than the task needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import MappingError
from repro.arch.rate_match import rate_match_settings
from repro.power.interconnect import CommProfile
from repro.power.model import ComponentSpec
from repro.sdf.analysis import repetition_vector
from repro.sdf.graph import SdfGraph
from repro.tech.parameters import PAPER_TECHNOLOGY
from repro.tech.vf_curve import VoltageFrequencyCurve


@dataclass(frozen=True)
class ColumnAssignment:
    """A named column group and the actors it executes."""

    name: str
    actors: tuple
    n_tiles: int

    def __post_init__(self) -> None:
        if not self.actors:
            raise MappingError(f"{self.name}: no actors assigned")
        if self.n_tiles < 1:
            raise MappingError(f"{self.name}: needs at least one tile")


@dataclass(frozen=True)
class MappedComponent:
    """One column group with its derived operating point."""

    name: str
    actors: tuple
    n_tiles: int
    cycles_per_iteration: float
    frequency_mhz: float
    voltage_v: float

    @property
    def n_columns(self) -> int:
        """Whole columns of four tiles this component occupies."""
        return math.ceil(self.n_tiles / PAPER_TECHNOLOGY.tiles_per_column)


@dataclass(frozen=True)
class MappedApplication:
    """A fully mapped application ready for power evaluation."""

    name: str
    iteration_rate_msps: float
    components: tuple

    def component(self, name: str) -> MappedComponent:
        """Look up a component by name."""
        for comp in self.components:
            if comp.name == name:
                return comp
        raise KeyError(name)

    @property
    def n_tiles(self) -> int:
        """Powered tiles over all components."""
        return sum(c.n_tiles for c in self.components)

    @property
    def max_frequency_mhz(self) -> float:
        """The reference (bus/DOU) frequency of this design."""
        return max(c.frequency_mhz for c in self.components)

    def component_specs(self, comm_profiles: dict | None = None) -> list:
        """Bridge to :class:`repro.power.model.PowerModel` inputs."""
        comm_profiles = comm_profiles or {}
        return [
            ComponentSpec(
                name=comp.name,
                n_tiles=comp.n_tiles,
                frequency_mhz=comp.frequency_mhz,
                comm=comm_profiles.get(comp.name, CommProfile()),
                voltage_v=comp.voltage_v,
            )
            for comp in self.components
        ]

    def clock_dividers(self, reference_mhz: float | None = None) -> dict:
        """Integer dividers giving each component a clock >= its need.

        Returns ``{component name: (divider, actual_mhz, zorm)}`` where
        ``zorm`` is the (interval, nops) throttling that matches the
        divided clock back down to the required computational rate
        (Section 2.4).
        """
        reference = reference_mhz or self.max_frequency_mhz
        plan = {}
        for comp in self.components:
            divider = max(1, int(reference // comp.frequency_mhz))
            actual = reference / divider
            if actual < comp.frequency_mhz:
                divider = max(1, divider - 1)
                actual = reference / divider
            zorm = rate_match_settings(actual, comp.frequency_mhz)
            plan[comp.name] = (divider, actual, zorm)
        return plan


class SdfMapper:
    """Derives operating points from an SDF graph and assignments."""

    def __init__(
        self,
        curve: VoltageFrequencyCurve | None = None,
        rails: tuple | None = None,
    ) -> None:
        self.curve = curve or VoltageFrequencyCurve.from_technology()
        self.rails = rails or PAPER_TECHNOLOGY.voltage_rails

    def map(
        self,
        graph: SdfGraph,
        assignments: list,
        iteration_rate_msps: float,
        name: str | None = None,
    ) -> MappedApplication:
        """Produce a :class:`MappedApplication`.

        ``iteration_rate_msps`` is graph iterations per microsecond
        (equivalently, millions of iterations per second); for a
        stream processing one input sample per iteration this is the
        input rate in MS/s.
        """
        if iteration_rate_msps <= 0:
            raise MappingError("iteration rate must be positive")
        repetitions = repetition_vector(graph)
        assigned: dict = {}
        for assignment in assignments:
            for actor in assignment.actors:
                if actor not in graph.actors:
                    raise MappingError(
                        f"{assignment.name}: unknown actor {actor!r}"
                    )
                if actor in assigned:
                    raise MappingError(
                        f"actor {actor!r} assigned to both "
                        f"{assigned[actor]!r} and {assignment.name!r}"
                    )
                assigned[actor] = assignment.name
        missing = set(graph.actors) - set(assigned)
        if missing:
            raise MappingError(f"unassigned actors: {sorted(missing)}")

        components = []
        for assignment in assignments:
            cycles = 0.0
            for actor_name in assignment.actors:
                actor = graph.actor(actor_name)
                work = repetitions[actor_name] * actor.cycles_per_firing
                cycles += work / assignment.n_tiles
            frequency = cycles * iteration_rate_msps
            voltage = self.curve.quantize_voltage(frequency, self.rails)
            components.append(MappedComponent(
                name=assignment.name,
                actors=tuple(assignment.actors),
                n_tiles=assignment.n_tiles,
                cycles_per_iteration=cycles,
                frequency_mhz=frequency,
                voltage_v=voltage,
            ))
        return MappedApplication(
            name=name or graph.name,
            iteration_rate_msps=iteration_rate_msps,
            components=tuple(components),
        )
