"""Automatic parallelization (the paper's future work, Section 7).

Section 5.5 sketches the policy a Synchroscalar compilation tool
should implement: "parallelize applications so that they are running
as close to the voltage floor as possible", because once a component
sits at the floor rail, more tiles only add leakage and communication.

:class:`ParallelizationOptimizer` implements that policy as a greedy
marginal-gain search over tile allocations: start from the smallest
feasible allocation (every component must fit under the top rail),
then repeatedly give one more tile to whichever component's power
drops the most, stopping at the tile budget or when no addition helps.
Power is evaluated with the full Section 4.1 model, so the voltage
floor, rail quantization, leakage growth, and communication scaling
all shape the search exactly as they do in Figures 7, 9, and 10.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FrequencyRangeError, MappingError
from repro.power.model import PowerModel
from repro.tech.parameters import PAPER_TECHNOLOGY
from repro.workloads.parallel import ParallelComponent


@dataclass(frozen=True)
class AllocationStep:
    """One accepted move of the greedy search."""

    component: str
    tiles_after: int
    power_before_mw: float
    power_after_mw: float

    @property
    def gain_mw(self) -> float:
        """Power saved by this move."""
        return self.power_before_mw - self.power_after_mw


@dataclass(frozen=True)
class OptimizationResult:
    """Final allocation with its evaluated power and search history."""

    allocations: dict
    power_mw: float
    tile_budget: int
    history: tuple

    @property
    def tiles_used(self) -> int:
        """Tiles consumed by the final allocation."""
        return sum(self.allocations.values())


class ParallelizationOptimizer:
    """Greedy tile allocator over :class:`ParallelComponent` models."""

    def __init__(
        self,
        model: PowerModel | None = None,
        max_tiles_per_component: int = 64,
    ) -> None:
        self.model = model or PowerModel(
            rails=PAPER_TECHNOLOGY.exploration_rails
        )
        self.max_tiles_per_component = max_tiles_per_component

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def component_power_mw(
        self, component: ParallelComponent, n_tiles: int
    ) -> float | None:
        """Power at one allocation; None when infeasible."""
        try:
            spec = component.spec_at(n_tiles)
            return self.model.component_power(spec).total_mw
        except FrequencyRangeError:
            return None

    def minimum_feasible_tiles(
        self, component: ParallelComponent
    ) -> int:
        """Fewest tiles whose frequency fits under the top rail."""
        for n_tiles in range(1, self.max_tiles_per_component + 1):
            if self.component_power_mw(component, n_tiles) is not None:
                return n_tiles
        raise MappingError(
            f"{component.name}: infeasible even with "
            f"{self.max_tiles_per_component} tiles"
        )

    def _total(self, components: list, allocation: dict) -> float:
        total = 0.0
        for component in components:
            power = self.component_power_mw(
                component, allocation[component.name]
            )
            if power is None:
                return float("inf")
            total += power
        return total

    def next_rail_crossing(
        self, component: ParallelComponent, n_tiles: int
    ) -> int | None:
        """Smallest tile count that drops the component's rail.

        Adding tiles without crossing a voltage rail can only hurt
        (the efficiency penalty raises aggregate MHz-tiles, and
        leakage and communication grow), so rail crossings are the
        only moves worth evaluating.
        """
        try:
            current_rail = self.model.voltage_for(
                component.frequency_at(n_tiles)
            )
        except FrequencyRangeError:
            return None
        for m_tiles in range(n_tiles + 1,
                             self.max_tiles_per_component + 1):
            try:
                rail = self.model.voltage_for(
                    component.frequency_at(m_tiles)
                )
            except FrequencyRangeError:
                continue
            if rail < current_rail:
                return m_tiles
        return None

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def optimize(
        self,
        components: list,
        tile_budget: int,
        min_gain_mw: float = 1e-6,
    ) -> OptimizationResult:
        """Allocate up to ``tile_budget`` tiles to minimize power.

        Greedy over rail-crossing moves: each step jumps one component
        to the smallest tile count that lowers its supply rail,
        choosing the jump with the best power gain per step.

        Raises
        ------
        MappingError
            If even the minimum feasible allocation exceeds the budget.
        """
        if not components:
            raise MappingError("no components to allocate")
        allocation = {
            component.name: self.minimum_feasible_tiles(component)
            for component in components
        }
        if sum(allocation.values()) > tile_budget:
            raise MappingError(
                f"minimum feasible allocation needs "
                f"{sum(allocation.values())} tiles; budget is "
                f"{tile_budget}"
            )
        current = self._total(components, allocation)
        history = []
        while True:
            used = sum(allocation.values())
            best = None
            for component in components:
                tiles = allocation[component.name]
                target = self.next_rail_crossing(component, tiles)
                if target is None:
                    continue
                if used - tiles + target > tile_budget:
                    continue
                trial = dict(allocation)
                trial[component.name] = target
                power = self._total(components, trial)
                gain = current - power
                if gain > min_gain_mw and (
                    best is None or gain > best[0]
                ):
                    best = (gain, component.name, target, power)
            if best is None:
                break
            _, name, target, power = best
            allocation[name] = target
            history.append(AllocationStep(
                component=name,
                tiles_after=target,
                power_before_mw=current,
                power_after_mw=power,
            ))
            current = power
        return OptimizationResult(
            allocations=dict(allocation),
            power_mw=current,
            tile_budget=tile_budget,
            history=tuple(history),
        )

    def voltage_floor_reached(
        self, components: list, allocation: dict
    ) -> bool:
        """Whether every component already runs at the floor rail.

        The Section 5.5 stopping criterion: at the floor, further
        parallelization cannot reduce dynamic power.
        """
        floor = min(self.model.rails)
        for component in components:
            spec = component.spec_at(allocation[component.name])
            if self.model.voltage_for(spec.frequency_mhz) > floor:
                return False
        return True
