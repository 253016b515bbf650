"""Synchronous dataflow graphs.

An :class:`Actor` is a computational task with a fixed cost in tile
cycles per firing; an :class:`Edge` is a FIFO channel on which the
producer emits a constant number of tokens per firing and the consumer
absorbs a constant number - the defining restriction of SDF that
"offers the advantage of static scheduling and decidability"
(Section 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SdfError


@dataclass(frozen=True)
class Actor:
    """One SDF task.

    ``cycles_per_firing`` is the tile-cycle cost of one firing on one
    tile (measured on the cycle-level simulator or profiled
    analytically); ``parallel_tiles`` is how many tiles the firing is
    spread across when mapped.
    """

    name: str
    cycles_per_firing: float = 1.0
    parallel_tiles: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise SdfError("actor needs a name")
        if self.cycles_per_firing < 0:
            raise SdfError(f"{self.name}: negative firing cost")
        if self.parallel_tiles < 1:
            raise SdfError(f"{self.name}: needs at least one tile")


@dataclass(frozen=True)
class Edge:
    """A FIFO channel with constant production/consumption rates."""

    src: str
    dst: str
    produce: int
    consume: int
    initial_tokens: int = 0

    def __post_init__(self) -> None:
        if self.produce < 1 or self.consume < 1:
            raise SdfError(
                f"{self.src}->{self.dst}: rates must be positive integers"
            )
        if self.initial_tokens < 0:
            raise SdfError(
                f"{self.src}->{self.dst}: negative initial tokens"
            )


class SdfGraph:
    """A mutable SDF graph with validation and graph-theory views."""

    def __init__(self, name: str = "sdf") -> None:
        self.name = name
        self._actors: dict = {}
        self._edges: list = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_actor(
        self,
        name: str,
        cycles_per_firing: float = 1.0,
        parallel_tiles: int = 1,
    ) -> Actor:
        """Add an actor; names must be unique."""
        if name in self._actors:
            raise SdfError(f"duplicate actor {name!r}")
        actor = Actor(name, cycles_per_firing, parallel_tiles)
        self._actors[name] = actor
        return actor

    def add_edge(
        self,
        src: str,
        dst: str,
        produce: int,
        consume: int,
        initial_tokens: int = 0,
    ) -> Edge:
        """Connect two existing actors with a rated channel."""
        for endpoint in (src, dst):
            if endpoint not in self._actors:
                raise SdfError(f"unknown actor {endpoint!r}")
        edge = Edge(src, dst, produce, consume, initial_tokens)
        self._edges.append(edge)
        return edge

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def actors(self) -> dict:
        """Name -> :class:`Actor` mapping (insertion order)."""
        return dict(self._actors)

    @property
    def edges(self) -> list:
        """All channels."""
        return list(self._edges)

    def actor(self, name: str) -> Actor:
        """Look up one actor."""
        try:
            return self._actors[name]
        except KeyError:
            raise SdfError(f"unknown actor {name!r}") from None

    def out_edges(self, name: str) -> list:
        """Channels produced by ``name``."""
        return [e for e in self._edges if e.src == name]

    def in_edges(self, name: str) -> list:
        """Channels consumed by ``name``."""
        return [e for e in self._edges if e.dst == name]

    def is_connected(self) -> bool:
        """Whether the graph is weakly connected (one application)."""
        if not self._actors:
            return False
        # Grow the set reached from the first actor across channels in
        # either direction until no channel leaves it.
        reached = {next(iter(self._actors))}
        grew = True
        while grew:
            grew = False
            for edge in self._edges:
                if (edge.src in reached) != (edge.dst in reached):
                    reached |= {edge.src, edge.dst}
                    grew = True
        return len(reached) == len(self._actors)

    def sources(self) -> list:
        """Actors with no inputs (application entry points)."""
        return [n for n in self._actors if not self.in_edges(n)]

    def sinks(self) -> list:
        """Actors with no outputs (application exits)."""
        return [n for n in self._actors if not self.out_edges(n)]
