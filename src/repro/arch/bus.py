"""Segmented bus model (paper Section 2.3, Figure 2).

A Synchroscalar bus is ``width`` bits grouped into separable 32-bit
splits.  Between each pair of adjacent positions sits a segment
controller per split; closing a run of switches fuses adjacent
segments into one electrical net.  With every switch closed the split
is a broadcast bus; with switches open, disjoint segments carry
independent transfers in the same cycle - the property that gives
Synchroscalar mesh-like local bandwidth (Section 2.3).
"""

from __future__ import annotations

from repro.errors import SimulationError


class SegmentedBus:
    """One bus run with ``n_positions`` taps and ``n_splits`` splits.

    Positions are numbered 0..n_positions-1; boundary ``b`` sits
    between positions ``b`` and ``b+1``.  Switch state is configured
    per cycle by a DOU before transfers resolve.
    """

    def __init__(self, name: str, n_positions: int, n_splits: int = 8) -> None:
        if n_positions < 2:
            raise ValueError("a bus needs at least two positions")
        if n_splits < 1:
            raise ValueError("a bus needs at least one split")
        self.name = name
        self.n_positions = n_positions
        self.n_splits = n_splits
        self.n_boundaries = n_positions - 1
        # closed[split][boundary] -> bool
        self._closed = [
            [False] * self.n_boundaries for _ in range(n_splits)
        ]
        self.words_moved = 0
        self.cycles_with_traffic = 0

    def configure(self, closed: frozenset) -> None:
        """Set switch state from a set of (split, boundary) pairs."""
        for split in range(self.n_splits):
            for boundary in range(self.n_boundaries):
                self._closed[split][boundary] = (split, boundary) in closed
        for split, boundary in closed:
            if not 0 <= split < self.n_splits:
                raise SimulationError(
                    f"{self.name}: split {split} out of range"
                )
            if not 0 <= boundary < self.n_boundaries:
                raise SimulationError(
                    f"{self.name}: boundary {boundary} out of range"
                )

    def is_closed(self, split: int, boundary: int) -> bool:
        """Whether one segment switch is currently closed."""
        return self._closed[split][boundary]

    def segment_of(self, split: int, position: int) -> int:
        """Identifier of the electrical segment at (split, position).

        Two positions share a segment iff every switch between them is
        closed; the identifier is the lowest position in the run.
        """
        if not 0 <= position < self.n_positions:
            raise SimulationError(
                f"{self.name}: position {position} out of range"
            )
        start = position
        while start > 0 and self._closed[split][start - 1]:
            start -= 1
        return start

    def connected(self, split: int, a: int, b: int) -> bool:
        """Whether positions a and b share a segment on ``split``."""
        return self.segment_of(split, a) == self.segment_of(split, b)

    def resolve(self, drives: list, captures: list) -> dict:
        """Propagate driven values and return captured words.

        ``drives`` is a list of ``(position, split, value)``;
        ``captures`` is a list of ``(position, split)``.  Returns a
        mapping from each capture to its value, or ``None`` when its
        segment is undriven (callers decide whether that is an error).
        Two drivers on one segment is always a structural hazard
        (Section 4.1, step 5) and raises.
        """
        segment_values: dict = {}
        for position, split, value in drives:
            key = (split, self.segment_of(split, position))
            if key in segment_values:
                raise SimulationError(
                    f"{self.name}: bus conflict on split {split} "
                    f"segment {key[1]} (two drivers in one cycle)"
                )
            segment_values[key] = value & 0xFFFFFFFF
        results: dict = {}
        for position, split in captures:
            key = (split, self.segment_of(split, position))
            results[(position, split)] = segment_values.get(key)
        if drives:
            self.words_moved += len(drives)
            self.cycles_with_traffic += 1
        return results

    def span_of_transfer(self, split: int, src: int, dst: int) -> float:
        """Fraction of the bus length a src->dst transfer charges.

        Used to derive :class:`repro.power.interconnect.CommProfile`
        span fractions from simulated schedules: only the segments
        between source and destination (inclusive) switch.
        """
        if not self.connected(split, src, dst):
            raise SimulationError(
                f"{self.name}: positions {src} and {dst} not connected "
                f"on split {split}"
            )
        hops = abs(dst - src) + 1
        return hops / self.n_positions
