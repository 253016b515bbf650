"""Voltage-frequency curve (paper Figure 5, Section 4.2).

The paper SPICEs a 20 FO4 critical path against the Berkeley Predictive
Technology Model, then "captures the graph as a look-up table to
determine the appropriate voltage of operation of a tile given the
frequency".  We substitute the SPICE sweep with an anchored, monotone
lookup table whose quantization behaviour reproduces **every** observed
(frequency, voltage) pair in the paper:

* Table 4 assignments: 40/60/70 MHz -> 0.7 V, 90/110/120 -> 0.8 V,
  200 -> 1.0 V, 280 -> 1.1 V, 310/330 -> 1.2 V, 370/380 -> 1.3 V,
  500 -> 1.5 V, 540 -> 1.7 V;
* the Section 2 DDC example (mixer 120 MHz @ 0.8 V, integrator
  200 MHz @ 1.0 V);
* Table 1 anchors (600 MHz at 1.65 V for a 20 FO4 path).

Interpolation between anchors uses PCHIP, which preserves monotonicity.
The 15 FO4 variant of Figure 5 scales frequency by 20/15 at equal
voltage (a k-FO4 path is 20/k times faster than a 20 FO4 path).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence

from repro.errors import FrequencyRangeError
from repro.tech.parameters import PAPER_TECHNOLOGY, TechnologyParameters

#: (voltage V, max frequency MHz) anchors for the reference 20 FO4 path.
#: Chosen so the discrete-rail quantization matches every paper pair;
#: see the module docstring and tests/tech/test_vf_curve.py.
ANCHORS_20FO4 = (
    (0.60, 30.0),
    (0.70, 80.0),
    (0.80, 150.0),
    (0.90, 185.0),
    (1.00, 230.0),
    (1.10, 300.0),
    (1.20, 350.0),
    (1.30, 420.0),
    (1.40, 465.0),
    (1.50, 520.0),
    (1.65, 600.0),
    (1.80, 680.0),
    (2.00, 780.0),
    (2.12, 840.0),
)


def _sign(value: float) -> int:
    return (value > 0) - (value < 0)


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end slope, kept shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(xs: Sequence[float], ys: Sequence[float]) -> tuple:
    """Per-interval cubic coefficients ``(c0, c1, c2, c3)`` of PCHIP.

    Follows ``scipy.interpolate.PchipInterpolator`` operation for
    operation, so the curve is bit-identical to scipy's: an interior
    slope is zero where the neighbouring secants differ in sign or
    either is zero, and their weighted harmonic mean otherwise.
    """
    hs = [b - a for a, b in zip(xs, xs[1:])]
    ms = [(b - a) / h for a, b, h in zip(ys, ys[1:], hs)]
    if len(ms) == 1:
        slopes = ms * 2  # two anchors: a straight line
    else:
        slopes = [_end_slope(hs[0], hs[1], ms[0], ms[1])]
        for h0, h1, m0, m1 in zip(hs, hs[1:], ms, ms[1:]):
            w1, w2 = 2 * h1 + h0, h1 + 2 * h0
            slopes.append(
                0.0 if _sign(m0) * _sign(m1) <= 0
                else 1.0 / ((w1 / m0 + w2 / m1) / (w1 + w2))
            )
        slopes.append(_end_slope(hs[-1], hs[-2], ms[-1], ms[-2]))
    coefficients = []
    for h, m, y, d0, d1 in zip(hs, ms, ys, slopes, slopes[1:]):
        t = (d0 + d1 - 2 * m) / h
        coefficients.append((t / h, (m - d0) / h - t, d0, y))
    return tuple(coefficients)


#: Shared curve instances keyed by FO4 depth (see ``from_technology``).
_CURVES_BY_DEPTH: dict = {}


class VoltageFrequencyCurve:
    """Monotone mapping between supply voltage and maximum frequency.

    Parameters
    ----------
    anchors:
        ``(voltage, f_max_mhz)`` pairs, strictly increasing in both
        coordinates. Defaults to the calibrated 20 FO4 table.
    fo4_depth:
        Critical-path depth in FO4 delays. Frequencies scale by
        ``reference_fo4 / fo4_depth`` relative to the anchor table.
    reference_fo4:
        The depth at which the anchors were taken (20, per the paper).
    """

    def __init__(
        self,
        anchors: Sequence[tuple] = ANCHORS_20FO4,
        fo4_depth: float = 20.0,
        reference_fo4: float = 20.0,
    ) -> None:
        if len(anchors) < 2:
            raise ValueError("need at least two anchors")
        voltages = [v for v, _ in anchors]
        freqs = [f for _, f in anchors]
        if voltages != sorted(voltages) or len(set(voltages)) != len(voltages):
            raise ValueError("anchor voltages must be strictly increasing")
        if freqs != sorted(freqs) or len(set(freqs)) != len(freqs):
            raise ValueError("anchor frequencies must be strictly increasing")
        if fo4_depth <= 0:
            raise ValueError("fo4_depth must be positive")
        self._voltages = tuple(voltages)
        self._freqs = tuple(freqs)
        self.fo4_depth = float(fo4_depth)
        self._speedup = reference_fo4 / float(fo4_depth)
        self._coefficients = _pchip_coefficients(voltages, freqs)
        # Exact-input memo tables.  Governed runs evaluate the curve at
        # the same handful of ladder frequencies every epoch; keying on
        # the exact float keeps results bit-identical while skipping
        # the spline evaluation (and, for the inverse, the bisection).
        self._fmax_memo: dict = {}
        self._vmin_memo: dict = {}

    @classmethod
    def from_technology(
        cls,
        tech: TechnologyParameters = PAPER_TECHNOLOGY,
        fo4_depth: float = 20.0,
    ) -> "VoltageFrequencyCurve":
        """Build the paper's curve for a given critical-path depth.

        Instances are shared per ``fo4_depth``: the anchor table is a
        module constant and the curve is a pure function of its inputs,
        so every caller at the same depth can use the same (memoised)
        spline instead of refitting it per chip build.
        """
        curve = _CURVES_BY_DEPTH.get(fo4_depth)
        if curve is None:
            curve = cls(ANCHORS_20FO4, fo4_depth=fo4_depth)
            _CURVES_BY_DEPTH[fo4_depth] = curve
        return curve

    @property
    def v_floor(self) -> float:
        """Lowest modelled voltage."""
        return self._voltages[0]

    @property
    def v_ceiling(self) -> float:
        """Highest modelled voltage."""
        return self._voltages[-1]

    def max_frequency_mhz(self, voltage: float) -> float:
        """Maximum clock rate sustainable at ``voltage``.

        Raises
        ------
        FrequencyRangeError
            If ``voltage`` lies outside the modelled range.
        """
        memo = self._fmax_memo.get(voltage)
        if memo is not None:
            return memo
        if not self.v_floor <= voltage <= self.v_ceiling:
            raise FrequencyRangeError(
                f"voltage {voltage} V outside modelled range "
                f"[{self.v_floor}, {self.v_ceiling}] V"
            )
        result = self._spline(voltage) * self._speedup
        self._fmax_memo[voltage] = result
        return result

    def _spline(self, voltage: float) -> float:
        """The anchor PCHIP at an in-range voltage, unscaled."""
        voltages = self._voltages
        # The top anchor belongs to the last interval.
        k = min(bisect_right(voltages, voltage), len(voltages) - 1) - 1
        c0, c1, c2, c3 = self._coefficients[k]
        s = float(voltage) - voltages[k]
        return c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)

    def min_voltage_for(self, frequency_mhz: float) -> float:
        """Continuous minimum supply voltage supporting ``frequency_mhz``.

        This is the inverse of :meth:`max_frequency_mhz`, computed by
        bisection on the forward curve so that
        ``max_frequency_mhz(min_voltage_for(f)) >= f`` always holds.
        """
        memo = self._vmin_memo.get(frequency_mhz)
        if memo is not None:
            return memo
        if frequency_mhz <= 0:
            raise FrequencyRangeError("frequency must be positive")
        f_lo = self.max_frequency_mhz(self.v_floor)
        f_hi = self.max_frequency_mhz(self.v_ceiling)
        if frequency_mhz <= f_lo:
            result = self.v_floor
        elif frequency_mhz > f_hi:
            raise FrequencyRangeError(
                f"{frequency_mhz} MHz exceeds the {f_hi:.0f} MHz ceiling "
                f"at {self.v_ceiling} V"
            )
        else:
            # fmax(low) < f <= fmax(high) throughout; the upper bracket
            # is returned, so the guarantee holds exactly.
            low, high = self.v_floor, self.v_ceiling
            middle = (low + high) / 2
            while low < middle < high:
                if self.max_frequency_mhz(middle) >= frequency_mhz:
                    high = middle
                else:
                    low = middle
                middle = (low + high) / 2
            result = high
        self._vmin_memo[frequency_mhz] = result
        return result

    def quantize_voltage(
        self,
        frequency_mhz: float,
        rails: Iterable[float] | None = None,
    ) -> float:
        """Lowest discrete voltage rail that supports ``frequency_mhz``.

        ``rails`` defaults to the paper's Table 4 supply set.  This is
        the operation the paper performs with its SPICE lookup table
        (Section 4.1, step 8).
        """
        if rails is None:
            rails = PAPER_TECHNOLOGY.voltage_rails
        if frequency_mhz <= 0:
            raise FrequencyRangeError("frequency must be positive")
        for rail in sorted(rails):
            if self.max_frequency_mhz(rail) >= frequency_mhz:
                return rail
        raise FrequencyRangeError(
            f"no rail in {sorted(rails)} supports {frequency_mhz} MHz"
        )

    def sweep(self, voltages: Iterable[float]) -> list:
        """Evaluate the curve over many voltages (Figure 5 series)."""
        return [(v, self.max_frequency_mhz(v)) for v in voltages]
