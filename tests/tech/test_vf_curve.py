"""The V-f curve must reproduce every (f, V) pair the paper reports."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.interpolate import PchipInterpolator

import repro
from repro.errors import FrequencyRangeError
from repro.tech.parameters import PAPER_TECHNOLOGY
from repro.tech.vf_curve import ANCHORS_20FO4, VoltageFrequencyCurve

#: Every frequency-to-rail assignment appearing in Table 4 or the
#: Section 2 DDC example.
PAPER_PAIRS = [
    (40.0, 0.7), (60.0, 0.7), (70.0, 0.7),
    (90.0, 0.8), (110.0, 0.8), (120.0, 0.8),
    (200.0, 1.0),
    (280.0, 1.1),
    (310.0, 1.2), (330.0, 1.2),
    (370.0, 1.3), (380.0, 1.3),
    (500.0, 1.5),
    (540.0, 1.7),
]


@pytest.mark.parametrize("frequency,rail", PAPER_PAIRS)
def test_quantizes_to_paper_rail(curve, frequency, rail):
    assert curve.quantize_voltage(frequency) == pytest.approx(rail)


def test_table1_max_frequency_anchor(curve, tech):
    assert curve.max_frequency_mhz(tech.v_max) == pytest.approx(
        tech.f_max_mhz, rel=0.01
    )


def test_15fo4_is_faster_by_golden_ratio():
    c20 = VoltageFrequencyCurve.from_technology(fo4_depth=20)
    c15 = VoltageFrequencyCurve.from_technology(fo4_depth=15)
    for voltage in (0.7, 1.0, 1.3, 1.65):
        assert c15.max_frequency_mhz(voltage) == pytest.approx(
            c20.max_frequency_mhz(voltage) * 20.0 / 15.0
        )


def test_out_of_range_voltage_raises(curve):
    with pytest.raises(FrequencyRangeError):
        curve.max_frequency_mhz(0.3)
    with pytest.raises(FrequencyRangeError):
        curve.max_frequency_mhz(3.0)


def test_too_fast_frequency_raises(curve):
    with pytest.raises(FrequencyRangeError):
        curve.min_voltage_for(5000.0)
    with pytest.raises(FrequencyRangeError):
        curve.quantize_voltage(5000.0)


def test_min_voltage_below_floor_clamps(curve):
    assert curve.min_voltage_for(1.0) == curve.v_floor


def test_anchor_validation_rejects_non_monotone():
    with pytest.raises(ValueError):
        VoltageFrequencyCurve([(0.7, 100.0), (0.8, 90.0)])
    with pytest.raises(ValueError):
        VoltageFrequencyCurve([(0.8, 100.0), (0.7, 200.0)])
    with pytest.raises(ValueError):
        VoltageFrequencyCurve([(0.7, 100.0)])


def test_sweep_matches_pointwise(curve):
    points = curve.sweep([0.7, 1.0, 1.3])
    for voltage, frequency in points:
        assert frequency == curve.max_frequency_mhz(voltage)


@given(st.floats(min_value=0.60, max_value=2.12))
def test_monotone_in_voltage(voltage):
    curve = VoltageFrequencyCurve.from_technology()
    delta = 0.05
    if voltage + delta <= 2.12:
        assert (curve.max_frequency_mhz(voltage + delta)
                >= curve.max_frequency_mhz(voltage))


@given(st.floats(min_value=10.0, max_value=800.0))
def test_quantization_is_sound(frequency):
    """The returned rail always actually supports the frequency."""
    curve = VoltageFrequencyCurve.from_technology()
    tech_rails = (0.7, 0.8, 1.0, 1.1, 1.2, 1.3, 1.5, 1.7, 1.9, 2.1)
    try:
        rail = curve.quantize_voltage(frequency, tech_rails)
    except FrequencyRangeError:
        return
    assert curve.max_frequency_mhz(rail) >= frequency
    # minimality: no lower rail would do
    lower = [r for r in tech_rails if r < rail]
    if lower:
        assert curve.max_frequency_mhz(max(lower)) < frequency


@given(st.floats(min_value=31.0, max_value=830.0))
def test_min_voltage_inverse_property(frequency):
    """fmax(min_voltage_for(f)) >= f."""
    curve = VoltageFrequencyCurve.from_technology()
    voltage = curve.min_voltage_for(frequency)
    assert curve.max_frequency_mhz(voltage) >= frequency


def test_anchors_are_the_published_table():
    assert ANCHORS_20FO4[0] == (0.60, 30.0)
    assert (1.65, 600.0) in ANCHORS_20FO4


@pytest.mark.parametrize("depth", [20.0, 15.0])
def test_spline_is_scipy_pchip_bit_for_bit(depth):
    """The pure-Python PCHIP equals scipy's at every probed voltage."""
    voltages = [v for v, _ in ANCHORS_20FO4]
    reference = PchipInterpolator(voltages, [f for _, f in ANCHORS_20FO4])
    rng = np.random.default_rng(2004)
    probes = np.concatenate([
        voltages,
        PAPER_TECHNOLOGY.voltage_rails,
        rng.uniform(voltages[0], voltages[-1], 100_000),
    ])
    curve = VoltageFrequencyCurve(ANCHORS_20FO4, fo4_depth=depth)
    speedup = 20.0 / depth
    expected = (reference(probes) * speedup).tolist()
    mismatched = [
        voltage for voltage, value in zip(probes.tolist(), expected)
        if curve.max_frequency_mhz(voltage) != value
    ]
    assert not mismatched, f"{len(mismatched)} voltages, first {mismatched[0]}"


def test_two_anchor_curve_is_scipy_straight_line():
    anchors = [(0.7, 100.0), (1.3, 400.0)]
    reference = PchipInterpolator(*zip(*anchors))
    curve = VoltageFrequencyCurve(anchors)
    for voltage in np.linspace(0.7, 1.3, 101).tolist():
        assert curve.max_frequency_mhz(voltage) == float(reference(voltage))


#: Module lists and the modules each must not load.  The governed
#: corpus stack (scenario generation, both engines, the governors, the
#: ledger and the batch executor) is pure Python.  The warm
#: kernel-replay stack (DDC stream and mixed-divider chips, FIR and ACS
#: kernels, the governed WLAN burst) needs numpy for its kernels, but
#: neither scipy nor the runner, which imports every table and figure.
LEAN_IMPORTS = (
    (("repro.workloads.generate", "repro.workloads.coordinated",
      "repro.workloads.dvfs", "repro.sim.batch"),
     ("numpy", "scipy", "networkx")),
    (("repro.eval.engines", "repro.kernels.base", "repro.kernels.fir",
      "repro.kernels.viterbi_acs", "repro.sim.simulator",
      "repro.workloads.dvfs"),
     ("scipy", "networkx", "repro.eval.runner")),
)


def test_governed_path_imports_no_scipy():
    """The V-f curve and the scenario stream are pure Python, package
    ``__init__`` files import nothing, and the evaluation modules read
    ``BENCH_SMOKE`` from a leaf module, so neither stack loads what it
    does not use."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    for modules, banned in LEAN_IMPORTS:
        code = (
            f"import sys, {', '.join(modules)};"
            "print(sorted(m for m in sys.modules if any("
            f"m == b or m.startswith(b + '.') for b in {banned!r})))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]", modules
