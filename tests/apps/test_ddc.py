"""Digital Down Converter stages and pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.ddc.cic import CicDecimator, boxcar_reference, cic_gain
from repro.apps.ddc.fir import (
    FirDecimator,
    cic_droop,
    design_cic_compensator,
    design_lowpass,
)
from repro.apps.ddc.mixer import DigitalMixer
from repro.apps.ddc.nco import NumericallyControlledOscillator
from repro.apps.ddc.pipeline import (
    DigitalDownConverter,
    ddc_sdf_graph,
    gsm_configuration,
)
from repro.sdf.analysis import repetition_vector
from repro.sdf.mapping import ColumnAssignment, SdfMapper


class TestNco:
    def test_unit_magnitude(self):
        nco = NumericallyControlledOscillator(1.0e6, 64.0e6)
        samples = nco.samples(256)
        assert np.allclose(np.abs(samples), 1.0, atol=1e-12)

    def test_frequency_accuracy(self):
        nco = NumericallyControlledOscillator(8.0e6, 64.0e6)
        samples = nco.samples(1024)
        spectrum = np.abs(np.fft.fft(samples))
        peak_bin = int(np.argmax(spectrum))
        freqs = np.fft.fftfreq(1024, d=1 / 64.0e6)
        # conjugate LO: energy at -8 MHz
        assert freqs[peak_bin] == pytest.approx(-8.0e6, abs=64.0e6 / 1024)

    def test_resolution(self):
        nco = NumericallyControlledOscillator(1.0e6, 64.0e6)
        assert nco.frequency_resolution_hz == pytest.approx(
            64.0e6 / 2 ** 32
        )
        assert abs(nco.actual_frequency_hz - 1.0e6) \
            <= nco.frequency_resolution_hz

    def test_phase_continuity_across_blocks(self):
        nco_a = NumericallyControlledOscillator(3.0e6, 64.0e6)
        nco_b = NumericallyControlledOscillator(3.0e6, 64.0e6)
        joined = nco_a.samples(100)
        split = np.concatenate([nco_b.samples(37), nco_b.samples(63)])
        assert np.allclose(joined, split)

    def test_validation(self):
        with pytest.raises(ValueError):
            NumericallyControlledOscillator(1.0, 0.0)
        with pytest.raises(ValueError):
            NumericallyControlledOscillator(65.0e6, 64.0e6)
        with pytest.raises(ValueError):
            NumericallyControlledOscillator(1.0e6, 64.0e6, lut_bits=2)


class TestMixer:
    def test_tone_shifts_to_baseband(self):
        nco = NumericallyControlledOscillator(10.0e6, 64.0e6)
        mixer = DigitalMixer(nco)
        n = np.arange(2048)
        tone = np.cos(2 * np.pi * 10.0e6 / 64.0e6 * n)
        mixed = mixer.process(tone)
        dc_power = np.abs(np.mean(mixed))
        assert dc_power == pytest.approx(0.5, abs=0.05)
        assert mixer.samples_processed == 2048

    def test_reset(self):
        nco = NumericallyControlledOscillator(10.0e6, 64.0e6)
        mixer = DigitalMixer(nco)
        first = mixer.process(np.ones(16))
        mixer.reset()
        again = mixer.process(np.ones(16))
        assert np.allclose(first, again)


class TestCic:
    def test_gain(self):
        assert cic_gain(4, 16) == 16 ** 4
        assert cic_gain(1, 2, 3) == 6
        with pytest.raises(ValueError):
            cic_gain(0, 16)

    def test_matches_boxcar_reference(self, rng):
        signal = rng.integers(-5000, 5000, size=640)
        cic = CicDecimator(stages=4, decimation=16)
        out = cic.process(signal)
        ref = boxcar_reference(signal, 4, 16)
        assert np.array_equal(out, ref[:len(out)])

    def test_streaming_equals_batch(self, rng):
        signal = rng.integers(-100, 100, size=256)
        batch = CicDecimator(3, 8).process(signal)
        streaming = CicDecimator(3, 8)
        parts = [streaming.process(signal[i:i + 37])
                 for i in range(0, 256, 37)]
        joined = np.concatenate([p for p in parts if len(p)])
        assert np.array_equal(batch, joined)

    def test_dc_gain_realized(self):
        cic = CicDecimator(stages=2, decimation=4)
        out = cic.process(np.ones(64, dtype=np.int64))
        assert out[-1] == cic.gain

    @given(
        stages=st.integers(1, 4),
        decimation=st.integers(1, 8),
        data=st.lists(st.integers(-1000, 1000), min_size=16,
                      max_size=64),
    )
    @settings(max_examples=30, deadline=None)
    def test_boxcar_equivalence_property(self, stages, decimation, data):
        signal = np.array(data, dtype=np.int64)
        cic = CicDecimator(stages=stages, decimation=decimation)
        out = cic.process(signal)
        ref = boxcar_reference(signal, stages, decimation)
        assert np.array_equal(out, ref[:len(out)])


class TestFir:
    def test_lowpass_design_dc_gain(self):
        taps = design_lowpass(21, 0.4)
        assert np.sum(taps) == pytest.approx(1.0, abs=0.01)

    def test_compensator_flattens_the_passband(self):
        from scipy import signal as sp_signal

        comp = design_cic_compensator(21, 4, 16)
        w, h = sp_signal.freqz(comp, worN=512)
        frequencies = w / np.pi
        band = frequencies <= 0.4
        droop = cic_droop(frequencies[band], 4, 16)
        product = droop * np.abs(h)[band]
        # CIC droop alone dips to 0.66 at the band edge; compensated
        # the response stays within ~11%.
        assert product.max() / product.min() < 1.15
        assert droop.min() < 0.85

    def test_decimation_phase_across_blocks(self, rng):
        coeffs = design_lowpass(15, 0.3)
        signal = rng.standard_normal(200)
        batch = FirDecimator(coeffs, 2).process(signal)
        stream = FirDecimator(coeffs, 2)
        parts = [stream.process(signal[i:i + 33])
                 for i in range(0, 200, 33)]
        joined = np.concatenate([p for p in parts if len(p)])
        assert np.allclose(batch, joined)

    def test_validation(self):
        with pytest.raises(ValueError):
            FirDecimator(np.array([]))
        with pytest.raises(ValueError):
            FirDecimator(np.ones(4), decimation=0)
        with pytest.raises(ValueError):
            design_lowpass(2, 0.4)
        with pytest.raises(ValueError):
            design_cic_compensator(20)  # even tap count


class TestPipeline:
    def test_rates(self):
        config = gsm_configuration()
        assert config.total_decimation == 64
        assert config.output_rate_hz == pytest.approx(1.0e6)

    def test_tone_recovery(self):
        config = gsm_configuration()
        ddc = DigitalDownConverter(config)
        n = np.arange(64 * 64 * 4)
        offset = 50.0e3
        tone = np.cos(
            2 * np.pi * (config.mix_frequency_hz + offset)
            / config.sample_rate_hz * n
        )
        baseband = ddc.process(tone)
        settled = baseband[32:][:192]
        spectrum = np.abs(np.fft.fft(settled))
        freqs = np.fft.fftfreq(len(settled), d=1 / config.output_rate_hz)
        peak = freqs[int(np.argmax(spectrum))]
        assert peak == pytest.approx(offset, abs=config.output_rate_hz
                                     / len(settled))

    def test_out_of_band_rejection(self):
        config = gsm_configuration()
        ddc = DigitalDownConverter(config)
        n = np.arange(64 * 64 * 4)
        in_band = np.cos(
            2 * np.pi * (config.mix_frequency_hz + 50e3)
            / config.sample_rate_hz * n
        )
        out_of_band = np.cos(
            2 * np.pi * (config.mix_frequency_hz + 8.0e6)
            / config.sample_rate_hz * n
        )
        power_in = np.mean(np.abs(ddc.process(in_band)[32:]) ** 2)
        ddc.reset()
        power_out = np.mean(np.abs(ddc.process(out_of_band)[32:]) ** 2)
        assert power_in / max(power_out, 1e-18) > 1.0e4

    def test_sdf_graph_matches_table4(self):
        graph = ddc_sdf_graph()
        q = repetition_vector(graph)
        assert q == {"mixer": 64, "integrator": 64, "comb": 4,
                     "cfir": 2, "pfir": 1}
        app = SdfMapper().map(graph, [
            ColumnAssignment("Digital Mixer", ("mixer",), 8),
            ColumnAssignment("CIC Integrator", ("integrator",), 8),
            ColumnAssignment("CIC Comb", ("comb",), 2),
            ColumnAssignment("CFIR", ("cfir",), 16),
            ColumnAssignment("PFIR", ("pfir",), 16),
        ], iteration_rate_msps=1.0)
        expected = {
            "Digital Mixer": (120.0, 0.8),
            "CIC Integrator": (200.0, 1.0),
            "CIC Comb": (40.0, 0.7),
            "CFIR": (380.0, 1.3),
            "PFIR": (370.0, 1.3),
        }
        for name, (frequency, voltage) in expected.items():
            component = app.component(name)
            assert component.frequency_mhz == pytest.approx(frequency)
            assert component.voltage_v == voltage
