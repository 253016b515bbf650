"""Soft-decision demodulation and the soft receiver."""

import numpy as np
import pytest

from repro.apps.wlan.channel import awgn_channel
from repro.apps.wlan.modulation import Modulator, SoftDemodulator
from repro.apps.wlan.receiver import Receiver
from repro.apps.wlan.transmitter import Transmitter
from repro.errors import ConfigurationError


@pytest.mark.parametrize("n_bpsc", [1, 2, 4, 6])
def test_clean_symbols_round_to_hard_bits(n_bpsc, rng):
    bits = rng.integers(0, 2, n_bpsc * 96).astype(np.uint8)
    points = Modulator(n_bpsc).map_bits(bits)
    soft = SoftDemodulator(n_bpsc).demap_soft(points)
    assert np.array_equal((soft > 0.5).astype(np.uint8), bits)


def test_clean_symbols_are_confident(rng):
    bits = rng.integers(0, 2, 4 * 48).astype(np.uint8)
    points = Modulator(4).map_bits(bits)
    soft = SoftDemodulator(4).demap_soft(points)
    confidence = np.abs(soft - 0.5)
    assert confidence.min() > 0.3


def test_boundary_symbols_are_uncertain():
    """A point on a decision boundary gets a ~0.5 soft value."""
    demod = SoftDemodulator(2)  # QPSK: boundary at 0
    soft = demod.demap_soft(np.array([0.0 + 0.7j]))
    assert soft[0] == pytest.approx(0.5, abs=1e-9)  # I-axis bit


def test_noisier_symbols_are_less_confident(rng):
    bits = rng.integers(0, 2, 6 * 48).astype(np.uint8)
    points = Modulator(6).map_bits(bits)
    demod = SoftDemodulator(6)
    clean = np.abs(demod.demap_soft(points) - 0.5).mean()
    noise = 0.15 * (rng.standard_normal(len(points))
                    + 1j * rng.standard_normal(len(points)))
    noisy = np.abs(demod.demap_soft(points + noise) - 0.5).mean()
    assert noisy < clean


def test_temperature_validation():
    with pytest.raises(ConfigurationError):
        SoftDemodulator(2, temperature=0.0)


def test_soft_receiver_decodes_clean_signal(rng):
    payload = rng.integers(0, 2, 500).astype(np.uint8)
    signal = Transmitter(54).transmit(payload)
    result = Receiver(54, soft=True).receive(signal, payload_bits=500)
    assert np.array_equal(result.bits, payload)


@pytest.mark.parametrize("rate,snr_db", [(54, 17.0), (24, 8.0)])
def test_soft_beats_hard_at_marginal_snr(rate, snr_db, rng):
    """The classic ~2 dB soft-decision gain."""
    payload = rng.integers(0, 2, 2400).astype(np.uint8)
    signal = Transmitter(rate).transmit(payload)
    noisy = awgn_channel(signal, snr_db=snr_db, seed=rate)
    hard = Receiver(rate, soft=False).receive(
        noisy, payload_bits=2400
    ).bits
    soft = Receiver(rate, soft=True).receive(
        noisy, payload_bits=2400
    ).bits
    hard_errors = int(np.sum(hard != payload))
    soft_errors = int(np.sum(soft != payload))
    assert soft_errors < hard_errors
    assert hard_errors > 0  # the SNR is genuinely marginal
