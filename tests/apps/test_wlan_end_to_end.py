"""802.11a transmitter -> channel -> receiver, at every rate."""

import numpy as np
import pytest

from repro.apps.wlan.channel import awgn_channel, flat_fading_channel
from repro.apps.wlan.receiver import Receiver
from repro.apps.wlan.transmitter import Transmitter
from repro.apps.wlan.frame import RATE_TABLE, SYMBOL_SAMPLES
from repro.errors import ConfigurationError


@pytest.mark.parametrize("rate", sorted(RATE_TABLE))
def test_noiseless_roundtrip(rate, rng):
    payload = rng.integers(0, 2, 500).astype(np.uint8)
    signal = Transmitter(rate).transmit(payload)
    result = Receiver(rate).receive(signal, payload_bits=500)
    assert np.array_equal(result.bits, payload)


@pytest.mark.parametrize("rate", [6, 24, 54])
def test_awgn_roundtrip_at_30db(rate, rng):
    payload = rng.integers(0, 2, 800).astype(np.uint8)
    signal = Transmitter(rate).transmit(payload)
    noisy = awgn_channel(signal, snr_db=30.0, seed=rate)
    result = Receiver(rate).receive(noisy, payload_bits=800)
    assert np.array_equal(result.bits, payload)


def test_bpsk_survives_low_snr(rng):
    """Rate 6 (BPSK, R=1/2) still decodes around 10 dB."""
    payload = rng.integers(0, 2, 400).astype(np.uint8)
    signal = Transmitter(6).transmit(payload)
    noisy = awgn_channel(signal, snr_db=10.0, seed=7)
    result = Receiver(6).receive(noisy, payload_bits=400)
    errors = int(np.sum(result.bits != payload))
    assert errors <= 2


def test_rate_ladder_degrades_monotonically(rng):
    """At a fixed mid SNR, higher rates make more bit errors."""
    payload = rng.integers(0, 2, 1000).astype(np.uint8)
    errors = {}
    for rate in (6, 54):
        signal = Transmitter(rate).transmit(payload)
        noisy = awgn_channel(signal, snr_db=12.0, seed=99)
        decoded = Receiver(rate).receive(noisy, payload_bits=1000).bits
        errors[rate] = int(np.sum(decoded != payload))
    assert errors[54] > errors[6]


def test_equalizer_corrects_flat_channel(rng):
    payload = rng.integers(0, 2, 600).astype(np.uint8)
    signal = Transmitter(54).transmit(payload)
    gain = 0.6 * np.exp(1j * 0.8)
    faded = flat_fading_channel(signal, gain=gain)
    result = Receiver(54).receive(faded, payload_bits=600)
    assert np.array_equal(result.bits, payload)
    assert result.channel_gain == pytest.approx(gain, abs=0.01)


def test_symbol_count_matches_padding(rng):
    transmitter = Transmitter(6)  # 24 data bits per symbol
    payload = rng.integers(0, 2, 100).astype(np.uint8)
    signal = transmitter.transmit(payload)
    # 100 bits + 6 tail = 106 -> ceil(106/24) = 5 symbols
    assert len(signal) == 5 * SYMBOL_SAMPLES


def test_transmit_rejects_bad_payload():
    with pytest.raises(ConfigurationError):
        Transmitter(6).transmit(np.zeros((2, 2), dtype=np.uint8))


def test_receive_rejects_misaligned_stream(rng):
    with pytest.raises(ConfigurationError):
        Receiver(6).receive(np.zeros(81, dtype=complex))
    with pytest.raises(ConfigurationError):
        Receiver(6).receive(np.zeros(0, dtype=complex))


def test_receive_rejects_overlong_payload_request(rng):
    payload = rng.integers(0, 2, 24).astype(np.uint8)
    signal = Transmitter(6).transmit(payload)
    with pytest.raises(ConfigurationError):
        Receiver(6).receive(signal, payload_bits=10_000)


def test_throughput_labels_match_symbol_rate():
    """N_DBPS per 4 us symbol equals the advertised Mbps."""
    for rate, params in RATE_TABLE.items():
        assert params.n_dbps / 4.0 == pytest.approx(rate)
