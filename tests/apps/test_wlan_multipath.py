"""Long-preamble channel estimation over multipath channels."""

import numpy as np
import pytest

from repro.apps.wlan.receiver import Receiver
from repro.apps.wlan.transmitter import Transmitter
from repro.apps.wlan.channel import multipath_channel
from repro.apps.wlan.fft import fft
from repro.apps.wlan.frame import (
    LONG_PREAMBLE_SAMPLES,
    LONG_TRAINING_SEQUENCE,
    estimate_channel,
    long_preamble,
)
from repro.errors import ConfigurationError

TAPS = np.array([1.0, 0.0, 0.35 * np.exp(0.7j),
                 0.15 * np.exp(-1.1j)])


def test_preamble_shape_and_repetition():
    preamble = long_preamble()
    assert len(preamble) == LONG_PREAMBLE_SAMPLES
    # two identical training symbols after the 32-sample guard
    assert np.allclose(preamble[32:96], preamble[96:160])
    # guard is the symbol's tail
    assert np.allclose(preamble[:32], preamble[64:96])


def test_lts_is_all_pm_one():
    values = set(LONG_TRAINING_SEQUENCE.values())
    assert values == {1, -1}
    assert len(LONG_TRAINING_SEQUENCE) == 52


def test_clean_channel_estimates_unity():
    estimate = estimate_channel(long_preamble())
    for k, h in estimate.items():
        assert h == pytest.approx(1.0, abs=1e-12), k


def test_estimates_recover_the_channel_response():
    faded = multipath_channel(long_preamble(), TAPS)
    estimate = estimate_channel(faded)
    truth = fft(np.concatenate([TAPS, np.zeros(64 - len(TAPS))]))
    for k, h in estimate.items():
        assert h == pytest.approx(truth[k % 64], abs=1e-9), k


def test_estimate_rejects_wrong_length():
    with pytest.raises(ConfigurationError):
        estimate_channel(np.zeros(100, dtype=complex))


def test_preamble_receiver_decodes_through_multipath(rng):
    payload = rng.integers(0, 2, 1200).astype(np.uint8)
    transmitter = Transmitter(24)
    signal = transmitter.transmit(payload, include_preamble=True)
    faded = multipath_channel(signal, TAPS, snr_db=28.0, seed=1)
    bits = Receiver(24).receive(
        faded, payload_bits=1200, preamble=True
    ).bits
    assert np.array_equal(bits, payload)


def test_flat_equalizer_fails_where_preamble_succeeds(rng):
    payload = rng.integers(0, 2, 1200).astype(np.uint8)
    transmitter = Transmitter(24)
    flat_signal = transmitter.transmit(payload)
    faded = multipath_channel(flat_signal, TAPS, snr_db=28.0, seed=1)
    flat_bits = Receiver(24).receive(faded, payload_bits=1200).bits
    assert np.sum(flat_bits != payload) > 0


def test_preamble_plus_soft_decisions_compose(rng):
    payload = rng.integers(0, 2, 1200).astype(np.uint8)
    signal = Transmitter(54).transmit(payload, include_preamble=True)
    faded = multipath_channel(signal, TAPS, snr_db=26.0, seed=2)
    soft_bits = Receiver(54, soft=True).receive(
        faded, payload_bits=1200, preamble=True
    ).bits
    hard_bits = Receiver(54, soft=False).receive(
        faded, payload_bits=1200, preamble=True
    ).bits
    assert np.sum(soft_bits != payload) <= np.sum(hard_bits != payload)


def test_short_stream_rejected():
    with pytest.raises(ConfigurationError):
        Receiver(6).receive(np.zeros(100, dtype=complex),
                            preamble=True)


def test_multipath_validation(rng):
    signal = rng.standard_normal(160) + 0j
    with pytest.raises(ValueError):
        multipath_channel(signal, np.array([]))
    with pytest.raises(ValueError):
        multipath_channel(signal, np.ones(20))  # beyond the CP
