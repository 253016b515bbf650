"""Ablation: hard vs soft decisions into the Viterbi decoder.

The paper's receiver components end at the Viterbi decoder without
specifying the demapper's decision type; this bench quantifies the
choice: max-log soft values buy roughly 2 dB at the waterfall.
"""

import numpy as np

from repro.apps.wlan.channel import awgn_channel
from repro.apps.wlan.receiver import Receiver
from repro.apps.wlan.transmitter import Transmitter


def test_soft_vs_hard(benchmark):
    rng = np.random.default_rng(11)
    payload = rng.integers(0, 2, 2400).astype(np.uint8)
    signal = Transmitter(54).transmit(payload)

    def run():
        out = {}
        for snr in (15.0, 17.0, 19.0):
            noisy = awgn_channel(signal, snr_db=snr, seed=3)
            hard = Receiver(54, soft=False).receive(
                noisy, payload_bits=2400
            ).bits
            soft = Receiver(54, soft=True).receive(
                noisy, payload_bits=2400
            ).bits
            out[snr] = (
                float(np.mean(hard != payload)),
                float(np.mean(soft != payload)),
            )
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"{'SNR dB':>7} {'hard BER':>10} {'soft BER':>10}")
    for snr, (hard_ber, soft_ber) in results.items():
        print(f"{snr:7.1f} {hard_ber:10.4f} {soft_ber:10.4f}")
        assert soft_ber <= hard_ber
