"""802.11a link demo: 54 Mbps through AWGN, plus an SNR waterfall.

Transmits random payloads at several rates and SNRs through the full
TX -> channel -> RX chain (FFT, demodulation, de-interleaving, Viterbi
decoding - the paper's four receiver components), then prices the
receiver at its Table 4 operating points.

    python examples/wlan_receiver.py
"""

import numpy as np

from repro.apps.wlan.channel import awgn_channel
from repro.apps.wlan.receiver import Receiver
from repro.apps.wlan.transmitter import Transmitter
from repro.power.model import PowerModel
from repro.workloads.configs import application


def bit_error_rate(rate_mbps: int, snr_db: float, bits: int = 2400,
                   seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 2, bits).astype(np.uint8)
    signal = Transmitter(rate_mbps).transmit(payload)
    noisy = awgn_channel(signal, snr_db=snr_db, seed=seed)
    decoded = Receiver(rate_mbps).receive(noisy,
                                          payload_bits=bits).bits
    return float(np.mean(decoded != payload))


def main() -> None:
    print("802.11a end-to-end BER (hard-decision receiver):\n")
    rates = (6, 12, 24, 54)
    snrs = (6.0, 10.0, 14.0, 18.0, 22.0, 26.0)
    header = "SNR(dB) " + "".join(f"{r:>9d}M" for r in rates)
    print(header)
    for snr in snrs:
        cells = []
        for rate in rates:
            ber = bit_error_rate(rate, snr, seed=int(snr * 10) + rate)
            cells.append(f"{ber:10.4f}")
        print(f"{snr:7.1f} " + "".join(cells))
    print("\n(low rates survive low SNR; 64-QAM 3/4 needs ~22+ dB -")
    print(" the classic 802.11a waterfall ordering)")

    config = application("wlan")
    power = PowerModel().application_power(config.name, config.specs)
    print(f"\nReceiver power at 54 Mbps (Table 4): "
          f"{power.total_mw:.0f} mW")
    for component in power.components:
        share = 100.0 * component.total_mw / power.total_mw
        print(f"  {component.name:22s} {component.total_mw:8.1f} mW "
              f"({share:4.1f}%)  {component.n_tiles:2d} tiles @ "
              f"{component.frequency_mhz:.0f} MHz / "
              f"{component.voltage_v} V")
    print("\nThe Viterbi ACS dominates - exactly why Figure 8 studies")
    print("its bus-width/parallelism trade-off.")


if __name__ == "__main__":
    main()
