"""Throughput benches for the heavy functional kernels and the
cycle-level simulator itself."""

import numpy as np
import pytest

from repro.apps.aes.cipher import Aes128
from repro.apps.ddc.pipeline import DigitalDownConverter
from repro.apps.wlan.receiver import Receiver
from repro.apps.wlan.transmitter import Transmitter
from repro.apps.wlan.fft import fft
from repro.apps.wlan.viterbi import ViterbiDecoder
from repro.apps.wlan.convcode import ConvolutionalEncoder
from repro.isa.assembler import assemble
from repro.sim.simulator import run_single_column

RNG = np.random.default_rng(7)


def test_fft_64point(benchmark):
    data = RNG.standard_normal(64) + 1j * RNG.standard_normal(64)
    result = benchmark(fft, data)
    assert len(result) == 64


def test_viterbi_decode(benchmark):
    encoder = ConvolutionalEncoder()
    bits = RNG.integers(0, 2, 500).astype(np.uint8)
    coded = encoder.encode(bits).astype(float)
    decoder = ViterbiDecoder()
    decoded = benchmark(decoder.decode, coded)
    assert np.array_equal(decoded, bits)


def test_aes_block(benchmark):
    cipher = Aes128(bytes(range(16)))
    block = bytes(range(16, 32))
    tag = benchmark(cipher.encrypt, block)
    assert len(tag) == 16


def test_ddc_block(benchmark):
    ddc = DigitalDownConverter()
    samples = RNG.standard_normal(64 * 64)
    out = benchmark.pedantic(ddc.process, args=(samples,), rounds=2,
                             iterations=1)
    assert len(out) > 0


def test_wlan_link(benchmark):
    payload = RNG.integers(0, 2, 400).astype(np.uint8)
    transmitter, receiver = Transmitter(54), Receiver(54)

    def link():
        return receiver.receive(transmitter.transmit(payload),
                                payload_bits=400)

    result = benchmark.pedantic(link, rounds=2, iterations=1)
    assert np.array_equal(result.bits, payload)


def test_simulator_ticks_per_second(benchmark):
    program = assemble("""
        movi p0, 0
        movi a0, 0
        loop 500
          ld r1, [p0]
          mac a0, r1, r1
        endloop
        halt
    """)

    def run():
        return run_single_column(
            program, memory_images={0: {0: [3]}}, max_ticks=100_000
        )

    chip, stats = benchmark.pedantic(run, rounds=2, iterations=1)
    assert stats.column(0).issued == 1002
