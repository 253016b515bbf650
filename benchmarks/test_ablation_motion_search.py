"""Ablation: full-search vs three-step motion estimation.

DESIGN.md calls out the ME algorithm choice: full search is the
regular, SIMD-friendly dataflow the paper's 8-tile ME columns run;
three-step is the classic cheap alternative.  This bench measures the
throughput gap and checks the quality gap stays small on smooth
synthetic motion.
"""

import numpy as np
import pytest

from repro.apps.mpeg4.encoder import Mpeg4Encoder, QCIF_SHAPE
from repro.apps.mpeg4.frames import synthetic_sequence

FRAMES = synthetic_sequence(3, shape=QCIF_SHAPE, motion_per_frame=(1, 2),
                            seed=2)


def _encode(motion_search):
    encoder = Mpeg4Encoder(shape=QCIF_SHAPE, qp=4,
                           motion_search=motion_search)
    return encoder.encode_sequence(FRAMES)


def test_full_search(benchmark):
    results = benchmark.pedantic(_encode, args=("full",), rounds=1,
                                 iterations=1)
    assert results[1].psnr_db > 40.0


def test_three_step_search(benchmark):
    results = benchmark.pedantic(_encode, args=("three_step",),
                                 rounds=1, iterations=1)
    # three-step stays within 3 dB of full search on smooth motion
    full = _encode("full")
    assert results[1].psnr_db > full[1].psnr_db - 3.0
