"""Extension features: MPEG-4 entropy estimates."""

import numpy as np
import pytest

from repro.apps.mpeg4.encoder import Mpeg4Encoder, QCIF_SHAPE
from repro.apps.mpeg4.frames import synthetic_sequence
from repro.apps.mpeg4.entropy import (
    block_bits,
    exp_golomb_bits,
    frame_bits,
    motion_vector_bits,
    run_length_pairs,
    zigzag_order,
    zigzag_scan,
)


class TestEntropy:
    def test_zigzag_order_properties(self):
        order = zigzag_order(8)
        assert sorted(order) == list(range(64))
        assert order[0] == 0          # DC first
        assert order[1] == 1          # then (0,1)
        assert order[2] == 8          # then (1,0)
        assert order[-1] == 63        # high frequency last

    def test_zigzag_scan_shape(self):
        block = np.arange(64).reshape(8, 8)
        scanned = zigzag_scan(block)
        assert scanned[0] == 0
        assert len(scanned) == 64
        with pytest.raises(ValueError):
            zigzag_scan(np.zeros((4, 4)))

    def test_run_length_pairs(self):
        scanned = np.array([5, 0, 0, -3, 0, 1] + [0] * 58)
        assert run_length_pairs(scanned) == [(0, 5), (2, -3), (1, 1)]
        assert run_length_pairs(np.zeros(64)) == []

    def test_exp_golomb_lengths(self):
        # mapped 0 -> 1 bit, 1..2 -> 3 bits, 3..6 -> 5 bits
        assert exp_golomb_bits(0) == 1
        assert exp_golomb_bits(1) == 3
        assert exp_golomb_bits(-1) == 3
        assert exp_golomb_bits(3) == 5
        assert exp_golomb_bits(-5) == 7

    def test_block_bits_grows_with_content(self):
        empty = np.zeros((8, 8), dtype=int)
        busy = np.ones((8, 8), dtype=int)
        assert block_bits(busy) > block_bits(empty)

    def test_motion_vector_bits(self):
        assert motion_vector_bits(0, 0) == 2
        assert motion_vector_bits(1, -1) == 6

    def test_frame_bits_adds_motion(self):
        from repro.apps.mpeg4.motion import MotionVector

        levels = [np.zeros((8, 8), dtype=int)]
        without = frame_bits(levels)
        with_mv = frame_bits(
            levels, {(0, 0): MotionVector(1, 2, 0.0)}
        )
        assert with_mv > without

    def test_encoder_reports_bits(self):
        frames = synthetic_sequence(3, shape=QCIF_SHAPE,
                                    motion_per_frame=(1, 2), seed=2)
        encoder = Mpeg4Encoder(shape=QCIF_SHAPE, qp=6)
        results = encoder.encode_sequence(frames)
        assert all(r.estimated_bits > 0 for r in results)
        # P frames are much cheaper than the I frame
        assert results[1].estimated_bits < 0.5 * results[0].estimated_bits
        assert results[0].estimated_kbps_at > 0.0

    def test_coarser_qp_costs_fewer_bits(self):
        frames = synthetic_sequence(1, shape=QCIF_SHAPE, seed=2)
        fine = Mpeg4Encoder(shape=QCIF_SHAPE, qp=2).encode_frame(
            frames[0]
        )
        coarse = Mpeg4Encoder(shape=QCIF_SHAPE, qp=20).encode_frame(
            frames[0]
        )
        assert coarse.estimated_bits < fine.estimated_bits

