"""Extension features: windowed traceback, entropy estimates, Jacobi."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from repro.apps.stereo.jacobi import amplify_jacobi, jacobi_svd
from repro.apps.stereo.svd import amplify
from repro.apps.wlan.convcode import ConvolutionalEncoder
from repro.apps.wlan.viterbi import ViterbiDecoder


class TestWindowedTraceback:
    def test_deep_window_matches_full_traceback(self, rng):
        encoder, decoder = ConvolutionalEncoder(), ViterbiDecoder()
        bits = rng.integers(0, 2, 150).astype(np.uint8)
        coded = encoder.encode(bits).astype(float)
        full = decoder.decode(coded)
        windowed = decoder.decode_windowed(coded, traceback_depth=40)
        assert np.array_equal(windowed[:len(full)], full)

    def test_shallow_window_degrades_under_noise(self, rng):
        encoder, decoder = ConvolutionalEncoder(), ViterbiDecoder()
        bits = rng.integers(0, 2, 400).astype(np.uint8)
        coded = encoder.encode(bits).astype(float)
        noisy = np.clip(
            coded + 0.42 * rng.standard_normal(len(coded)), 0, 1
        )
        deep = decoder.decode_windowed(noisy, traceback_depth=48)
        shallow = decoder.decode_windowed(noisy, traceback_depth=3)
        deep_errors = int(np.sum(deep[:400] != bits))
        shallow_errors = int(np.sum(shallow[:400] != bits))
        assert shallow_errors >= deep_errors

    def test_validation(self):
        decoder = ViterbiDecoder()
        with pytest.raises(ValueError):
            decoder.decode_windowed(np.zeros(4), traceback_depth=0)
        with pytest.raises(ValueError):
            decoder.decode_windowed(np.zeros(5))

    @given(
        seed=st.integers(0, 2 ** 16),
        depth=st.integers(35, 80),
    )
    @settings(max_examples=15, deadline=None)
    def test_5k_depth_is_lossless_on_clean_data(self, seed, depth):
        rng = np.random.default_rng(seed)
        encoder, decoder = ConvolutionalEncoder(), ViterbiDecoder()
        bits = rng.integers(0, 2, 80).astype(np.uint8)
        coded = encoder.encode(bits).astype(float)
        windowed = decoder.decode_windowed(coded,
                                           traceback_depth=depth)
        assert np.array_equal(windowed[:80], bits)


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


class TestJacobiSvd:
    def test_reconstruction(self, rng):
        a = rng.standard_normal((8, 5))
        u, s, vt = jacobi_svd(a)
        assert np.allclose(u @ np.diag(s) @ vt, a, atol=1e-9)

    def test_orthonormal_factors(self, rng):
        a = rng.standard_normal((6, 6))
        u, s, vt = jacobi_svd(a)
        assert np.allclose(u.T @ u, np.eye(6), atol=1e-9)
        assert np.allclose(vt @ vt.T, np.eye(6), atol=1e-9)

    def test_singular_values_match_numpy(self, rng):
        a = rng.standard_normal((7, 4))
        _, ours, _ = jacobi_svd(a)
        reference = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(ours, reference, atol=1e-9)

    def test_wide_matrix_rejected(self, rng):
        with pytest.raises(ValueError):
            jacobi_svd(rng.standard_normal((3, 5)))
        with pytest.raises(ValueError):
            jacobi_svd(rng.standard_normal(4))

    def test_amplify_agrees_with_numpy_route(self, rng):
        """P = UV^T is the unique orthogonal polar factor, so the
        Jacobi and LAPACK routes must coincide."""
        g = rng.uniform(0.0, 1.0, (6, 6)) + 0.1 * np.eye(6)
        assert np.allclose(amplify_jacobi(g), amplify(g), atol=1e-8)

    def test_amplify_wide_input(self, rng):
        g = rng.uniform(0.1, 1.0, (3, 5))
        p = amplify_jacobi(g)
        assert p.shape == (3, 5)
        assert np.allclose(p @ p.T, np.eye(3), atol=1e-8)

    def test_empty_input(self):
        assert amplify_jacobi(np.zeros((0, 0))).size == 0
