"""MPEG-4 encoder stages."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import dctn, idctn

from repro.apps.mpeg4.dct import blockwise, dct2, dct_matrix, idct2
from repro.apps.mpeg4.encoder import CIF_SHAPE, Mpeg4Encoder, QCIF_SHAPE
from repro.apps.mpeg4.frames import psnr, synthetic_sequence
from repro.apps.mpeg4.motion import (
    MotionVector,
    full_search,
    motion_compensate,
    sad,
    three_step_search,
)
from repro.apps.mpeg4.quant import dequantize, quantize


class TestDct:
    def test_matches_scipy(self, rng):
        block = rng.uniform(-128, 127, (8, 8))
        assert np.allclose(dct2(block), dctn(block, norm="ortho"),
                           atol=1e-10)

    def test_roundtrip(self, rng):
        block = rng.uniform(0, 255, (8, 8))
        assert np.allclose(idct2(dct2(block)), block, atol=1e-10)

    def test_basis_is_orthonormal(self):
        c = dct_matrix(8)
        assert np.allclose(c @ c.T, np.eye(8), atol=1e-12)

    def test_dc_coefficient_is_scaled_mean(self):
        block = np.full((8, 8), 100.0)
        coefficients = dct2(block)
        assert coefficients[0, 0] == pytest.approx(800.0)
        assert np.allclose(coefficients.ravel()[1:], 0.0, atol=1e-10)

    def test_blockwise_covers_frame(self, rng):
        frame = rng.uniform(0, 255, (16, 24))
        forward = blockwise(frame, dct2)
        back = blockwise(forward, idct2)
        assert np.allclose(back, frame, atol=1e-9)
        with pytest.raises(ValueError):
            blockwise(rng.uniform(0, 1, (10, 16)), dct2)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            dct2(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            idct2(np.zeros((4, 4)))

    @given(seed=st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_energy_preservation_property(self, seed):
        rng = np.random.default_rng(seed)
        block = rng.uniform(-100, 100, (8, 8))
        assert np.sum(block ** 2) == pytest.approx(
            np.sum(dct2(block) ** 2)
        )


class TestQuant:
    def test_roundtrip_error_bounded_by_step(self, rng):
        block = rng.uniform(-500, 500, (8, 8))
        for qp in (1, 4, 8, 16, 31):
            levels = quantize(block, qp, intra=False)
            restored = dequantize(levels, qp, intra=False)
            assert np.max(np.abs(restored - block)) <= qp + 1e-9

    def test_intra_dc_uses_fine_step(self):
        block = np.zeros((8, 8))
        block[0, 0] = 100.0
        levels = quantize(block, qp=31, intra=True)
        restored = dequantize(levels, qp=31, intra=True)
        assert abs(restored[0, 0] - 100.0) <= 4.0

    def test_higher_qp_zeroes_more(self, rng):
        block = rng.uniform(-30, 30, (8, 8))
        fine = np.count_nonzero(quantize(block, 1, intra=False))
        coarse = np.count_nonzero(quantize(block, 31, intra=False))
        assert coarse <= fine

    def test_qp_range_validation(self):
        with pytest.raises(ValueError):
            quantize(np.zeros((8, 8)), 0)
        with pytest.raises(ValueError):
            dequantize(np.zeros((8, 8)), 32)


class TestMotion:
    def test_sad_zero_for_identical(self, rng):
        block = rng.uniform(0, 255, (16, 16))
        assert sad(block, block) == 0.0
        with pytest.raises(ValueError):
            sad(block, block[:8, :8])

    def test_full_search_finds_known_shift(self):
        frames = synthetic_sequence(2, shape=(64, 64),
                                    motion_per_frame=(2, 3), seed=4)
        reference, current = frames[0], frames[1]
        vector = full_search(current, reference, 16, 16,
                             search_range=4)
        assert (vector.dy, vector.dx) == (2, 3)

    def test_three_step_close_to_full_search(self):
        frames = synthetic_sequence(2, shape=(64, 64),
                                    motion_per_frame=(1, 2), seed=8)
        reference, current = frames[0], frames[1]
        full = full_search(current, reference, 16, 16, search_range=7)
        fast = three_step_search(current, reference, 16, 16,
                                 search_range=7)
        assert fast.sad <= full.sad * 1.5

    def test_zero_motion_preferred_on_ties(self):
        static = np.zeros((64, 64))
        vector = full_search(static, static, 16, 16, search_range=3)
        assert (vector.dy, vector.dx) == (0, 0)

    def test_motion_compensate_inverts_known_shift(self):
        frames = synthetic_sequence(2, shape=(64, 64),
                                    motion_per_frame=(2, 3), seed=4)
        reference, current = frames[0], frames[1]
        vectors = {}
        for row in range(0, 64, 16):
            for col in range(0, 64, 16):
                vectors[(row, col)] = full_search(
                    current, reference, row, col, search_range=4
                )
        predicted = motion_compensate(reference, vectors)
        # Border blocks cannot reference content outside the frame, so
        # judge the interior (where the true shift is reachable).
        interior = (slice(16, 48), slice(16, 48))
        assert psnr(current[interior], predicted[interior]) > 40.0

    def test_compensate_rejects_out_of_frame_vector(self):
        reference = np.zeros((32, 32))
        with pytest.raises(ValueError):
            motion_compensate(
                reference, {(0, 0): MotionVector(-5, 0, 0.0)}
            )


class TestEncoder:
    def test_first_frame_is_intra(self):
        frames = synthetic_sequence(1, shape=QCIF_SHAPE)
        encoder = Mpeg4Encoder(shape=QCIF_SHAPE, qp=4)
        result = encoder.encode_frame(frames[0])
        assert result.frame_type == "I"
        assert result.psnr_db > 40.0

    def test_p_frames_code_fewer_coefficients(self):
        frames = synthetic_sequence(4, shape=QCIF_SHAPE,
                                    motion_per_frame=(1, 2))
        encoder = Mpeg4Encoder(shape=QCIF_SHAPE, qp=4, gop=12)
        results = encoder.encode_sequence(frames)
        assert results[0].frame_type == "I"
        assert all(r.frame_type == "P" for r in results[1:])
        assert all(
            r.coded_coefficients < results[0].coded_coefficients
            for r in results[1:]
        )

    def test_p_frames_recover_global_motion(self):
        frames = synthetic_sequence(3, shape=QCIF_SHAPE,
                                    motion_per_frame=(1, 2), seed=2)
        encoder = Mpeg4Encoder(shape=QCIF_SHAPE, qp=4)
        results = encoder.encode_sequence(frames)
        # Flat (textureless) macroblocks legitimately pick the zero
        # vector; judge the blocks that actually carry content.
        textured = [
            v for v in results[1].motion_vectors.values()
            if (v.dy, v.dx) != (0, 0) or v.sad > 0
        ]
        assert len(textured) >= 10
        median_dy = np.median([v.dy for v in textured])
        median_dx = np.median([v.dx for v in textured])
        assert (median_dy, median_dx) == (1, 2)

    def test_gop_forces_periodic_intra(self):
        frames = synthetic_sequence(6, shape=QCIF_SHAPE)
        encoder = Mpeg4Encoder(shape=QCIF_SHAPE, gop=3)
        results = encoder.encode_sequence(frames)
        types = [r.frame_type for r in results]
        assert types == ["I", "P", "P", "I", "P", "P"]

    def test_quality_improves_with_lower_qp(self):
        frames = synthetic_sequence(1, shape=QCIF_SHAPE)
        low = Mpeg4Encoder(shape=QCIF_SHAPE, qp=2).encode_frame(
            frames[0]
        )
        high = Mpeg4Encoder(shape=QCIF_SHAPE, qp=20).encode_frame(
            frames[0]
        )
        assert low.psnr_db > high.psnr_db
        assert low.coded_coefficients > high.coded_coefficients

    def test_cif_shape_supported(self):
        frames = synthetic_sequence(1, shape=CIF_SHAPE)
        encoder = Mpeg4Encoder(shape=CIF_SHAPE, qp=8)
        result = encoder.encode_frame(frames[0])
        assert result.reconstruction.shape == CIF_SHAPE

    def test_three_step_encoder_works(self):
        frames = synthetic_sequence(2, shape=QCIF_SHAPE,
                                    motion_per_frame=(1, 1))
        encoder = Mpeg4Encoder(shape=QCIF_SHAPE,
                               motion_search="three_step")
        results = encoder.encode_sequence(frames)
        assert results[1].psnr_db > 30.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Mpeg4Encoder(shape=(100, 100))  # not macroblock aligned
        with pytest.raises(ValueError):
            Mpeg4Encoder(motion_search="diamond")
        with pytest.raises(ValueError):
            Mpeg4Encoder(gop=0)
        encoder = Mpeg4Encoder(shape=QCIF_SHAPE)
        with pytest.raises(ValueError):
            encoder.encode_frame(np.zeros((16, 16)))

    def test_reset_forces_intra(self):
        frames = synthetic_sequence(2, shape=QCIF_SHAPE)
        encoder = Mpeg4Encoder(shape=QCIF_SHAPE, gop=100)
        encoder.encode_frame(frames[0])
        encoder.reset()
        result = encoder.encode_frame(frames[1])
        assert result.frame_type == "I"


class TestPsnr:
    def test_identical_is_infinite(self):
        frame = np.ones((8, 8))
        assert psnr(frame, frame) == float("inf")

    def test_known_value(self):
        a = np.zeros((8, 8))
        b = np.full((8, 8), 255.0)
        assert psnr(a, b) == pytest.approx(0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((4, 4)), np.zeros((8, 8)))
