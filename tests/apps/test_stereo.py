"""Stereo vision: features, correlation, SVD correspondence."""

import numpy as np
import pytest

from repro.apps.stereo.correlate import extract_patch, normalized_correlation
from repro.apps.stereo.features import (
    extract_features,
    image_gradients,
    min_eigenvalue_response,
    non_maximum_suppression,
)
from repro.apps.stereo.pipeline import (
    StereoVisionPipeline,
    synthetic_stereo_pair,
)
from repro.apps.stereo.svd import amplify, pairing_matrix, pilu_correspondence


def _corner_image(size=64):
    """A bright square: its corners are the strongest features."""
    image = np.zeros((size, size))
    image[20:44, 20:44] = 1.0
    return image


class TestFeatures:
    def test_gradients_of_ramp(self):
        ramp = np.tile(np.arange(32, dtype=float), (32, 1))
        gy, gx = image_gradients(ramp)
        assert np.allclose(gx[1:-1, 1:-1], 1.0)
        assert np.allclose(gy[1:-1, 1:-1], 0.0)

    def test_flat_image_has_no_response(self):
        response = min_eigenvalue_response(np.ones((32, 32)))
        assert np.allclose(response, 0.0, atol=1e-9)

    def test_corners_beat_edges(self):
        image = _corner_image()
        response = min_eigenvalue_response(image, window=5)
        corner = response[20, 20]
        edge = response[32, 20]  # mid-edge: one gradient direction
        assert corner > 2.0 * edge

    def test_extract_finds_the_four_corners(self):
        image = _corner_image()
        features = extract_features(image, max_features=4, border=4)
        positions = {(f.row, f.col) for f in features}
        for corner in ((20, 20), (20, 43), (43, 20), (43, 43)):
            assert any(
                abs(corner[0] - r) <= 2 and abs(corner[1] - c) <= 2
                for r, c in positions
            )

    def test_max_features_respected(self):
        left, _ = synthetic_stereo_pair(seed=1)
        features = extract_features(left, max_features=10)
        assert len(features) <= 10
        responses = [f.response for f in features]
        assert responses == sorted(responses, reverse=True)

    def test_border_exclusion(self):
        left, _ = synthetic_stereo_pair(seed=1)
        features = extract_features(left, max_features=50, border=10)
        for feature in features:
            assert 10 <= feature.row < left.shape[0] - 10
            assert 10 <= feature.col < left.shape[1] - 10

    def test_empty_image(self):
        assert extract_features(np.zeros((32, 32))) == []

    def test_nms_keeps_local_maxima_only(self):
        response = np.zeros((16, 16))
        response[4, 4] = 2.0
        response[4, 6] = 1.0  # within radius of the stronger peak
        response[12, 12] = 3.0
        mask = non_maximum_suppression(response, radius=3)
        assert mask[4, 4]
        assert not mask[4, 6]
        assert mask[12, 12]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            min_eigenvalue_response(np.zeros((8, 8)), window=4)
        with pytest.raises(ValueError):
            min_eigenvalue_response(np.zeros(8))
        with pytest.raises(ValueError):
            non_maximum_suppression(np.zeros((8, 8)), radius=0)


class TestCorrelation:
    def test_identical_patches_correlate_to_one(self, rng):
        patch = rng.standard_normal((9, 9))
        assert normalized_correlation(patch, patch) \
            == pytest.approx(1.0)

    def test_inverted_patch_correlates_to_minus_one(self, rng):
        patch = rng.standard_normal((9, 9))
        assert normalized_correlation(patch, -patch) \
            == pytest.approx(-1.0)

    def test_flat_patch_returns_zero(self):
        assert normalized_correlation(np.ones((5, 5)),
                                      np.ones((5, 5))) == 0.0

    def test_extract_patch_bounds(self):
        image = np.zeros((32, 32))
        patch = extract_patch(image, 16, 16, radius=4)
        assert patch.shape == (9, 9)
        with pytest.raises(ValueError):
            extract_patch(image, 1, 16, radius=4)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            normalized_correlation(np.ones((3, 3)), np.ones((5, 5)))


class TestSvdCorrespondence:
    def test_amplified_matrix_is_orthonormal(self, rng):
        g = rng.uniform(0, 1, (6, 6))
        p = amplify(g)
        assert np.allclose(p @ p.T, np.eye(6), atol=1e-9)

    def test_identity_pairing_recovers_identity(self):
        left, right = synthetic_stereo_pair(disparity=0, seed=5)
        features = extract_features(left, max_features=12, border=6)
        matches = pilu_correspondence(left, features, left, features)
        assert all(i == j for i, j in matches)
        assert len(matches) == len(features)

    def test_pairing_matrix_shape(self):
        left, right = synthetic_stereo_pair(seed=5)
        fa = extract_features(left, max_features=8, border=6)
        fb = extract_features(right, max_features=6, border=6)
        g = pairing_matrix(left, fa, right, fb)
        assert g.shape == (len(fa), len(fb))
        assert np.all(g >= 0.0) and np.all(g <= 1.0)

    def test_empty_feature_sets(self):
        left, right = synthetic_stereo_pair(seed=5)
        assert pilu_correspondence(left, [], right, []) == []


class TestPipeline:
    def test_recovers_known_disparity(self):
        left, right = synthetic_stereo_pair(disparity=6, seed=3)
        matches = StereoVisionPipeline(max_features=48).process(
            left, right
        )
        assert len(matches) >= 20
        good = sum(1 for m in matches if abs(m.disparity - 6) <= 1)
        assert good / len(matches) > 0.9

    def test_shape_mismatch_rejected(self):
        pipeline = StereoVisionPipeline()
        with pytest.raises(ValueError):
            pipeline.process(np.zeros((16, 16)), np.zeros((16, 32)))

    def test_frame_counter(self):
        left, right = synthetic_stereo_pair(seed=3)
        pipeline = StereoVisionPipeline(max_features=16)
        pipeline.process(left, right)
        pipeline.process(left, right)
        assert pipeline.frames_processed == 2
