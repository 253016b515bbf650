"""MPEG-4 rate control over the bit estimator."""

import numpy as np
import pytest

from repro.apps.mpeg4.encoder import Mpeg4Encoder, QCIF_SHAPE
from repro.apps.mpeg4.frames import synthetic_sequence
from repro.apps.mpeg4.rate_control import (
    RateController,
    encode_with_rate_control,
)


def test_validation():
    with pytest.raises(ValueError):
        RateController(target_kbps=0.0)
    with pytest.raises(ValueError):
        RateController(target_kbps=100.0, qp=40)
    controller = RateController(target_kbps=100.0)
    with pytest.raises(ValueError):
        controller.update(-1)


def test_budget():
    controller = RateController(target_kbps=300.0, fps=30.0)
    assert controller.budget_bits_per_frame == pytest.approx(10_000.0)


def test_overspend_raises_qp():
    controller = RateController(target_kbps=100.0, qp=8)
    next_qp = controller.update(spent_bits=40_000)  # 12x budget
    assert next_qp > 8


def test_underspend_lowers_qp():
    controller = RateController(target_kbps=100.0, qp=8)
    next_qp = controller.update(spent_bits=100)
    assert next_qp < 8


def test_qp_clamped():
    controller = RateController(target_kbps=100.0, qp=30)
    controller.update(spent_bits=10_000_000)
    assert controller.qp == 31
    controller = RateController(target_kbps=100.0, qp=2)
    controller.update(spent_bits=1)
    assert controller.qp == 1


def test_controlled_encode_tracks_target():
    frames = synthetic_sequence(10, shape=QCIF_SHAPE,
                                motion_per_frame=(1, 1), seed=2)
    encoder = Mpeg4Encoder(shape=QCIF_SHAPE, gop=100)
    controller = RateController(target_kbps=120.0, qp=8)
    results = encode_with_rate_control(encoder, frames, controller)
    # steady-state P frames (skip the I frame) land near the budget
    steady = results[4:]
    mean_bits = np.mean([r.estimated_bits for r in steady])
    assert mean_bits == pytest.approx(
        controller.budget_bits_per_frame, rel=0.6
    )


def test_tighter_target_forces_coarser_qp():
    frames = synthetic_sequence(6, shape=QCIF_SHAPE,
                                motion_per_frame=(1, 1), seed=2)
    rich = RateController(target_kbps=2000.0, qp=8)
    poor = RateController(target_kbps=30.0, qp=8)
    encode_with_rate_control(
        Mpeg4Encoder(shape=QCIF_SHAPE, gop=100), frames, rich
    )
    encode_with_rate_control(
        Mpeg4Encoder(shape=QCIF_SHAPE, gop=100), frames, poor
    )
    assert poor.qp > rich.qp
