"""Shared fixtures."""

import numpy as np
import pytest

from repro.power.model import PowerModel
from repro.tech.parameters import PAPER_TECHNOLOGY
from repro.tech.vf_curve import VoltageFrequencyCurve


@pytest.fixture
def rng():
    """Deterministic random generator for tests."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def curve():
    """The paper's 20 FO4 voltage-frequency curve."""
    return VoltageFrequencyCurve.from_technology()


@pytest.fixture(scope="session")
def power_model():
    """The paper's power model (Table 4 rails)."""
    return PowerModel()


@pytest.fixture(scope="session")
def tech():
    """The paper's technology parameters."""
    return PAPER_TECHNOLOGY
