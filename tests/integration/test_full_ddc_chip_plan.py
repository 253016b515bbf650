"""The complete Table 4 DDC realized as a 13-column chip plan."""

import pytest

from repro.apps.ddc.pipeline import ddc_sdf_graph
from repro.arch.builder import build_chip_plan
from repro.sdf.mapping import ColumnAssignment, SdfMapper


@pytest.fixture(scope="module")
def ddc_plan():
    app = SdfMapper().map(ddc_sdf_graph(), [
        ColumnAssignment("Digital Mixer", ("mixer",), 8),
        ColumnAssignment("CIC Integrator", ("integrator",), 8),
        ColumnAssignment("CIC Comb", ("comb",), 2),
        ColumnAssignment("CFIR", ("cfir",), 16),
        ColumnAssignment("PFIR", ("pfir",), 16),
    ], iteration_rate_msps=1.0)
    # 400 MHz divides the paper's 200/40 exactly and lands every other
    # component within one ZORM notch (see workloads.realization).
    return build_chip_plan(app, reference_mhz=400.0)


def test_thirteen_columns(ddc_plan):
    """8+8+2+16+16 tiles in whole columns: 2+2+1+4+4 = 13."""
    assert ddc_plan.n_columns == 13
    assert ddc_plan.columns_of("Digital Mixer") == (0, 1)
    assert ddc_plan.columns_of("CIC Comb") == (4,)
    assert ddc_plan.columns_of("PFIR") == (9, 10, 11, 12)


def test_divided_clocks_meet_every_requirement(ddc_plan):
    requirements = {
        "Digital Mixer": 120.0,
        "CIC Integrator": 200.0,
        "CIC Comb": 40.0,
        "CFIR": 380.0,
        "PFIR": 370.0,
    }
    config = ddc_plan.config
    for name, needed in requirements.items():
        column_index = ddc_plan.columns_of(name)[0]
        actual = config.column_frequency_mhz(column_index)
        assert actual >= needed - 1e-9, name


def test_voltages_resolve_for_actual_clocks(ddc_plan):
    voltages = ddc_plan.config.resolve_voltages()
    assert len(voltages) == 13
    # integrator columns divide exactly to 200 MHz -> the 1.0 V rail
    integrator_column = ddc_plan.columns_of("CIC Integrator")[0]
    assert voltages[integrator_column] == 1.0
    # comb columns divide exactly to 40 MHz -> the floor rail
    comb_column = ddc_plan.columns_of("CIC Comb")[0]
    assert voltages[comb_column] == 0.7


def test_zorm_throttles_only_inexact_columns(ddc_plan):
    config = ddc_plan.config
    integrator = config.columns[ddc_plan.columns_of("CIC Integrator")[0]]
    assert integrator.zorm == (0, 0)  # 400/2 = 200 exact
    mixer = config.columns[ddc_plan.columns_of("Digital Mixer")[0]]
    interval, nops = mixer.zorm     # 400/3 = 133.3 > 120
    assert interval > 0 and nops > 0
    effective = (400.0 / mixer.divider) * interval / (interval + nops)
    assert effective <= 120.0 + 1e-6


def test_hyperperiod_is_bounded(ddc_plan):
    """Rationally related clocks realign quickly (no LCM blowup)."""
    from repro.arch.clocking import ClockTree

    tree = ClockTree(
        ddc_plan.config.reference_mhz,
        [c.divider for c in ddc_plan.config.columns],
    )
    assert tree.hyperperiod() <= 60
