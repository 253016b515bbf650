"""Chip plans built from mapped applications."""

import pytest

from repro.errors import ConfigurationError
from repro.arch.builder import build_chip_plan
from repro.sdf.graph import SdfGraph
from repro.sdf.mapping import ColumnAssignment, SdfMapper


def _mapped_ddc_front_end():
    graph = SdfGraph("ddc-front")
    graph.add_actor("mixer", 15.0)
    graph.add_actor("integrator", 25.0)
    graph.add_edge("mixer", "integrator", produce=1, consume=1)
    return SdfMapper().map(graph, [
        ColumnAssignment("Mixer", ("mixer",), 8),
        ColumnAssignment("Integrator", ("integrator",), 8),
    ], iteration_rate_msps=64.0)


def test_column_counts_follow_tiles():
    plan = build_chip_plan(_mapped_ddc_front_end(),
                           reference_mhz=600.0)
    assert plan.n_columns == 4  # 8 + 8 tiles = 2 + 2 columns
    assert plan.columns_of("Mixer") == (0, 1)
    assert plan.columns_of("Integrator") == (2, 3)


def test_dividers_realize_the_section2_example():
    """600 MHz reference: mixer /5 = 120, integrator /3 = 200."""
    plan = build_chip_plan(_mapped_ddc_front_end(),
                           reference_mhz=600.0)
    config = plan.config
    assert config.columns[0].divider == 5
    assert config.columns[2].divider == 3
    assert config.column_frequency_mhz(0) == pytest.approx(120.0)
    assert config.column_frequency_mhz(2) == pytest.approx(200.0)


def test_voltages_derived_from_actual_clocks():
    plan = build_chip_plan(_mapped_ddc_front_end(),
                           reference_mhz=600.0)
    assert plan.config.resolve_voltages() == (0.8, 0.8, 1.0, 1.0)


def test_exact_dividers_need_no_zorm():
    plan = build_chip_plan(_mapped_ddc_front_end(),
                           reference_mhz=600.0)
    for column in plan.config.columns:
        assert column.zorm == (0, 0)


def test_inexact_reference_gets_zorm_throttling():
    """A 500 MHz reference cannot hit 120/200 exactly: ZORM absorbs
    the residue."""
    plan = build_chip_plan(_mapped_ddc_front_end(),
                           reference_mhz=500.0)
    mixer_column = plan.config.columns[plan.columns_of("Mixer")[0]]
    actual = 500.0 / mixer_column.divider
    assert actual > 120.0
    interval, nops = mixer_column.zorm
    assert interval > 0 and nops > 0
    effective = actual * interval / (interval + nops)
    assert effective <= 120.0 + 1e-6


def test_unknown_component_lookup():
    plan = build_chip_plan(_mapped_ddc_front_end(),
                           reference_mhz=600.0)
    with pytest.raises(ConfigurationError):
        plan.columns_of("ghost")


def test_default_reference_is_max_frequency():
    plan = build_chip_plan(_mapped_ddc_front_end())
    assert plan.reference_mhz == pytest.approx(200.0)
