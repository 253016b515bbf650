"""Measured-energy pipeline: activity extraction, adapters, ledger."""

import pytest

from repro.errors import ConfigurationError
from repro.kernels.base import run_kernel
from repro.kernels.cic import build_cic_chain_kernel
from repro.kernels.streams import build_mixer_stream_kernel
from repro.power.measured import (
    ActivityProfile,
    EnergyLedger,
    activity_from_stats,
    comm_profile_from_activity,
    spec_from_activity,
    verify_conservation,
)
from repro.power.model import PowerModel
from repro.sim.simulator import run_single_column
from repro.isa.assembler import assemble


@pytest.fixture(scope="module")
def chain_stats():
    return run_kernel(build_cic_chain_kernel()).stats


# ----------------------------------------------------------------------
# ActivityProfile extraction
# ----------------------------------------------------------------------
def test_activity_counts_match_stats(chain_stats):
    activity = activity_from_stats(chain_stats, name="chain")
    column = chain_stats.column(0)
    assert activity.n_tiles == 4
    assert activity.bus_words == column.bus_words
    assert activity.words_per_cycle == pytest.approx(
        column.bus_words_per_cycle
    )
    assert activity.busy_fraction == pytest.approx(column.issue_rate)
    assert activity.idle_fraction == pytest.approx(
        column.idle_fraction
    )
    assert activity.busy_fraction + activity.idle_fraction \
        == pytest.approx(1.0)


def test_span_measured_from_segment_usage(chain_stats):
    """Neighbour hops on the segmented bus charge less than the full
    run - the measured span must reflect that (Section 2.3)."""
    activity = activity_from_stats(chain_stats, name="chain")
    assert 0.2 <= activity.span_fraction < 1.0


def test_port_streaming_span_is_partial():
    stats = run_kernel(build_mixer_stream_kernel()).stats
    activity = activity_from_stats(stats, name="mixer")
    # tile i -> port spans (5-i)/5 of the bus; the mean over four
    # tiles is 0.7 exactly.
    assert activity.span_fraction == pytest.approx(0.7, abs=0.01)


def test_compute_only_run_defaults_to_full_span():
    _, stats = run_single_column(assemble("movi r0, 1\nhalt"))
    activity = activity_from_stats(stats, name="compute")
    assert activity.bus_words == 0
    assert activity.span_fraction == 1.0
    assert activity.words_per_cycle == 0.0


def test_domain_must_share_one_clock():
    from repro.arch.chip import Chip
    from repro.arch.config import ChipConfig, ColumnConfig
    from repro.sim.simulator import Simulator

    chip = Chip(
        ChipConfig(
            reference_mhz=400.0,
            columns=(ColumnConfig(divider=2), ColumnConfig(divider=4)),
        ),
        programs=[assemble("halt"), assemble("halt")],
    )
    stats = Simulator(chip).run()
    with pytest.raises(ConfigurationError, match="several clocks"):
        activity_from_stats(stats, columns=[0, 1], name="mixed")
    # one-column domains extract fine
    assert activity_from_stats(stats, columns=[1]).frequency_mhz \
        == 100.0


def test_scaled_to_aggregates_traffic(chain_stats):
    activity = activity_from_stats(chain_stats, name="chain")
    doubled = activity.scaled_to(8)
    assert doubled.n_tiles == 8
    assert doubled.words_per_cycle == pytest.approx(
        2 * activity.words_per_cycle
    )
    # intensive quantities unchanged
    assert doubled.busy_fraction == activity.busy_fraction
    assert doubled.span_fraction == activity.span_fraction
    with pytest.raises(ConfigurationError):
        activity.scaled_to(0)


# ----------------------------------------------------------------------
# adapters into the Section 4.1 model
# ----------------------------------------------------------------------
def test_spec_from_activity_at_operating_point(chain_stats):
    activity = activity_from_stats(chain_stats, name="chain")
    spec = spec_from_activity(
        activity, name="CIC Integrator", n_tiles=8,
        frequency_mhz=200.0,
    )
    assert spec.n_tiles == 8
    assert spec.frequency_mhz == 200.0
    assert spec.comm.words_per_cycle == pytest.approx(
        2 * activity.words_per_cycle
    )
    power = PowerModel().component_power(spec)
    assert power.bus_mw > 0.0


def test_comm_profile_span_clamped():
    activity = ActivityProfile(
        name="x", n_tiles=4, frequency_mhz=100.0, tile_cycles=10,
        issued=10, bus_words=5, words_per_cycle=0.5,
        span_fraction=1.2,  # drifted past physical range
        busy_fraction=1.0, idle_fraction=0.0,
    )
    assert comm_profile_from_activity(activity).span_fraction == 1.0


# ----------------------------------------------------------------------
# EnergyLedger
# ----------------------------------------------------------------------
@pytest.fixture()
def application_power():
    model = PowerModel()
    return model.application_power("app", [
        spec_from_activity(ActivityProfile(
            name="a", n_tiles=8, frequency_mhz=200.0, tile_cycles=100,
            issued=90, bus_words=50, words_per_cycle=0.5,
            span_fraction=0.5, busy_fraction=0.9, idle_fraction=0.1,
        )),
        spec_from_activity(ActivityProfile(
            name="b", n_tiles=4, frequency_mhz=100.0, tile_cycles=100,
            issued=100, bus_words=0, words_per_cycle=0.0,
            span_fraction=1.0, busy_fraction=1.0, idle_fraction=0.0,
        )),
    ])


def test_ledger_conserves_energy(application_power):
    ledger = EnergyLedger.from_application(application_power, 2.5)
    assert ledger.total_nj == pytest.approx(
        application_power.total_mw * 2.5
    )
    assert verify_conservation(ledger, application_power, 2.5) \
        < 1e-12


def test_ledger_splits_idle_energy(application_power):
    activities = {
        "a": ActivityProfile(
            name="a", n_tiles=8, frequency_mhz=200.0, tile_cycles=100,
            issued=90, bus_words=50, words_per_cycle=0.5,
            span_fraction=0.5, busy_fraction=0.9, idle_fraction=0.1,
        ),
    }
    ledger = EnergyLedger.from_application(
        application_power, 1.0, activities
    )
    domain = ledger.domain("a")
    assert domain.busy_fraction == pytest.approx(0.9)
    assert domain.idle_nj == pytest.approx(0.1 * domain.dynamic_nj)
    assert domain.gated_total_nj == pytest.approx(
        domain.total_nj - domain.idle_nj
    )
    # the idle split never breaks conservation
    assert ledger.total_nj == pytest.approx(
        application_power.total_mw * 1.0
    )
    # component without an activity is charged fully busy
    assert ledger.domain("b").idle_nj == 0.0


def test_ledger_charge_validation(application_power):
    ledger = EnergyLedger()
    with pytest.raises(ConfigurationError):
        ledger.charge(
            application_power.components[0], time_us=-1.0
        )


def test_conservation_violation_raises(application_power):
    ledger = EnergyLedger.from_application(application_power, 1.0)
    with pytest.raises(AssertionError, match="ledger energy"):
        verify_conservation(ledger, application_power, 2.0)


def test_ledger_attaches_to_stats(chain_stats, application_power):
    ledger = EnergyLedger.from_application(application_power, 1.0)
    annotated = ledger.attach(chain_stats)
    assert annotated.domain_energy == ledger.domains
    assert chain_stats.domain_energy == ()  # original untouched
    assert annotated.columns == chain_stats.columns
