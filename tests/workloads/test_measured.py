"""Measured kernel runs feeding the power methodology."""

import pytest

from repro.kernels.base import run_kernel
from repro.kernels.cic import build_cic_chain_kernel
from repro.power.model import ComponentSpec, PowerModel
from repro.workloads.measured import (
    KERNEL_BUILDERS,
    comm_profile_from_run,
    measured_activities,
)


@pytest.fixture(scope="module")
def activities():
    return measured_activities(KERNEL_BUILDERS)


def test_table_covers_all_kernels(activities):
    assert set(activities) == {
        "fir-8tap", "complex-mixer", "mixer-stream",
        "cic-integrator-chain", "cic-comb-scatter",
        "viterbi-acs-butterfly", "dct-8point-q14",
    }
    for activity in activities.values():
        assert activity.issued > 0


def test_compute_only_kernels_have_no_traffic(activities):
    assert activities["fir-8tap"].words_per_cycle == 0.0
    assert activities["dct-8point-q14"].words_per_cycle == 0.0


def test_communication_kernels_have_traffic(activities):
    assert activities["cic-integrator-chain"].words_per_cycle > 1.0
    assert activities["viterbi-acs-butterfly"].words_per_cycle > 0.3


def test_comm_profile_bridge_to_power_model():
    """Measured traffic plugs straight into the Section 4.1 model."""
    run = run_kernel(build_cic_chain_kernel())
    profile = comm_profile_from_run(run, span_fraction=0.5)
    assert profile.words_per_cycle == pytest.approx(
        run.bus_words_per_cycle
    )
    model = PowerModel()
    power = model.component_power(ComponentSpec(
        "measured-cic", n_tiles=4, frequency_mhz=200.0, comm=profile,
    ))
    assert power.bus_mw > 0.0
    assert power.total_mw > power.dynamic_mw


def test_measured_integrator_matches_calibration_order():
    """The measured chain density supports the Table 4 calibration:
    the CIC Integrator's analytic 5.6 words/cycle (8 tiles, 2 columns)
    and the measured 4-tile chain (~1.9/column + port hops) agree on
    the order of magnitude."""
    run = run_kernel(build_cic_chain_kernel())
    measured_per_column = run.bus_words_per_cycle
    calibrated_per_column = 5.620 / 2.0
    ratio = calibrated_per_column / measured_per_column
    assert 0.3 < ratio < 3.0


# ----------------------------------------------------------------------
# measured application pipeline (run_many -> ActivityProfile -> specs)
# ----------------------------------------------------------------------
def test_kernel_request_round_trip():
    """A kernel converts into a picklable request that replays its
    exact run."""
    import pickle

    from repro.sim.batch import execute
    from repro.workloads.measured import kernel_request

    kernel = build_cic_chain_kernel()
    request = kernel_request(kernel)
    pickle.dumps(request)  # must cross a process boundary
    stats = execute(request)
    direct = run_kernel(kernel).stats
    assert stats == direct


def test_measured_activities_run_once_via_run_many():
    from repro.workloads.measured import (
        _ACTIVITY_MEMO,
        measured_activities,
    )

    activities = measured_activities(
        ["cic-integrator-chain", "mixer-stream"]
    )
    assert activities["cic-integrator-chain"].words_per_cycle > 1.0
    assert activities["mixer-stream"].words_per_cycle > 0.3
    # memoized: a second call returns the identical objects
    again = measured_activities(["mixer-stream"])
    assert again["mixer-stream"] is activities["mixer-stream"]
    assert "mixer-stream" in _ACTIVITY_MEMO


def test_measured_application_mixes_sources():
    from repro.workloads.measured import measured_application

    app = measured_application("ddc")
    by_name = {c.name: c for c in app.components}
    assert by_name["CIC Integrator"].measured
    # the comb's gather/scatter kernel closed the last analytical gap
    assert by_name["CIC Comb"].measured
    # measured specs keep the Table 4 operating point
    assert by_name["CIC Integrator"].spec.frequency_mhz == 200.0
    assert by_name["CIC Integrator"].spec.n_tiles == 8
    assert app.measured_fraction == 1.0
    # components with no kernel equivalent still fall back verbatim
    wlan = measured_application("wlan")
    by_name = {c.name: c for c in wlan.components}
    assert not by_name["FFT"].measured
    assert by_name["FFT"].spec == by_name["FFT"].analytical
    assert 0.0 < wlan.measured_fraction < 1.0


def test_measured_mixer_matches_calibration():
    """The streaming mixer lands within ~2x of the calibrated
    1.112 words/cycle for the 8-tile component."""
    from repro.workloads.measured import measured_application

    app = measured_application("ddc")
    mixer = app.components[0]
    assert mixer.name == "Digital Mixer"
    assert mixer.words_ratio is not None
    assert 0.5 < mixer.words_ratio < 2.0
