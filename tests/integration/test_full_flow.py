"""Application graph -> mapping -> power, against Table 4."""

import pytest

from repro.apps.ddc.pipeline import ddc_sdf_graph
from repro.apps.mpeg4.encoder import mpeg4_sdf_graph
from repro.apps.stereo.pipeline import stereo_sdf_graph
from repro.apps.wlan.receiver import wlan_sdf_graph
from repro.sdf.analysis import check_deadlock_free
from repro.sdf.mapping import ColumnAssignment, SdfMapper
from repro.sdf.schedule import build_schedule


class TestDdcFlow:
    def test_graph_is_schedulable(self):
        graph = ddc_sdf_graph()
        check_deadlock_free(graph)
        schedule = build_schedule(graph)
        assert schedule.firings_of("mixer") == 64
        assert schedule.firings_of("pfir") == 1

    def test_mapping_reproduces_table4_operating_points(self):
        app = SdfMapper().map(ddc_sdf_graph(), [
            ColumnAssignment("Digital Mixer", ("mixer",), 8),
            ColumnAssignment("CIC Integrator", ("integrator",), 8),
            ColumnAssignment("CIC Comb", ("comb",), 2),
            ColumnAssignment("CFIR", ("cfir",), 16),
            ColumnAssignment("PFIR", ("pfir",), 16),
        ], iteration_rate_msps=1.0)  # 64 MS/s / 64-sample iterations
        assert app.max_frequency_mhz == pytest.approx(380.0)
        dividers = app.clock_dividers()
        assert dividers["CIC Comb"][0] == 9  # 380 / 9 = 42.2 MHz
        interval, nops = dividers["CIC Comb"][2]
        assert interval > 0  # residual throttling via ZORM


class TestWlanFlow:
    def test_mapping_matches_table4(self, power_model):
        app = SdfMapper().map(wlan_sdf_graph(), [
            ColumnAssignment("FFT", ("fft",), 2),
            ColumnAssignment("De-mod/De-Interleave", ("demod_deint",), 1),
            ColumnAssignment("Viterbi ACS", ("viterbi_acs",), 16),
            ColumnAssignment("Viterbi Traceback", ("viterbi_tb",), 1),
        ], iteration_rate_msps=0.25)  # 250k OFDM symbols/s
        assert app.component("FFT").frequency_mhz \
            == pytest.approx(90.0)
        assert app.component("Viterbi ACS").frequency_mhz \
            == pytest.approx(540.0)
        assert app.component("Viterbi ACS").voltage_v == 1.7
        power = power_model.application_power(
            "802.11a", app.component_specs()
        )
        # without bus traffic the ACS row is its compute+leak share
        assert power.component("Viterbi ACS").total_mw \
            == pytest.approx(2538.0, rel=0.01)


class TestStereoFlow:
    def test_mapping_matches_table4(self):
        app = SdfMapper().map(stereo_sdf_graph(), [
            ColumnAssignment("PFE", ("pfe",), 16),
            ColumnAssignment("SVD", ("svd",), 1),
        ], iteration_rate_msps=10.0e-6)  # 10 frames/s
        assert app.component("PFE").frequency_mhz \
            == pytest.approx(310.0)
        assert app.component("SVD").frequency_mhz \
            == pytest.approx(500.0)
        assert app.component("SVD").voltage_v == 1.5


class TestMpeg4Flow:
    @pytest.mark.parametrize("profile,me_tiles,dct_tiles,me_mhz", [
        ("qcif", 8, 2, 70.0),
        ("cif", 8, 8, 280.0),
    ])
    def test_mapping_matches_table4(self, profile, me_tiles, dct_tiles,
                                    me_mhz):
        app = SdfMapper().map(mpeg4_sdf_graph(profile), [
            ColumnAssignment("Motion Estimation", ("me",), me_tiles),
            ColumnAssignment("DCT/Quant/IQ/IDCT", ("dct",), dct_tiles),
        ], iteration_rate_msps=30.0e-6)  # 30 frames/s
        assert app.component("Motion Estimation").frequency_mhz \
            == pytest.approx(me_mhz)


def test_whole_suite_mapped_power_is_consistent(power_model):
    """Sanity: mapped operating points evaluated through the power
    model land in the right order across applications."""
    from repro.workloads.configs import all_applications

    totals = {}
    for key, config in all_applications().items():
        totals[key] = power_model.application_power(
            config.name, config.specs
        ).total_mw
    assert totals["mpeg4_qcif"] < totals["mpeg4_cif"] \
        < totals["stereo"] < totals["ddc"] < totals["wlan"]
