"""The bursty scenarios run through ``run_scenario``.

``repro.workloads.dvfs.run_scenario`` is another name for
``run_pipeline``, kept because ``perfbench/workloads.py`` imports it.
These checks drive the one-stage scenarios through that name; the
scenario shapes and the all-policy sweep live in
``test_coordinated_pipelines.py``.
"""

import pytest

from repro.workloads.dvfs import (
    mpeg4_scene_scenario,
    run_scenario,
    wlan_mcs_scenario,
)

FRAMES = 8  # short traces keep the suite fast


@pytest.fixture(scope="module")
def wlan():
    return wlan_mcs_scenario(frames=FRAMES)


@pytest.fixture(scope="module")
def mpeg4():
    return mpeg4_scene_scenario(frames=FRAMES)


class TestHarness:
    def test_every_word_is_processed(self, wlan):
        result = run_scenario(wlan, "static")
        assert result.produced_samples[-1][1] == wlan.total_words
        assert result.deadline_misses == 0

    def test_all_governors_meet_deadlines(self, mpeg4):
        for kind in ("static", "occupancy_pi", "slack"):
            result = run_scenario(mpeg4, kind)
            assert result.deadline_misses == 0, kind

    def test_energy_conservation_is_exact(self, wlan):
        for kind in ("static", "occupancy_pi", "slack"):
            result = run_scenario(wlan, kind)
            assert result.conservation_error <= 1e-9
            # every transition charge really landed in the ledger
            assert result.ledger.transition_nj == pytest.approx(
                sum(t.energy_nj for t in result.run.transitions)
            )

    def test_static_governor_never_transitions(self, wlan):
        result = run_scenario(wlan, "static")
        assert result.transition_count == 0
        assert result.transition_nj == 0.0

    def test_engines_agree_on_a_governed_scenario(self, wlan):
        reference = run_scenario(wlan, "slack", engine="reference")
        compiled = run_scenario(wlan, "slack", engine="compiled")
        assert compiled.run.stats == reference.run.stats
        assert compiled.run.timeline == reference.run.timeline
        assert compiled.energy_nj == reference.energy_nj
        assert compiled.deadline_misses == reference.deadline_misses
