"""Governed pipeline scenarios: multi-column pipelines under
coordinated governance, and the one-stage bursty DVFS scenarios."""

import pytest

from repro.control import IndependentSlackGovernor, StaticGovernor
from repro.control.coordinator import CoordinatedGovernor
from repro.errors import ConfigurationError
from repro.workloads.coordinated import (
    PIPELINE_GOVERNORS,
    PipelineScenario,
    PipelineStage,
    ddc_pipeline_scenario,
    pipeline_governor,
    run_pipeline,
    wlan_rx_pipeline_scenario,
)
from repro.workloads.dvfs import mpeg4_scene_scenario, wlan_mcs_scenario

FRAMES = 6

#: Every policy name pipeline_governor accepts.
ALL_GOVERNORS = PIPELINE_GOVERNORS + ("occupancy_pi", "slack")

#: Trace length of the one-stage scenarios (short keeps the suite fast).
ONE_STAGE_FRAMES = 8


@pytest.fixture(scope="module")
def ddc_results():
    scenario = ddc_pipeline_scenario(frames=FRAMES)
    return scenario, {
        kind: run_pipeline(scenario, kind)
        for kind in PIPELINE_GOVERNORS
    }


@pytest.fixture(scope="module")
def one_stage_runs():
    """{(scenario key, governor, engine): PipelineResult} for both
    bursty scenarios under every policy on both engines."""
    runs = {}
    for scenario in (
        wlan_mcs_scenario(frames=ONE_STAGE_FRAMES),
        mpeg4_scene_scenario(frames=ONE_STAGE_FRAMES),
    ):
        for kind in ALL_GOVERNORS:
            for engine in ("compiled", "reference"):
                runs[scenario.key, kind, engine] = run_pipeline(
                    scenario, kind, engine=engine
                )
    return runs


class TestScenarioShape:
    def test_ddc_spans_four_columns(self):
        scenario = ddc_pipeline_scenario(frames=4)
        assert scenario.n_stages == 4
        chip = scenario.build_chip()
        assert len(chip.columns) == 4
        assert chip.horizontal_dou is not None

    def test_wlan_spans_three_columns(self):
        scenario = wlan_rx_pipeline_scenario(frames=4)
        assert scenario.n_stages == 3
        assert len(scenario.build_chip().columns) == 3

    def test_static_dividers_are_per_stage(self):
        scenario = ddc_pipeline_scenario(frames=4)
        dividers = scenario.static_dividers()
        assert len(dividers) == 4
        # The heavy CIC stage needs a faster rung than the light gain
        # stage - the paper's rational-clocking claim in provisioning.
        cycles = scenario.stage_cycles
        heavy = cycles.index(max(cycles))
        light = cycles.index(min(cycles))
        assert dividers[heavy] < dividers[light]

    def test_rejects_zero_stages(self):
        with pytest.raises(ConfigurationError, match="one stage"):
            PipelineScenario(
                name="x", key="x", frame_loads=(8,), stages=(),
            )

    def test_one_stage_chip_has_no_horizontal_dou(self):
        scenario = PipelineScenario(
            name="x", key="x", frame_loads=(8,),
            stages=(PipelineStage("only", 2),),
        )
        chip = scenario.build_chip()
        assert len(chip.columns) == 1
        assert chip.horizontal_dou is None

    def test_rejects_unaligned_epochs(self):
        with pytest.raises(ConfigurationError, match="divide"):
            PipelineScenario(
                name="x", key="x", frame_loads=(8,),
                stages=(PipelineStage("a", 2), PipelineStage("b", 2)),
                frame_ticks=2048, epoch_ticks=768,
            )

    def test_rejects_empty_trace(self):
        with pytest.raises(ConfigurationError, match="no frames"):
            PipelineScenario(
                name="x", key="x", frame_loads=(),
                stages=(PipelineStage("a", 2), PipelineStage("b", 2)),
            )

    def test_rejects_non_positive_stage_work(self):
        with pytest.raises(ConfigurationError, match="positive"):
            PipelineStage("bad", 0)


class TestGovernorFactory:
    def test_builds_every_kind(self):
        scenario = wlan_rx_pipeline_scenario(frames=4)
        assert pipeline_governor("static", scenario).name == "static"
        independent = pipeline_governor("independent", scenario)
        assert isinstance(independent, IndependentSlackGovernor)
        coordinated = pipeline_governor("coordinated", scenario)
        assert isinstance(coordinated, CoordinatedGovernor)
        assert coordinated.n_stages == scenario.n_stages
        for kind in ("occupancy_pi", "slack"):
            governor = pipeline_governor(kind, scenario)
            assert governor.name == kind
            assert governor.ladder == scenario.divider_ladder

    def test_unknown_kind_lists_choices(self):
        scenario = wlan_rx_pipeline_scenario(frames=4)
        with pytest.raises(ConfigurationError) as excinfo:
            pipeline_governor("thermal", scenario)
        message = str(excinfo.value)
        for kind in ALL_GOVERNORS:
            assert kind in message


class TestPipelineRuns:
    def test_every_policy_clears_the_trace(
        self, ddc_results, one_stage_runs
    ):
        _, results = ddc_results
        for result in (*results.values(), *one_stage_runs.values()):
            final_tick, final_words = result.produced_samples[-1]
            assert final_words == result.scenario.total_words
            assert result.deadline_misses == 0, result.governor

    def test_energy_ordering(self, ddc_results):
        _, results = ddc_results
        assert results["coordinated"].energy_nj \
            < results["independent"].energy_nj \
            < results["static"].energy_nj

    def test_conservation_exact_for_every_policy(
        self, ddc_results, one_stage_runs
    ):
        _, results = ddc_results
        for result in (*results.values(), *one_stage_runs.values()):
            assert result.conservation_error <= 1e-9
            # every retune charge really landed in the ledger
            retunes = sum(
                t.energy_nj for t in result.ledger.transitions
                if not t.name.startswith("wake")
            )
            assert retunes == pytest.approx(
                sum(t.energy_nj for t in result.run.transitions)
            )

    def test_static_policy_never_retunes(
        self, ddc_results, one_stage_runs
    ):
        _, results = ddc_results
        statics = [results["static"]] + [
            one_stage_runs[key, "static", "compiled"]
            for key in ("wlan_mcs", "mpeg4_scene")
        ]
        for result in statics:
            assert result.transition_count == 0
            assert result.transition_nj == 0.0
            assert result.gate_segments == ()

    def test_coordinated_gates_and_wakes(self, ddc_results):
        _, results = ddc_results
        coordinated = results["coordinated"]
        assert coordinated.gate_segments
        assert coordinated.wake_count >= 1
        gated_entries = [
            entry for entry in coordinated.ledger.domains
            if entry.gated
        ]
        assert gated_entries
        # Gated windows are charged at the gated rate: retention
        # leakage only, no dynamic or interconnect energy.
        for entry in gated_entries:
            assert entry.active_nj == 0.0
            assert entry.bus_nj == 0.0
        wakes = [
            t for t in coordinated.ledger.transitions
            if t.name.startswith("wake")
        ]
        assert len(wakes) == coordinated.wake_count
        assert all(t.energy_nj > 0 for t in wakes)

    def test_reference_and_compiled_runs_are_bit_identical(
        self, one_stage_runs
    ):
        scenario = wlan_rx_pipeline_scenario(frames=FRAMES)
        pairs = [
            (
                run_pipeline(scenario, kind, engine="compiled"),
                run_pipeline(scenario, kind, engine="reference"),
            )
            for kind in PIPELINE_GOVERNORS
        ] + [
            (result, one_stage_runs[key, kind, "reference"])
            for (key, kind, engine), result in one_stage_runs.items()
            if engine == "compiled"
        ]
        for compiled, reference in pairs:
            assert compiled.run.stats == reference.run.stats
            assert compiled.run.timeline == reference.run.timeline
            assert compiled.run.transitions == reference.run.transitions
            assert compiled.energy_nj == reference.energy_nj

    def test_gating_override_applies_to_any_policy(self):
        scenario = wlan_rx_pipeline_scenario(frames=FRAMES)
        plain = run_pipeline(scenario, "independent")
        gated = run_pipeline(scenario, "independent", gating=True)
        assert plain.gate_segments == ()
        assert gated.gate_segments
        assert gated.energy_nj < plain.energy_nj
        assert gated.conservation_error <= 1e-9


class TestOneStage:
    """The bursty DVFS scenarios: one governed column as a pipeline."""

    def test_traces_are_deterministic(self):
        assert wlan_mcs_scenario().frame_loads \
            == wlan_mcs_scenario().frame_loads
        assert mpeg4_scene_scenario().frame_loads \
            == mpeg4_scene_scenario().frame_loads
        assert wlan_mcs_scenario(seed=1).frame_loads \
            != wlan_mcs_scenario(seed=2).frame_loads

    def test_traces_are_really_bursty(self):
        for factory in (wlan_mcs_scenario, mpeg4_scene_scenario):
            scenario = factory(frames=ONE_STAGE_FRAMES)
            assert scenario.n_stages == 1
            assert scenario.peak_words >= 3 * min(scenario.frame_loads)

    def test_static_divider_sustains_the_peak(self):
        wlan = wlan_mcs_scenario(frames=ONE_STAGE_FRAMES)
        (divider,) = wlan.static_dividers()
        (cycles_per_word,) = wlan.stage_cycles
        budget = wlan.frame_ticks / divider
        assert budget >= wlan.peak_words * cycles_per_word
        # and the next slower rung would not make it
        ladder = wlan.divider_ladder
        slower = [d for d in ladder if d > divider]
        if slower:
            assert wlan.frame_ticks / slower[0] \
                < wlan.provision_guard * wlan.peak_words \
                * cycles_per_word

    def test_epoch_and_frame_alignment_is_validated(self):
        worker = (PipelineStage("worker", 6),)
        with pytest.raises(ConfigurationError, match="multiple"):
            PipelineScenario(
                name="bad", key="bad", frame_loads=(4,), stages=worker,
                frame_ticks=100, epoch_ticks=100,
                divider_ladder=(1, 8),
            )
        with pytest.raises(ConfigurationError, match="divide"):
            PipelineScenario(
                name="bad", key="bad", frame_loads=(4,), stages=worker,
                frame_ticks=2048, epoch_ticks=513,
                divider_ladder=(1,),
            )

    def test_feedback_governors_beat_static(self, one_stage_runs):
        static = one_stage_runs["wlan_mcs", "static", "compiled"]
        for kind in ("occupancy_pi", "slack"):
            governed = one_stage_runs["wlan_mcs", kind, "compiled"]
            assert governed.energy_nj < static.energy_nj, kind

    def test_residency_spans_the_ladder_under_slack(self, one_stage_runs):
        result = one_stage_runs["wlan_mcs", "slack", "compiled"]
        residency = result.frequency_residency(0)
        assert len(residency) >= 2  # it really moved around
        assert sum(residency.values()) \
            == result.run.stats.reference_ticks

    def test_misses_are_frames_late_in_the_samples(self):
        # The slowest rung cannot keep up with the peak frames, so
        # some frames miss: exactly those whose words were not all out
        # by their boundary in the produced-words samples.
        scenario = wlan_mcs_scenario(frames=ONE_STAGE_FRAMES)
        slowest = StaticGovernor((scenario.divider_ladder[-1],))
        result = run_pipeline(scenario, slowest)
        due = expected = 0
        for index, words in enumerate(scenario.frame_loads):
            due += words
            deadline = (index + 1) * scenario.frame_ticks
            produced = max(
                (words_out for tick, words_out in result.produced_samples
                 if tick <= deadline),
                default=0,
            )
            expected += produced < due
        assert 0 < result.deadline_misses == expected
