"""Chip-level coordinator: cross-domain policy and gate planning."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.control.coordinator import (
    CoordinatedGovernor,
    GateSegment,
    plan_power_gating,
)
from repro.control.governor import (
    GOVERNOR_KINDS,
    SlackGovernor,
    StaticGovernor,
    Telemetry,
    create_governor,
)
from repro.errors import ConfigurationError
from repro.sim.stats import EpochColumnActivity, EpochRecord

LADDER = (1, 2, 4, 8)
CPW = (4.0, 10.0, 6.0)


def telemetry(
    dividers=(8, 8, 8),
    input_fill=(0.0, 0.0, 0.0),
    backlog=(0, 0, 0),
    halted=(False, False, False),
    extras=None,
    epoch=0,
):
    return Telemetry(
        epoch_index=epoch,
        reference_tick=epoch * 512,
        reference_mhz=512.0,
        dividers=tuple(dividers),
        halted=tuple(halted),
        input_fill=tuple(input_fill),
        output_fill=tuple(0.0 for _ in dividers),
        backlog_words=tuple(backlog),
        extras=dict(extras or {}),
    )


def deadline_extras(stage_words, ticks=2048):
    return {
        "words_to_deadline": stage_words[-1],
        "ticks_to_deadline": ticks,
        "stage_words_to_deadline": tuple(stage_words),
        "stage_cycles_per_word": CPW,
    }


class TestConstruction:
    def test_default_children_are_per_stage_slack(self):
        governor = CoordinatedGovernor(LADDER, CPW)
        assert governor.n_stages == 3
        assert all(
            isinstance(child, SlackGovernor)
            for child in governor.governors
        )
        assert [child.columns for child in governor.governors] == [
            (0,), (1,), (2,)
        ]

    def test_rejects_empty_stages(self):
        with pytest.raises(ConfigurationError):
            CoordinatedGovernor(LADDER, ())

    def test_rejects_non_positive_cycles(self):
        with pytest.raises(ConfigurationError):
            CoordinatedGovernor(LADDER, (4.0, 0.0))

    def test_rejects_mismatched_children(self):
        with pytest.raises(ConfigurationError):
            CoordinatedGovernor(
                LADDER, CPW, governors=[SlackGovernor(LADDER)]
            )

    def test_rejects_bad_ladder(self):
        with pytest.raises(ConfigurationError):
            CoordinatedGovernor((), CPW)
        with pytest.raises(ConfigurationError):
            CoordinatedGovernor((1, 0), CPW)

    def test_rejects_out_of_range_high_water(self):
        with pytest.raises(ConfigurationError):
            CoordinatedGovernor(LADDER, CPW, high_water=1.5)

    def test_rejects_out_of_range_match_occupancy(self):
        # A percent-vs-fraction typo must fail at construction, not
        # silently disable the rate-matching pass for the whole run.
        with pytest.raises(ConfigurationError):
            CoordinatedGovernor(LADDER, CPW, match_occupancy=25)
        with pytest.raises(ConfigurationError):
            CoordinatedGovernor(LADDER, CPW, match_occupancy=-0.1)

    def test_registered_for_create_governor(self):
        assert "coordinated" in GOVERNOR_KINDS
        governor = create_governor("coordinated", LADDER, CPW)
        assert isinstance(governor, CoordinatedGovernor)

    def test_reset_recurses_into_children(self):
        class Spy(StaticGovernor):
            def __init__(self):
                super().__init__()
                self.resets = 0

            def reset(self):
                self.resets += 1

        children = [Spy(), Spy(), Spy()]
        governor = CoordinatedGovernor(LADDER, CPW, governors=children)
        governor.reset()
        assert [child.resets for child in children] == [1, 1, 1]


class TestDecide:
    def test_rejects_telemetry_of_wrong_width(self):
        governor = CoordinatedGovernor(LADDER, CPW)
        with pytest.raises(ConfigurationError):
            governor.decide(telemetry(dividers=(8, 8)))

    def test_stage_deadline_floors_are_per_stage(self):
        # Stage 1 owes the full trace, stages 0 and 2 owe nothing:
        # only stage 1 speeds up, the others park on the slowest rung.
        governor = CoordinatedGovernor(LADDER, CPW)
        out = governor.decide(telemetry(
            backlog=(0, 800, 0),
            extras=deadline_extras((0, 800, 0)),
        ))
        assert out[1] == 1  # 800 words x 10 cycles needs full speed
        assert out[0] == 8 and out[2] == 8

    def test_upstream_slowdown_propagates_downstream(self):
        # A loaded pipeline: stage 1 holds 600 backlogged words, so
        # both it and its consumer must run flat out.
        governor = CoordinatedGovernor(LADDER, CPW)
        loaded = governor.decide(telemetry(
            backlog=(0, 600, 0),
            extras=deadline_extras((0, 600, 600), ticks=4096),
        ))
        assert loaded[1] == 1  # 600*10*1.25 cycles overcommits 4096
        assert loaded[2] == 1  # 409 deliverable words still need d=1
        # The same downstream claim under a *slow* upstream: stage 1
        # owes only 40 words and relaxes to divider 8, so it can
        # deliver just 4096/80 = 51 words; stage 2's naive 600-word
        # floor (divider 1) collapses to 51 * 6 * 1.25 cycles -> 8.
        relaxed = governor.decide(telemetry(
            backlog=(0, 40, 0),
            extras=deadline_extras((0, 40, 600), ticks=4096),
        ))
        assert relaxed[1] == 8
        assert relaxed[2] == 8

    def test_rate_match_binds_above_occupancy_threshold(self):
        governor = CoordinatedGovernor(LADDER, CPW)
        # Stage 0 is committed fast by its own floor while the channel
        # into stage 1 is filling (0.4 > 0.25): stage 1 must keep pace
        # even though its own deadline floor would let it idle.
        out = governor.decide(telemetry(
            dividers=(1, 8, 8),
            input_fill=(0.0, 0.4, 0.0),
            backlog=(999, 200, 0),
            extras=deadline_extras((999, 0, 0)),
        ))
        assert out[0] == 1  # overcommitted producer runs flat out
        # upstream interval 1 * 4 = 4; stage 1 needs 10 * d <= 4:
        # even divider 1 is too slow, so it clamps to the fastest rung.
        assert out[1] == 1

    def test_rate_match_ignores_draining_trickle(self):
        governor = CoordinatedGovernor(LADDER, CPW)
        out = governor.decide(telemetry(
            dividers=(1, 8, 8),
            input_fill=(0.0, 0.1, 0.0),  # below match_occupancy
            backlog=(0, 3, 0),
            extras=deadline_extras((0, 0, 0)),
        ))
        assert out[1] == 8  # the buffer absorbs burst skew

    def test_high_water_boosts_one_rung(self):
        governor = CoordinatedGovernor(
            LADDER, CPW, match_occupancy=1.0
        )
        out = governor.decide(telemetry(
            dividers=(8, 4, 8),
            input_fill=(0.0, 0.7, 0.0),
            extras=deadline_extras((0, 0, 0)),
        ))
        # Proposal parks at 8, but the current rung 4 is the floor the
        # emergency boost starts from: one rung faster is 2.
        assert out[1] == 2

    def test_high_water_tolerates_off_ladder_dividers(self):
        # A chip booted at an operating point the governor would
        # never pick (divider 3 is off the ladder): the emergency
        # boost must snap to a rung, not crash on ladder.index.
        governor = CoordinatedGovernor(
            LADDER, CPW, match_occupancy=1.0
        )
        out = governor.decide(telemetry(
            dividers=(8, 3, 8),
            input_fill=(0.0, 0.7, 0.0),
            extras=deadline_extras((0, 0, 0)),
        ))
        assert out[1] in LADDER
        assert out[1] <= 2  # at least one rung faster than ~3

    def test_high_water_never_slows_a_faster_than_ladder_stage(self):
        # A chip committed below the ladder's fastest rung: the
        # emergency boost must hold that speed, not drag the stage
        # down onto the ladder while its buffer overflows.
        governor = CoordinatedGovernor(
            (2, 4, 8), CPW, match_occupancy=1.0
        )
        out = governor.decide(telemetry(
            dividers=(8, 1, 8),
            input_fill=(0.0, 0.7, 0.0),
            extras={
                "words_to_deadline": 0,
                "ticks_to_deadline": 2048,
                "stage_words_to_deadline": (0, 0, 0),
                "stage_cycles_per_word": CPW,
            },
        ))
        assert out[1] == 1

    def test_parks_halted_columns_on_slowest_rung(self):
        governor = CoordinatedGovernor(LADDER, CPW)
        out = governor.decide(telemetry(
            dividers=(1, 2, 4),
            halted=(True, False, False),
            extras=deadline_extras((0, 0, 0)),
        ))
        assert out[0] == 8

    def test_park_can_be_disabled(self):
        governor = CoordinatedGovernor(LADDER, CPW, park_halted=False)
        out = governor.decide(telemetry(
            dividers=(1, 2, 4),
            halted=(True, False, False),
            extras=deadline_extras((0, 0, 0)),
        ))
        assert out[0] == 1

    def test_without_extras_holds_current_dividers(self):
        governor = CoordinatedGovernor(LADDER, CPW)
        out = governor.decide(telemetry(dividers=(2, 4, 8)))
        assert out == (2, 4, 8)

    def test_decisions_are_deterministic(self):
        governor = CoordinatedGovernor(LADDER, CPW)
        snapshot = telemetry(
            backlog=(10, 40, 5),
            input_fill=(0.1, 0.3, 0.05),
            extras=deadline_extras((100, 300, 400)),
        )
        assert governor.decide(snapshot) == governor.decide(snapshot)


def test_independent_registers_with_the_control_package():
    """A fresh interpreter importing only ``repro.control`` can build
    every governor kind, ``independent`` included."""
    code = (
        "import sys\n"
        "from repro.control import create_governor\n"
        "governor = create_governor('independent', (1, 2, 4, 8), "
        "(8.0, 8.0))\n"
        "assert not any(name.startswith('repro.workloads') "
        "for name in sys.modules)\n"
        "print(type(governor).__name__)\n"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "IndependentSlackGovernor"


def record(index, start, end, dividers, quiet):
    return EpochRecord(
        index=index,
        start_tick=start,
        end_tick=end,
        dividers=dividers,
        column_activity=tuple(
            EpochColumnActivity(
                tile_cycles=(end - start) // d,
                issued=0 if q else 10,
                idle=(end - start) // d if q else 5,
                bus_words=0 if q else 4,
            )
            for d, q in zip(dividers, quiet)
        ),
    )


class TestGatePlanning:
    def test_empty_timeline_plans_nothing(self):
        assert plan_power_gating(()) == ()

    def test_requires_column_activity(self):
        bare = EpochRecord(
            index=0, start_tick=0, end_tick=512, dividers=(1,)
        )
        with pytest.raises(ConfigurationError):
            plan_power_gating((bare,))

    def test_merges_consecutive_quiescent_windows(self):
        timeline = (
            record(0, 0, 512, (1, 2), (False, True)),
            record(1, 512, 1024, (1, 2), (False, True)),
            record(2, 1024, 1536, (1, 2), (False, False)),
        )
        segments = plan_power_gating(timeline)
        assert segments == (GateSegment(
            column=1, start_epoch=0, end_epoch=2,
            start_tick=0, end_tick=1024, wake=True,
        ),)
        assert segments[0].epochs == 2
        assert segments[0].duration_ticks == 1024

    def test_tail_segment_owes_no_wake(self):
        timeline = (
            record(0, 0, 512, (1, 2), (False, False)),
            record(1, 512, 1024, (1, 2), (True, False)),
            record(2, 1024, 1536, (1, 2), (True, False)),
        )
        segments = plan_power_gating(timeline)
        assert len(segments) == 1
        assert segments[0].column == 0
        assert segments[0].wake is False
        assert segments[0].end_tick == 1536

    def test_busy_columns_never_gate(self):
        timeline = (
            record(0, 0, 512, (1, 2), (False, False)),
            record(1, 512, 1024, (1, 2), (False, False)),
        )
        assert plan_power_gating(timeline) == ()

    def test_interleaved_idles_produce_two_segments(self):
        timeline = (
            record(0, 0, 512, (4,), (True,)),
            record(1, 512, 1024, (4,), (False,)),
            record(2, 1024, 1536, (4,), (True,)),
        )
        segments = plan_power_gating(timeline)
        assert [s.start_epoch for s in segments] == [0, 2]
        assert [s.wake for s in segments] == [True, False]
