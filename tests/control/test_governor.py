"""Governor policies: static, occupancy-PI, deadline slack."""

import pytest

from repro.control.governor import (
    OccupancyPIGovernor,
    SlackGovernor,
    StaticGovernor,
    Telemetry,
)
from repro.errors import ConfigurationError

LADDER = (1, 2, 4, 8)


def telemetry(
    dividers=(8,),
    input_fill=(0.0,),
    backlog=(0,),
    halted=(False,),
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


class TestStaticGovernor:
    def test_holds_configured_dividers(self):
        governor = StaticGovernor((2,))
        assert governor.decide(telemetry((8,))) == (2,)

    def test_defaults_to_current_dividers(self):
        governor = StaticGovernor()
        assert governor.decide(telemetry((4,))) == (4,)


class TestOccupancyPI:
    def test_speeds_up_on_backlog(self):
        governor = OccupancyPIGovernor(LADDER)
        out = governor.decide(
            telemetry((8,), input_fill=(0.5,), backlog=(256,))
        )
        assert out[0] < 8  # a heavy burst jumps several rungs

    def test_holds_near_setpoint(self):
        governor = OccupancyPIGovernor(LADDER)
        out = governor.decide(
            telemetry((4,), input_fill=(governor.setpoint,),
                      backlog=(20,))
        )
        assert out == (4,)

    def test_never_relaxes_with_backlog_pending(self):
        governor = OccupancyPIGovernor(LADDER)
        for epoch in range(10):
            out = governor.decide(telemetry(
                (2,), input_fill=(0.004,), backlog=(2,), epoch=epoch
            ))
            assert out == (2,)

    def test_relaxes_one_rung_when_empty(self):
        governor = OccupancyPIGovernor(LADDER)
        out = governor.decide(
            telemetry((2,), input_fill=(0.0,), backlog=(0,))
        )
        assert out == (4,)

    def test_anti_windup_keeps_bursts_responsive(self):
        """Long idle stretches must not bank slow-down debt."""
        governor = OccupancyPIGovernor(LADDER)
        for epoch in range(50):  # a long quiet period at the bottom
            governor.decide(telemetry(
                (8,), input_fill=(0.0,), backlog=(0,), epoch=epoch
            ))
        out = governor.decide(
            telemetry((8,), input_fill=(0.5,), backlog=(256,),
                      epoch=50)
        )
        assert out[0] < 8  # the burst still gets through

    def test_ignores_halted_columns(self):
        governor = OccupancyPIGovernor(LADDER)
        out = governor.decide(telemetry(
            (8, 8), input_fill=(0.9, 0.0), backlog=(400, 0),
            halted=(True, False),
        ))
        assert out[0] == 8

    def test_rejects_off_ladder_divider(self):
        governor = OccupancyPIGovernor(LADDER)
        with pytest.raises(ConfigurationError, match="ladder"):
            governor.decide(
                telemetry((3,), input_fill=(0.9,), backlog=(100,))
            )


class TestSlackGovernor:
    def extras(self, words, ticks, cpw=8.0):
        return {
            "words_to_deadline": words,
            "ticks_to_deadline": ticks,
            "cycles_per_word": cpw,
        }

    def test_picks_slowest_divider_meeting_the_deadline(self):
        governor = SlackGovernor(LADDER, guard=1.0)
        # 32 words x 8 cycles = 256 column cycles in 2048 ticks:
        # divider 8 exactly meets it
        out = governor.decide(telemetry(
            (2,), extras=self.extras(32, 2048)
        ))
        assert out == (8,)

    def test_guard_band_buys_headroom(self):
        relaxed = SlackGovernor(LADDER, guard=1.0)
        guarded = SlackGovernor(LADDER, guard=1.5)
        extras = self.extras(32, 2048)
        assert relaxed.decide(telemetry((2,), extras=extras)) == (8,)
        assert guarded.decide(telemetry((2,), extras=extras)) == (4,)

    def test_scales_with_owed_work(self):
        governor = SlackGovernor(LADDER, guard=1.0)
        assert governor.decide(telemetry(
            (8,), extras=self.extras(96, 2048)
        )) == (2,)
        assert governor.decide(telemetry(
            (8,), extras=self.extras(256, 2048)
        )) == (1,)

    def test_parks_slow_when_nothing_is_owed(self):
        governor = SlackGovernor(LADDER)
        assert governor.decide(telemetry(
            (1,), extras=self.extras(0, 2048)
        )) == (8,)

    def test_clamps_to_fastest_rung_when_overcommitted(self):
        governor = SlackGovernor(LADDER, guard=1.0)
        assert governor.decide(telemetry(
            (8,), extras=self.extras(10_000, 2048)
        )) == (1,)

    def test_holds_without_harness_extras(self):
        governor = SlackGovernor(LADDER)
        assert governor.decide(telemetry((4,))) == (4,)

    @pytest.mark.parametrize("guard", [0.5, 0.2])
    def test_rejects_sub_unity_guard(self, guard):
        with pytest.raises(ConfigurationError, match="guard"):
            SlackGovernor(LADDER, guard=guard)


class TestLadderValidation:
    def test_rejects_empty_ladder(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            OccupancyPIGovernor(())

    def test_rejects_non_integer_rungs(self):
        with pytest.raises(ConfigurationError, match="positive integer"):
            SlackGovernor((1, 2.5))

    def test_rejects_non_comparable_rungs_as_configuration_error(self):
        # Type checks run before sorting, so a malformed entry fails
        # as the promised ConfigurationError, not sorted()'s TypeError.
        with pytest.raises(ConfigurationError, match="positive integer"):
            SlackGovernor((2, "4"))

    def test_rejects_non_positive_rungs(self):
        with pytest.raises(ConfigurationError, match="positive integer"):
            OccupancyPIGovernor((1, 0, 4))

    def test_rejects_duplicate_rungs(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            SlackGovernor((1, 2, 2, 4))

    def test_normalizes_order(self):
        assert SlackGovernor((8, 1, 4, 2)).ladder == (1, 2, 4, 8)
