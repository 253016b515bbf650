"""Bursty rate-varying scenarios for the runtime-DVFS evaluation.

Synchroscalar's static schedules provision every column for the
worst-case input rate; these scenarios make the worst case *rare* so
a feedback governor has something to win:

* :func:`wlan_mcs_scenario` - an 802.11a receiver whose
  modulation-and-coding scheme hops between BPSK and 64-QAM with
  realistic dwell, scaling the per-frame symbol load 8x;
* :func:`mpeg4_scene_scenario` - an MPEG-4 encoder whose motion load
  sits near a quiet baseline and spikes at scene changes, decaying
  over the following frames.

Each scenario is a deterministic frame trace (words per frame period)
executed by one streaming ``worker`` column (``recv / work / send``
per word) behind the column's input port - the voltage-adapting
inter-domain buffer whose fill level the occupancy governor watches.
A single governed column is the one-column case of the paper's
pipeline mapping, so each scenario is a one-stage
:class:`~repro.workloads.coordinated.PipelineScenario` and runs
through :func:`~repro.workloads.coordinated.run_pipeline`: it feeds
frames at their arrival ticks, counts deadline misses against
per-frame completion, and charges an
:class:`~repro.power.measured.EnergyLedger` epoch by epoch at the
time-varying operating point (transition energy included,
conservation exact).  :data:`run_scenario` is another name for it.
"""

from __future__ import annotations

from repro.workloads.coordinated import (
    PipelineScenario,
    PipelineStage,
    _mcs_loads,
    run_pipeline,
)
from repro.workloads.rng import Generator

__all__ = [
    "mpeg4_scene_scenario",
    "run_scenario",
    "wlan_mcs_scenario",
]

#: Another name for :func:`~repro.workloads.coordinated.run_pipeline`.
run_scenario = run_pipeline


def _bursty(name: str, key: str, frame_loads: tuple) -> PipelineScenario:
    """A one-stage scenario: six work instructions per word, and static
    provisioning with a 1.15 guard on the peak frame."""
    return PipelineScenario(
        name=name,
        key=key,
        frame_loads=frame_loads,
        stages=(PipelineStage("worker", work_per_word=6),),
        provision_guard=1.15,
    )


def wlan_mcs_scenario(
    frames: int = 24, seed: int = 7
) -> PipelineScenario:
    """802.11a receive with runtime modulation changes."""
    return _bursty(
        "WLAN variable MCS", "wlan_mcs", _mcs_loads(frames, seed)
    )


def _scene_loads(frames: int, seed: int) -> tuple:
    """An MPEG-4 motion-load trace with scene-change spikes."""
    rng = Generator(seed)
    loads = []
    decay = ()
    for index in range(frames):
        if decay:
            loads.append(decay[0])
            decay = decay[1:]
            continue
        if index > 0 and rng.random() < 0.18:  # scene change
            loads.append(96)
            decay = (64, 40)
            continue
        loads.append(20 + rng.integers(0, 9))  # quiet baseline
    return tuple(loads)


def mpeg4_scene_scenario(
    frames: int = 24, seed: int = 11
) -> PipelineScenario:
    """MPEG-4 encode with scene-dependent motion load."""
    return _bursty(
        "MPEG-4 scene changes", "mpeg4_scene",
        _scene_loads(frames, seed),
    )
