"""Governed column pipelines: the one scenario harness.

These scenarios govern whole *pipelines* - the paper's mapping style,
where each column is one stage of the DDC or 802.11a receive chain
running at its own rationally related clock.  A
:class:`PipelineScenario` builds an N-column chip (one streaming
worker per stage, horizontal bus moving words stage to stage) and a
rate-varying frame trace; :func:`run_pipeline` drives it under one of
the compared policies:

* ``static`` - per-stage worst-case provisioning (the paper's
  startup-only schedule applied to every stage);
* ``independent`` - one per-column deadline governor per stage, each
  consuming only the chip-global deadline signal (PR 3's slack
  governor replicated per column, no cross-domain state);
* ``coordinated`` - the chip-level
  :class:`~repro.control.coordinator.CoordinatedGovernor`: per-stage
  slack governors under rate matching, single-boundary commits, and
  power gating of quiescent columns in the energy ledger.

A single governed column is the one-stage case: the bursty scenarios
of :mod:`repro.workloads.dvfs` are one-stage pipelines, run through
the same harness and ledger under the single-column feedback policies
``occupancy_pi`` and ``slack`` as well.

Deadlines are counted at the *end of the pipe* (a frame's words must
all leave the last stage by the next frame boundary), and the energy
ledger charges every (epoch, column) window at its committed
operating point with gated-rail accounting for windows the
coordinator proves quiescent - conservation stays exact including
transition and re-wake charges.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from repro.arch.chip import Chip, PORT_POSITION
from repro.arch.config import ChipConfig, ColumnConfig
from repro.arch.dou_compiler import Transfer, compile_schedule
from repro.control.coordinator import (
    CoordinatedGovernor,
    IndependentSlackGovernor,
    plan_power_gating,
)
from repro.control.epochs import GovernedRun, run_governed
from repro.control.governor import (
    Governor,
    StaticGovernor,
    create_governor,
    slowest_safe_divider,
)
from repro.control.transitions import TransitionModel
from repro.errors import ConfigurationError, SimulationError
from repro.isa.assembler import assemble
from repro.power.interconnect import CommProfile
from repro.power.measured import EnergyLedger
from repro.power.model import ComponentSpec, PowerModel

__all__ = [
    "PIPELINE_GOVERNORS",
    "PipelineResult",
    "PipelineScenario",
    "PipelineStage",
    "aes_pipeline_scenario",
    "charge_pipeline_ledger",
    "ddc_pipeline_scenario",
    "energy_segments",
    "mpeg4_pipeline_scenario",
    "pipeline_governor",
    "run_pipeline",
    "stereo_pipeline_scenario",
    "wlan_rx_pipeline_scenario",
]

#: Leakage share still drawn by a power-gated rail (retention cells
#: and the gating header); see EnergyLedger.charge_gated.
GATED_LEAKAGE_FRACTION = 0.05


@dataclass(frozen=True)
class PipelineStage:
    """One pipeline stage: a column's streaming kernel shape.

    A stage *firing* consumes ``words_in`` words, performs
    ``work_per_word`` unrolled compute instructions, and produces
    ``words_out`` words, costing ``words_in + work_per_word +
    words_out`` tile cycles.  The default 1:1 shape reproduces the
    original streaming worker (RECV + work + SEND per word); a
    decimating stage (a CIC, an entropy coder) sets ``words_in >
    words_out`` and an expanding stage (a demapper) the reverse -
    the non-1:1 word-rate ratios dataflow rate matching is about.

    ``cycles_per_word`` - tile cycles per *input* word - stays the
    rate currency every provisioning and matching rule uses.
    """

    name: str
    work_per_word: int
    words_in: int = 1
    words_out: int = 1

    def __post_init__(self) -> None:
        if self.work_per_word < 1:
            raise ConfigurationError(
                f"stage {self.name}: work_per_word must be positive"
            )
        if self.words_in < 1:
            raise ConfigurationError(
                f"stage {self.name}: words_in must be positive, got "
                f"{self.words_in}"
            )
        if self.words_out < 1:
            raise ConfigurationError(
                f"stage {self.name}: words_out must be positive, got "
                f"{self.words_out}"
            )

    @property
    def cycles_per_firing(self) -> int:
        """Tile cycles one firing costs (RECVs + work + SENDs)."""
        return self.words_in + self.work_per_word + self.words_out

    @property
    def cycles_per_word(self) -> float:
        """Tile cycles one *input* word costs.

        Exactly ``work_per_word + 2`` for the 1:1 default - the
        original rate currency - and the amortized per-word share of
        a firing otherwise.
        """
        return self.cycles_per_firing / self.words_in

    @property
    def rate_ratio(self) -> Fraction:
        """Output words produced per input word consumed."""
        return Fraction(self.words_out, self.words_in)


@dataclass(frozen=True)
class PipelineScenario:
    """A rate-varying workload on an N-stage column pipeline graph.

    Frame ``i`` arrives at the first stage at tick
    ``i * frame_ticks``; its words must have left the *last* stage by
    ``(i + 1) * frame_ticks``.  Words flow stage to stage over the
    horizontal bus (one round-robin DOU cycle per producing stage),
    through the voltage-adapting inter-column ports whose occupancy
    the governors watch.  One stage is the single governed column: the
    head is also the sink and the chip has no horizontal bus
    schedule.  ``epoch_ticks`` must divide ``frame_ticks``
    and be a multiple of every ladder divider so deadlines and
    commits land on control boundaries.

    ``predecessors`` describes the stage graph: per stage, the
    indices of its producers (default the linear chain).  Stage 0 is
    the single external head, the last stage the single sink the
    deadline is counted at.  A *fork* is several stages naming one
    producer - the producer's output is broadcast, each consumer sees
    the full stream (one DOU cycle drives both branch ports).  A
    *join* names several producers; its single input port interleaves
    the branches' words deterministically and a firing consumes
    ``words_in`` of them, so matched branches must deliver equal word
    counts (validated).  Combined with per-stage ``words_in`` /
    ``words_out`` ratios this gives the non-1:1 (decimating /
    expanding) and fork/join topologies of dataflow rate matching.
    """

    name: str
    key: str
    frame_loads: tuple
    stages: tuple
    frame_ticks: int = 2048
    reference_mhz: float = 512.0
    divider_ladder: tuple = (1, 2, 4, 8)
    epoch_ticks: int = 512
    provision_guard: float = 1.3
    coordination_guard: float = 1.25
    port_capacity: int = 512
    predecessors: tuple | None = None
    #: Reference ticks the harness subtracts from the published
    #: deadline window.  The per-stage rate decomposition assumes the
    #: stages work concurrently, which the *last* words of a frame
    #: violate - they traverse the stages serially - so deep or
    #: slow-ladder pipelines reserve their serial drain time here.
    #: Zero (the default) reproduces the undiminished window.
    drain_allowance_ticks: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "frame_loads", tuple(int(v) for v in self.frame_loads)
        )
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(
            self, "divider_ladder",
            tuple(sorted(self.divider_ladder)),
        )
        if not self.stages:
            raise ConfigurationError(
                f"{self.name}: a pipeline needs at least one stage"
            )
        for stage in self.stages:
            if not isinstance(stage, PipelineStage):
                raise ConfigurationError(
                    f"{self.name}: stages must be PipelineStage "
                    f"instances"
                )
        if self.predecessors is not None:
            object.__setattr__(
                self, "predecessors",
                tuple(
                    tuple(int(p) for p in preds)
                    for preds in self.predecessors
                ),
            )
        self._validate_graph()
        if not self.frame_loads:
            raise ConfigurationError(f"{self.name}: no frames")
        if min(self.frame_loads) < 1:
            raise ConfigurationError(
                f"{self.name}: every frame needs at least one word"
            )
        quantum = self.load_quantum
        for index, load in enumerate(self.frame_loads):
            if load % quantum != 0:
                raise ConfigurationError(
                    f"{self.name}: frame {index} carries {load} "
                    f"words, not a multiple of the load quantum "
                    f"{quantum} the stage rate ratios require (every "
                    f"stage must fire whole firings per frame)"
                )
        for divider in self.divider_ladder:
            if self.frame_ticks % divider != 0 \
                    or self.epoch_ticks % divider != 0:
                raise ConfigurationError(
                    f"{self.name}: frame and epoch ticks must be "
                    f"multiples of ladder divider {divider}"
                )
        if self.frame_ticks % self.epoch_ticks != 0:
            raise ConfigurationError(
                f"{self.name}: epoch_ticks must divide frame_ticks "
                f"so deadlines land on control boundaries"
            )
        if not 0 <= self.drain_allowance_ticks < self.frame_ticks:
            raise ConfigurationError(
                f"{self.name}: drain_allowance_ticks "
                f"{self.drain_allowance_ticks} must lie in "
                f"[0, frame_ticks)"
            )

    def _validate_graph(self) -> None:
        """Check the stage graph is a single-head, single-sink DAG."""
        preds = self.stage_predecessors
        if len(preds) != len(self.stages):
            raise ConfigurationError(
                f"{self.name}: {len(self.stages)} stages but "
                f"{len(preds)} predecessor entries"
            )
        if preds[0]:
            raise ConfigurationError(
                f"{self.name}: stage 0 is the external head and "
                f"cannot list predecessors (got {preds[0]})"
            )
        for stage in range(1, len(self.stages)):
            entry = preds[stage]
            if not entry:
                raise ConfigurationError(
                    f"{self.name}: stage {stage} "
                    f"({self.stages[stage].name}) has no producer - "
                    f"only stage 0 takes external input"
                )
            if len(set(entry)) != len(entry):
                raise ConfigurationError(
                    f"{self.name}: stage {stage} lists a duplicate "
                    f"producer in {entry}"
                )
            for pred in entry:
                if not 0 <= pred < stage:
                    raise ConfigurationError(
                        f"{self.name}: stage {stage} lists producer "
                        f"{pred}; producers must be earlier stages "
                        f"(topological order)"
                    )
        successors = self.stage_successors
        for stage in range(len(self.stages) - 1):
            if not successors[stage]:
                raise ConfigurationError(
                    f"{self.name}: stage {stage} "
                    f"({self.stages[stage].name}) has no consumer - "
                    f"only the last stage may sink the stream"
                )
        if successors[-1]:
            raise ConfigurationError(
                f"{self.name}: the last stage is the pipeline sink "
                f"and cannot feed {successors[-1]}"
            )
        scales = self.input_scales
        for stage, entry in enumerate(preds):
            if len(entry) <= 1:
                continue
            rates = {
                pred: scales[pred] * self.stages[pred].rate_ratio
                for pred in entry
            }
            if len(set(rates.values())) != 1:
                raise ConfigurationError(
                    f"{self.name}: join stage {stage} "
                    f"({self.stages[stage].name}) mixes branches with "
                    f"unequal word rates {dict(rates)} - matched "
                    f"branches must deliver equal word counts per "
                    f"head word"
                )

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def n_stages(self) -> int:
        """Pipeline depth (columns on the chip)."""
        return len(self.stages)

    @property
    def n_frames(self) -> int:
        """Frames in the trace."""
        return len(self.frame_loads)

    @property
    def total_words(self) -> int:
        """Words across the whole trace (at the pipeline head)."""
        return sum(self.frame_loads)

    @property
    def peak_words(self) -> int:
        """The heaviest frame - what static provisioning sizes for."""
        return max(self.frame_loads)

    @property
    def stage_cycles(self) -> tuple:
        """Per-stage tile cycles per input word, pipeline order."""
        return tuple(s.cycles_per_word for s in self.stages)

    @property
    def stage_predecessors(self) -> tuple:
        """Per-stage producer indices (linear chain by default)."""
        if self.predecessors is not None:
            return self.predecessors
        return ((),) + tuple(
            (stage - 1,) for stage in range(1, self.n_stages)
        )

    @property
    def stage_successors(self) -> tuple:
        """Per-stage consumer indices, derived from the producers."""
        successors = [[] for _ in self.stages]
        for stage, preds in enumerate(self.stage_predecessors):
            for pred in preds:
                successors[pred].append(stage)
        return tuple(tuple(entry) for entry in successors)

    @property
    def is_linear(self) -> bool:
        """Whether the stage graph is the plain chain."""
        return all(
            len(preds) <= 1 for preds in self.stage_predecessors
        ) and all(
            len(succs) <= 1 for succs in self.stage_successors
        )

    # ------------------------------------------------------------------
    # word-flow scales
    # ------------------------------------------------------------------
    @property
    def input_scales(self) -> tuple:
        """Words arriving at each stage per external head word.

        Exact :class:`~fractions.Fraction` values: the head sees 1;
        every other stage sums its producers' output scales (a fork
        broadcasts, so each branch sees the producer's full output; a
        join's port receives every branch's words).
        """
        scales = []
        for stage, preds in enumerate(self.stage_predecessors):
            if not preds:
                scales.append(Fraction(1))
                continue
            scales.append(sum(
                scales[pred] * self.stages[pred].rate_ratio
                for pred in preds
            ))
        return tuple(scales)

    @property
    def output_scales(self) -> tuple:
        """Words each stage produces per external head word."""
        return tuple(
            scale * stage.rate_ratio
            for scale, stage in zip(self.input_scales, self.stages)
        )

    @property
    def exit_scale(self) -> Fraction:
        """Words leaving the pipe per external head word."""
        return self.output_scales[-1]

    @property
    def load_quantum(self) -> int:
        """Smallest frame load every stage can consume in whole firings.

        Every frame load must be a multiple of this: frame ``k``
        delivers ``load * input_scales[i]`` words to stage ``i``,
        which must be an integral number of ``words_in`` firings so
        no partial firing straddles a deadline.  The quantum is the
        LCM of the per-stage denominators of ``input_scale /
        words_in``; 1 for any all-1:1 pipeline.
        """
        quantum = 1
        for scale, stage in zip(self.input_scales, self.stages):
            denominator = (scale / stage.words_in).denominator
            quantum = quantum * denominator \
                // np.gcd(quantum, denominator)
        return int(quantum)

    @property
    def stage_firings(self) -> tuple:
        """Firings each stage executes over the whole trace."""
        return tuple(
            int(self.total_words * scale / stage.words_in)
            for scale, stage in zip(self.input_scales, self.stages)
        )

    @property
    def total_exit_words(self) -> int:
        """Words the whole trace produces at the pipeline exit."""
        return int(self.total_words * self.exit_scale)

    # ------------------------------------------------------------------
    # provisioning
    # ------------------------------------------------------------------
    def static_dividers(self) -> tuple:
        """Per-stage worst-case provisioning (startup-only clocking).

        Each stage independently takes the slowest ladder rung that
        still processes the *peak* frame inside one frame period with
        the provisioning guard - exactly the paper's per-column rate
        matching, applied to the worst case because a static schedule
        cannot revisit the choice.  The peak load is scaled into each
        stage's own input words first, so a stage behind a decimator
        provisions for the decimated stream, not the head rate.
        """
        dividers = []
        for index, stage in enumerate(self.stages):
            stage_peak = int(self.peak_words * self.input_scales[index])
            divider = slowest_safe_divider(
                self.divider_ladder, self.frame_ticks, stage_peak,
                stage.cycles_per_word, self.provision_guard,
            )
            if divider is None:
                raise ConfigurationError(
                    f"{self.name}: stage {stage.name} cannot sustain "
                    f"the peak frame of {stage_peak} words even "
                    f"at divider {self.divider_ladder[0]}"
                )
            dividers.append(divider)
        return tuple(dividers)

    # ------------------------------------------------------------------
    # chip construction
    # ------------------------------------------------------------------
    def build_chip(self, dividers: tuple | None = None) -> Chip:
        """An N-column streaming pipeline chip for this scenario."""
        start = tuple(dividers) if dividers is not None \
            else self.static_dividers()
        if len(start) != self.n_stages:
            raise ConfigurationError(
                f"{self.name}: {self.n_stages} stages but "
                f"{len(start)} start dividers"
            )
        firings = self.stage_firings
        programs = []
        dou_programs = []
        for index, stage in enumerate(self.stages):
            recvs = "\n".join(
                "  recv r1" for _ in range(stage.words_in)
            )
            work = "\n".join(
                "  addi r2, r2, 1"
                for _ in range(stage.work_per_word)
            )
            sends = "\n".join(
                "  send r1" for _ in range(stage.words_out)
            )
            programs.append(assemble(f"""
                tmask 0x1            ; tile 0 is the stage worker
                movi r2, 0
                loop {firings[index]}
{recvs}
{work}
{sends}
                endloop
                halt
            """, f"{self.key}-{stage.name}"))
            dou_programs.append(compile_schedule(
                [
                    [Transfer(src=PORT_POSITION, dsts=(0,))],
                    [Transfer(src=0, dsts=(PORT_POSITION,))],
                ],
                name=f"{self.key}-{stage.name}-stream",
            ))
        successors = self.stage_successors
        # One round-robin cycle per *producing* stage; a fork's single
        # transfer broadcasts the word into every branch port.
        horizontal = compile_schedule(
            [
                [Transfer(src=index, dsts=successors[index])]
                for index in range(self.n_stages)
                if successors[index]
            ],
            n_positions=self.n_stages,
            name=f"{self.key}-hbus",
        ) if self.n_stages > 1 else None
        config = ChipConfig(
            reference_mhz=self.reference_mhz,
            columns=tuple(
                ColumnConfig(divider=d) for d in start
            ),
            port_capacity=self.port_capacity,
            strict_schedules=False,
        )
        return Chip(
            config,
            programs=programs,
            dou_programs=dou_programs,
            horizontal_dou=horizontal,
        )


# ----------------------------------------------------------------------
# scenario factories
# ----------------------------------------------------------------------
def _band_loads(frames: int, seed: int) -> tuple:
    """A DDC channel-bandwidth trace: sticky rate with reconfigs."""
    rng = np.random.default_rng(seed)
    levels = (16, 32, 64, 96)  # narrowband .. full-rate words/frame
    level = 1
    loads = []
    for _ in range(frames):
        if rng.random() > 0.7:  # carrier/bandwidth reconfiguration
            step = 1 if rng.random() < 0.5 else -1
            level = min(len(levels) - 1, max(0, level + step))
        loads.append(levels[level])
    # Exercise the worst case at least once.
    loads[int(rng.integers(frames // 2, frames))] = levels[-1]
    return tuple(loads)


def _mcs_loads(frames: int, seed: int) -> tuple:
    """A WLAN modulation-and-coding trace: sticky MCS with hops."""
    rng = np.random.default_rng(seed)
    levels = (12, 24, 48, 96)  # BPSK .. 64-QAM words per frame
    level = 1
    loads = []
    for _ in range(frames):
        roll = rng.random()
        if roll > 0.65:  # hop one MCS step, biased upward
            step = 1 if rng.random() < 0.55 else -1
            level = min(len(levels) - 1, max(0, level + step))
        loads.append(levels[level])
    # Guarantee the trace really exercises the worst case once.
    loads[int(rng.integers(frames // 2, frames))] = levels[-1]
    return tuple(loads)


def ddc_pipeline_scenario(
    frames: int = 20, seed: int = 5
) -> PipelineScenario:
    """The DDC front end, governed end to end.

    Four stages mirror the Section 2 mapping - NCO/mixer, CIC
    decimator, compensation FIR, and gain stage - with per-word costs
    chosen so the static schedule must spread the pipeline across
    four different rungs (the paper's rational-clocking claim made
    dynamic).
    """
    return PipelineScenario(
        name="DDC pipeline (governed end to end)",
        key="ddc_pipeline",
        frame_loads=_band_loads(frames, seed),
        stages=(
            PipelineStage("mixer", work_per_word=2),
            PipelineStage("cic", work_per_word=8),
            PipelineStage("fir", work_per_word=4),
            PipelineStage("gain", work_per_word=1),
        ),
    )


def wlan_rx_pipeline_scenario(
    frames: int = 20, seed: int = 7
) -> PipelineScenario:
    """An 802.11a receive chain under runtime MCS changes.

    Three stages - FFT, demapper, Viterbi - share the WLAN
    variable-MCS frame trace of the single-column evaluation, so the
    coordinated results are directly comparable with PR 3's.
    """
    return PipelineScenario(
        name="WLAN variable-MCS receiver pipeline",
        key="wlan_rx_pipeline",
        frame_loads=_mcs_loads(frames, seed),
        stages=(
            PipelineStage("fft", work_per_word=4),
            PipelineStage("demap", work_per_word=2),
            PipelineStage("viterbi", work_per_word=6),
        ),
    )


def _packet_loads(frames: int, seed: int) -> tuple:
    """An AES link trace: idle beacons with encrypted data bursts."""
    rng = np.random.default_rng(seed)
    loads = []
    for _ in range(frames):
        if rng.random() < 0.35:  # data burst
            loads.append(int(rng.integers(10, 16)) * 8)
        else:  # beacon / keep-alive traffic
            loads.append(int(rng.integers(2, 5)) * 8)
    # Exercise the worst case at least once.
    loads[int(rng.integers(frames // 2, frames))] = 128
    return tuple(loads)


def aes_pipeline_scenario(
    frames: int = 20, seed: int = 11
) -> PipelineScenario:
    """AES link encryption as a governed four-stage pipeline.

    Key mix, SubBytes, the round core, and serialization stream one
    block per word; the round core dominates per-word cost, so the
    static schedule must hold its column fast while the governors let
    the light stages idle down between packet bursts.
    """
    return PipelineScenario(
        name="AES link-encryption pipeline",
        key="aes_pipeline",
        frame_loads=_packet_loads(frames, seed),
        stages=(
            PipelineStage("keymix", work_per_word=2),
            PipelineStage("sbox", work_per_word=5),
            PipelineStage("rounds", work_per_word=9),
            PipelineStage("serialize", work_per_word=1),
        ),
    )


def _motion_loads(frames: int, seed: int) -> tuple:
    """An MPEG-4 macroblock trace: scene-dependent, in eights.

    Loads are multiples of 8 because the encoder pipeline's entropy
    tail consumes the quantizer's 2:1-decimated stream four words per
    firing - the load quantum the scenario validates.
    """
    rng = np.random.default_rng(seed)
    levels = (16, 32, 64, 96)  # still scene .. full motion
    level = 1
    loads = []
    for _ in range(frames):
        if rng.random() > 0.65:  # scene change / motion burst
            step = 1 if rng.random() < 0.55 else -1
            level = min(len(levels) - 1, max(0, level + step))
        loads.append(levels[level])
    loads[int(rng.integers(frames // 2, frames))] = levels[-1]
    return tuple(loads)


def mpeg4_pipeline_scenario(
    frames: int = 20, seed: int = 13
) -> PipelineScenario:
    """The MPEG-4 encoder tail with non-1:1 word-rate ratios.

    DCT feeds a 2:1 decimating quantizer (two coefficients in, one
    significant value out) which feeds a 4:1 entropy packer - the
    decimating-pipeline shape of dataflow rate matching, where each
    stage's deadline-safe rung follows its *own* decimated word rate,
    an eighth of the head rate at the tail.
    """
    return PipelineScenario(
        name="MPEG-4 encoder tail (2:1 and 4:1 decimation)",
        key="mpeg4_pipeline",
        frame_loads=_motion_loads(frames, seed),
        stages=(
            PipelineStage("dct", work_per_word=4),
            PipelineStage(
                "quant", work_per_word=5, words_in=2, words_out=1
            ),
            PipelineStage(
                "entropy", work_per_word=11, words_in=4, words_out=1
            ),
        ),
    )


def _audio_loads(frames: int, seed: int) -> tuple:
    """A stereo audio trace: sample-rate switches with level bursts."""
    rng = np.random.default_rng(seed)
    levels = (16, 32, 48, 96)  # low-rate .. hi-res words/frame
    level = 1
    loads = []
    for _ in range(frames):
        if rng.random() > 0.55:  # sample-rate / codec switch
            step = 1 if rng.random() < 0.5 else -1
            level = min(len(levels) - 1, max(0, level + step))
        loads.append(levels[level])
    loads[int(rng.integers(frames // 2, frames))] = levels[-1]
    return tuple(loads)


def stereo_pipeline_scenario(
    frames: int = 20, seed: int = 17
) -> PipelineScenario:
    """Stereo effects processing as a fork/join diamond.

    A splitter broadcasts each sample to the left and right channel
    filters (a fork: both branches see the full stream), and the
    downmix join consumes one word from each branch per output sample
    - the join's availability follows the slower branch, which the
    asymmetric per-channel filter costs make a real constraint.
    """
    return PipelineScenario(
        name="Stereo effects fork/join pipeline",
        key="stereo_pipeline",
        frame_loads=_audio_loads(frames, seed),
        stages=(
            PipelineStage("split", work_per_word=1),
            PipelineStage("left_fx", work_per_word=6),
            PipelineStage("right_fx", work_per_word=3),
            PipelineStage(
                "downmix", work_per_word=4, words_in=2, words_out=1
            ),
        ),
        predecessors=((), (0,), (0,), (1, 2)),
    )


# ----------------------------------------------------------------------
# governors
# ----------------------------------------------------------------------
#: Pipeline policies the coordinated evaluation and the scenario
#: generator compare.  :func:`pipeline_governor` also builds the
#: single-column feedback policies ``occupancy_pi`` and ``slack``.
PIPELINE_GOVERNORS = ("static", "independent", "coordinated")


def pipeline_governor(
    kind: str, scenario: PipelineScenario
) -> Governor:
    """Construct one of the evaluated pipeline policies.

    Accepts every name in :data:`PIPELINE_GOVERNORS`; any other name
    goes to :func:`~repro.control.governor.create_governor` over the
    scenario's divider ladder, which builds ``occupancy_pi`` and
    ``slack``.

    Raises
    ------
    ConfigurationError
        For an unregistered name, with the valid choices listed.
    """
    if kind == "static":
        return StaticGovernor(scenario.static_dividers())
    if kind == "independent":
        return IndependentSlackGovernor(
            scenario.divider_ladder,
            scenario.stage_cycles,
            guard=scenario.coordination_guard,
            word_scales=tuple(
                float(scale / scenario.exit_scale)
                for scale in scenario.input_scales
            ),
        )
    if kind == "coordinated":
        return CoordinatedGovernor(
            scenario.divider_ladder,
            scenario.stage_cycles,
            guard=scenario.coordination_guard,
            rate_ratios=tuple(
                float(stage.rate_ratio) for stage in scenario.stages
            ),
            predecessors=scenario.stage_predecessors,
        )
    return create_governor(
        kind, scenario.divider_ladder, context=scenario.key
    )


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
class _PipelineHarness:
    """Feeds the head stage, drains the tail, publishes deadlines.

    The scenario's exact word-flow scales are reduced to integers once,
    here: the due head words per frame become prefix sums, and each
    stage's deadline decomposition becomes integer queue weights over
    one common denominator, so an epoch's signals cost integer
    arithmetic only - the same values the ``Fraction`` expressions give.
    """

    def __init__(
        self, scenario: PipelineScenario, chip: Chip
    ) -> None:
        self.scenario = scenario
        self.chip = chip
        self.fed_frames = 0
        self.produced = 0
        self.samples: list = []
        self._due_heads = tuple(accumulate(scenario.frame_loads))
        exit_scale = scenario.exit_scale
        self._exit = (exit_scale.numerator, exit_scale.denominator)
        stage_cycles = scenario.stage_cycles
        self._cycles_per_word = float(max(stage_cycles))
        self._stage_cycles = tuple(float(c) for c in stage_cycles)
        self._stage_plans = self._deadline_plans(chip)

    def before_epoch(self, chip: Chip, epoch: int) -> None:
        tick = chip.reference_ticks
        self.produced += chip.columns[-1].h_out.drain()
        scenario = self.scenario
        while self.fed_frames < scenario.n_frames \
                and self.fed_frames * scenario.frame_ticks <= tick:
            words = scenario.frame_loads[self.fed_frames]
            head = chip.columns[0]
            if len(head.h_in) + words > head.h_in.capacity:
                raise SimulationError(
                    f"{scenario.name}: head-stage port overflow at "
                    f"tick {tick} - raise port_capacity or fix the "
                    f"governor"
                )
            chip.feed_column(0, [1 + (w % 97) for w in range(words)])
            self.fed_frames += 1
        self.samples.append((tick, self.produced))

    def _deadline_plans(self, chip: Chip) -> tuple:
        """Per stage: what ``telemetry_extras`` needs, in integers.

        ``stage_words_to_deadline[i]`` subtracts from the words due at
        stage ``i`` (the due head words scaled into the stage's own
        input units) everything already *past* the stage: the words
        produced at the pipe exit, the stage's own output queue, and
        every word queued along the stage's primary downstream path -
        all converted into stage-``i`` input units through the exact
        word-flow scales, and floored so rounding can only make a
        governor run *faster*.  On a fork only the primary branch's
        queues are credited (a word still owed on the other branch is
        not past the fork), which again errs fast, never slow.

        Each plan is ``(due numerator, due denominator, produced
        weight, ((queue, weight), ...), denominator)``: the words past
        the stage are ``(produced * produced weight + sum(len(queue)
        * weight)) // denominator``.
        """
        scenario = self.scenario
        columns = chip.columns
        scales = scenario.input_scales
        out_scales = scenario.output_scales
        successors = scenario.stage_successors
        predecessors = scenario.stage_predecessors
        plans = []
        for index, scale in enumerate(scales):
            queues = [(columns[index].h_out, scale / out_scales[index])]
            walk = index
            while successors[walk]:
                walk = successors[walk][0]
                # A join's input queue interleaves branch words a
                # branch stage cannot attribute, so it earns no
                # credit: counting an averaged share would let a
                # lagging branch claim the *other* branch's progress.
                if len(predecessors[walk]) == 1:
                    queues.append((columns[walk].h_in, scale / scales[walk]))
                queues.append(
                    (columns[walk].h_out, scale / out_scales[walk])
                )
            exit_weight = scale / scenario.exit_scale
            denominator = math.lcm(exit_weight.denominator, *(
                weight.denominator for _, weight in queues
            ))
            plans.append((
                scale.numerator, scale.denominator,
                int(exit_weight * denominator),
                tuple(
                    (queue, int(weight * denominator))
                    for queue, weight in queues
                ),
                denominator,
            ))
        return tuple(plans)

    def telemetry_extras(self, chip: Chip, epoch: int) -> dict:
        """Chip-level deadline signals, end-of-pipe and per-stage.

        See :meth:`_deadline_plans` for the per-stage decomposition.
        """
        scenario = self.scenario
        tick = chip.reference_ticks
        arrived = min(
            scenario.n_frames - 1, tick // scenario.frame_ticks
        )
        due_head = self._due_heads[arrived]
        produced = self.produced
        stage_words = []
        for due_numerator, due_denominator, produced_weight, queues, \
                denominator in self._stage_plans:
            past = produced * produced_weight
            for queue, weight in queues:
                past += len(queue) * weight
            due_stage = due_head * due_numerator // due_denominator
            stage_words.append(max(0, due_stage - past // denominator))
        exit_numerator, exit_denominator = self._exit
        due_exit = due_head * exit_numerator // exit_denominator
        window = (arrived + 1) * scenario.frame_ticks - tick \
            - scenario.drain_allowance_ticks
        return {
            "words_to_deadline": max(0, due_exit - produced),
            "ticks_to_deadline": max(1, window),
            "cycles_per_word": self._cycles_per_word,
            "stage_words_to_deadline": tuple(stage_words),
            "stage_cycles_per_word": self._stage_cycles,
        }

    def finish(self, run: GovernedRun) -> None:
        """Credit words that only left during the post-halt drain.

        They are credited at the drain's end tick - the conservative
        timestamp: a deadline falling between halt and drain end
        counts them as late.
        """
        self.produced += self.chip.columns[-1].h_out.drain()
        self.samples.append(
            (run.stats.reference_ticks, self.produced)
        )

    def deadline_misses(self) -> int:
        """Frames whose words had not all left the pipe in time.

        Samples rise in both tick and words produced, so the words out
        by a deadline are those of the last sample at or before it.
        """
        frame_ticks = self.scenario.frame_ticks
        exit_numerator, exit_denominator = self._exit
        ticks = [tick for tick, _ in self.samples]
        misses = 0
        for index, due_head in enumerate(self._due_heads):
            due = due_head * exit_numerator // exit_denominator
            last = bisect_right(ticks, (index + 1) * frame_ticks)
            produced_by_deadline = self.samples[last - 1][1] if last else 0
            if produced_by_deadline < due:
                misses += 1
        return misses


# ----------------------------------------------------------------------
# energy accounting with power gating
# ----------------------------------------------------------------------
def energy_segments(run: GovernedRun, name: str = "run") -> list:
    """Tile a governed run's tick span into chargeable segments.

    Returns ``(dividers, duration_ticks, column_activity | None)``
    triples: one per epoch window, plus a final activity-free segment
    for the post-halt bus drain at the last committed clock.  The
    *coverage* invariant is checked here - the segments must tile the
    run's full reference-tick span exactly, so a dropped epoch or
    drain window raises :class:`~repro.errors.SimulationError` instead
    of silently undercounting energy.  :func:`charge_pipeline_ledger`
    builds on this.
    """
    segments = [
        (epoch.dividers, epoch.duration_ticks, epoch.column_activity)
        for epoch in run.timeline
    ]
    covered = run.timeline[-1].end_tick if run.timeline else 0
    drain = run.stats.reference_ticks - covered
    if drain > 0 and run.timeline:
        segments.append((run.timeline[-1].dividers, drain, None))
    tiled = sum(ticks for _, ticks, _ in segments)
    if tiled != run.stats.reference_ticks:
        raise SimulationError(
            f"{name}: energy segments cover {tiled} of "
            f"{run.stats.reference_ticks} reference ticks - the "
            f"ledger would undercount"
        )
    return segments


def charge_pipeline_ledger(
    scenario: PipelineScenario,
    run: GovernedRun,
    model: PowerModel,
    transition_model: TransitionModel,
    gating: bool = True,
) -> tuple:
    """Ledger over the pipeline timeline, with gated-rail windows.

    Every (epoch, column) window is charged at that epoch's committed
    operating point with the window's measured busy split, and the
    post-halt drain idle at the final operating point (the segments of
    :func:`energy_segments`); additionally, when ``gating`` is
    on, the coordinator's gate plan
    (:func:`~repro.control.coordinator.plan_power_gating`) marks fully
    quiescent windows, and each candidate segment is gated only if the
    retention savings beat its re-wake rail charge - the break-even
    rule that keeps gating from thrashing on short idles.  Gated
    windows charge at the gated rate (retention leakage only); a
    wake-free tail segment's gate extends through the post-halt drain
    window (that rail is off for good); every applied wake prices
    ``1/2 C_rail V^2`` through
    :meth:`~repro.control.transitions.TransitionModel.wake_energy_nj`.

    Returns ``(ledger, conservation_error, applied_gate_segments)``;
    the error re-accumulates the expected energy alongside the ledger
    (power x time over ungated windows, retention energy over gated
    ones, plus every transition and wake charge), so conservation
    stays exact by construction and any term-splitting bug raises the
    relative error above the asserted tolerance.
    """
    segments = energy_segments(run, scenario.name)
    reference_mhz = scenario.reference_mhz
    n_columns = scenario.n_stages

    # Evaluate every (segment, column) operating point once.
    powers = []
    for index, (dividers, ticks, activity) in enumerate(segments):
        row = []
        for column in range(n_columns):
            delta = activity[column] if activity is not None else None
            spec = ComponentSpec(
                name=f"seg{index}.col{column}",
                n_tiles=run.stats.column(column).n_tiles,
                frequency_mhz=reference_mhz / dividers[column],
                comm=CommProfile(
                    words_per_cycle=(
                        delta.words_per_cycle if delta else 0.0
                    ),
                ),
            )
            row.append(model.component_power(spec))
        powers.append(row)

    # Decide which candidate gate segments pay for themselves.  A
    # wake-free tail segment powers its column off for good, so its
    # gate extends through the post-halt drain segment too - the
    # drain window must not be charged ungated for a rail the
    # coordinator declared permanently off.
    n_epochs = len(run.timeline)
    has_drain = len(segments) == n_epochs + 1
    applied = []
    gated: set = set()
    if gating:
        for segment in plan_power_gating(run.timeline):
            column = segment.column
            windows = list(
                range(segment.start_epoch, segment.end_epoch)
            )
            if not segment.wake and segment.end_epoch == n_epochs \
                    and has_drain:
                windows.append(n_epochs)
            savings = 0.0
            for epoch in windows:
                power = powers[epoch][column]
                time_us = segments[epoch][1] / reference_mhz
                savings += power.total_mw * time_us \
                    - power.leakage_mw * time_us \
                    * GATED_LEAKAGE_FRACTION
            wake_nj = 0.0
            if segment.wake:
                wake_divider = run.timeline[
                    segment.end_epoch
                ].dividers[column]
                wake_nj = transition_model.wake_energy_nj(
                    transition_model.voltage_for(
                        reference_mhz, wake_divider
                    ),
                    run.stats.column(column).n_tiles,
                )
            if savings > wake_nj:
                applied.append((segment, wake_nj))
                gated.update((epoch, column) for epoch in windows)

    ledger = EnergyLedger()
    expected = 0.0
    for index, (dividers, ticks, activity) in enumerate(segments):
        time_us = ticks / reference_mhz
        for column in range(n_columns):
            power = powers[index][column]
            if (index, column) in gated:
                ledger.charge_gated(
                    power, time_us,
                    retained_leakage_fraction=GATED_LEAKAGE_FRACTION,
                )
                expected += power.leakage_mw * time_us \
                    * GATED_LEAKAGE_FRACTION
                continue
            delta = activity[column] if activity is not None else None
            ledger.charge(
                power, time_us,
                busy_fraction=delta.busy_fraction if delta else 0.0,
            )
            expected += power.total_mw * time_us
    for record in run.transitions:
        ledger.charge_transition(record.label, record.energy_nj)
        expected += record.energy_nj
    for segment, wake_nj in applied:
        if segment.wake:
            ledger.charge_transition(
                f"wake col{segment.column} t{segment.end_tick}",
                wake_nj,
            )
            expected += wake_nj
    if expected > 0:
        error = abs(ledger.total_nj - expected) / expected
    else:
        error = abs(ledger.total_nj)
    return ledger, error, tuple(segment for segment, _ in applied)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class PipelineResult:
    """A governed pipeline run with deadlines and energy settled."""

    scenario: PipelineScenario
    governor: str
    run: GovernedRun
    ledger: EnergyLedger
    deadline_misses: int
    produced_samples: tuple
    conservation_error: float
    gate_segments: tuple = ()

    @property
    def energy_nj(self) -> float:
        """Total energy including transition and wake charges."""
        return self.ledger.total_nj

    @property
    def transition_nj(self) -> float:
        """Energy charged to rail transitions and re-wakes."""
        return self.ledger.transition_nj

    @property
    def transition_count(self) -> int:
        """Committed per-column operating-point changes."""
        return self.run.transition_count

    @property
    def gated_nj(self) -> float:
        """Retention energy accrued over gated windows."""
        return self.ledger.gated_nj

    @property
    def gated_time_us(self) -> float:
        """Column-time spent on a gated rail."""
        return self.ledger.gated_time_us

    @property
    def wake_count(self) -> int:
        """Applied gate segments that priced a rail re-wake."""
        return sum(1 for s in self.gate_segments if s.wake)

    @property
    def average_mw(self) -> float:
        """Mean power over the simulated run."""
        time_us = self.run.stats.simulated_time_us
        if time_us <= 0:
            return 0.0
        return self.energy_nj / time_us

    @property
    def idle_fraction(self) -> float:
        """Idle share of tile cycles across all stages and epochs."""
        cycles = sum(
            activity.tile_cycles
            for epoch in self.run.timeline
            for activity in epoch.column_activity
        )
        idle = sum(
            activity.idle
            for epoch in self.run.timeline
            for activity in epoch.column_activity
        )
        return idle / cycles if cycles else 0.0

    def frequency_residency(self, column: int) -> dict:
        """Per-domain frequency residency histogram."""
        return self.run.stats_with_epochs.frequency_residency(column)


def run_pipeline(
    scenario: PipelineScenario,
    governor: Governor | str,
    engine: str = "auto",
    transition_model: TransitionModel | None = None,
    model: PowerModel | None = None,
    max_ticks: int | None = None,
    gating: bool | None = None,
) -> PipelineResult:
    """Run one pipeline scenario under one policy; settle the books.

    ``gating=None`` enables gated-rail accounting exactly when the
    policy is the chip-level coordinator - only the agent that owns
    every domain can safely sequence a rail gate against its
    cross-domain commits; pass an explicit bool to override (the
    gating tests charge an independent run both ways).
    """
    if isinstance(governor, str):
        governor = pipeline_governor(governor, scenario)
    if gating is None:
        gating = isinstance(governor, CoordinatedGovernor)
    chip = scenario.build_chip()
    harness = _PipelineHarness(scenario, chip)
    budget = max_ticks if max_ticks is not None else (
        (scenario.n_frames + 8) * scenario.frame_ticks * 4
    )
    transitions = transition_model or TransitionModel()
    run = run_governed(
        chip,
        governor,
        transition_model=transitions,
        engine=engine,
        epoch_ticks=scenario.epoch_ticks,
        max_ticks=budget,
        before_epoch=harness.before_epoch,
        telemetry_extras=harness.telemetry_extras,
    )
    harness.finish(run)
    if harness.produced != scenario.total_exit_words:
        raise SimulationError(
            f"{scenario.name}: produced {harness.produced} of "
            f"{scenario.total_exit_words} exit words - the pipeline "
            f"and trace disagree"
        )
    ledger, error, gate_segments = charge_pipeline_ledger(
        scenario, run, model or PowerModel(), transitions,
        gating=gating,
    )
    return PipelineResult(
        scenario=scenario,
        governor=governor.name,
        run=run,
        ledger=ledger,
        deadline_misses=harness.deadline_misses(),
        produced_samples=tuple(harness.samples),
        conservation_error=error,
        gate_segments=gate_segments,
    )
