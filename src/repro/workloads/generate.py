"""Seeded scenario generation: the contracts as a fuzzable surface.

The coordinated evaluation proves the governance contracts - energy
conservation, reference/compiled bit-identity, zero deadline misses -
on five hand-built pipelines.  This module turns those contracts into
a *property*: :func:`generate_scenario` samples a random-but-feasible
:class:`~repro.workloads.coordinated.PipelineScenario` - topology
(linear, decimating, fork/join), per-stage kernels from the full app
matrix, divider ladder, governor kind, and a bursty rate trace - and
:func:`check_invariants` drives it through the standing invariant
suite on both engines.

Reproducibility is the design center ("shrinking by construction"):

* a scenario is a pure function of ``(seed, index)`` - the generator
  seeds a PCG64 stream with exactly that pair, so any failing case
  out of a sweep of hundreds is a two-integer repro
  (``tools/repro_fuzz_case.py`` replays one verbosely).  The stream is
  :class:`repro.workloads.rng.Generator`, pure Python and equal draw
  for draw to ``numpy.random.default_rng``, so no numpy release can
  move a case;
* coverage is stratified, not sampled: the app rotates with
  ``index % len(APPS)`` and the topology with ``index // len(APPS)``,
  so any 15 consecutive indices cover every (app, topology) class;
* every sample is feasible *by construction*: stage word rates are
  capped so the peak frame fits the fastest ladder rung under the
  provisioning guard, loads are multiples of the pipeline's firing
  quantum, and the trace still forces the worst case at least once.

Every :class:`GeneratedScenario` is picklable, so sweeps fan out
through :func:`repro.sim.batch.parallel_map` unchanged.
"""

from __future__ import annotations

import hashlib
import math
import pickle
from dataclasses import dataclass
from fractions import Fraction

from repro.errors import ConfigurationError
from repro.workloads.coordinated import (
    PIPELINE_GOVERNORS,
    PipelineScenario,
    PipelineStage,
    _sticky_loads,
    run_pipeline,
)
from repro.workloads.rng import Generator

__all__ = [
    "APPS",
    "TOPOLOGIES",
    "GeneratedScenario",
    "case_digest",
    "check_case",
    "check_invariants",
    "generate_scenario",
    "generate_suite",
]

#: Conservation tolerance asserted per generated run and by the
#: governed evaluations' contract (:mod:`repro.eval.governed`).
CONSERVATION_TOLERANCE = 1e-9

#: Per-app kernel pools: (stage name, min work, max work) in pipeline
#: order.  The generator samples each stage's per-word work from its
#: range, so kernels keep their app-specific cost shape (the Viterbi
#: and AES round cores stay the heavy stages) while no two scenarios
#: are alike.
APP_KERNELS = {
    "aes": (
        ("keymix", 1, 3),
        ("sbox", 3, 6),
        ("rounds", 6, 10),
        ("serialize", 1, 2),
    ),
    "ddc": (
        ("mixer", 1, 3),
        ("cic", 4, 9),
        ("fir", 2, 6),
        ("gain", 1, 2),
    ),
    "mpeg4": (
        ("motion", 2, 5),
        ("dct", 3, 6),
        ("quant", 2, 6),
        ("entropy", 5, 12),
    ),
    "stereo": (
        ("split", 1, 2),
        ("left_fx", 3, 7),
        ("right_fx", 2, 6),
        ("downmix", 2, 5),
    ),
    "wlan": (
        ("fft", 3, 6),
        ("demap", 1, 4),
        ("viterbi", 4, 9),
    ),
}

#: App rotation order (``index % len(APPS)`` picks the app).
APPS = tuple(sorted(APP_KERNELS))

#: Topology rotation order (``index // len(APPS)`` picks the class).
TOPOLOGIES = ("linear", "decimating", "fork_join")

#: Divider ladders the generator samples (all rungs divide the epoch
#: length of every sampled frame geometry).
_LADDERS = ((1, 2, 4, 8), (1, 2, 4), (1, 4, 8), (1, 2, 8),
            (1, 2, 4, 8, 16))

#: Frame geometries: (frame_ticks, epoch_ticks).
_GEOMETRIES = ((1024, 256), (2048, 512))

#: Shares of the feasible peak the trace's load levels sit at.
_LEVEL_SHARES = (0.25, 0.45, 0.7, 1.0)

#: Headroom kept below the hard feasibility cap, absorbing pipeline
#: fill/drain latency the per-stage provisioning rule does not model.
_PEAK_MARGIN = 0.85

#: Share of the inter-column port a frame's stage load may fill.
_PORT_SHARE = 0.75


@dataclass(frozen=True)
class GeneratedScenario:
    """One sampled case: the scenario plus its reproduction identity.

    ``(seed, index)`` fully determine the sample -
    ``generate_scenario(seed, index)`` re-emits an equal instance, the
    property the shrink-free failure reports rely on.  ``class_key``
    names the coverage class the per-class counts aggregate by.
    """

    seed: int
    index: int
    app: str
    topology: str
    governor: str
    scenario: PipelineScenario

    @property
    def class_key(self) -> str:
        """Coverage class: app / topology / governor."""
        return f"{self.app}/{self.topology}/{self.governor}"


def _flow_quantum(stages, predecessors) -> int:
    """Smallest head load every stage consumes in whole firings.

    Mirrors :attr:`PipelineScenario.load_quantum` for stage tuples
    that do not form a valid scenario yet (the generator needs the
    quantum *before* it can size a legal trace).
    """
    scales: list = []
    for preds in predecessors:
        if not preds:
            scales.append(Fraction(1))
        else:
            scales.append(sum(
                scales[p] * stages[p].rate_ratio for p in preds
            ))
    quantum = 1
    for scale, stage in zip(scales, stages):
        quantum = math.lcm(
            quantum, (scale / stage.words_in).denominator
        )
    return quantum


def _feasible_peak(
    stages, predecessors, frame_ticks: int, port_capacity: int,
    guard: float,
) -> int:
    """Largest head-frame load every stage can clear at divider 1.

    Two caps per stage: the fastest rung must cover the stage's scaled
    share of the frame under the provisioning guard (so static
    provisioning exists and the feedback governors always have a safe
    rung), and one frame's stage load must fit the inter-column port
    with headroom (so a transient backlog cannot overflow).
    """
    scales: list = []
    for preds in predecessors:
        if not preds:
            scales.append(Fraction(1))
        else:
            scales.append(sum(
                scales[p] * stages[p].rate_ratio for p in preds
            ))
    cap = float(port_capacity)
    for scale, stage in zip(scales, stages):
        rate_cap = frame_ticks / (
            guard * float(scale) * stage.cycles_per_word
        )
        port_cap = _PORT_SHARE * port_capacity / float(scale)
        cap = min(cap, rate_cap, port_cap)
    return int(_PEAK_MARGIN * cap)


def _sample_stages(rng, app: str, topology: str):
    """Sample (stages, predecessors) for one coverage class."""
    pool = APP_KERNELS[app]
    works = [rng.integers(lo, hi + 1) for _, lo, hi in pool]
    names = [name for name, _, _ in pool]

    if topology == "linear":
        keep = max(2, rng.integers(2, len(pool) + 1))
        start = rng.integers(0, len(pool) - keep + 1)
        stages = tuple(
            PipelineStage(names[i], work_per_word=works[i])
            for i in range(start, start + keep)
        )
        return stages, None

    if topology == "decimating":
        stages = [
            PipelineStage(names[i], work_per_word=works[i])
            for i in range(len(pool))
        ]
        # One decimator, anywhere past the head; occasionally an
        # expander upstream of it, so non-1:1 covers both directions.
        position = rng.integers(1, len(stages))
        factor = rng.choice((2, 4))
        stages[position] = PipelineStage(
            names[position], work_per_word=works[position],
            words_in=factor, words_out=1,
        )
        if position > 1 and rng.random() < 0.35:
            expand = rng.integers(1, position)
            stages[expand] = PipelineStage(
                names[expand], work_per_word=works[expand],
                words_in=1, words_out=2,
            )
        return tuple(stages), None

    if topology == "fork_join":
        # Head broadcasts to two branches; the join consumes one word
        # from each per firing; optionally a 1:1 tail after the join.
        head = PipelineStage(names[0], work_per_word=works[0])
        left = PipelineStage(
            f"{names[1]}_a", work_per_word=works[1]
        )
        right_work = works[2 % len(works)]
        right = PipelineStage(
            f"{names[1]}_b", work_per_word=right_work
        )
        join = PipelineStage(
            names[-1], work_per_word=works[-1],
            words_in=2, words_out=rng.choice((1, 2)),
        )
        stages = [head, left, right, join]
        predecessors = [(), (0,), (0,), (1, 2)]
        if len(pool) > 3 and rng.random() < 0.5:
            tail = PipelineStage(
                names[-2], work_per_word=works[-2]
            )
            stages.append(tail)
            predecessors.append((3,))
        return tuple(stages), tuple(predecessors)

    raise ConfigurationError(
        f"unknown topology {topology!r}; valid: {TOPOLOGIES}"
    )


def _sample_loads(
    rng, peak: int, quantum: int, frames: int
) -> tuple:
    """A sticky bursty trace in quantum multiples, peak forced once."""
    levels = []
    for share in _LEVEL_SHARES:
        level = max(quantum, int(share * peak) // quantum * quantum)
        if not levels or level > levels[-1]:
            levels.append(level)
    start = rng.integers(0, len(levels))
    # A hop is a rate reconfiguration.
    return _sticky_loads(rng, levels, start, frames, hop=0.6)


def generate_scenario(seed: int, index: int) -> GeneratedScenario:
    """The ``index``-th scenario of seed ``seed``'s suite.

    Deterministic and independent per index: the RNG is seeded with
    the ``[seed, index]`` pair itself (PCG64 key material, not a
    stream offset), so cases can be generated, sharded, and replayed
    in any order and a failure reproduces from the two integers
    alone.  App and topology are stratified by index; everything else
    - kernel costs, decimation factors, ladder, geometry, governor,
    trace - is sampled.
    """
    if seed < 0 or index < 0:
        raise ConfigurationError(
            f"seed and index must be non-negative, got "
            f"({seed}, {index})"
        )
    rng = Generator([seed, index])
    app = APPS[index % len(APPS)]
    topology = TOPOLOGIES[(index // len(APPS)) % len(TOPOLOGIES)]
    governor = rng.choice(PIPELINE_GOVERNORS)

    stages, predecessors = _sample_stages(rng, app, topology)
    preds = predecessors if predecessors is not None else \
        ((),) + tuple((i - 1,) for i in range(1, len(stages)))
    frame_ticks, epoch_ticks = rng.choice(_GEOMETRIES)
    ladder = rng.choice(_LADDERS)
    port_capacity = 512

    quantum = _flow_quantum(stages, preds)
    # The last words of a frame traverse the stages serially - one
    # slow-rung firing per stage plus the bus hops - which the
    # per-stage rate decomposition does not model; the scenario
    # reserves that drain time out of the published deadline window
    # and the feasibility cap is computed against what remains.
    drain = min(
        frame_ticks // 3,
        ladder[-1] * sum(s.cycles_per_firing for s in stages)
        + 4 * len(stages),
    )
    peak = _feasible_peak(
        stages, preds, frame_ticks - drain, port_capacity, guard=1.3,
    )
    peak = max(quantum, peak // quantum * quantum)
    frames = rng.integers(5, 9)
    loads = _sample_loads(rng, peak, quantum, frames)

    scenario = PipelineScenario(
        name=f"generated {app}/{topology} (seed {seed}, "
             f"index {index})",
        key=f"gen_s{seed}_i{index}",
        frame_loads=loads,
        stages=stages,
        frame_ticks=frame_ticks,
        epoch_ticks=epoch_ticks,
        divider_ladder=ladder,
        port_capacity=port_capacity,
        predecessors=predecessors,
        drain_allowance_ticks=drain,
    )
    return GeneratedScenario(
        seed=seed,
        index=index,
        app=app,
        topology=topology,
        governor=governor,
        scenario=scenario,
    )


def generate_suite(seed: int, count: int) -> tuple:
    """The first ``count`` scenarios of one seed's suite."""
    return tuple(
        generate_scenario(seed, index) for index in range(count)
    )


def case_digest(seed: int, index: int, engine: str = "compiled") -> str:
    """SHA-256 of one generated case's governed record on ``engine``.

    Hashes the ``repr`` of what a governed run is checked on: the
    statistics, epoch timeline and transitions, the deadline misses,
    the gate segments and rail wakes, and the ledger energy rounded to
    3 decimals as the evaluation artifacts round it (the ledger sums
    floats with the builtin ``sum``, whose rounding changed in Python
    3.12).  ``tests/workloads/corpus_digests.json`` pins these per
    ``(seed, index)``; ``tools/corpus_digests.py`` checks and rewrites
    it.
    """
    generated = generate_scenario(seed, index)
    result = run_pipeline(
        generated.scenario, generated.governor, engine=engine
    )
    run = result.run
    record = (
        run.stats, run.timeline, run.transitions,
        result.deadline_misses, result.gate_segments, result.wake_count,
        round(result.energy_nj, 3),
    )
    return hashlib.sha256(repr(record).encode()).hexdigest()


def _fingerprint(stats) -> str:
    """Content hash of a run's statistics (pickle, SHA-256)."""
    return hashlib.sha256(
        pickle.dumps(stats, protocol=4)
    ).hexdigest()


def _check_books(result) -> None:
    """The ledger's books must balance term by term.

    The total must equal the sum of its domain and transition
    entries, and a gated window must carry retention leakage only -
    any dynamic or interconnect energy on a gated rail is a charging
    bug conservation alone could mask.
    """
    ledger = result.ledger
    parts = sum(entry.total_nj for entry in ledger.domains) \
        + ledger.transition_nj
    reference = max(abs(ledger.total_nj), 1.0)
    if abs(ledger.total_nj - parts) > 1e-9 * reference:
        raise AssertionError(
            f"ledger books do not balance: total {ledger.total_nj!r} "
            f"vs summed entries {parts!r}"
        )
    for entry in ledger.domains:
        if entry.gated and (
            entry.active_nj or entry.idle_nj or entry.bus_nj
        ):
            raise AssertionError(
                f"gated window {entry.name} carries non-retention "
                f"energy (active={entry.active_nj}, "
                f"idle={entry.idle_nj}, bus={entry.bus_nj})"
            )


def check_invariants(generated: GeneratedScenario) -> dict:
    """Run one generated case through the standing invariant suite.

    Asserted, in order: the governed run is bit-identical between the
    compiled and reference engines (statistics, epoch timeline,
    transition records); it is deterministic (a second compiled run
    fingerprints identically); it meets every frame deadline; energy
    conservation holds to :data:`CONSERVATION_TOLERANCE`; and the
    ledger's books balance entry by entry.  Returns a summary row for
    the fuzz artifact.  Any :class:`AssertionError` message leads
    with the ``(seed, index)`` repro pair.
    """
    label = f"(seed {generated.seed}, index {generated.index}) " \
            f"{generated.class_key}"
    try:
        compiled = run_pipeline(
            generated.scenario, generated.governor, engine="compiled"
        )
        again = run_pipeline(
            generated.scenario, generated.governor, engine="compiled"
        )
        reference = run_pipeline(
            generated.scenario, generated.governor, engine="reference"
        )
        if compiled.run.stats != reference.run.stats \
                or compiled.run.timeline != reference.run.timeline \
                or compiled.run.transitions \
                != reference.run.transitions:
            raise AssertionError(
                "compiled and reference engines disagree on the "
                "governed run - the bit-identity contract is broken"
            )
        if _fingerprint(compiled.run.stats) \
                != _fingerprint(again.run.stats):
            raise AssertionError(
                "two compiled runs of the same case fingerprint "
                "differently - the determinism contract is broken"
            )
        if compiled.deadline_misses != 0:
            raise AssertionError(
                f"{compiled.deadline_misses} deadline misses under "
                f"the {generated.governor!r} governor - the contract "
                f"requires zero"
            )
        if compiled.conservation_error > CONSERVATION_TOLERANCE:
            raise AssertionError(
                f"energy conservation error "
                f"{compiled.conservation_error:.3g} exceeds "
                f"{CONSERVATION_TOLERANCE}"
            )
        _check_books(compiled)
    except Exception as exc:
        raise AssertionError(f"{label}: {exc}") from exc
    return {
        "seed": generated.seed,
        "index": generated.index,
        "class": generated.class_key,
        "app": generated.app,
        "topology": generated.topology,
        "governor": generated.governor,
        "n_stages": generated.scenario.n_stages,
        "frames": generated.scenario.n_frames,
        "total_words": generated.scenario.total_words,
        "total_exit_words": generated.scenario.total_exit_words,
        "energy_nj": compiled.energy_nj,
        "deadline_misses": compiled.deadline_misses,
        "conservation_error": compiled.conservation_error,
        "transitions": compiled.transition_count,
        "gate_segments": len(compiled.gate_segments),
        "rail_wakes": compiled.wake_count,
    }


def check_case(case: tuple) -> dict:
    """Worker entry point: regenerate and check one ``(seed, index)``.

    Takes the bare pair (not a :class:`GeneratedScenario`) so a
    :func:`repro.sim.batch.parallel_map` sweep ships two integers per
    job and each worker proves the regeneration path it would be
    reproduced by.
    """
    seed, index = case
    return check_invariants(generate_scenario(seed, index))
