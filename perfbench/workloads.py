"""The benchmark's three workloads: inputs, one timed op, output check.

Every workload is a closed loop with one client: the harness issues the
next op only after the previous one returned.  Each op is checked
against a record of the reference engine's result for the same input;
the records are built once per input set, before any timing, by
:meth:`Workload.expected` (``run.py`` keeps them on disk).

``corpus-cold``
    ``generate_scenario(corpus_seed, i)`` then ``run_pipeline(...,
    engine="compiled")`` on a case this process has not run yet.  The
    corpus is ``i`` in ``0..n-1`` with ``n`` a multiple of 15, so every
    app x topology class weighs the same.
``fuzz-sweep``
    One ``check_case((corpus_seed, i))`` job through ``parallel_map(...,
    processes=1, progress=...)``, the executor behind ``runner --fuzz``,
    over the same cases and order as ``corpus-cold``.
``steady-kernels``
    One warm pass over five compiled runs whose plans the untimed
    set-up pass already cached.  The work of every op is identical.

``--seed`` draws the inputs that may vary without changing the work: the
order of the corpus cases inside each block of 15 (see
:meth:`CorpusCold.order`) and the FIR and ACS data.  The corpus itself
comes from ``--corpus-seed`` (default 11, the ROADMAP corpus), so every
run of a workload simulates the same cases.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import NamedTuple

#: The ROADMAP corpus seed; ``--corpus-seed`` overrides it for a
#: held-out check.
CORPUS_SEED = 11

#: The warm-up case comes from ``corpus_seed + WARMUP_SEED_OFFSET``,
#: a seed disjoint from the timed corpus.
WARMUP_SEED_OFFSET = 1000

#: Conservation tolerance every governed op is held to.
CONSERVATION_TOLERANCE = 1e-9

#: App x topology classes in one stratum of generated cases.
CLASSES = 15


class Spec(NamedTuple):
    """What one run simulates."""

    seed: int
    corpus_seed: int
    ops: int


def digest(*parts) -> str:
    """SHA-256 over the ``repr`` of simulation results.

    The statistics, epoch timeline and transition records are frozen
    dataclasses of ints, floats and tuples, so their ``repr`` is exact
    and identical across processes.
    """
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def instructions(stats) -> int:
    """Simulated tile instructions of one engine run."""
    return sum(sum(column.tile_instructions) for column in stats.columns)


def governed_record(result) -> dict:
    """What a governed run is checked on: statistics, epoch timeline,
    transitions, deadline misses and ledger energy."""
    run = result.run
    record = {
        "digest": digest(run.stats, run.timeline, run.transitions),
        "misses": result.deadline_misses,
        "energy_nj": result.energy_nj,
        "transitions": len(run.transitions),
        "conservation_error": result.conservation_error,
        "instructions": instructions(run.stats),
        "ticks": run.stats.reference_ticks,
    }
    if hasattr(result, "gate_segments"):
        record["gate_segments"] = len(result.gate_segments)
        record["rail_wakes"] = result.wake_count
    return record


def stats_record(stats) -> dict:
    """What an ungoverned run is checked on: its statistics."""
    return {
        "digest": digest(stats),
        "instructions": instructions(stats),
        "ticks": stats.reference_ticks,
    }


def corrupt(records: dict) -> dict:
    """The same records with every checked value falsified.

    Used by the self-test: every op checked against these must fail.
    """
    def falsify(record: dict) -> dict:
        bad = dict(record)
        bad["digest"] = "0" * 64
        if "energy_nj" in bad:
            bad["energy_nj"] = -1.0
        return bad
    return {key: falsify(record) for key, record in records.items()}


def compare_governed(got: dict, want: dict) -> str:
    """Mismatch description, or '' when ``got`` matches ``want`` on
    every checked key ``got`` carries and meets the governed-run
    contracts: zero deadline misses, conservation within tolerance."""
    for key in ("digest", "misses", "energy_nj", "transitions",
                "gate_segments", "rail_wakes"):
        if key in got and got[key] != want[key]:
            return f"{key} {got[key]!r} != reference {want[key]!r}"
    if got["misses"]:
        return f"{got['misses']} deadline misses (contract: zero)"
    if got["conservation_error"] > CONSERVATION_TOLERANCE:
        return (f"conservation error {got['conservation_error']:.3g} "
                f"> {CONSERVATION_TOLERANCE}")
    return ""


@dataclass
class Checked:
    """One op's check outcome: the work it simulated, or the error."""

    instructions: int = 0
    ticks: int = 0
    error: str = ""


class Workload:
    """One benchmark workload.

    ``nominal_op_s`` sizes a run: ``ops_for(seconds)`` picks the fixed
    op count that takes about ``seconds`` on a 2-vCPU 2.1 GHz Xeon VM.
    A run is that fixed set of ops, never a fixed duration, so CPU time
    and throughput compare across runs.
    """

    name = ""
    nominal_op_s = 1.0
    #: Modules imported first, so ``setup.import_s`` times them alone.
    imports: tuple = ()

    def ops_for(self, seconds: float) -> int:
        return max(CLASSES, round(seconds / self.nominal_op_s))

    def expected_key(self, spec: Spec) -> str:
        """Cache key of the expected records this run needs."""
        raise NotImplementedError

    def expected(self, spec: Spec) -> dict:
        """Reference-engine records for every op input (untimed)."""
        raise NotImplementedError

    def setup(self, spec: Spec):
        """Inputs plus one untimed warm-up; returns the op state."""
        raise NotImplementedError

    def op(self, state, k: int):
        """The timed op ``k``."""
        raise NotImplementedError

    def check(self, state, k: int, result, records: dict) -> Checked:
        """Compare op ``k``'s result with its expected record."""
        raise NotImplementedError


class CorpusCold(Workload):
    name = "corpus-cold"
    nominal_op_s = 0.36
    imports = ("repro.workloads.generate", "repro.workloads.coordinated")

    def ops_for(self, seconds: float) -> int:
        strata = max(1, round(seconds / (CLASSES * self.nominal_op_s)))
        return CLASSES * strata

    def expected_key(self, spec):
        return f"corpus-s{spec.corpus_seed}-n{spec.ops}"

    def expected(self, spec):
        from repro.workloads.coordinated import run_pipeline
        from repro.workloads.generate import generate_scenario

        records = {}
        for index in range(spec.ops):
            case = generate_scenario(spec.corpus_seed, index)
            result = run_pipeline(
                case.scenario, case.governor, engine="reference"
            )
            records[str(index)] = governed_record(result)
        return records

    @staticmethod
    def order(seed: int, n: int) -> list:
        """Case order: ``seed`` shuffles each block of :data:`CLASSES`
        consecutive indices and the blocks run in index order.

        Which cases have run by the end of each block is then the same
        for every seed, so the shared plan caches fill and clear at the
        same points.  Over five seeds of the 60-case corpus, peak RSS
        ranged 174-206 MB with a full shuffle and 169-183 MB with this
        one; no case's round-compile count depended on the order.
        """
        rng = random.Random(seed)
        indices = []
        for first in range(0, n, CLASSES):
            block = list(range(first, min(first + CLASSES, n)))
            rng.shuffle(block)
            indices.extend(block)
        return indices

    def setup(self, spec):
        from repro.workloads.coordinated import run_pipeline
        from repro.workloads.generate import generate_scenario

        warm = generate_scenario(spec.corpus_seed + WARMUP_SEED_OFFSET, 0)
        run_pipeline(warm.scenario, warm.governor, engine="compiled")
        return {
            "seed": spec.corpus_seed,
            "order": self.order(spec.seed, spec.ops),
            "generate": generate_scenario,
            "run": run_pipeline,
        }

    def op(self, state, k):
        case = state["generate"](state["seed"], state["order"][k])
        return state["run"](case.scenario, case.governor,
                            engine="compiled")

    def check(self, state, k, result, records):
        want = records[str(state["order"][k])]
        got = governed_record(result)
        return Checked(got["instructions"], got["ticks"],
                       compare_governed(got, want))


class FuzzSweep(CorpusCold):
    """Runs exactly ``corpus-cold``'s cases in the same order: the op
    count comes from the corpus's nominal case time, so a run takes
    about twice ``--seconds``."""

    name = "fuzz-sweep"
    imports = ("repro.workloads.generate", "repro.sim.batch")

    def setup(self, spec):
        from repro.sim.batch import parallel_map
        from repro.workloads import generate

        # check_invariants looks run_pipeline up as a module global, so
        # every engine run a check_case job makes passes through here
        # and adds the work it simulated.
        work = {"instructions": 0, "ticks": 0}
        run_pipeline = generate.run_pipeline

        def counted(*args, **kwargs):
            result = run_pipeline(*args, **kwargs)
            work["instructions"] += instructions(result.run.stats)
            work["ticks"] += result.run.stats.reference_ticks
            return result

        generate.run_pipeline = counted
        landed: list = []
        parallel_map(
            generate.check_case,
            [(spec.corpus_seed + WARMUP_SEED_OFFSET, 0)],
            processes=1, progress=landed.append,
        )
        return {
            "seed": spec.corpus_seed,
            "order": self.order(spec.seed, spec.ops),
            "map": parallel_map,
            "check_case": generate.check_case,
            "landed": landed,
            "work": work,
        }

    def op(self, state, k):
        """One job; returns its row and the work its engine runs did."""
        work = state["work"]
        work["instructions"] = work["ticks"] = 0
        state["landed"].clear()
        rows = state["map"](
            state["check_case"], [(state["seed"], state["order"][k])],
            processes=1, progress=state["landed"].append,
        )
        if state["landed"] != [0]:
            raise AssertionError(
                f"progress reported {state['landed']}, expected [0]"
            )
        return rows[0], dict(work)

    def check(self, state, k, result, records):
        row, work = result
        want = records[str(state["order"][k])]
        got = {
            "misses": row["deadline_misses"],
            "energy_nj": row["energy_nj"],
            "transitions": row["transitions"],
            "gate_segments": row["gate_segments"],
            "rail_wakes": row["rail_wakes"],
            "conservation_error": row["conservation_error"],
        }
        # The row carries no statistics; check_case itself asserts that
        # its compiled and reference runs are bit-identical.
        return Checked(work["instructions"], work["ticks"],
                       compare_governed(got, want))


class SteadyKernels(Workload):
    name = "steady-kernels"
    nominal_op_s = 0.12
    imports = (
        "repro.eval.engines", "repro.kernels.base", "repro.kernels.fir",
        "repro.kernels.viterbi_acs", "repro.sim.simulator",
        "repro.workloads.dvfs",
    )

    #: Enlarged from the ``BENCH_engine`` sizes (200 samples, 16 frames)
    #: so one op takes about 120 ms.  The burst keeps
    #: ``wlan_mcs_scenario``'s default trace seed so every op and every
    #: run does the same work.  At 30 frames ``occupancy_pi`` meets
    #: every deadline; at 32 frames it misses one and at 80 frames five,
    #: on both engines, and at 80 frames every trace seed from 0 to 39
    #: misses at least one.
    DDC_SAMPLES = 3000
    BURST_FRAMES = 30
    BURST_TRACE_SEED = 7
    BURST_GOVERNOR = "occupancy_pi"
    #: FIR, ACS and the mixed-divider chip keep their ``BENCH_engine``
    #: sizes; see :meth:`check_kernel_sizes` for their limits.
    FIR_TAPS = 8
    FIR_WINDOWS = 24
    ACS_STEPS = 64
    MIXED_SCALE = 1

    @staticmethod
    def check_kernel_sizes(taps: int, windows: int, steps: int) -> None:
        """Refuse kernel sizes whose memory tables overlap.

        ``build_fir_kernel`` lays the tap windows from ``WINDOW_BASE``
        up to ``OUTPUT_BASE`` (56 windows at 8 taps) and
        ``build_acs_kernel`` the stay metrics from ``B_STAY_BASE`` up to
        ``B_CROSS_BASE`` (64 steps).  Past those bounds the tables
        overlap and both engines return the same wrong outputs, which a
        reference comparison cannot catch.
        """
        from repro.kernels import fir, viterbi_acs

        if taps > fir.WINDOW_BASE - fir.COEFF_BASE:
            raise ValueError(f"FIR taps {taps} overlap the windows")
        max_windows = (fir.OUTPUT_BASE - fir.WINDOW_BASE) // taps
        if windows > max_windows:
            raise ValueError(
                f"FIR windows {windows} > {max_windows} at {taps} taps: "
                f"the window table would overlap the outputs"
            )
        max_steps = viterbi_acs.B_CROSS_BASE - viterbi_acs.B_STAY_BASE
        if steps > max_steps:
            raise ValueError(
                f"ACS steps {steps} > {max_steps}: the branch-metric "
                f"tables would overlap"
            )

    def expected_key(self, spec):
        return f"steady-s{spec.seed}"

    def _inputs(self, seed: int) -> dict:
        from repro.kernels.fir import build_fir_kernel
        from repro.kernels.viterbi_acs import build_acs_kernel
        from repro.workloads.dvfs import wlan_mcs_scenario

        self.check_kernel_sizes(self.FIR_TAPS, self.FIR_WINDOWS,
                                self.ACS_STEPS)
        return {
            "burst": wlan_mcs_scenario(
                frames=self.BURST_FRAMES, seed=self.BURST_TRACE_SEED
            ),
            "fir": build_fir_kernel(
                taps=self.FIR_TAPS, windows=self.FIR_WINDOWS, seed=seed
            ),
            "acs": build_acs_kernel(steps=self.ACS_STEPS, seed=seed),
        }

    def _pass(self, inputs: dict, engine: str) -> dict:
        from repro.eval.engines import (
            build_ddc_stream_chip,
            build_mixed_divider_chip,
        )
        from repro.kernels.base import run_kernel
        from repro.sim.simulator import Simulator
        from repro.workloads.dvfs import run_scenario

        # run_kernel also checks FIR and ACS outputs against their
        # exact NumPy oracles.
        return {
            "ddc": Simulator(
                build_ddc_stream_chip(samples=self.DDC_SAMPLES),
                engine=engine,
            ).run(),
            "burst": run_scenario(
                inputs["burst"], self.BURST_GOVERNOR, engine=engine
            ),
            "fir": run_kernel(inputs["fir"], engine=engine).stats,
            "acs": run_kernel(inputs["acs"], engine=engine).stats,
            "mixed": Simulator(
                build_mixed_divider_chip(scale=self.MIXED_SCALE),
                engine=engine,
            ).run(),
        }

    @staticmethod
    def _records(results: dict) -> dict:
        return {
            key: governed_record(value) if key == "burst"
            else stats_record(value)
            for key, value in results.items()
        }

    def expected(self, spec):
        return self._records(
            self._pass(self._inputs(spec.seed), "reference")
        )

    def setup(self, spec):
        inputs = self._inputs(spec.seed)
        self._pass(inputs, "compiled")
        return inputs

    def op(self, state, k):
        return self._pass(state, "compiled")

    def check(self, state, k, results, records):
        got = self._records(results)
        checked = Checked()
        for key, record in got.items():
            checked.instructions += record["instructions"]
            checked.ticks += record["ticks"]
            if key == "burst":
                error = compare_governed(record, records[key])
            elif record["digest"] != records[key]["digest"]:
                error = "statistics differ from the reference engine"
            else:
                error = ""
            if error and not checked.error:
                checked.error = f"{key}: {error}"
        return checked


WORKLOADS = {
    workload.name: workload
    for workload in (CorpusCold(), FuzzSweep(), SteadyKernels())
}
