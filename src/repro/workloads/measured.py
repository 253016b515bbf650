"""Bridge measured kernel runs into the power methodology.

The Table 4 communication profiles in :mod:`repro.workloads.configs`
are calibrated analytically; this module derives the same quantities
from cycle-level simulation (Section 4.1 steps 5-6 done by
measurement) and assembles whole measured applications:

* every kernel becomes a picklable
  :class:`~repro.sim.batch.RunRequest`, so a batch of kernels fans out
  through :func:`repro.sim.batch.run_many` as supervised jobs;
* each run's statistics reduce to a
  :class:`~repro.power.measured.ActivityProfile`;
* :func:`measured_application` rebuilds an application's component
  specs with measured communication wherever the config maps a kernel
  (``ApplicationConfig.kernels``), falling back to the calibrated
  profile - flagged as such - where no kernel equivalent exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import ChipConfig, ColumnConfig
from repro.power.interconnect import CommProfile
from repro.power.measured import (
    ActivityProfile,
    activity_from_stats,
    comm_profile_from_activity,
)
from repro.kernels.base import Kernel, KernelRun
from repro.kernels.cic import build_cic_chain_kernel, build_cic_comb_kernel
from repro.kernels.dct import build_dct_kernel
from repro.kernels.fir import build_fir_kernel
from repro.kernels.mixer import build_mixer_kernel
from repro.kernels.streams import build_mixer_stream_kernel
from repro.kernels.viterbi_acs import build_acs_kernel
from repro.power.model import ComponentSpec
from repro.sim.batch import RunRequest, run_many
from repro.sim.resilience import require_ok
from repro.workloads.configs import ApplicationConfig, application

#: Kernel registry for the measured pipeline, keyed by kernel name.
KERNEL_BUILDERS = {
    "fir-8tap": build_fir_kernel,
    "complex-mixer": build_mixer_kernel,
    "mixer-stream": build_mixer_stream_kernel,
    "cic-integrator-chain": build_cic_chain_kernel,
    "cic-comb-scatter": build_cic_comb_kernel,
    "viterbi-acs-butterfly": build_acs_kernel,
    "dct-8point-q14": build_dct_kernel,
}

#: Process-wide memo: kernel key -> measured ActivityProfile.
_ACTIVITY_MEMO: dict = {}


def comm_profile_from_run(
    run: KernelRun,
    span_fraction: float = 1.0,
    switching_activity: float = 0.5,
) -> CommProfile:
    """A :class:`CommProfile` from a kernel's measured bus traffic."""
    return CommProfile(
        words_per_cycle=run.bus_words_per_cycle,
        span_fraction=span_fraction,
        switching_activity=switching_activity,
    )


def kernel_request(
    kernel: Kernel,
    reference_mhz: float = 100.0,
    engine: str = "compiled",
) -> RunRequest:
    """Convert a kernel into a picklable single-column run request.

    Only data crosses into the request (the kernel's checker stays
    behind); functional correctness of every kernel is enforced
    separately by ``tests/integration/test_kernels.py``.
    """
    memory_images = tuple(
        (0, tile, base, tuple(words))
        for tile, images in sorted(kernel.memory_images.items())
        for base, words in sorted(images.items())
    )
    input_words = ()
    if kernel.input_words:
        input_words = ((0, tuple(kernel.input_words)),)
    read_primes = tuple(
        (0, tile, tuple(words))
        for tile, words in sorted(kernel.read_primes.items())
    )
    return RunRequest(
        config=ChipConfig(
            reference_mhz=reference_mhz,
            columns=(ColumnConfig(divider=1),),
            strict_schedules=kernel.strict,
        ),
        programs=(kernel.program,),
        dou_programs=(kernel.dou_program,),
        memory_images=memory_images,
        input_words=input_words,
        read_primes=read_primes,
        max_ticks=kernel.max_ticks,
        engine=engine,
        label=kernel.name,
    )


def measured_activities(kernel_keys, processes: int | None = 1) -> dict:
    """Measured :class:`ActivityProfile` per kernel key, via run_many.

    Results are memoized process-wide, so an eval pass rendering
    Table 4, Figure 6, and a sweep pays for each kernel run once.
    """
    keys = list(dict.fromkeys(kernel_keys))
    missing = [key for key in keys if key not in _ACTIVITY_MEMO]
    if missing:
        requests = [
            kernel_request(KERNEL_BUILDERS[key]()) for key in missing
        ]
        outcomes = require_ok(run_many(requests, processes=processes))
        for key, outcome in zip(missing, outcomes):
            _ACTIVITY_MEMO[key] = activity_from_stats(
                outcome.stats, name=key
            )
    return {key: _ACTIVITY_MEMO[key] for key in keys}


@dataclass(frozen=True)
class MeasuredComponent:
    """One component with measured (or fallback) communication.

    ``spec`` keeps the Table 4 operating point (tiles, frequency) but
    carries the measured :class:`CommProfile` when a kernel exists;
    ``analytical`` is the calibrated original for comparison.
    """

    name: str
    kernel: str | None
    activity: ActivityProfile | None
    analytical: ComponentSpec
    spec: ComponentSpec

    @property
    def measured(self) -> bool:
        """Whether the communication profile came from simulation."""
        return self.activity is not None

    @property
    def words_ratio(self) -> float | None:
        """measured / analytical words-per-cycle (None when either
        side is traffic-free or the component is analytical)."""
        if not self.measured:
            return None
        analytic = self.analytical.comm.words_per_cycle
        if analytic == 0:
            return None
        return self.spec.comm.words_per_cycle / analytic


@dataclass(frozen=True)
class MeasuredApplication:
    """An application whose specs carry measured communication."""

    config: ApplicationConfig
    components: tuple

    @property
    def name(self) -> str:
        """Application display name."""
        return self.config.name

    @property
    def specs(self) -> list:
        """Measured component specs for :class:`PowerModel`."""
        return [component.spec for component in self.components]

    @property
    def activities(self) -> dict:
        """Component name -> measured activity (measured ones only)."""
        return {
            component.name: component.activity
            for component in self.components
            if component.activity is not None
        }

    @property
    def measured_fraction(self) -> float:
        """Share of components whose traffic is measured."""
        return sum(c.measured for c in self.components) \
            / len(self.components)


def measured_application(
    key: str, processes: int | None = 1
) -> MeasuredApplication:
    """Rebuild one application's specs from simulated activity.

    Components mapped in ``ApplicationConfig.kernels`` get their
    communication profile from the kernel's measured words/cycle and
    span (scaled from the kernel's single column to the component's
    column count); unmapped components keep the calibrated profile.
    """
    config = application(key)
    activities = measured_activities(
        config.kernels.values(), processes=processes
    )
    components = []
    for spec in config.components:
        kernel_key = config.kernels.get(spec.name)
        if kernel_key is None:
            components.append(MeasuredComponent(
                name=spec.name, kernel=None, activity=None,
                analytical=spec, spec=spec,
            ))
            continue
        activity = activities[kernel_key]
        comm = comm_profile_from_activity(
            activity,
            n_tiles=spec.n_tiles,
            switching_activity=spec.comm.switching_activity,
        )
        components.append(MeasuredComponent(
            name=spec.name,
            kernel=kernel_key,
            activity=activity.scaled_to(spec.n_tiles),
            analytical=spec,
            spec=ComponentSpec(
                name=spec.name,
                n_tiles=spec.n_tiles,
                frequency_mhz=spec.frequency_mhz,
                comm=comm,
                voltage_v=spec.voltage_v,
            ),
        ))
    return MeasuredApplication(
        config=config, components=tuple(components)
    )
