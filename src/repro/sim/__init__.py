"""Cycle-level simulation (paper Section 4.5).

The paper adapted an object-oriented SimpleScalar to the Blackfin ISA;
we drive our own machine model instead.  The simulator advances the
chip at reference-clock granularity (the bus/DOU rate), stepping each
column's tiles on its divided clock edges, and gathers the statistics
the Section 4.1 methodology consumes: cycles per input sample, bus
words moved, stall and idle cycles.

Two engines implement that contract (:mod:`repro.sim.engine`): the
tick-accurate ``ReferenceEngine`` and the hyperperiod-compiled
``CompiledEngine``, which skips statically dead reference ticks.
:mod:`repro.sim.batch` runs many chip configurations as supervised
jobs (:mod:`repro.sim.resilience`) behind a content-hash result cache.
"""

from repro.sim.batch import (
    BatchResult,
    ResultCache,
    RunRequest,
    parallel_map,
    run_many,
)
from repro.sim.engine import (
    CompiledEngine,
    Engine,
    ReferenceEngine,
    create_engine,
)
from repro.sim.faultinject import FaultInjector, FaultSpec
from repro.sim.resilience import (
    FaultPolicy,
    JobOutcome,
    run_many_outcomes,
)
from repro.sim.simulator import Simulator, run_single_column
from repro.sim.stats import ColumnStats, SimulationStats
from repro.sim.trace import TraceEvent, Tracer

__all__ = [
    "BatchResult",
    "CompiledEngine",
    "Engine",
    "FaultInjector",
    "FaultPolicy",
    "FaultSpec",
    "JobOutcome",
    "ReferenceEngine",
    "ResultCache",
    "RunRequest",
    "Simulator",
    "create_engine",
    "parallel_map",
    "run_many",
    "run_many_outcomes",
    "run_single_column",
    "ColumnStats",
    "SimulationStats",
    "TraceEvent",
    "Tracer",
]
