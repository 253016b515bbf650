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
jobs (:mod:`repro.sim.resilience`).
"""

from repro.sim.batch import (
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
from repro.sim.resilience import FaultPolicy, JobOutcome, require_ok
from repro.sim.simulator import Simulator, run_single_column
from repro.sim.stats import ColumnStats, SimulationStats
from repro.sim.trace import TraceEvent, Tracer

__all__ = [
    "CompiledEngine",
    "Engine",
    "FaultInjector",
    "FaultPolicy",
    "FaultSpec",
    "JobOutcome",
    "ReferenceEngine",
    "RunRequest",
    "Simulator",
    "create_engine",
    "parallel_map",
    "require_ok",
    "run_many",
    "run_single_column",
    "ColumnStats",
    "SimulationStats",
    "TraceEvent",
    "Tracer",
]
