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
