"""Pluggable simulation engines.

The reference clock is the only time base in Synchroscalar, and the
single-PLL/integer-divider clock tree makes the whole chip's activity
pattern periodic in the clock hyperperiod (Section 2.4).  This module
exploits that in two interchangeable engines behind one interface:

``ReferenceEngine``
    The tick-accurate stepper: one Python iteration per reference
    tick, with tracing folded in as an observer hook so traced and
    untraced runs share a single stepping loop.

``CompiledEngine``
    Precompiles the per-hyperperiod activity schedule from the
    :class:`~repro.arch.clocking.ClockTree` (which reference ticks
    carry column clock edges, which DOUs can ever move a word) and
    advances in hyperperiod-sized strides: dead ticks are skipped
    outright, inert DOUs are never stepped, halted columns accrue
    their bubble cycles arithmetically, and the post-halt bus drain is
    settled in O(columns) instead of O(ticks).  By construction it
    produces :class:`~repro.sim.stats.SimulationStats` identical to
    the reference engine - a property enforced by differential tests.

Both engines expose :meth:`Engine.advance` - run for a bounded window
of reference ticks - which is the primitive the runtime-DVFS epoch
layer (:mod:`repro.control.epochs`) builds on: each epoch retunes the
clock tree at a hyperperiod boundary and advances one window.  The
compiled engine recompiles its activity plan per divider tuple behind
a cache, so a governor revisiting an operating point pays for its
edge schedule once.

Engines only require the :class:`~repro.arch.chip.Chip` duck type:
``columns``, ``clock``, ``horizontal_dou``, ``all_halted``,
``reference_ticks``, ``clock_gate_until``, and
``step_reference_tick``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable

from repro.errors import ConfigurationError, SimulationError
from repro.arch.chip import STALLED, Chip
from repro.arch.column_exec import compile_column_runner
from repro.obs.events import BUS
from repro.obs.metrics import MetricsRegistry
from repro.sim.stats import SimulationStats, collect

#: Default run budget in reference ticks.  Exhausting it raises
#: :class:`~repro.errors.SimulationError` - on this machine model a
#: workload that has not halted within two million reference ticks is
#: almost always a deadlocked communication schedule, not a long run.
DEFAULT_MAX_TICKS = 2_000_000


def _budget_error(max_ticks: int) -> SimulationError:
    return SimulationError(
        f"simulation exceeded {max_ticks} reference ticks "
        f"(deadlocked schedule?)"
    )


def _run_ticked(
    chip: Chip,
    observers: tuple,
    max_ticks: int,
    until: Callable[[Chip], bool] | None,
    drain_hyperperiods: int,
) -> SimulationStats:
    """The canonical tick-by-tick run loop (shared fallback path)."""
    for _ in range(max_ticks):
        if until is not None and until(chip):
            return collect(chip)
        if chip.all_halted:
            break
        chip.step_reference_tick(observers)
    else:
        raise _budget_error(max_ticks)
    for _ in range(drain_hyperperiods * chip.clock.hyperperiod()):
        chip.step_reference_tick(observers)
    return collect(chip)


def _advance_ticked(chip: Chip, observers: tuple, ticks: int) -> int:
    """Advance up to ``ticks`` reference ticks, stopping at all-halt.

    Mirrors the main loop of :func:`_run_ticked` exactly (all_halted
    is observed *before* each step), so windowed and open-ended runs
    agree tick for tick.  Returns the ticks actually consumed.
    """
    consumed = 0
    while consumed < ticks:
        if chip.all_halted:
            break
        chip.step_reference_tick(observers)
        consumed += 1
    return consumed


class Engine:
    """Common interface: advance a chip and collect its statistics.

    ``observers`` receive ``record(tick, column, outcome, pc)`` for
    every tile-clock step - :class:`~repro.sim.trace.Tracer` plugs in
    directly.
    """

    name = "engine"

    def __init__(self, chip: Chip, observers: tuple = ()) -> None:
        self.chip = chip
        self.observers = tuple(observers)

    def step(self) -> None:
        """Advance exactly one reference tick, observers notified.

        Always the tick-accurate path (every DOU stepped, every due
        column edge executed), regardless of the engine's fast paths -
        single-stepping is a debugging primitive and must see true
        per-tick state.
        """
        self.chip.step_reference_tick(self.observers)

    def advance(self, ticks: int) -> int:
        """Advance up to ``ticks`` reference ticks; stop at all-halt.

        The epoch primitive: between calls the control layer may
        retune the chip's clock tree (at a hyperperiod boundary) and
        gate relocking columns; within a call the clock is constant.
        Returns the number of ticks actually consumed, which is less
        than ``ticks`` only when every column halted inside the
        window.
        """
        return _advance_ticked(self.chip, self.observers, ticks)

    def run(
        self,
        max_ticks: int = DEFAULT_MAX_TICKS,
        until: Callable[[Chip], bool] | None = None,
        drain_hyperperiods: int = 2,
    ) -> SimulationStats:
        """Run until every column halts (or ``until`` fires).

        After all columns halt, the buses are drained for
        ``drain_hyperperiods`` clock hyperperiods so in-flight words
        settle into their destination buffers.

        Raises
        ------
        SimulationError
            If the tick budget is exhausted first - almost always a
            deadlocked communication schedule.
        """
        raise NotImplementedError


class ReferenceEngine(Engine):
    """Tick-accurate stepping - the architectural reference.

    One Python iteration per reference tick through the single shared
    stepping loop (:meth:`~repro.arch.chip.Chip.step_reference_tick`),
    so its statistics define correctness: every other engine must be
    bit-identical to this one, and the differential tests treat it as
    the oracle.  It is the right engine whenever per-tick visibility
    matters (tracing observers, ``until`` predicates, debugging) and
    the slow one everywhere else.
    """

    name = "reference"

    def run(
        self,
        max_ticks: int = DEFAULT_MAX_TICKS,
        until: Callable[[Chip], bool] | None = None,
        drain_hyperperiods: int = 2,
    ) -> SimulationStats:
        return _run_ticked(
            self.chip, self.observers, max_ticks, until,
            drain_hyperperiods,
        )


class _ClockPlan:
    """One divider tuple's compiled hyperperiod trace.

    ``edges`` keeps column *indexes* per offset (needed wherever
    PLL-relock gates must be consulted); ``edge_objs`` binds the same
    table down to :class:`Column` objects for the no-gate hot loop.
    """

    __slots__ = ("period", "edges", "edge_objs")

    def __init__(self, clock, columns) -> None:
        self.period = clock.hyperperiod()
        self.edges = clock.edge_schedule()
        self.edge_objs = tuple(
            tuple(columns[index] for index in offsets)
            for offsets in self.edges
        )


#: Recorded items kept while hunting for a recurring lockstep round;
#: past this the recording restarts (rounds longer than the cap are
#: never detected, which only costs the optimization).
LOCKSTEP_REC_CAP = 512

#: Consecutive zero-round replay attempts before a cached round plan
#: is dropped (the occupancy regime it recorded has ended; a fresh
#: recording will rebuild it if the pattern returns).
LOCKSTEP_FAILURES = 8

#: Cached round plans across all signatures before the cache resets
#: (a runaway governor sweeping operating points, not steady state).
LOCKSTEP_PLAN_CAP = 256

#: Recurrences of a safepoint signature, counted per chip structure
#: across every engine in the process, before a recorder arms for it.
#: On the cold governed corpus (CPython 3.11, 2-vCPU 2.1 GHz Xeon VM)
#: a round build costs a median 0.32 ms per tick of its period, as
#: much as dense-stepping the regime for about 40 rounds at 8.2 us
#: per tick, and arming at the first recurrence built 456 plans of
#: which 168 never completed a replay.  docs/engines.md gives the
#: measurement and the sweep behind 16.
LOCKSTEP_ARM_RECURRENCES = 16


#: Sentinel bound for occupancy windows that no recorded predicate
#: constrains.
_OCC_UNBOUNDED = 1 << 30


class _RoundPlan:
    """One recorded lockstep round, compiled for near-arithmetic replay.

    A round's behaviour is fully determined by the anchor signature
    (hyperperiod phase, dividers, stepped set, credits, DOU states,
    column control state), the DOU down-counters, and the *predicate
    regime* of every communication buffer - which occupancy thresholds
    (empty, full, has-word, has-room) each buffer sits on at each
    recorded decision point.  Data values never steer control flow
    silently: conditional branches and comm instructions execute only
    through validated real primitives (``run_edges`` outcomes and
    ``step_tile_clock`` post-state are checked per call), so a replay
    that passes the round-entry checks either reproduces the recording
    exactly or aborts at a validated primitive with all applied state
    real.

    ``source`` is the generated round (:func:`_emit_round`), compiled
    only at the first entry: until :meth:`enter` has seen the entry
    checks pass, ``fn`` is None.  ``fn(tick, limit, credits)`` returns
    None for a completed round, or the index of the abort site where
    it stopped, after which :func:`_round_abort` must finish the tick.
    The rest is data naming machine objects by index into ``binds``,
    so the shared plan cache hands it unchanged to every engine of the
    chip structure: ``entry`` is ``(credits, counter checks,
    occupancy windows)``; ``sites`` holds one ``(reason, item, offset,
    steps, acts, first)`` record per abort site in emission order,
    sites 0-2 being the entry checks; ``fixups[k]`` lists the deferred
    writes ``((bind, attribute), value)`` that changed since site
    ``k - 1``.  ``adds`` carries the round's profile counter totals,
    applied per completed round.
    """

    __slots__ = (
        "period", "adds", "source", "entry", "sites", "fixups", "binds",
        "fn", "failures", "gkey",
    )

    def __init__(
        self, period, adds, source, entry, sites, fixups, binds,
    ) -> None:
        self.period = period
        self.adds = adds
        self.source = source
        self.entry = entry
        self.sites = sites
        self.fixups = fixups
        self.binds = binds
        self.fn = None
        self.failures = 0
        #: key of this plan's entry in the cross-engine shared plan
        #: cache (None while unshared); used to evict the shared copy
        #: when the local plan is retired for repeated failures.
        self.gkey = None

    def enter(self, tick, credits):
        """Check a first entry as data and compile the round if it passes.

        Returns None once :attr:`fn` is ready, or the index of the
        entry site that failed; a round that never enters never pays
        for ``compile()``.
        """
        entry_credits, counter_checks, occ_checks = self.entry
        binds = self.binds
        if tuple(credits) != entry_credits:
            return 0
        for index, counters in counter_checks:
            if binds[index].counters != counters:
                return 1
        for index, low, high in occ_checks:
            if not low <= len(binds[index]) <= high:
                return 2
        make, compiled = _round_factory(self.source)
        self.fn = make(binds)
        if BUS.active:
            BUS.instant(
                "lockstep_compile", tick=tick, track="engine",
                args={
                    "source_bytes": len(self.source),
                    "compiled": compiled,
                },
            )
        return None


class _LockRecorder:
    """One armed lockstep recording: raw captures for a single round.

    Created once a safepoint signature has recurred
    :data:`LOCKSTEP_ARM_RECURRENCES` times on this chip structure
    (``recurrences`` keeps the count); records every dense-loop event
    - with the occupancy snapshots and per-DOU stat deltas the plan
    compiler needs - until the signature recurs, at which point
    :func:`_build_lock_plan` builds the round.
    """

    __slots__ = (
        "sig", "start", "recurrences", "deques", "caps", "index_of",
        "anchor_occ", "credits", "counters", "items",
    )

    def __init__(
        self, sig, tick, recurrences, universe, dous, credits,
    ) -> None:
        self.sig = sig
        self.start = tick
        self.recurrences = recurrences
        self.deques, self.caps, self.index_of = universe
        self.anchor_occ = tuple(map(len, self.deques))
        self.credits = tuple(credits)
        self.counters = tuple(
            (dou, list(dou.counters)) for dou in dous if dou.counters
        )
        self.items: list = []

    def occ(self) -> tuple:
        return tuple(map(len, self.deques))

    def comm_state(self, columns, credits) -> tuple:
        """Pending-comm predicate inputs for each live credit-0 column.

        Captured at every batch event so the compiler can window the
        buffers whose empty/full state decided each column's parked
        classification.
        """
        out = []
        for cindex, column in enumerate(columns):
            if column.halted or credits[cindex]:
                continue
            pending = column.controller._pending
            if pending is None:
                continue
            op = pending.opcode.value
            if op == "recv":
                bufs = tuple(
                    (self.index_of[id(t.read_buffer._words)],
                     len(t.read_buffer._words))
                    for t in column.active_tiles()
                )
            elif op == "send":
                bufs = tuple(
                    (self.index_of[id(t.write_buffer._words)],
                     len(t.write_buffer._words))
                    for t in column.active_tiles()
                )
            else:
                continue
            out.append((cindex, op, bufs))
        return tuple(out)


def _build_lock_plan(recorder, period, dous, columns, runners, dividers):
    """Turn an armed recording into a :class:`_RoundPlan`, or None.

    Derives, for every occupancy predicate the recorded round
    evaluated (orbit starvation/backpressure classification, parked
    comm columns, no-progress DOU steps), the window of anchor
    occupancies under which the predicate keeps its recorded value,
    then folds all the occupancy-independent effects into integer
    deltas.  The round's entry checks - recorded credits, DOU
    counters, occupancy windows - stay data on the plan, so the first
    entry can be checked before anything is compiled; the round
    source is emitted here and compiled only at that first entry.
    None means the recording cannot be expressed as a round.  A built
    round emits one ``lockstep_build`` instant when the bus is active.
    """
    raw = recorder.items
    if not raw:
        return None
    total = 0
    for item in raw:
        total += item[1] if item[0] == "g" else 1
    if total != period:
        return None
    deques = recorder.deques
    caps = recorder.caps
    index_of = recorder.index_of
    anchor = recorder.anchor_occ
    n_bufs = len(deques)
    lo = [-_OCC_UNBOUNDED] * n_bufs
    hi = [_OCC_UNBOUNDED] * n_bufs

    def pin(j, occ_j):
        # Predicate sat exactly on this occupancy: the buffer may not
        # drift at all between rounds.
        if lo[j] < 0:
            lo[j] = 0
        if hi[j] > 0:
            hi[j] = 0

    def need_word(j, occ_j):
        # Non-empty was load-bearing: tolerate drift down to one word.
        floor = 1 - occ_j
        if floor > lo[j]:
            lo[j] = floor

    def need_room(j, occ_j, cap):
        ceil = cap - 1 - occ_j
        if ceil < hi[j]:
            hi[j] = ceil

    def block_constraints(plan, occ):
        # moved == 0 through this state: each block either starved or
        # fully backpressured.  Window the buffers so the recorded
        # branch recurs.
        for src_words, destinations in plan.blocks:
            j = index_of[id(src_words)]
            if occ[j] == 0:
                pin(j, 0)
                continue
            need_word(j, occ[j])
            for dest_words, capacity in destinations:
                jd = index_of[id(dest_words)]
                pin(jd, occ[jd])  # recorded full; must stay full

    def comm_constraints(comm, parked_mask):
        for cindex, op, bufs in comm:
            blocked = parked_mask >> cindex & 1
            if op == "recv":
                for j, occ_j in bufs:
                    if blocked and occ_j == 0:
                        pin(j, 0)
                    elif not blocked:
                        need_word(j, occ_j)
            else:
                for j, occ_j in bufs:
                    if blocked and occ_j >= caps[j]:
                        pin(j, occ_j)
                    elif not blocked:
                        need_room(j, occ_j, caps[j])

    items = []
    batch_events = 0
    batched_ticks = 0
    dense_ticks = 0
    parked_edges = 0
    orbit_laps = 0
    fused_calls = 0

    reach_cache = {}

    def reach(dou):
        # Every buffer a real ``dou.step()`` can possibly mutate: the
        # sources and destinations of all its transfer-plan blocks
        # plus its comm ports.  A diverging step is confined to this
        # set, so the post-tick occupancy check only needs these
        # indexes rather than the whole universe.
        out = reach_cache.get(id(dou))
        if out is not None:
            return out
        out = set()
        for plan in dou._plans:
            if plan is None:
                continue
            for src_words, destinations in plan.blocks:
                out.add(index_of[id(src_words)])
                for dest_words, _capacity in destinations:
                    out.add(index_of[id(dest_words)])
        for port in dou.write_ports.values():
            out.add(index_of[id(port._words)])
        for port in dou.read_ports.values():
            out.add(index_of[id(port._words)])
        reach_cache[id(dou)] = out
        return out

    def compile_acts(acts_raw):
        nonlocal fused_calls
        out = []
        for act in acts_raw:
            kind = act[0]
            cindex = act[1]
            column = columns[cindex]
            if kind == 0:
                out.append((0, cindex, column))
            elif kind == 1:
                (_, _, pre_pc, want, post_pc, comm_head, depth) = act
                if comm_head:
                    fused_calls += 1
                out.append((
                    1, cindex, column, runners[cindex], pre_pc, want,
                    post_pc, depth,
                ))
            else:
                out.append((3, cindex, column) + act[2:])
        return tuple(out)

    for item in raw:
        if item[0] == "g":
            (_, span, occ, states, effects, comm, parked_mask,
             charges, burns, acts_raw) = item
            # Split the frozen-orbit effects: machines owing only
            # their cycle count ride a bare tuple; the rest carry
            # their precomputed stall/bus/state deltas.
            cyc_dous = []
            dou_fx = []
            for position, dou in enumerate(dous):
                orbit = dou._orbits[states[position]]
                if orbit is None:
                    return None
                for state_index in orbit:
                    block_constraints(dou._plans[state_index], occ)
                fx = effects[position]
                length = len(fx)
                laps, rem = divmod(span, length)
                blocked = 0
                bus_words = 0
                bus_traffic = 0
                for orbit_pos, (stalls, active) in enumerate(fx):
                    visits = laps + (1 if orbit_pos < rem else 0)
                    if not visits:
                        continue
                    if stalls:
                        blocked += visits
                    if active:
                        bus_words += active * visits
                        bus_traffic += visits
                end_state = orbit[rem]
                if (not blocked and not bus_words
                        and end_state == states[position]):
                    cyc_dous.append(dou)
                else:
                    dou_fx.append((
                        dou, blocked, bus_words, bus_traffic,
                        end_state,
                    ))
            comm_constraints(comm, parked_mask)
            charge_objs = tuple(
                (columns[cindex], owed) for cindex, owed in charges
            )
            parked_edges += sum(owed for _, owed in charges)
            items.append((
                0, span, tuple(cyc_dous), tuple(dou_fx), charge_objs,
                tuple(burns),
                compile_acts(acts_raw) if acts_raw is not None
                else None,
            ))
            batch_events += 1
            batched_ticks += span
            continue
        (_, occ_post, per_dou, acts_raw) = item
        ops = []
        real_dous = []
        for position, dou in enumerate(dous):
            (state_pre, moved, touched, blocked_d, bus_words_d,
             bus_traffic_d, retired_d, state_post, counter_sets,
             occ_at) = per_dou[position]
            lap = dou.lap_plan(state_pre)
            if (lap is not None and lap.length == 1
                    and moved == lap.n_captures):
                ops.append((0, dou, lap))
                orbit_laps += 1
            elif not moved and not touched and not retired_d:
                # A no-progress step: window the deciding buffers
                # (at *this* machine's decision point - earlier
                # machines in the same tick may already have moved
                # words) and fold the accounting into integers.
                plan = dou._plans[state_pre]
                if plan is not None:
                    block_constraints(plan, occ_at)
                ops.append((
                    1, dou, blocked_d, bus_words_d, bus_traffic_d,
                    state_post, counter_sets,
                ))
            else:
                # Partial or multi-lap transfer: keep the real step,
                # validated by its moved count plus a post-tick
                # occupancy check over every buffer it can reach.
                ops.append((2, dou, moved))
                real_dous.append(dou)
        post_check = None
        if real_dous:
            touched_set = set()
            for dou in real_dous:
                touched_set |= reach(dou)
            post_check = tuple(
                (j, occ_post[j]) for j in sorted(touched_set)
            )
        items.append((
            1, tuple(ops), post_check, compile_acts(acts_raw),
        ))
        dense_ticks += 1

    occ_checks = []
    for j in range(n_bufs):
        low = anchor[j] + lo[j] if lo[j] > -_OCC_UNBOUNDED else 0
        high = anchor[j] + hi[j] if hi[j] < _OCC_UNBOUNDED \
            else _OCC_UNBOUNDED
        if low > 0 or high < _OCC_UNBOUNDED:
            occ_checks.append((deques[j], low, high))
    adds = (
        batch_events, batched_ticks, dense_ticks, parked_edges,
        orbit_laps, fused_calls,
    )
    source, binds, entry, sites, fixups = _emit_round(
        tuple(items), recorder.credits, recorder.counters, occ_checks,
        deques, anchor, dividers, runners,
    )
    if BUS.active:
        BUS.instant(
            "lockstep_build", tick=recorder.start + period,
            track="engine",
            args={
                "round_ticks": period,
                "recurrences": recorder.recurrences,
                "primitives": len(items),
                "source_bytes": len(source),
            },
        )
    return _RoundPlan(period, adds, source, entry, sites, fixups, binds)


#: The entry-check abort sites every round starts with, in check order
#: (see :meth:`_RoundPlan.enter`); they owe no fixup and run nothing.
_ENTRY_SITES = (
    ("credits", 0, 0, (), (), 0),
    ("counters", 0, 0, (), (), 0),
    ("occupancy", 0, 0, (), (), 0),
)


def _emit_round(
    items, entry_credits, counter_checks, occ_checks, deques, anchor,
    dividers, runners,
):
    """Emit one round's hot path as specialized Python source.

    Same technique the column runner uses for tile code: every machine
    object (DOU, bus, column, controller, runner, buffer deque, lap
    plan) is bound once in an enclosing scope and every recorded
    constant is folded into the source.  Only the recorded path is
    code.  Each validated primitive is one ``if <diverged>: return
    <site>`` line; what the dense loop would do with the rest of that
    tick (generic clock edges, single steps of the DOUs not yet
    stepped) is data on the site record, run by :func:`_round_abort`.
    The counters the folded primitives only ever increment
    (``cycles``, ``blocked_cycles``, ``words_moved``,
    ``cycles_with_traffic``, ``tile_cycles``, ``comm_stalls``) are
    summed here and written once, at round end; a DOU's folded
    ``state_index`` and ``counters`` are written just before it is
    really stepped, or at round end.  Each abort site gets a fixup
    with exactly the writes owed there - the deoptimization records a
    JIT keeps at its safepoints - delta-encoded against the previous
    site.  The body never advances ``tick``: sites carry their offset.

    Returns ``(source, binds, entry, sites, fixups)`` as
    :class:`_RoundPlan` keeps them, ``binds`` in bind-name order.
    """
    binds = []
    names = []
    index_of = {}

    def bind(obj, prefix):
        index = index_of.get(id(obj))
        if index is None:
            index = len(binds)
            index_of[id(obj)] = index
            binds.append(obj)
            names.append("%s%d" % (prefix, index))
        return index

    def nm(obj, prefix):
        return names[bind(obj, prefix)]

    body = []
    w = body.append
    sites = list(_ENTRY_SITES)
    fixups = [()] * len(sites)
    # The deferred-write ledger.  A slot is ``(bind, attribute)``, the
    # attribute a counter name, "state_index", or a DOU counter index.
    owed = {}       # slot -> sum owed, or value owed (None: nothing)
    dirty = {}      # slots whose owed value changed since the last site
    recorded = {}   # slot -> owed value as the fixups stand
    set_slots = {}  # DOU bind -> its state/counter slots

    def add(obj, prefix, attr, n):
        if n:
            slot = (bind(obj, prefix), attr)
            owed[slot] = owed.get(slot, 0) + n
            dirty[slot] = None

    def put(dou, attr, value):
        slot = (bind(dou, "d"), attr)
        if slot not in owed:
            set_slots.setdefault(slot[0], []).append(slot)
        owed[slot] = value
        dirty[slot] = None

    def flush(index):
        # Write what a DOU's state and counters are owed: before it is
        # really stepped, and at round end.
        for slot in set_slots.get(index, ()):
            value = owed[slot]
            if value is not None:
                if slot[1] == "state_index":
                    w("%s.state_index = %d" % (names[index], value))
                else:
                    w("%s.counters[%d] = %d"
                      % (names[index], slot[1], value))
                owed[slot] = None
                dirty[slot] = None

    def abort(cond, reason, item, offset, steps=(), acts=(), first=0):
        delta = []
        for slot in dirty:
            value = owed[slot]
            if value != recorded.get(slot):
                recorded[slot] = value
                delta.append((slot, value))
        dirty.clear()
        sites.append((reason, item, offset, steps, acts, first))
        fixups.append(tuple(delta))
        w("if %s: return %d" % (cond, len(sites) - 1))

    def fold(dou, cycles, blocked, words, traffic, state, sets=()):
        add(dou, "d", "cycles", cycles)
        add(dou, "d", "blocked_cycles", blocked)
        add(dou.bus, "b", "words_moved", words)
        add(dou.bus, "b", "cycles_with_traffic", traffic)
        put(dou, "state_index", state)
        for index, value in sets:
            put(dou, index, value)

    def plus(value):
        if value:
            return " %s %d" % ("+" if value > 0 else "-", abs(value))
        return ""

    def cold_acts(acts):
        # The generic fallback per act, for the abort helper: generic
        # edges (credit, runner, tile clock) for credit and runner
        # acts, credit-or-tile-clock for plain steps.
        cold = []
        for act in acts:
            runner = runners[act[1]]
            cold.append((
                act[0] != 3, act[1], bind(act[2], "c"),
                None if runner is None else bind(runner, "rn"),
                dividers[act[1]],
            ))
        return tuple(cold)

    def emit_acts(acts, cold, item, offset):
        for position, act in enumerate(acts):
            kind = act[0]
            cindex = act[1]
            tn = nm(act[2].controller, "ct")
            if kind == 0:
                abort("%s.halted or not credits[%d]" % (tn, cindex),
                      "edge", item, offset, (), cold, position)
                w("credits[%d] -= 1" % cindex)
            elif kind == 1:
                (_, _, _, runner, pre_pc, want, post_pc, depth) = act
                abort("credits[%d] or %s.halted or %s.pc != %d "
                      "or %s._pending is not None or %s._stall_pending"
                      % (cindex, tn, tn, pre_pc, tn, tn),
                      "edge", item, offset, (), cold, position)
                # Same budget formula as the dense loop: a tighter cap
                # (e.g. exactly ``want``) would stop the runner before
                # folding a loop-end branch the recording folded into
                # its last edge.  The dense loop's credit update, with
                # a runner that consumed nothing left at -1 for the
                # abort helper to finish.
                div = dividers[cindex]
                w("credits[%d] = %s.run_edges((limit - tick%s) // %d) - 1"
                  % (cindex, nm(runner, "rn"), plus(div - offset), div))
                abort("credits[%d] != %d or %s.pc != %d "
                      "or len(%s._loop_stack) != %d"
                      % (cindex, want - 1, tn, post_pc, tn, depth),
                      "edge", item, offset, (), cold, position + 1)
            else:
                (_, _, _, post_pc, halted, pending, depth) = act
                abort("credits[%d] or %s.halted" % (cindex, tn),
                      "edge", item, offset, (), cold, position)
                # No speculative runner call: refusal is determined by
                # control state (validated) except at a comm head,
                # where step_tile_clock applies the identical
                # buffer-gated semantics directly - a divergence from
                # the recorded outcome shows up in these post checks.
                w("%s.step_tile_clock()" % nm(act[2], "c"))
                abort("%s.pc != %d or %s%s.halted or %s._pending is %sNone "
                      "or len(%s._loop_stack) != %d"
                      % (tn, post_pc, "not " if halted else "", tn, tn,
                         "" if pending else "not ", tn, depth),
                      "edge", item, offset, (), cold, position + 1)

    # --- entry checks -------------------------------------------------
    w("if %s: return 0" % " or ".join(
        "credits[%d] != %d" % (i, c) for i, c in enumerate(entry_credits)
    ))
    if counter_checks:
        w("if %s: return 1" % " or ".join(
            "%s.counters != %r" % (nm(dou, "d"), counters)
            for dou, counters in counter_checks
        ))
    conds = []
    for words, low, high in occ_checks:
        qn = nm(words, "q")
        if high >= _OCC_UNBOUNDED:
            conds.append("len(%s) < %d" % (qn, low))
        elif low <= 0:
            conds.append("len(%s) > %d" % (qn, high))
        elif low == high:
            conds.append("len(%s) != %d" % (qn, low))
        else:
            conds.append("not %d <= len(%s) <= %d" % (low, qn, high))
    if conds:
        w("if %s: return 2" % " or ".join(conds))
    entry = (
        tuple(entry_credits),
        tuple((bind(dou, "d"), counters) for dou, counters in counter_checks),
        tuple((bind(words, "q"), low, high)
              for words, low, high in occ_checks),
    )
    # Entry occupancies for every buffer some post-tick check compares
    # against (drift-adjusted: expected = entry + recorded delta).
    post_union = set()
    for item in items:
        if item[0] == 1 and item[2] is not None:
            for j, _expect in item[2]:
                post_union.add(j)
    for j in sorted(post_union):
        w("n%d = len(%s)" % (j, nm(deques[j], "q")))

    # --- the round body -----------------------------------------------
    offset = 0
    for index, item in enumerate(items):
        if item[0] == 0:
            _, span, cyc_dous, dou_fx, charges, burns, acts = item
            for dou in cyc_dous:
                add(dou, "d", "cycles", span)
            for dou, blocked, bus_words, bus_traffic, end in dou_fx:
                fold(dou, span, blocked, bus_words, bus_traffic, end)
            for column, owed_edges in charges:
                add(column, "c", "tile_cycles", owed_edges)
                add(column, "c", "comm_stalls", owed_edges)
            for cindex, burn in burns:
                w("credits[%d] -= %d" % (cindex, burn))
            offset += span
            if acts:
                emit_acts(acts, cold_acts(acts), index, offset)
        else:
            # A lap or real step that diverges aborts into the helper,
            # which single-steps every machine after it, then runs the
            # tick's clock edges generically - all applied state real.
            _, ops, post_check, acts = item
            offset += 1
            cold = cold_acts(acts)
            for pos, op in enumerate(ops):
                if op[0] == 1:
                    fold(op[1], 1, *op[2:])
                    continue
                later = tuple(bind(other[1], "d") for other in ops[pos + 1:])
                if op[0] == 0:
                    dn = nm(op[1], "d")
                    abort("not %s.apply_laps(%s, 1)"
                          % (dn, nm(op[2], "lap")),
                          "divergence", index, offset,
                          (bind(op[1], "d"),) + later, cold)
                else:
                    flush(bind(op[1], "d"))
                    abort("%s.step() != %d" % (nm(op[1], "d"), op[2]),
                          "divergence", index, offset, later, cold)
            if post_check is not None:
                abort(" or ".join(
                    "len(%s) != n%d%s"
                    % (nm(deques[j], "q"), j, plus(expect - anchor[j]))
                    for j, expect in post_check
                ), "post_check", index, offset, (), cold)
            if acts:
                emit_acts(acts, cold, index, offset)
    # --- round end: every deferred write, once --------------------------
    for index in set_slots:
        flush(index)
    for slot, value in owed.items():
        if isinstance(slot[1], str) and slot[1] != "state_index":
            w("%s.%s += %d" % (names[slot[0]], slot[1], value))

    lines = ["def _make(B):"]
    if names:
        lines.append("    %s, = B" % ", ".join(names))
    lines.append("    def _round(tick, limit, credits):")
    lines.extend("        " + line for line in body)
    lines.append("    return _round")
    return (
        "\n".join(lines), tuple(binds), entry, tuple(sites),
        tuple(fixups),
    )


def _round_abort(plan, site, tick, limit, credits):
    """Finish the tick of a round (started at ``tick``) that stopped at
    abort ``site``; returns the tick the machine is at.

    Applies the site's fixup, then does what the dense loop would have
    done with the rest of the tick: completes a runner act that
    consumed no edge with its tile-clock step, single-steps the DOUs a
    divergent tick had not stepped yet, and runs the remaining clock
    edges generically.  Every statistic is real afterwards.
    """
    binds = plan.binds
    owed = {}
    for delta in plan.fixups[:site + 1]:
        owed.update(delta)
    for (index, attr), value in owed.items():
        if value is None:
            continue
        target = binds[index]
        if isinstance(attr, int):
            target.counters[attr] = value
        elif attr == "state_index":
            target.state_index = value
        else:
            setattr(target, attr, getattr(target, attr) + value)
    _reason, _item, offset, steps, acts, first = plan.sites[site]
    for _generic, cindex, column, _runner, _divider in acts[:first]:
        if credits[cindex] < 0:
            credits[cindex] = 0
            binds[column].step_tile_clock()
    for index in steps:
        binds[index].step()
    tick += offset
    for generic, cindex, column, runner, divider in acts[first:]:
        column = binds[column]
        if column.halted:
            continue
        if credits[cindex]:
            credits[cindex] -= 1
            continue
        if generic and runner is not None:
            edges = binds[runner].run_edges(
                (limit - tick + divider) // divider
            )
            if edges:
                credits[cindex] = edges - 1
                continue
        column.step_tile_clock()
    return tick


def _round_factory(source):
    """``(make, compiled)`` for generated round source.

    ``make(binds)`` returns the round function; ``compiled`` says
    whether ``compile()`` ran or :data:`_ROUND_CODE_CACHE` held the
    code already.
    """
    code = _ROUND_CODE_CACHE.get(source)
    compiled = code is None
    if compiled:
        if len(_ROUND_CODE_CACHE) >= LOCKSTEP_PLAN_CAP:
            _ROUND_CODE_CACHE.clear()
        code = compile(source, "<lockstep-round>", "exec")
        _ROUND_CODE_CACHE[source] = code
    namespace = {}
    exec(code, namespace)
    return namespace["_make"], compiled


# Compiled round code objects, keyed by their generated source.  The
# emitter's bind names are assigned in deterministic discovery order,
# so re-simulating the same chip structure (fresh engine, fresh
# machine objects) regenerates byte-identical source and skips the
# ``compile()`` - only the cheap closure rebind runs.
_ROUND_CODE_CACHE: dict = {}

# Whole lockstep plans shared across engine instances, keyed by
# ``(fingerprint, signature)`` and holding ``(paths, period, adds,
# source, entry, sites, fixups)``: the round's binds re-expressed as
# structural paths (column/controller/DOU/bus/runner/lap-plan/universe
# indexes), then the :class:`_RoundPlan` fields of the same names.  A
# fresh engine simulating a structurally identical chip rebinds the
# paths against its own machine objects and gets the plan at the
# signature's FIRST sighting - no recording window, no analysis, no
# emission.  Safety matches intra-engine reuse: the fingerprint pins
# program text and transfer topology, the signature pins the control
# anchor, and the round's own entry checks and validated primitives
# catch (and cleanly abort on) any residual divergence.
_SHARED_LOCK_PLANS: dict = {}
_SHARED_LOCK_CAP = 1024

# Safepoint-signature recurrences per ``(fingerprint, signature)``,
# summed over every engine in the process; they gate recorder arming
# at LOCKSTEP_ARM_RECURRENCES.  Counted per chip structure, not per
# engine, so a regime that recurs a few times in each of many runs
# (one engine per governed run) still earns its round.  Clears
# completely at _SHARED_LOCK_CAP keys, like the plan caches.
_LOCK_RECURRENCES: dict = {}

# Structural fingerprints interned to small ints so shared-cache keys
# stay cheap to hash.
_FP_INTERN: dict = {}

# Local plan-cache marker for a signature already probed against the
# shared cache and missed.  A signature is sighted again in window
# after window (each governed epoch is one), mostly as a first
# sighting that counts no recurrence; remembering the miss keeps each
# such sighting to one local dict lookup instead of re-hashing the
# (fingerprint, signature) key against the shared cache.
_PROBE_MISS = object()


class CompiledEngine(Engine):
    """Hyperperiod-compiled stepping: skip what cannot change state.

    At construction the engine classifies every DOU: machines whose
    program is inert can never move a word, so they are never stepped
    and their cycles are accounted arithmetically; the rest are
    stepped.  The clock tree's edge schedule is compiled lazily, per
    divider tuple, into a plan cache (:class:`_ClockPlan`) - runtime
    retuning through :meth:`~repro.arch.chip.Chip.retune` just selects
    another plan.  Two striding modes follow:

    * no DOU needs stepping ("sparse"): columns cannot interact, so
      each live column walks its own edges - credited edges burn in
      O(1), compute runs batch through the column runner, and a
      column blocked on a comm buffer is charged every remaining
      stall edge in closed form;
    * some DOU needs stepping ("dense"): every tick steps those DOUs
      (they run at the reference rate by definition) through their
      compiled per-state plans, column edges come from the prebound
      object table with no per-tick modulo or gate checks in the
      common case, and edge-free gaps where every stepped DOU sits in
      a starved self-loop are settled arithmetically.

    In both modes a column that has halted stops being stepped; the
    bubbles and tile cycles the reference engine would have accrued on
    its remaining clock edges are reconstructed arithmetically at the
    end of each window, as are the cycle counts of every non-stepped
    DOU and the post-halt bus drain.  PLL-relock gates
    (``chip.clock_gate_until``) suppress a column's edges the same way
    the reference stepping loop does.  ``until`` predicates and
    observers need tick-accurate visibility, so their presence falls
    back to the shared tick-by-tick loop.
    """

    name = "compiled"

    def __init__(self, chip: Chip, observers: tuple = ()) -> None:
        super().__init__(chip, observers)
        compile_start = perf_counter()
        #: divider tuple -> compiled _ClockPlan
        self._plans: dict = {}
        dous = [column.dou for column in chip.columns]
        if chip.horizontal_dou is not None:
            dous.append(chip.horizontal_dou)
        #: every DOU, in the reference loop's stepping order
        #: (columns ascending, then the horizontal machine).
        self._all_dous = tuple(dous)
        #: indexes into _all_dous stepped tick-by-tick: every DOU
        #: whose program is not inert.
        self._stepped = tuple(
            index for index, dou in enumerate(dous)
            if not dou.program.is_inert()
        )
        #: per-column compute-run pre-executors (None = reference
        #: fetch only) and the count of upcoming clock edges each
        #: column has already executed through its runner.
        self._runners = tuple(
            compile_column_runner(column) for column in chip.columns
        )
        self._credits = [0] * len(chip.columns)
        #: lockstep signature -> validated _RoundPlan.  Keyed on the
        #: full round anchor (divider tuple included), so a governor
        #: retuning the clock tree gets a fresh plan per operating
        #: point and stale plans are unreachable by construction.
        self._lock_plans: dict = {}
        #: lazily-built communication-buffer universe shared by every
        #: lockstep recording: (deque tuple, capacity tuple, id->index).
        self._lock_universe = None
        #: lazily-computed interned structural fingerprint and
        #: object-id -> structural-path map for the shared plan cache.
        self._lock_fp = None
        self._lock_path_of = None
        #: highest tick any window has reached; a chip observed below
        #: it again means the run restarted under this engine.
        self._profile_mark = 0
        #: wall-clock attribution is collected only when
        #: ``profile_enabled`` is set; the event counters are always
        #: maintained (they sit off the per-tick hot path).
        self.profile_enabled = False
        self._profile = {
            "compile_s": perf_counter() - compile_start,
            "dense_s": 0.0,
            "sparse_s": 0.0,
            "settle_s": 0.0,
            "drain_s": 0.0,
            "dense_ticks": 0,
            "batch_events": 0,
            "batched_ticks": 0,
            "sparse_steps": 0,
            "parked_edges": 0,
            "lockstep_batches": 0,
            "orbit_laps": 0,
            "fused_runner_calls": 0,
        }
        #: Typed view over the same dict the hot loops mutate raw:
        #: the registry owns instrument naming and kinds, ``_profile``
        #: stays the fast store (``dict[key] += n`` in the inner
        #: loops), and :meth:`profile_snapshot` renders through it.
        self.metrics = MetricsRegistry.adopt(
            self._profile, namespace="engine"
        )
        for key in self._profile:
            if key.endswith("_s"):
                self.metrics.gauge(key)
            else:
                self.metrics.counter(key)
        if BUS.active:
            # No wall-clock in the args: trace output must be
            # byte-identical across identical runs (the exporter
            # determinism contract); compile_s stays readable through
            # profile_snapshot().
            BUS.instant(
                "engine_compiled",
                tick=chip.reference_ticks,
                track="engine",
                args={"columns": len(chip.columns)},
            )

    def profile_snapshot(self) -> dict:
        """Phase timings and event counters for ``--profile`` runs.

        Compatibility view over :attr:`metrics` - same keys as ever,
        so the ``BENCH_engine.json`` profile schema and the CI counter
        checks are unaffected by the registry migration.  Timing keys
        are populated only when :attr:`profile_enabled` was set before
        the run; counter keys are always exact.  The runner aggregate
        folds in every column's pre-execution statistics (calls, edges
        consumed, closed-form loop batches).
        """
        data = self.metrics.snapshot()
        calls = edges = batches = iterations = 0
        for runner in self._runners:
            if runner is None:
                continue
            calls += runner.calls
            edges += runner.edges
            batches += runner.vector_batches
            iterations += runner.vector_iterations
        data["runner_calls"] = calls
        data["runner_edges"] = edges
        data["vector_batches"] = batches
        data["vector_iterations"] = iterations
        return data

    def reset_profile(self) -> None:
        """Zero phase timings and event counters for a fresh run.

        ``compile_s`` is kept - construction happened once and stays
        attributable.  The per-column runner counters fold into
        :meth:`profile_snapshot`, so they are reset too.  Called
        automatically when :meth:`advance` observes the chip below the
        last settled tick (a restarted run under a reused engine);
        callers sharing one engine across measured runs may also call
        it directly.
        """
        profile = self._profile
        for key, value in profile.items():
            if key == "compile_s":
                continue
            profile[key] = 0.0 if isinstance(value, float) else 0
        for runner in self._runners:
            if runner is None:
                continue
            runner.calls = 0
            runner.edges = 0
            runner.vector_batches = 0
            runner.vector_iterations = 0
        self._profile_mark = self.chip.reference_ticks

    def _plan(self) -> _ClockPlan:
        """The compiled activity schedule for the current dividers.

        Cached per divider tuple, so an epoch run that revisits an
        operating point compiles its edge table exactly once.
        """
        key = self.chip.clock.dividers
        plan = self._plans.get(key)
        if plan is None:
            plan = _ClockPlan(self.chip.clock, self.chip.columns)
            self._plans[key] = plan
        return plan

    def advance(self, ticks: int) -> int:
        if self.observers:
            return _advance_ticked(self.chip, self.observers, ticks)
        if ticks <= 0 or self.chip.all_halted:
            return 0
        start = self.chip.reference_ticks
        if start < self._profile_mark:
            # The chip sits below a tick this engine already settled:
            # the run restarted (rewound/rebuilt chip under a reused
            # engine).  Stale counters would double-count the old run.
            self.reset_profile()
        end = self._stride_window(start + ticks)
        self._profile_mark = end
        return end - start

    def run(
        self,
        max_ticks: int = DEFAULT_MAX_TICKS,
        until: Callable[[Chip], bool] | None = None,
        drain_hyperperiods: int = 2,
    ) -> SimulationStats:
        if until is not None or self.observers:
            return _run_ticked(
                self.chip, self.observers, max_ticks, until,
                drain_hyperperiods,
            )
        start = self.chip.reference_ticks
        if start < self._profile_mark:
            self.reset_profile()
        end = self._stride_window(start + max_ticks)
        # The reference loop spends one budget iteration *observing*
        # all_halted after the final step, so a chip halting on the
        # very last tick in budget still exhausts it.
        if end - start >= max_ticks:
            raise _budget_error(max_ticks)
        self._drain(drain_hyperperiods * self._plan().period)
        self._profile_mark = self.chip.reference_ticks
        return collect(self.chip)

    # ------------------------------------------------------------------
    # striding
    # ------------------------------------------------------------------
    def _stride_window(self, limit: int) -> int:
        """Advance from the current tick to at most ``limit``.

        Stops early the moment every column has halted (at the same
        tick the reference loop would observe ``all_halted``), settles
        the skipped arithmetic for the window, and returns the end
        tick.
        """
        chip = self.chip
        start = chip.reference_ticks
        tracing = BUS.active
        if tracing:
            window_pre = self._window_open()
        initial_cycles = [
            column.tile_cycles for column in chip.columns
        ]
        dou_cycles = [dou.cycles for dou in self._all_dous]
        # Touch the plan cache even on sparse windows: one compiled
        # plan per operating point the run visits is part of the
        # engine's contract (and what the epoch layer's cache tests
        # pin down).
        self._plan()
        profiling = self.profile_enabled
        mark = perf_counter() if profiling else 0.0
        if self._stepped:
            end = self._dense_until(start, limit)
            phase = "dense_s"
        else:
            end = self._sparse_until(start, limit)
            phase = "sparse_s"
        if profiling:
            now = perf_counter()
            self._profile[phase] += now - mark
            mark = now
        self._settle_window(start, end, initial_cycles, dou_cycles)
        if profiling:
            self._profile["settle_s"] += perf_counter() - mark
        chip.reference_ticks = end
        if tracing:
            self._window_close(window_pre, start, end, phase[:-2])
        return end

    #: Profile counters whose per-window deltas ride on the window
    #: span's args when a sink is subscribed.
    WINDOW_DELTA_KEYS = (
        "dense_ticks", "sparse_steps", "batch_events",
        "batched_ticks", "parked_edges", "lockstep_batches",
        "orbit_laps", "fused_runner_calls",
    )

    def _window_open(self) -> tuple:
        """Baselines for window-granularity telemetry (tracing only)."""
        profile = self._profile
        return (
            [column.halted for column in self.chip.columns],
            [profile[key] for key in self.WINDOW_DELTA_KEYS],
        )

    def _window_close(
        self, pre: tuple, start: int, end: int, phase: str
    ) -> None:
        """Emit the window's telemetry: one engine-track span with the
        profile-counter deltas, plus per-clock-domain tracks (divider
        rung, relock-gated stretch, cumulative issue/stall counters,
        halt instants)."""
        chip = self.chip
        halted_pre, counters_pre = pre
        profile = self._profile
        deltas = {
            key: profile[key] - base
            for key, base in zip(self.WINDOW_DELTA_KEYS, counters_pre)
            if profile[key] != base
        }
        BUS.span(
            f"window:{phase}", start, end, track="engine",
            args=deltas,
        )
        dividers = chip.clock.dividers
        gates = chip.clock_gate_until
        for index, column in enumerate(chip.columns):
            track = f"column{index}"
            BUS.counter(
                "divider", dividers[index], tick=start, track=track,
            )
            if gates[index] > start:
                BUS.span(
                    "gated", start, min(gates[index], end),
                    track=track,
                )
            BUS.counter(
                "issued", column.controller.issued, tick=end,
                track=track,
            )
            BUS.counter(
                "comm_stalls", column.comm_stalls, tick=end,
                track=track,
            )
            if column.halted and not halted_pre[index]:
                BUS.instant("halted", tick=end, track=track)

    def _sparse_until(self, start: int, limit: int) -> int:
        """No DOU to step: settle each live column independently.

        With every DOU inert, no word can cross a domain boundary for
        the rest of the window, so columns cannot interact and each
        advances over its private edge schedule in one pass: edges
        the column runner has pre-executed burn in O(1), compiled
        compute runs batch through the runner, and a column that
        blocks on a comm buffer is charged all remaining stall edges
        in closed form (nothing can ever unblock it).
        Returns the tick at which the reference loop would observe
        all-halted, or ``limit``.
        """
        chip = self.chip
        columns = chip.columns
        gates = chip.clock_gate_until
        clock = chip.clock
        dividers = clock.dividers
        credits = self._credits
        runners = self._runners
        profile = self._profile
        live = 0
        last_halt = -1
        for cindex, column in enumerate(columns):
            if column.halted:
                continue
            live += 1
            divider = dividers[cindex]
            base = max(start, gates[cindex])
            tick = base + (-base) % divider
            runner = runners[cindex]
            while tick < limit:
                remaining = (limit - tick + divider - 1) // divider
                credit = credits[cindex]
                if credit:
                    if credit > remaining:
                        credit = remaining
                    credits[cindex] -= credit
                    tick += credit * divider
                    continue
                if runner is not None:
                    consumed = runner.run_edges(remaining)
                    if consumed:
                        tick += consumed * divider
                        continue
                outcome = column.step_tile_clock()
                profile["sparse_steps"] += 1
                if column.halted:
                    live -= 1
                    if tick > last_halt:
                        last_halt = tick
                    break
                if outcome == STALLED:
                    # A comm stall with no live DOU repeats forever:
                    # charge every remaining edge of the window.
                    owed = clock.edges_in(cindex, tick + 1, limit)
                    if owed:
                        column.tile_cycles += owed
                        column.comm_stalls += owed
                        profile["parked_edges"] += owed
                    break
                tick += divider
        if live == 0:
            return last_halt + 1 if last_halt >= 0 else start
        return limit

    def _dense_until(self, start: int, limit: int) -> int:
        """Some DOU moves data: walk the compiled hyperperiod trace.

        A relock-gated prefix pays per-tick gate checks; the steady
        state walks the prebound edge-object table with an
        incrementing offset (no modulo, no gate test, no halted-edge
        re-entry after the filtered check), batches no-progress gaps,
        and pre-executes compute runs.  Two batching mechanisms remove
        the per-tick loop in steady state:

        * **Orbit batching** - when every stepped DOU sits in a
          closed no-progress orbit (starved, fully backpressured, or
          idle; :meth:`~repro.arch.dou.Dou.stall_orbit`), no buffer
          can change until a progressing column edge executes, so the
          whole span through the next such edge settles
          arithmetically - including the edges of columns parked on a
          blocked SEND or RECV, which are charged as comm stalls.
        * **Run crediting** - at a live column's edge, the column
          runner pre-executes as many upcoming compute edges as the
          program allows; the column is then credited those edges,
          which burn in O(1) as their ticks pass (or inside an orbit
          jump).

        On top of both, the loop hunts for a recurring **lockstep
        round**: the same anchor signature (column pcs, pending/loop
        structure, credits, DOU states, hyperperiod phase) seen at two
        batch-event safepoints a whole number of hyperperiods apart.
        A signature without a plan here first probes the plans other
        engines of the same chip structure built
        (:meth:`_lock_probe`), so a structure that has earned its
        rounds replays from the first sighting.  Otherwise detection
        is gated and two-phase, so short regimes build nothing and the
        steady state pays nothing: every recurrence adds one to the
        signature's process-wide count for this structure
        (:meth:`_lock_recurred`); the recurrence that brings it to
        :data:`LOCKSTEP_ARM_RECURRENCES` *arms* a
        :class:`_LockRecorder` that captures exactly one round richly
        (occupancy snapshots, per-DOU stat deltas, comm predicate
        inputs); the next recurrence builds the capture into a
        :class:`_RoundPlan` whose replays (:meth:`_lock_replay`)
        settle whole producer/consumer exchange rounds per iteration
        - entry-validated by credit/counter equality and per-buffer
        occupancy windows, with only the genuinely irregular
        primitives executed and self-validated live.  Any divergence
        aborts back here with the machine state real and consistent.
        """
        chip = self.chip
        columns = chip.columns
        gates = chip.clock_gate_until
        clock = chip.clock
        dividers = clock.dividers
        plan = self._plan()
        period = plan.period
        edges = plan.edges
        edge_objs = plan.edge_objs
        max_gate = max(gates)
        dous = [self._all_dous[index] for index in self._stepped]
        credits = self._credits
        runners = self._runners
        profile = self._profile
        lock_plans = self._lock_plans
        sigs: dict = {}  # lockstep signature -> last tick seen
        armed = None     # _LockRecorder while capturing one round
        live = sum(not column.halted for column in columns)
        tick = start
        if tick < max_gate:
            # Relock-gated prefix: tick-accurate gate checks, with
            # the same orbit batching as the steady state.  Once
            # every stepped DOU parks in a no-progress orbit, no
            # buffer can change before the next *executable* column
            # edge - and a relock gate pushes each column's next
            # executable edge out to its gate expiry - so the whole
            # gated stretch settles arithmetically instead of
            # paying per-tick gate checks.
            gate_end = min(limit, max_gate)
            gate_moved = 0
            while live and tick < gate_end:
                if gate_moved == 0:
                    gate_batch = []
                    for dou in dous:
                        effects = dou.stall_orbit()
                        if effects is None:
                            gate_batch = None
                            break
                        gate_batch.append(effects)
                else:
                    gate_batch = None
                if gate_batch is not None:
                    jump = gate_end
                    for cindex, column in enumerate(columns):
                        if column.halted:
                            continue
                        divider = dividers[cindex]
                        base = tick
                        if gates[cindex] > base:
                            base = gates[cindex]
                        due = base + (-base) % divider
                        if due < jump:
                            jump = due
                    if jump > tick:
                        span = jump - tick
                        for position, dou in enumerate(dous):
                            dou.fast_stall_orbit(
                                gate_batch[position], span,
                            )
                        profile["batch_events"] += 1
                        profile["batched_ticks"] += span
                        tick = jump
                        continue
                gate_moved = 0
                for dou in dous:
                    gate_moved += dou.step()
                for index in edges[tick % period]:
                    column = columns[index]
                    if column.halted or tick < gates[index]:
                        continue
                    column.step_tile_clock()
                    if column.halted:
                        live -= 1
                tick += 1
        offset = tick % period
        stepped_ticks = 0
        moved = 0
        while live and tick < limit:
            # Attempt an orbit batch only after a tick in which no
            # word moved (a no-progress orbit implies one), so the
            # classification never taxes the busy steady state.
            if moved == 0:
                batch = []
                for dou in dous:
                    effects = dou.stall_orbit()
                    if effects is None:
                        batch = None
                        break
                    batch.append(effects)
            else:
                batch = None
            if batch is not None or offset == 0:
                # Lockstep safepoint: replay a cached round for
                # this anchor, build one from an armed capture,
                # or count a recurrence and arm a capture once the
                # signature has recurred LOCKSTEP_ARM_RECURRENCES
                # times on this chip structure.
                # Attempted at every no-progress orbit batch AND at
                # every hyperperiod phase boundary: a periodic
                # *busy* regime (words moving every tick, so no
                # no-progress anchor ever appears) still recurs at
                # phase 0, and its recorded round replays as lap
                # applications and validated real steps with all
                # the per-tick classification machinery skipped.
                sig = self._lock_signature(tick, period)
                lplan = lock_plans.get(sig)
                if lplan is None and _SHARED_LOCK_PLANS:
                    lplan = self._lock_probe(sig)
                    lock_plans[sig] = (
                        _PROBE_MISS if lplan is None else lplan
                    )
                elif lplan is _PROBE_MISS:
                    lplan = None
                if (lplan is not None
                        and tick + lplan.period <= limit):
                    new_tick, rounds = self._lock_replay(
                        lplan, tick, limit, credits, profile,
                    )
                    if rounds:
                        lplan.failures = 0
                    else:
                        lplan.failures += 1
                        if lplan.failures > LOCKSTEP_FAILURES:
                            del lock_plans[sig]
                            if lplan.gkey is not None:
                                _SHARED_LOCK_PLANS.pop(
                                    lplan.gkey, None,
                                )
                    if new_tick != tick:
                        tick = new_tick
                        offset = tick % period
                        moved = 0
                        live = sum(
                            not column.halted
                            for column in columns
                        )
                        sigs.clear()
                        armed = None
                        continue
                elif lplan is None:
                    if armed is not None:
                        if sig == armed.sig and tick > armed.start:
                            built = _build_lock_plan(
                                armed, tick - armed.start,
                                dous, columns, runners, dividers,
                            )
                            armed = None
                            if built is not None:
                                if (len(lock_plans)
                                        > LOCKSTEP_PLAN_CAP):
                                    lock_plans.clear()
                                lock_plans[sig] = built
                                self._lock_share(sig, built)
                    elif sigs.get(sig, tick) < tick:
                        seen = self._lock_recurred(sig)
                        if seen >= LOCKSTEP_ARM_RECURRENCES:
                            armed = _LockRecorder(
                                sig, tick, seen,
                                self._lock_buffers(), dous, credits,
                            )
                    sigs[sig] = tick
            if batch is not None:
                if armed is not None:
                    g_occ = armed.occ()
                    g_states = tuple(
                        dou.state_index for dou in dous
                    )
                    g_comm = armed.comm_state(columns, credits)
                jump = limit
                parked = 0  # bitmask of comm-parked columns
                for cindex, column in enumerate(columns):
                    if column.halted:
                        continue
                    credit = credits[cindex]
                    if credit == 0 and column.parked_on_comm():
                        parked |= 1 << cindex
                        continue
                    divider = dividers[cindex]
                    due = (
                        tick + (-tick) % divider
                        + credit * divider
                    )
                    if due < jump:
                        jump = due
                # The freeze proof holds through the DOU steps AT
                # ``jump`` as well: no buffer changed in
                # [tick, jump), so the bus cycle at ``jump`` is one
                # more orbit stall, and the due edges then execute
                # inside this event (reference order: buses first,
                # then due columns).  Only when the jump hits the
                # window limit does the event stop short of an edge.
                # Parked columns owe one comm-stall edge per skipped
                # edge, credited columns burn their pre-executed
                # edges, and no other column has an edge before the
                # jump.
                run_edge = jump < limit
                end = jump + 1 if run_edge else jump
                span = end - tick
                recording = armed is not None
                for position, dou in enumerate(dous):
                    dou.fast_stall_orbit(batch[position], span)
                charges_rec = [] if recording else None
                burns_rec = [] if recording else None
                for cindex, column in enumerate(columns):
                    if column.halted:
                        continue
                    if credits[cindex]:
                        burn = clock.edges_in(cindex, tick, jump)
                        if burn:
                            credits[cindex] -= burn
                            if recording:
                                burns_rec.append((cindex, burn))
                    elif parked >> cindex & 1:
                        owed = clock.edges_in(cindex, tick, end)
                        if owed:
                            column.tile_cycles += owed
                            column.comm_stalls += owed
                            profile["parked_edges"] += owed
                            if recording:
                                charges_rec.append((cindex, owed))
                acts = None
                if run_edge:
                    acts = [] if recording else None
                    for column in edge_objs[jump % period]:
                        if column.halted:
                            continue
                        cindex = column.index
                        if parked >> cindex & 1:
                            continue  # stall already settled
                        credit = credits[cindex]
                        if credit:
                            credits[cindex] = credit - 1
                            if recording:
                                acts.append((0, cindex))
                            continue
                        runner = runners[cindex]
                        if runner is not None:
                            divider = dividers[cindex]
                            pre_pc = column.controller.pc
                            consumed = runner.run_edges(
                                (limit - jump + divider - 1)
                                // divider
                            )
                            if consumed:
                                credits[cindex] = consumed - 1
                                if recording:
                                    ctrl = column.controller
                                    acts.append((
                                        1, cindex, pre_pc,
                                        consumed, ctrl.pc,
                                        runner.comm_head(pre_pc),
                                        len(ctrl._loop_stack),
                                    ))
                                continue
                        column.step_tile_clock()
                        if recording:
                            ctrl = column.controller
                            acts.append((
                                3, cindex, ctrl.pc,
                                column.halted,
                                ctrl._pending is not None,
                                len(ctrl._loop_stack),
                            ))
                        if column.halted:
                            live -= 1
                if recording:
                    armed.items.append((
                        "g", span, g_occ, g_states, batch,
                        g_comm, parked, tuple(charges_rec),
                        tuple(burns_rec),
                        tuple(acts) if acts is not None
                        else None,
                    ))
                    if len(armed.items) > LOCKSTEP_REC_CAP:
                        armed = None
                profile["batch_events"] += 1
                profile["batched_ticks"] += span
                tick = end
                offset = tick % period
                moved = 0
                continue
            if armed is None:
                moved = 0
                for dou in dous:
                    moved += dou.step()
                for column in edge_objs[offset]:
                    if column.halted:
                        continue
                    cindex = column.index
                    credit = credits[cindex]
                    if credit:
                        credits[cindex] = credit - 1
                        continue
                    runner = runners[cindex]
                    if runner is not None:
                        # tick is this column's edge
                        # (tick % d == 0), so the edges left in
                        # the window are a pure ceiling division.
                        divider = dividers[cindex]
                        consumed = runner.run_edges(
                            (limit - tick + divider - 1)
                            // divider
                        )
                        if consumed:
                            credits[cindex] = consumed - 1
                            continue
                    column.step_tile_clock()
                    if column.halted:
                        live -= 1
                stepped_ticks += 1
                tick += 1
                offset += 1
                if offset == period:
                    offset = 0
                continue
            # Armed: the same tick, instrumented with the
            # occupancy snapshots and per-DOU stat deltas the
            # round compiler needs.  One round per signature pays
            # this; the steady state never does.
            occ_cur = armed.occ()
            per_dou = []
            moved = 0
            for dou in dous:
                state_pre = dou.state_index
                blocked_pre = dou.blocked_cycles
                retired_pre = dou.words_retired
                bus = dou.bus
                bus_words_pre = bus.words_moved
                bus_traffic_pre = bus.cycles_with_traffic
                counters_pre = tuple(dou.counters)
                words = dou.step()
                moved += words
                occ_next = armed.occ()
                per_dou.append((
                    state_pre, words, occ_next != occ_cur,
                    dou.blocked_cycles - blocked_pre,
                    bus.words_moved - bus_words_pre,
                    bus.cycles_with_traffic - bus_traffic_pre,
                    dou.words_retired - retired_pre,
                    dou.state_index,
                    tuple(
                        (i, v)
                        for i, v in enumerate(dou.counters)
                        if v != counters_pre[i]
                    ),
                    occ_cur,
                ))
                occ_cur = occ_next
            acts = []
            for column in edge_objs[offset]:
                if column.halted:
                    continue
                cindex = column.index
                credit = credits[cindex]
                if credit:
                    credits[cindex] = credit - 1
                    acts.append((0, cindex))
                    continue
                runner = runners[cindex]
                if runner is not None:
                    divider = dividers[cindex]
                    pre_pc = column.controller.pc
                    consumed = runner.run_edges(
                        (limit - tick + divider - 1) // divider
                    )
                    if consumed:
                        credits[cindex] = consumed - 1
                        ctrl = column.controller
                        acts.append((
                            1, cindex, pre_pc, consumed,
                            ctrl.pc, runner.comm_head(pre_pc),
                            len(ctrl._loop_stack),
                        ))
                        continue
                column.step_tile_clock()
                ctrl = column.controller
                acts.append((
                    3, cindex, ctrl.pc, column.halted,
                    ctrl._pending is not None,
                    len(ctrl._loop_stack),
                ))
                if column.halted:
                    live -= 1
            armed.items.append((
                "t", occ_cur, tuple(per_dou), tuple(acts),
            ))
            if len(armed.items) > LOCKSTEP_REC_CAP:
                armed = None
            stepped_ticks += 1
            tick += 1
            offset += 1
            if offset == period:
                offset = 0
        profile["dense_ticks"] += stepped_ticks
        return tick

    # ------------------------------------------------------------------
    # lockstep round replay
    # ------------------------------------------------------------------
    def _lock_buffers(self):
        """The communication-buffer universe, built once per engine.

        ``(deques, capacities, id(deque) -> index)`` over every buffer
        a recorded round's behaviour can depend on: tile read/write
        buffers (real capacities, registered first) plus every deque
        reachable from a DOU port or compiled state plan.  Occupancy
        snapshots, drift windows, and post-tick checks all index this
        one universe.
        """
        universe = self._lock_universe
        if universe is not None:
            return universe
        deques: list = []
        caps: list = []
        index_of: dict = {}

        def add(words, cap):
            j = index_of.get(id(words))
            if j is None:
                index_of[id(words)] = len(deques)
                deques.append(words)
                caps.append(cap)
            elif cap < caps[j]:
                caps[j] = cap

        for column in self.chip.columns:
            for tile in column.tiles:
                add(tile.read_buffer._words, tile.read_buffer.capacity)
                add(tile.write_buffer._words,
                    tile.write_buffer.capacity)
        for dou in self._all_dous:
            for buffer in dou.write_ports.values():
                add(buffer._words, buffer.capacity)
            for buffer in dou.read_ports.values():
                add(buffer._words, buffer.capacity)
            for plan in dou._plans:
                if plan is None:
                    continue
                for src_words, destinations in plan.blocks:
                    add(src_words, _OCC_UNBOUNDED)
                    for dest_words, capacity in destinations:
                        add(dest_words, capacity)
        universe = (tuple(deques), tuple(caps), index_of)
        self._lock_universe = universe
        return universe

    def _lock_fingerprint(self) -> int:
        """Interned structural identity for the shared plan cache.

        Pins everything a round's unvalidated integer deltas were
        derived from: the full column programs, each DOU's program
        (states, transfers, counters), and the buffer universe's
        capacity layout.  Two chips with equal fingerprints are
        behaviourally interchangeable at equal signatures.
        """
        fp = self._lock_fp
        if fp is None:
            deques, caps, index_of = self._lock_buffers()
            key = (
                tuple(
                    (len(column.tiles),
                     repr(column.controller.program))
                    for column in self.chip.columns
                ),
                tuple(repr(dou.program) for dou in self._all_dous),
                caps,
            )
            fp = _FP_INTERN.get(key)
            if fp is None:
                fp = len(_FP_INTERN)
                _FP_INTERN[key] = fp
            self._lock_fp = fp
        return fp

    def _lock_paths(self) -> dict:
        """``id(obj) -> structural path`` over every bindable object."""
        path_of = self._lock_path_of
        if path_of is None:
            path_of = {}
            for i, column in enumerate(self.chip.columns):
                path_of[id(column)] = ("c", i)
                path_of[id(column.controller)] = ("t", i)
            for i, runner in enumerate(self._runners):
                if runner is not None:
                    path_of[id(runner)] = ("r", i)
            for i, dou in enumerate(self._all_dous):
                path_of[id(dou)] = ("d", i)
                if dou.bus is not None:
                    path_of[id(dou.bus)] = ("b", i)
                for s, lap in enumerate(dou._lap_plans):
                    if lap is not None:
                        path_of[id(lap)] = ("l", i, s)
            deques, _caps, _index_of = self._lock_buffers()
            for j, words in enumerate(deques):
                path_of[id(words)] = ("q", j)
            self._lock_path_of = path_of
        return path_of

    def _lock_resolve(self, path):
        """Structural path -> this engine's machine object."""
        kind = path[0]
        if kind == "q":
            return self._lock_buffers()[0][path[1]]
        if kind == "d":
            return self._all_dous[path[1]]
        if kind == "l":
            return self._all_dous[path[1]]._lap_plans[path[2]]
        if kind == "b":
            return self._all_dous[path[1]].bus
        if kind == "c":
            return self.chip.columns[path[1]]
        if kind == "t":
            return self.chip.columns[path[1]].controller
        return self._runners[path[1]]

    def _lock_share(self, sig, plan) -> None:
        """Publish a freshly built plan to the shared cache."""
        path_of = self._lock_paths()
        paths = []
        for obj in plan.binds:
            path = path_of.get(id(obj))
            if path is None:
                return  # an unmapped bind: keep the plan engine-local
            paths.append(path)
        if len(_SHARED_LOCK_PLANS) >= _SHARED_LOCK_CAP:
            _SHARED_LOCK_PLANS.clear()
        key = (self._lock_fingerprint(), sig)
        _SHARED_LOCK_PLANS[key] = (
            tuple(paths), plan.period, plan.adds, plan.source,
            plan.entry, plan.sites, plan.fixups,
        )
        plan.gkey = key

    def _lock_probe(self, sig):
        """Rebind a shared plan for ``sig``, or None on a miss.

        The plan comes back uncompiled, like a freshly built one: its
        first entry compiles it (from :data:`_ROUND_CODE_CACHE`, in
        the common case that the publishing engine already did).
        """
        key = (self._lock_fingerprint(), sig)
        entry = _SHARED_LOCK_PLANS.get(key)
        if entry is None:
            return None
        paths, period, adds, source, checks, sites, fixups = entry
        try:
            binds = tuple(self._lock_resolve(path) for path in paths)
        except (IndexError, TypeError):
            del _SHARED_LOCK_PLANS[key]
            return None
        plan = _RoundPlan(period, adds, source, checks, sites, fixups, binds)
        plan.gkey = key
        return plan

    def _lock_recurred(self, sig) -> int:
        """Count one more recurrence of ``sig`` on this chip structure.

        Returns the process-wide total, which gates recorder arming at
        :data:`LOCKSTEP_ARM_RECURRENCES`.
        """
        key = (self._lock_fingerprint(), sig)
        seen = _LOCK_RECURRENCES.get(key, 0) + 1
        if seen == 1 and len(_LOCK_RECURRENCES) >= _SHARED_LOCK_CAP:
            _LOCK_RECURRENCES.clear()
        _LOCK_RECURRENCES[key] = seen
        return seen

    def _lock_signature(self, tick: int, period: int):
        """Safepoint fingerprint for lockstep round detection.

        Occupancies, loop counters, and DOU word counters are
        deliberately excluded — they drift monotonically across rounds
        whose *behaviour* repeats.  Everything excluded here is instead
        revalidated live, per operation, during replay.
        """
        cols = []
        append = cols.append
        for column in self.chip.columns:
            ctrl = column.controller
            append((
                ctrl.halted, ctrl.pc, ctrl.mask,
                ctrl._pending is not None, ctrl._stall_pending,
                tuple([frame[0] for frame in ctrl._loop_stack]),
            ))
        dous = self._all_dous
        stepped = self._stepped
        return (
            tick % period, self.chip.clock.dividers,
            stepped, tuple(self._credits),
            tuple([dous[i].state_index for i in stepped]),
            tuple(cols),
        )

    def _lock_replay(self, plan, tick, limit, credits, profile):
        """Replay as many whole recorded rounds as fit before *limit*.

        Returns ``(tick, rounds)``.  An uncompiled plan first checks
        its entry as data (:meth:`_RoundPlan.enter`) and compiles only
        if that passes, so a round that never enters costs no
        ``compile()``.  A round that aborts midway has still executed
        real primitives up to the abort point and finished the tick
        generically, so the partially advanced tick is always kept.
        With a sink subscribed, the replay or abort instant names the
        abort site that ended it (``reason``, ``item``), or ``reason``
        "limit" when the window ran out first.
        """
        rounds = 0
        period = plan.period
        site = None if plan.fn is not None else plan.enter(tick, credits)
        if site is None:
            fn = plan.fn
            while tick + period <= limit:
                site = fn(tick, limit, credits)
                if site is not None:
                    break
                tick += period
                rounds += 1
        if site is not None:
            tick = _round_abort(plan, site, tick, limit, credits)
        if rounds:
            profile["lockstep_batches"] += rounds
            adds = plan.adds
            profile["batch_events"] += adds[0] * rounds
            profile["batched_ticks"] += adds[1] * rounds
            profile["dense_ticks"] += adds[2] * rounds
            profile["parked_edges"] += adds[3] * rounds
            profile["orbit_laps"] += adds[4] * rounds
            profile["fused_runner_calls"] += adds[5] * rounds
        if BUS.active:
            args = {"round_ticks": period}
            if rounds:
                args["rounds"] = rounds
                args["orbit_laps"] = plan.adds[4] * rounds
            if site is None:
                args["reason"] = "limit"
            else:
                args["reason"], args["item"] = plan.sites[site][:2]
            BUS.instant(
                "lockstep_replay" if rounds else "lockstep_abort",
                tick=tick, track="engine", args=args,
            )
        return tick, rounds

    # ------------------------------------------------------------------
    # post-window settlement
    # ------------------------------------------------------------------
    def _settle_window(
        self, start: int, end: int, initial_cycles: list,
        dou_cycles: list,
    ) -> None:
        """Reconstruct everything the striding skipped in [start, end).

        On every skipped clock edge of a halted column the reference
        engine would have recorded exactly one bubble tile cycle (the
        controller refuses to fetch past HALT); edges suppressed by a
        PLL-relock gate are skipped by both engines and owe nothing.
        Every DOU's cycle counter must advance by exactly the window
        span (the reference loop steps every machine every tick), so
        the shortfall of every inert machine, which is never stepped,
        is settled in closed form through
        :meth:`~repro.arch.dou.Dou.fast_forward`.  The
        clock tree is constant within a window (retunes commit only
        between windows), so ``edges_in`` is exact.
        """
        chip = self.chip
        clock = chip.clock
        span = end - start
        if span <= 0:
            return
        for index, column in enumerate(chip.columns):
            gate = chip.clock_gate_until[index]
            low = min(end, max(start, gate))
            owed = (
                clock.edges_in(index, low, end)
                - (column.tile_cycles - initial_cycles[index])
            )
            if owed:
                column.tile_cycles += owed
                column.controller.bubbles += owed
        for index, dou in enumerate(self._all_dous):
            owed = span - (dou.cycles - dou_cycles[index])
            if owed:
                dou.fast_forward(owed)

    def _drain(self, ticks: int) -> None:
        """Drain the buses for ``ticks`` after every column halted.

        A live DOU may still hold in-flight words at halt time, so the
        drain steps every stepped DOU faithfully; the owed bubble
        edges and the cycles of the inert DOUs settle arithmetically.
        """
        profiling = self.profile_enabled
        mark = perf_counter() if profiling else 0.0
        chip = self.chip
        start = chip.reference_ticks
        initial_cycles = [
            column.tile_cycles for column in chip.columns
        ]
        dou_cycles = [dou.cycles for dou in self._all_dous]
        if self._stepped:
            dous = [self._all_dous[index] for index in self._stepped]
            for _ in range(ticks):
                for dou in dous:
                    dou.step()
        self._settle_window(
            start, start + ticks, initial_cycles, dou_cycles
        )
        chip.reference_ticks = start + ticks
        if profiling:
            self._profile["drain_s"] += perf_counter() - mark
        if BUS.active:
            BUS.span("drain", start, start + ticks, track="engine")


#: Engine registry by name - the lookup behind :func:`create_engine`
#: and the pattern :data:`repro.control.governor.GOVERNOR_KINDS`
#: mirrors for governors.
ENGINES = {
    ReferenceEngine.name: ReferenceEngine,
    CompiledEngine.name: CompiledEngine,
}

#: Name that resolves to the fastest engine safe for the run shape.
AUTO_ENGINE = "auto"

#: Profiling hook for callers that never see the engine object.  The
#: kernel and scenario runners build their simulators internally, so
#: a benchmark driver that wants ``profile_snapshot()`` after a run
#: sets this to a list before invoking the workload:  every
#: :class:`CompiledEngine` built through :func:`create_engine` while
#: it is set has ``profile_enabled`` switched on and is appended, and
#: the driver reads the snapshots off the registered engines when the
#: workload returns.  Owned by ``repro.eval.engines``; not
#: thread-safe; ``None`` (the default) costs the hot path nothing.
#:
#: .. deprecated::
#:     Kept as a compatibility shim for existing benchmark drivers.
#:     New consumers should read the typed
#:     :attr:`CompiledEngine.metrics` registry on an engine they
#:     hold, or subscribe a sink to :data:`repro.obs.events.BUS` when
#:     they never see the engine object - see
#:     ``docs/observability.md``.
PROFILE_REGISTRY: list | None = None


def create_engine(
    name: str, chip: Chip, observers: tuple = ()
) -> Engine:
    """Instantiate an engine by registry name.

    ``"auto"`` picks the compiled fast path when no observers are
    attached (tick-accurate visibility is not needed, and an ``until``
    predicate at run time still falls back to the shared tick loop);
    with observers it picks the reference engine outright.

    Raises
    ------
    ConfigurationError
        For names outside the registry - a configuration mistake, not
        a simulation failure, so it is distinguishable from runtime
        errors like deadlocked schedules.
    """
    if name == AUTO_ENGINE:
        name = ReferenceEngine.name if observers else CompiledEngine.name
    try:
        factory = ENGINES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {name!r}; available: {sorted(ENGINES)}"
        ) from None
    engine = factory(chip, observers)
    if PROFILE_REGISTRY is not None and isinstance(engine, CompiledEngine):
        engine.profile_enabled = True
        PROFILE_REGISTRY.append(engine)
    return engine
