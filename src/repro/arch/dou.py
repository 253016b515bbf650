"""Data Orchestration Unit (paper Section 2.3, Figures 3 and 4).

The DOU is a decoupled communication controller: a state machine of up
to 128 states whose outputs drive the bus segment switches (SEG
fields) and the tile communication buffers (Buffer fields).  Each
state names one of four 32-bit down-counters (CNTR field): when the
counter is zero the machine resets it and follows NXTSTATE0, otherwise
it decrements and follows NXTSTATE1 - giving four nested zero-overhead
communication loops.

The DOU runs at the bus (maximum) frequency and provides
register-to-register transfers with zero instruction overhead in the
tiles: producers SEND into their write buffer, the DOU moves words at
statically scheduled cycles, consumers RECV from their read buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import ConfigurationError, SimulationError
from repro.arch.dou_exec import (
    compile_lap_plans,
    compile_orbits,
    compile_state_plans,
)

MAX_STATES = 128
MAX_COUNTERS = 4


@dataclass(frozen=True)
class DouState:
    """One DOU state (one row of Figure 3).

    Attributes
    ----------
    closed:
        (split, boundary) segment switches closed while in this state.
    drives:
        (position, split) pairs whose write buffer drives the split.
    captures:
        (position, split) pairs whose read buffer latches the split.
    counter:
        Down-counter index tested in this state, or ``None`` for an
        unconditional transition via ``next_otherwise``.
    next_if_zero / next_otherwise:
        NXTSTATE0 / NXTSTATE1 of Figure 3.
    """

    closed: frozenset = frozenset()
    drives: tuple = ()
    captures: tuple = ()
    counter: int | None = None
    next_if_zero: int = 0
    next_otherwise: int = 0


@dataclass(frozen=True)
class DouProgram:
    """A full DOU configuration: states plus counter initial values."""

    states: tuple
    counter_initial: tuple = ()
    name: str = "dou"

    def __post_init__(self) -> None:
        if not self.states:
            raise ConfigurationError(f"{self.name}: empty DOU program")
        if len(self.states) > MAX_STATES:
            raise ConfigurationError(
                f"{self.name}: {len(self.states)} states exceed the "
                f"{MAX_STATES}-state DOU"
            )
        if len(self.counter_initial) > MAX_COUNTERS:
            raise ConfigurationError(
                f"{self.name}: more than {MAX_COUNTERS} counters"
            )
        for index, state in enumerate(self.states):
            for nxt in (state.next_if_zero, state.next_otherwise):
                if not 0 <= nxt < len(self.states):
                    raise ConfigurationError(
                        f"{self.name}: state {index} links to missing "
                        f"state {nxt}"
                    )
            if state.counter is not None:
                if not 0 <= state.counter < len(self.counter_initial):
                    raise ConfigurationError(
                        f"{self.name}: state {index} tests missing "
                        f"counter {state.counter}"
                    )
            if state.drives and not state.captures:
                raise ConfigurationError(
                    f"{self.name}: state {index} drives the bus with no "
                    f"capture - the word could never retire"
                )

    @classmethod
    def idle(cls) -> "DouProgram":
        """A DOU that never moves data (compute-only columns)."""
        return cls(states=(DouState(),), name="idle")

    def __getstate__(self) -> dict:
        """Pickle only the declared fields (not cached properties).

        Keeps the byte representation - and therefore the content
        hashes of ``repro.sim.batch`` - independent of whether the
        quiescence analysis has run on this instance yet.
        """
        state = self.__dict__
        return {
            name: state[name]
            for name in ("states", "counter_initial", "name")
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    @cached_property
    def quiescent_states(self) -> frozenset:
        """State indexes whose forward closure can never move a word.

        A state is *quiescent* when it neither drives nor captures and
        every state it can actually reach is quiescent too (a state
        testing no counter only ever follows ``next_otherwise``, so
        its ``next_if_zero`` edge does not count).  The quiescent set
        is closed under execution by construction: once a DOU's state
        pointer enters it, no future cycle can move a word, block, or
        touch the bus - which is what lets an engine account the
        machine's cycles arithmetically (:meth:`Dou.fast_forward`).
        Cached on the (frozen) program.
        """
        quiescent = [
            not (state.drives or state.captures)
            for state in self.states
        ]
        changed = True
        while changed:
            changed = False
            for index, state in enumerate(self.states):
                if not quiescent[index]:
                    continue
                successors = (
                    (state.next_otherwise,) if state.counter is None
                    else (state.next_if_zero, state.next_otherwise)
                )
                if not all(quiescent[nxt] for nxt in successors):
                    quiescent[index] = False
                    changed = True
        return frozenset(
            index for index, quiet in enumerate(quiescent) if quiet
        )

    def is_inert(self) -> bool:
        """Whether no reachable state can ever move a word.

        Equivalent to the reset state being quiescent: an inert
        program's execution is invisible to simulation statistics (no
        drives, no captures, so no retired words and no blocked
        cycles), which lets a compiled engine skip stepping it
        entirely.
        """
        return 0 in self.quiescent_states


@dataclass(frozen=True)
class DouCycle:
    """One cycle of a linear communication schedule (builder input)."""

    closed: frozenset = frozenset()
    drives: tuple = ()
    captures: tuple = ()


def linear_schedule(
    cycles: list,
    repeat: int | None = None,
    name: str = "dou",
) -> DouProgram:
    """Compile a per-cycle transfer list into a DOU program.

    ``repeat=None`` loops the schedule forever (the steady-state form
    used for streaming kernels); ``repeat=k`` runs it k times using
    down-counter 0 and then parks in an idle state, mirroring the
    Figure 4 loop-encoding example.
    """
    if not cycles:
        raise ConfigurationError("linear_schedule needs at least one cycle")
    states = []
    last = len(cycles) - 1
    for index, cycle in enumerate(cycles):
        if index < last:
            states.append(DouState(
                closed=cycle.closed, drives=tuple(cycle.drives),
                captures=tuple(cycle.captures),
                next_otherwise=index + 1,
            ))
            continue
        if repeat is None:
            states.append(DouState(
                closed=cycle.closed, drives=tuple(cycle.drives),
                captures=tuple(cycle.captures),
                next_otherwise=0,
            ))
        else:
            idle_index = len(cycles)
            states.append(DouState(
                closed=cycle.closed, drives=tuple(cycle.drives),
                captures=tuple(cycle.captures),
                counter=0, next_if_zero=idle_index, next_otherwise=0,
            ))
    counters: tuple = ()
    if repeat is not None:
        if repeat < 1:
            raise ConfigurationError("repeat must be at least 1")
        states.append(DouState(next_otherwise=len(cycles)))  # idle park
        counters = (repeat - 1,)
    return DouProgram(states=tuple(states), counter_initial=counters,
                      name=name)


class Dou:
    """Executes a :class:`DouProgram` against a bus and buffer ports.

    ``write_ports``/``read_ports`` map a bus position to the
    :class:`~repro.arch.buffers.CommBuffer` that drives or captures at
    that position (tiles 0..3 plus the column's horizontal port).

    ``strict`` mode treats an empty source or full destination as a
    static-scheduling bug and raises; permissive mode retries the
    transfer on a later cycle (a drive only pops when at least one
    capture lands), which lets self-synchronizing streaming schedules
    tolerate start-up skew between clock domains.
    """

    def __init__(
        self,
        program: DouProgram,
        bus,
        write_ports: dict,
        read_ports: dict,
        strict: bool = True,
    ) -> None:
        self.program = program
        self.bus = bus
        self.write_ports = write_ports
        self.read_ports = read_ports
        self.strict = strict
        self.state_index = 0
        self.counters = list(program.counter_initial)
        # Bind-time compilation (repro.arch.dou_exec): one plan per
        # state, None where only the generic interpreter is correct.
        self._plans = compile_state_plans(
            program, bus, write_ports, read_ports, strict
        )
        # Closed unconditional-transition orbits per state: the
        # no-progress batching structure (repro.arch.dou_exec).
        self._orbits = compile_orbits(program, self._plans)
        # Whole-lap transfer vectors per state (None = step singly):
        # the live-orbit batching structure (repro.arch.dou_exec).
        self._lap_plans = compile_lap_plans(self._plans, self._orbits)
        self.words_moved = 0     # successful captures (broadcast = N)
        self.words_retired = 0   # retired drives (broadcast = 1)
        self.span_words = 0.0    # sum of per-retire bus-span fractions
        self.cycles = 0
        self.blocked_cycles = 0

    @property
    def state(self) -> DouState:
        """The current state."""
        return self.program.states[self.state_index]

    def fast_forward(self, n_cycles: int) -> None:
        """Account ``n_cycles`` skipped cycles of a quiescent machine.

        Only valid while the current state lies in
        :attr:`DouProgram.quiescent_states` - inert programs always
        qualify, and a live program qualifies once it has parked in a
        closed orbit of non-transferring states (e.g. the idle park of
        ``linear_schedule(repeat=k)``).  Skipping then leaves every
        statistic except the cycle count untouched; the state pointer
        and counters are deliberately frozen - nothing observable can
        depend on them again, since the orbit is closed.
        """
        if self.state_index not in self.program.quiescent_states:
            raise SimulationError(
                f"{self.program.name}: fast_forward in state "
                f"{self.state_index}, which can still move data"
            )
        self.cycles += n_cycles

    def is_quiescent(self) -> bool:
        """Whether the machine has entered a closed transfer-free orbit.

        Monotonic: once true it stays true forever (the quiescent set
        is closed under execution), and :meth:`fast_forward` may then
        account any number of its cycles.
        """
        return self.state_index in self.program.quiescent_states

    def stall_orbit(self):
        """The per-lap effects of the current no-progress orbit, or None.

        Classifies every state of the closed unconditional orbit the
        machine currently sits in (compiled at bind time; None when
        the current state is not on one) under *frozen* buffer
        occupancy: a state makes no progress when every drive whose
        source holds a word feeds only full destinations - covering
        full starvation (no active drives), full backpressure (every
        capture blocked), and transfer-free idle states alike.  The
        moment any capture could land, the orbit is live and None is
        returned.

        The result is a list of ``(stalls, n_active)`` per orbit
        position - ``stalls`` flags a ``blocked_cycles`` increment
        (the state drives the bus), ``n_active`` counts drives with a
        word (each blocked cycle moves them onto the wire, charging
        the bus traffic counters even though nothing retires, exactly
        like the interpreter).  Valid for any span during which no
        external agent touches the buffers; apply it with
        :meth:`fast_stall_orbit`.
        """
        orbit = self._orbits[self.state_index]
        if orbit is None:
            return None
        plans = self._plans
        effects = []
        for index in orbit:
            plan = plans[index]
            active = 0
            for src_words, destinations in plan.blocks:
                if not src_words:
                    continue
                for dest_words, capacity in destinations:
                    if len(dest_words) < capacity:
                        return None  # a capture can land: progress
                active += 1
            effects.append((1 if plan.n_drives else 0, active))
        return effects

    def fast_stall_orbit(self, effects, n_cycles: int) -> None:
        """Account ``n_cycles`` of the no-progress orbit arithmetically.

        ``effects`` must come from :meth:`stall_orbit` with the state
        pointer unmoved since, and the caller must guarantee no buffer
        is pushed or popped during the batched span.  Cycle counts and
        bus traffic are charged per orbit position from lap counts;
        the state pointer lands where ``n_cycles`` steps of the orbit
        would leave it.  Counters are untouched - orbit states test
        none by construction.
        """
        self.cycles += n_cycles
        length = len(effects)
        if length == 1:
            stalls, active = effects[0]
            if stalls:
                self.blocked_cycles += n_cycles
            if active:
                bus = self.bus
                bus.words_moved += active * n_cycles
                bus.cycles_with_traffic += n_cycles
            return
        laps, rem = divmod(n_cycles, length)
        stalled = 0
        words = 0
        traffic = 0
        for position, (stalls, active) in enumerate(effects):
            visits = laps + (1 if position < rem else 0)
            if not visits:
                continue
            if stalls:
                stalled += visits
            if active:
                words += active * visits
                traffic += visits
        self.blocked_cycles += stalled
        if words:
            bus = self.bus
            bus.words_moved += words
            bus.cycles_with_traffic += traffic
        orbit = self._orbits[self.state_index]
        self.state_index = orbit[rem]

    def lap_plan(self, state_index: int):
        """The whole-lap transfer vector starting at ``state_index``.

        ``None`` when the state sits on no closed full-transfer orbit
        (see :func:`~repro.arch.dou_exec.compile_lap_plans`); a plan is
        applied with :meth:`apply_laps`.
        """
        return self._lap_plans[state_index]

    def apply_laps(self, plan, k: int) -> bool:
        """Settle ``k`` whole orbit laps in bulk; False = guards failed.

        Exactly equivalent to ``k * plan.length`` consecutive
        :meth:`step` calls *when every one of those steps would take
        the full-transfer fast path* - which the aggregated guards
        (every source holds ``>= k`` words, every destination has room
        for ``k`` more) certify, because the orbit's states pop each
        source and push each destination at most once per lap.  When a
        guard fails nothing is applied and the caller must fall back
        to single stepping; the interpreter then handles whatever the
        truth is (partial starvation, backpressure, strict errors).

        The caller must hold ``state_index`` at the state the plan was
        compiled for; ``k`` full laps return the pointer there, so it
        is left untouched.  Span fractions accumulate one addition per
        retire in interpreter order - float-exact against the
        reference.
        """
        for words in plan.sources:
            if len(words) < k:
                return False
        for words, capacity in plan.rooms:
            if len(words) + k > capacity:
                return False
        plan.apply(k)
        ticks = plan.length * k
        self.cycles += ticks
        self.words_moved += plan.n_captures * k
        self.words_retired += plan.n_drives * k
        span = self.span_words
        spans = plan.spans
        for _ in range(k):
            for value in spans:
                span += value
        self.span_words = span
        bus = self.bus
        bus.words_moved += plan.n_drives * k
        bus.cycles_with_traffic += ticks
        return True

    def _advance(self) -> None:
        state = self.state
        if state.counter is None:
            self.state_index = state.next_otherwise
            return
        if self.counters[state.counter] == 0:
            self.counters[state.counter] = (
                self.program.counter_initial[state.counter]
            )
            self.state_index = state.next_if_zero
        else:
            self.counters[state.counter] -= 1
            self.state_index = state.next_otherwise

    def step(self) -> int:
        """Run one bus cycle; returns the number of words delivered.

        Dispatches to the compiled per-state plan when one exists and
        its occupancy preconditions hold (the steady state of a static
        schedule); anything else - blocked transfers, partial
        starvation, strict-mode errors, statically ineligible states -
        falls through to the generic interpreter, keeping every
        counter byte-for-byte identical to the uncompiled machine.
        """
        plan = self._plans[self.state_index]
        if plan is None:
            return self._step_generic()
        for words in plan.sources:
            if not words:
                if not plan.starve_ok:
                    return self._step_generic()
                for other in plan.sources:
                    if other:  # partial starvation: interpreter
                        return self._step_generic()
                # Every source empty: one pure stall cycle.
                self.cycles += 1
                self.blocked_cycles += 1
                counter = plan.counter
                if counter is None:
                    self.state_index = plan.next_otherwise
                else:
                    self._advance_compiled(plan, counter)
                return 0
        for words, room in plan.room_checks:
            if len(words) > room:
                return self._step_generic()
        # Steady state: the full transfer, as a tuple walk.  Captures
        # push before drives pop, mirroring the interpreter's order.
        self.cycles += 1
        for dest_words, dest_buffer, src_words in plan.captures:
            dest_words.append(src_words[0])
            dest_buffer.total_pushed += 1
        for src_words, src_buffer in plan.drains:
            src_words.popleft()
            src_buffer.total_popped += 1
        n_drives = plan.n_drives
        if n_drives:
            self.words_retired += n_drives
            # One addition per retired drive, in drive order, exactly
            # like the interpreter - float accumulation is order
            # sensitive and the stats must stay bit-identical.
            span = self.span_words
            for value in plan.spans:
                span += value
            self.span_words = span
            bus = self.bus
            bus.words_moved += n_drives
            bus.cycles_with_traffic += 1
        moved = plan.n_captures
        self.words_moved += moved
        counter = plan.counter
        if counter is None:
            self.state_index = plan.next_otherwise
        else:
            self._advance_compiled(plan, counter)
        return moved

    def _advance_compiled(self, plan, counter: int) -> None:
        """Counter-testing transition of the compiled fast path."""
        counters = self.counters
        if counters[counter] == 0:
            counters[counter] = plan.counter_reset
            self.state_index = plan.next_if_zero
        else:
            counters[counter] -= 1
            self.state_index = plan.next_otherwise

    def _step_generic(self) -> int:
        """The reference interpreter for one bus cycle."""
        self.cycles += 1
        state = self.state
        self.bus.configure(state.closed)

        active_drives = []
        for position, split in state.drives:
            buffer = self.write_ports.get(position)
            if buffer is None:
                raise SimulationError(
                    f"{self.program.name}: no write port at {position}"
                )
            if buffer.is_empty:
                if self.strict:
                    raise SimulationError(
                        f"{self.program.name}: schedule underflow - "
                        f"drive from empty buffer at position {position}"
                    )
                continue
            active_drives.append((position, split, buffer.peek()))

        results = self.bus.resolve(
            [(p, s, v) for p, s, v in active_drives],
            list(state.captures),
        )

        delivered_by_segment: dict = {}
        moved = 0
        for (position, split), value in results.items():
            if value is None:
                if self.strict:
                    raise SimulationError(
                        f"{self.program.name}: capture from undriven "
                        f"segment at position {position}, split {split}"
                    )
                continue
            buffer = self.read_ports.get(position)
            if buffer is None:
                raise SimulationError(
                    f"{self.program.name}: no read port at {position}"
                )
            if buffer.is_full:
                if self.strict:
                    raise SimulationError(
                        f"{self.program.name}: schedule overflow - "
                        f"capture into full buffer at position {position}"
                    )
                continue
            buffer.push(value)
            moved += 1
            segment = self.bus.segment_of(split, position)
            delivered_by_segment.setdefault((split, segment), [])
            delivered_by_segment[(split, segment)].append(position)

        # A drive retires only once at least one capture consumed it.
        for position, split, _ in active_drives:
            segment = self.bus.segment_of(split, position)
            destinations = delivered_by_segment.get((split, segment), ())
            if destinations:
                self.write_ports[position].pop()
                self.words_retired += 1
                # The transfer charges the wire out to its furthest
                # capture; recorded so measured CommProfile span
                # fractions reflect actual segment usage (Sec 2.3).
                self.span_words += max(
                    self.bus.span_of_transfer(split, position, dst)
                    for dst in destinations
                )
            elif self.strict and state.captures:
                raise SimulationError(
                    f"{self.program.name}: driven word at position "
                    f"{position} had no successful capture"
                )

        if state.drives and moved == 0:
            self.blocked_cycles += 1
        self.words_moved += moved
        self._advance()
        return moved
