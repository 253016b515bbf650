"""Bind-time compilation of DOU states into transfer plans.

The DOU's per-cycle work (Section 2.3) is statically scheduled: a
state's switch settings, and therefore its segment topology, its
source/destination buffers, and the bus-span fraction every retired
word charges, are all fixed the moment a :class:`~repro.arch.dou.Dou`
is bound to a bus and its buffer ports.  Only buffer *occupancy* is
dynamic.  This module precomputes everything occupancy-independent
once per state, so the steady-state fast path of ``Dou.step`` is a
tuple walk - no dict lookups, no list construction, no
``bus.configure``/``segment_of``/``span_of_transfer`` recomputation.

A state compiles to a :class:`StatePlan` only when its static shape
guarantees the generic interpreter would take the unexceptional path
whenever the plan's occupancy preconditions hold:

* every ``closed`` switch is in range for the bus;
* every drive and capture position has a bound port;
* no two drives share one electrical segment (the structural hazard
  of Section 4.1 step 5 would raise);
* every capture's segment is driven and every drive is captured at
  least once (otherwise strict mode raises / permissive mode takes
  the partial-delivery path);
* no write buffer is popped twice in one cycle.

States failing any test keep ``None`` and always run the generic
interpreter, which preserves their error behavior exactly.  Eligible
states still fall back to the interpreter whenever a precondition
fails at run time (some-but-not-all sources empty, destination
nearly full, strict-mode underflow/overflow), so blocked and error
cases stay byte-for-byte identical to the uncompiled machine.
"""

from __future__ import annotations

from itertools import islice

__all__ = [
    "StatePlan", "LapPlan", "compile_state_plans", "compile_orbits",
    "compile_lap_plans",
]


class StatePlan:
    """The occupancy-independent residue of one :class:`DouState`.

    Buffer references are bound down to the backing deques so the hot
    path touches no properties: ``sources`` gates the fast path (every
    deque non-empty), ``room_checks`` guards capacity (aggregated per
    destination buffer, so double captures into one buffer are
    counted), ``captures``/``drains`` perform the word movement in the
    generic interpreter's push-then-pop order.  ``blocks`` groups each
    drive's source deque with the (deque, capacity) of every capture it
    feeds - the structure the no-progress orbit check walks to decide
    whether any word could move this cycle.
    """

    __slots__ = (
        "sources", "drains", "room_checks", "captures",
        "n_drives", "n_captures", "spans", "blocks", "starve_ok",
        "counter", "counter_reset",
        "next_if_zero", "next_otherwise",
    )

    def __init__(
        self, sources, drains, room_checks, captures, n_drives,
        n_captures, spans, blocks, starve_ok, counter, counter_reset,
        next_if_zero, next_otherwise,
    ) -> None:
        self.sources = sources
        self.drains = drains
        self.room_checks = room_checks
        self.captures = captures
        self.n_drives = n_drives
        self.n_captures = n_captures
        self.spans = spans
        self.blocks = blocks
        self.starve_ok = starve_ok
        self.counter = counter
        self.counter_reset = counter_reset
        self.next_if_zero = next_if_zero
        self.next_otherwise = next_otherwise


def _segment_of(closed: frozenset, split: int, position: int) -> int:
    """``SegmentedBus.segment_of`` replayed on a static switch set."""
    start = position
    while start > 0 and (split, start - 1) in closed:
        start -= 1
    return start


def _compile_state(
    state, program, bus, write_ports, read_ports, strict: bool,
):
    for split, boundary in state.closed:
        if not 0 <= split < bus.n_splits:
            return None
        if not 0 <= boundary < bus.n_boundaries:
            return None
    for position, _ in tuple(state.drives) + tuple(state.captures):
        if not 0 <= position < bus.n_positions:
            return None

    closed = state.closed
    # (split, segment) -> drive index; the fast path requires the
    # mapping to be one-to-one both ways.
    drive_of_segment: dict = {}
    source_buffers = []
    seen_sources = set()
    for position, split in state.drives:
        buffer = write_ports.get(position)
        if buffer is None:
            return None
        if id(buffer) in seen_sources:
            # Two drives popping one buffer in a single cycle need the
            # interpreter's sequential underflow semantics.
            return None
        seen_sources.add(id(buffer))
        key = (split, _segment_of(closed, split, position))
        if key in drive_of_segment:
            return None  # structural hazard: interpreter raises
        drive_of_segment[key] = len(source_buffers)
        source_buffers.append((position, buffer))

    captures = []
    room_needed: dict = {}
    drive_destinations: dict = {}
    for position, split in state.captures:
        buffer = read_ports.get(position)
        if buffer is None:
            return None
        key = (split, _segment_of(closed, split, position))
        drive_index = drive_of_segment.get(key)
        if drive_index is None:
            return None  # undriven capture: strict raises, permissive skips
        src_position, src_buffer = source_buffers[drive_index]
        captures.append((buffer._words, buffer, src_buffer._words))
        room_needed[id(buffer)] = (
            buffer, room_needed.get(id(buffer), (buffer, 0))[1] + 1
        )
        drive_destinations.setdefault(drive_index, []).append(position)

    if len(drive_destinations) != len(source_buffers):
        return None  # some drive never retires: interpreter's business

    # Per-drive span values in drive order: the fast path accumulates
    # them with the same one-addition-per-retire sequence the
    # interpreter uses, so the float result is bit-identical.
    spans = tuple(
        (
            max(
                abs(dst - source_buffers[drive_index][0])
                for dst in drive_destinations[drive_index]
            ) + 1
        ) / bus.n_positions
        for drive_index in range(len(source_buffers))
    )

    starve_ok = (not strict) and bool(state.drives)
    return StatePlan(
        sources=tuple(b._words for _, b in source_buffers),
        drains=tuple((b._words, b) for _, b in source_buffers),
        room_checks=tuple(
            (buffer._words, buffer.capacity - count)
            for buffer, count in room_needed.values()
        ),
        captures=tuple(captures),
        n_drives=len(source_buffers),
        n_captures=len(captures),
        spans=spans,
        blocks=tuple(
            (
                source_buffers[drive_index][1]._words,
                tuple(
                    (read_ports[dst]._words, read_ports[dst].capacity)
                    for dst in drive_destinations[drive_index]
                ),
            )
            for drive_index in range(len(source_buffers))
        ),
        starve_ok=starve_ok,
        counter=state.counter,
        counter_reset=(
            program.counter_initial[state.counter]
            if state.counter is not None else 0
        ),
        next_if_zero=state.next_if_zero,
        next_otherwise=state.next_otherwise,
    )


def compile_state_plans(
    program, bus, write_ports, read_ports, strict: bool
) -> tuple:
    """Per-state plans for one bound DOU (``None`` = interpret)."""
    return tuple(
        _compile_state(
            state, program, bus, write_ports, read_ports, strict,
        )
        for state in program.states
    )


def compile_orbits(program, plans) -> tuple:
    """Per-state closed orbit of unconditional transitions, or None.

    ``orbits[s]`` is the tuple of state indexes the machine visits
    starting from ``s`` along ``next_otherwise`` links until it
    returns to ``s`` - provided every state on the walk is *orbit
    eligible*: it has a compiled plan, tests no counter (so the walk
    is the machine's only possible trajectory and visits no counter
    state), and either moves no words at all or is permissive about
    starvation and backpressure.  Inside such an orbit a cycle where
    no capture can land (every driving source empty, or every fed
    destination full) provably repeats: the state pointer walks the
    orbit, no buffer changes, and only ``cycles``/``blocked_cycles``
    and the bus traffic counters advance - which is what lets an
    engine settle a whole span of them arithmetically
    (:meth:`~repro.arch.dou.Dou.fast_stall_orbit`).  A single-state
    permissive self-loop is the length-1 case.
    """
    states = program.states
    eligible = []
    for index, state in enumerate(states):
        plan = plans[index]
        eligible.append(
            plan is not None
            and state.counter is None
            and (plan.n_drives == 0 or plan.starve_ok)
        )
    orbits = []
    for index in range(len(states)):
        if not eligible[index]:
            orbits.append(None)
            continue
        walk = [index]
        cursor = states[index].next_otherwise
        closed = True
        while cursor != index:
            if not eligible[cursor] or len(walk) >= len(states):
                closed = False
                break
            walk.append(cursor)
            cursor = states[cursor].next_otherwise
        orbits.append(tuple(walk) if closed else None)
    return tuple(orbits)


class LapPlan:
    """One whole orbit lap compiled into a bulk transfer vector.

    Where :class:`StatePlan` compiles one state's cycle, a lap plan
    compiles one full trip around a closed unconditional orbit in
    which *every* state performs its complete transfer.  Under the
    aggregated guards (every source holds at least ``k`` words, every
    destination has room for ``k`` more), ``k`` consecutive laps move
    exactly the words the interpreter would move tick by tick - the
    per-buffer word *sequences* are identical, not just the counts -
    so an engine may apply whole laps as deque bulk operations
    (:meth:`~repro.arch.dou.Dou.apply_laps`) instead of stepping
    ``k * len(orbit)`` dense ticks.

    Exactness needs structural restrictions, enforced at compile time
    (states whose orbit violates them simply keep ``lap_plan=None``
    and are stepped singly):

    * every orbit state transfers (``n_drives >= 1`` and every drive
      retires) - an idle state inside the orbit would make "full lap"
      occupancy-dependent;
    * each source buffer is popped by at most one orbit state and
      each destination pushed by at most one capture per lap, so a
      bulk ``extend`` of the source's first ``k`` words reproduces the
      interleaved per-tick push order exactly;
    * no buffer is both a source and a destination anywhere in the
      orbit (intra-lap feeding would change which words are eligible
      mid-lap).

    ``spans`` keeps the per-retire span values in interpreter (state,
    then drive) order: float accumulation is order sensitive, so
    :meth:`~repro.arch.dou.Dou.apply_laps` replays the additions one
    lap at a time rather than multiplying.
    """

    __slots__ = (
        "length", "captures", "drains", "sources", "rooms", "spans",
        "n_captures", "n_drives", "words_per_lap",
    )

    def __init__(
        self, length, captures, drains, sources, rooms, spans,
        n_captures, n_drives,
    ) -> None:
        self.length = length
        self.captures = captures
        self.drains = drains
        self.sources = sources
        self.rooms = rooms
        self.spans = spans
        self.n_captures = n_captures
        self.n_drives = n_drives
        #: bus words driven per lap (== retired drives: full transfer)
        self.words_per_lap = n_drives

    def apply(self, k: int) -> None:
        """Move ``k`` laps' words in bulk.  Guards must already hold."""
        for dest_words, dest_buffer, src_words in self.captures:
            dest_words.extend(islice(src_words, k))
            dest_buffer.total_pushed += k
        for src_words, src_buffer in self.drains:
            for _ in range(k):
                src_words.popleft()
            src_buffer.total_popped += k


def _compile_lap(plans, orbit):
    if orbit is None:
        return None
    captures = []
    drains = []
    sources = []
    rooms = []
    spans = []
    src_ids = set()
    dest_ids = set()
    for index in orbit:
        plan = plans[index]
        if plan.n_drives == 0 or plan.n_captures == 0:
            return None  # idle orbit state: no full-transfer lap
        pushes: dict = {}
        for dest_words, dest_buffer, src_words in plan.captures:
            key = id(dest_words)
            if key in dest_ids or key in pushes:
                return None  # one push per destination per lap
            pushes[key] = dest_buffer
            captures.append((dest_words, dest_buffer, src_words))
            rooms.append((dest_words, dest_buffer.capacity))
        dest_ids.update(pushes)
        for src_words, src_buffer in plan.drains:
            key = id(src_words)
            if key in src_ids:
                return None  # one pop per source per lap
            src_ids.add(key)
            drains.append((src_words, src_buffer))
            sources.append(src_words)
        spans.extend(plan.spans)
    if src_ids & dest_ids:
        return None  # a buffer fed by the orbit also feeds it
    return LapPlan(
        length=len(orbit),
        captures=tuple(captures),
        drains=tuple(drains),
        sources=tuple(sources),
        rooms=tuple(rooms),
        spans=tuple(spans),
        n_captures=len(captures),
        n_drives=len(drains),
    )


def compile_lap_plans(plans, orbits) -> tuple:
    """Per-state whole-lap transfer vectors (``None`` = step singly).

    ``lap_plans[s]`` batches laps of the orbit *starting at* ``s``;
    each member of a closed orbit gets its own rotation, so an engine
    may start lapping from whichever state the machine currently
    occupies.
    """
    return tuple(_compile_lap(plans, orbit) for orbit in orbits)
