"""Compiled per-state DOU plans: eligibility, equivalence, quiescence.

The fast path of ``Dou.step`` must be byte-for-byte indistinguishable
from the generic interpreter on every counter and every buffer, and
must refuse to compile states whose semantics need the interpreter
(structural hazards, undriven captures, missing ports).  The
quiescence analysis behind inert-machine accounting is checked for
closure and monotonicity, and the no-progress orbit API the engine
batches stalls with is checked directly.
"""

import pytest

from repro.errors import SimulationError
from repro.arch.buffers import CommBuffer
from repro.arch.bus import SegmentedBus
from repro.arch.dou import (
    Dou,
    DouCycle,
    DouProgram,
    DouState,
    linear_schedule,
)
from repro.arch.dou_compiler import (
    Transfer,
    broadcast_schedule,
    chain_schedule,
    compile_schedule,
    exchange_schedule,
)


def _rig(program, strict=True, n_positions=5):
    bus = SegmentedBus("bus", n_positions=n_positions, n_splits=8)
    writes = {i: CommBuffer(f"w{i}") for i in range(n_positions)}
    reads = {i: CommBuffer(f"r{i}") for i in range(n_positions)}
    dou = Dou(program, bus, writes, reads, strict=strict)
    return dou, writes, reads


def _transfer_state(**kwargs):
    return DouState(
        closed=frozenset({(0, 0)}),
        drives=((0, 0),),
        captures=((1, 0),),
        **kwargs,
    )


# ----------------------------------------------------------------------
# plan eligibility
# ----------------------------------------------------------------------
def test_simple_transfer_state_compiles():
    dou, _, _ = _rig(DouProgram(states=(_transfer_state(),)))
    plan = dou._plans[0]
    assert plan is not None
    assert plan.n_drives == 1 and plan.n_captures == 1
    assert plan.spans == (2 / 5,)


def test_idle_state_compiles_to_trivial_plan():
    dou, _, _ = _rig(DouProgram.idle())
    plan = dou._plans[0]
    assert plan is not None
    assert plan.n_drives == 0 and plan.n_captures == 0


def test_undriven_capture_state_stays_interpreted():
    # Capture on split 1, which nothing drives: permissive mode skips
    # it, strict mode raises - both are the interpreter's business.
    state = DouState(
        closed=frozenset({(0, 0)}),
        drives=((0, 0),),
        captures=((1, 0), (2, 1)),
    )
    dou, _, _ = _rig(DouProgram(states=(state,)))
    assert dou._plans[0] is None


def test_structural_hazard_state_stays_interpreted():
    # Two drivers on one fused segment always raises at run time.
    state = DouState(
        closed=frozenset({(0, 0), (0, 1)}),
        drives=((0, 0), (1, 0)),
        captures=((2, 0),),
    )
    dou, writes, _ = _rig(DouProgram(states=(state,)))
    assert dou._plans[0] is None
    writes[0].push(1)
    writes[1].push(2)
    with pytest.raises(SimulationError, match="conflict"):
        dou.step()


def test_missing_port_state_stays_interpreted():
    program = DouProgram(states=(_transfer_state(),))
    bus = SegmentedBus("bus", n_positions=5, n_splits=8)
    writes = {}  # no write port at position 0
    reads = {i: CommBuffer(f"r{i}") for i in range(5)}
    dou = Dou(program, bus, writes, reads, strict=True)
    assert dou._plans[0] is None


def test_compiler_emitted_schedules_all_compile():
    for program in (
        chain_schedule(),
        broadcast_schedule(),
        exchange_schedule(),
        compile_schedule([[Transfer(src=0, dsts=(4,))]]),
    ):
        dou, _, _ = _rig(program, strict=False)
        transfer_states = [
            i for i, s in enumerate(program.states) if s.drives
        ]
        assert transfer_states
        for index in transfer_states:
            assert dou._plans[index] is not None, (
                f"{program.name}: state {index} did not compile"
            )


# ----------------------------------------------------------------------
# fast path == interpreter, counter for counter
# ----------------------------------------------------------------------
def _snapshot(dou, writes, reads):
    return (
        dou.state_index, tuple(dou.counters), dou.cycles,
        dou.words_moved, dou.words_retired, dou.span_words,
        dou.blocked_cycles, dou.bus.words_moved,
        dou.bus.cycles_with_traffic,
        tuple(tuple(b._words) for b in writes.values()),
        tuple(tuple(b._words) for b in reads.values()),
        tuple(b.total_pushed for b in writes.values()),
        tuple(b.total_popped for b in writes.values()),
        tuple(b.total_pushed for b in reads.values()),
    )


def _twins(program, strict):
    """A compiled rig and a twin with plans disabled (interpreter only)."""
    fast = _rig(program, strict=strict)
    slow = _rig(program, strict=strict)
    slow[0]._plans = (None,) * len(program.states)
    return fast, slow


def _count_generic(dou):
    """Record the state of every interpreter call ``dou`` makes."""
    calls = []
    generic = dou._step_generic

    def counted():
        calls.append(dou.state_index)
        return generic()

    dou._step_generic = counted
    return calls


def _step_twins(fast, slow, label=""):
    """Step both rigs once; every counter and buffer must agree."""
    moved = fast[0].step()
    assert moved == slow[0].step(), label
    assert _snapshot(*fast) == _snapshot(*slow), label
    return moved


def _fill(buffer, value=0):
    while not buffer.is_full:
        buffer.push(value)


def _differential_run(program, feed, strict, steps=64):
    """Step a compiled rig and a plans-disabled twin in lockstep."""
    fast, slow = _twins(program, strict)
    _, fast_w, fast_r = fast
    _, slow_w, slow_r = slow
    for step in range(steps):
        for position, value in feed(step):
            # Both rigs are asserted identical, so fullness agrees.
            if not fast_w[position].is_full:
                fast_w[position].push(value)
                slow_w[position].push(value)
        # Consumers drain sporadically so full/empty phases alternate.
        if step % 7 == 3:
            for position in range(5):
                if not fast_r[position].is_empty:
                    assert fast_r[position].pop() == \
                        slow_r[position].pop()
        _step_twins(fast, slow, f"step {step}")


def test_fast_path_matches_interpreter_through_starvation():
    """Permissive streaming: starved, transferring, and full phases."""
    program = broadcast_schedule()

    def feed(step):
        # Bursty: several words at once, then droughts.
        if step % 11 == 0:
            return [(0, step), (0, step + 1)]
        return []

    _differential_run(program, feed, strict=False)


def test_fast_path_matches_interpreter_on_chain():
    program = chain_schedule()

    def feed(step):
        if step % 3 == 0:
            return [(4, step), (0, step), (1, step), (2, step),
                    (3, step)]
        return []

    _differential_run(program, feed, strict=False)


def test_fast_path_matches_interpreter_with_counters():
    """repeat=k loops exercise the compiled counter transition."""
    cycle = DouCycle(closed=frozenset({(0, 0)}), drives=((0, 0),),
                     captures=((1, 0),))
    program = linear_schedule([cycle], repeat=5)

    def feed(step):
        return [(0, step)] if step % 2 == 0 else []

    _differential_run(program, feed, strict=False, steps=32)


def test_fast_path_strict_errors_match_interpreter():
    program = DouProgram(states=(_transfer_state(),))
    fast, fast_w, _ = _rig(program, strict=True)
    slow, slow_w, _ = _rig(program, strict=True)
    slow._plans = (None,) * len(program.states)
    with pytest.raises(SimulationError, match="underflow"):
        fast.step()
    with pytest.raises(SimulationError, match="underflow"):
        slow.step()


def test_fast_path_full_destination_matches_interpreter():
    program = DouProgram(states=(_transfer_state(),))
    fast, slow = _twins(program, strict=False)
    calls = _count_generic(fast[0])
    for _, writes, reads in (fast, slow):
        _fill(reads[1])
        writes[0].push(9)
    assert _step_twins(fast, slow) == 0
    assert fast[0].blocked_cycles == 1
    assert fast[0].bus.words_moved == 1  # the word reached the wire
    for _, _, reads in (fast, slow):
        reads[1].pop()
    assert _step_twins(fast, slow) == 1
    assert calls == []


def test_two_drive_backpressure_stalls_without_interpreter():
    """Both destinations full: a compiled stall, then the transfer."""
    state = DouState(
        closed=frozenset({(0, 0), (1, 2)}),
        drives=((0, 0), (2, 1)),
        captures=((1, 0), (3, 1)),
    )
    fast, slow = _twins(DouProgram(states=(state,)), strict=False)
    calls = _count_generic(fast[0])
    for _, writes, reads in (fast, slow):
        _fill(reads[1])
        _fill(reads[3])
        writes[0].push(7)
        writes[2].push(8)
    for step in range(3):
        assert _step_twins(fast, slow, f"stall {step}") == 0
    assert fast[0].blocked_cycles == 3
    assert fast[0].bus.words_moved == 6
    assert fast[0].bus.cycles_with_traffic == 3
    assert calls == []
    for _, _, reads in (fast, slow):
        reads[1].pop()
        reads[3].pop()
    assert _step_twins(fast, slow) == 2
    assert calls == []


def test_counter_state_backpressure_takes_both_branches():
    """A repeat=k loop stalled on a full destination still counts down."""
    cycle = DouCycle(closed=frozenset({(0, 0)}), drives=((0, 0),),
                     captures=((1, 0),))
    program = linear_schedule([cycle], repeat=3)
    fast, slow = _twins(program, strict=False)
    calls = _count_generic(fast[0])
    for _, writes, reads in (fast, slow):
        _fill(reads[1])
        writes[0].push(5)
    # Counter 2 -> 1 -> 0 on NXTSTATE1, then the zero branch resets it
    # and parks in the idle state.
    for step, (counter, state) in enumerate(
            ((1, 0), (0, 0), (2, 1))):
        assert _step_twins(fast, slow, f"stall {step}") == 0
        assert (fast[0].counters[0], fast[0].state_index) == \
            (counter, state)
    assert fast[0].blocked_cycles == 3
    assert calls == []


def test_partly_full_broadcast_still_interprets():
    """One full destination of a broadcast: partial delivery."""
    program = broadcast_schedule()
    fast, slow = _twins(program, strict=False)
    calls = _count_generic(fast[0])
    for _, writes, reads in (fast, slow):
        _fill(reads[2])
        writes[0].push(3)
    assert _step_twins(fast, slow) == len(fast[0].state.captures) - 1
    assert fast[0].words_retired == 1
    assert calls == [0]


def test_strict_full_destination_raises_like_interpreter():
    program = DouProgram(states=(_transfer_state(),))
    fast, slow = _twins(program, strict=True)
    messages = []
    for dou, writes, reads in (fast, slow):
        _fill(reads[1])
        writes[0].push(9)
        with pytest.raises(SimulationError, match="overflow") as error:
            dou.step()
        messages.append(str(error.value))
    assert messages[0] == messages[1]
    assert _snapshot(*fast) == _snapshot(*slow)


# ----------------------------------------------------------------------
# quiescence analysis
# ----------------------------------------------------------------------
def test_quiescent_states_of_repeat_schedule():
    cycle = DouCycle(closed=frozenset({(0, 0)}), drives=((0, 0),),
                     captures=((1, 0),))
    program = linear_schedule([cycle], repeat=3)
    # State 0 transfers; state 1 is the idle park.
    assert program.quiescent_states == frozenset({1})
    assert not program.is_inert()


def test_quiescent_states_ignore_unreachable_edges():
    # State 1 tests no counter, so its next_if_zero edge back to the
    # transferring state 0 can never be taken: it is still quiescent.
    states = (
        DouState(closed=frozenset({(0, 0)}), drives=((0, 0),),
                 captures=((1, 0),), next_otherwise=1),
        DouState(next_if_zero=0, next_otherwise=1),
    )
    program = DouProgram(states=states)
    assert program.quiescent_states == frozenset({1})


def test_inert_program_is_fully_quiescent():
    program = DouProgram.idle()
    assert program.is_inert()
    assert 0 in program.quiescent_states


def test_fast_forward_allowed_only_in_quiescent_orbit():
    cycle = DouCycle(closed=frozenset({(0, 0)}), drives=((0, 0),),
                     captures=((1, 0),))
    program = linear_schedule([cycle], repeat=2)
    dou, writes, _ = _rig(program, strict=False)
    assert dou.state_index not in program.quiescent_states
    with pytest.raises(SimulationError, match="fast_forward"):
        dou.fast_forward(10)
    for _ in range(2):  # exhaust the repeats (starved cycles count)
        dou.step()
    assert dou.state_index == 1
    assert dou.state_index in program.quiescent_states
    before = dou.cycles
    dou.fast_forward(10)
    assert dou.cycles == before + 10
    assert dou.words_moved == 0


def test_starved_self_loop_and_fast_stall():
    program = broadcast_schedule()  # single-state permissive loop
    dou, writes, reads = _rig(program, strict=False)
    effects = dou.stall_orbit()
    assert effects == [(1, 0)]  # one blocked cycle, nothing on the wire
    dou.fast_stall_orbit(effects, 7)
    assert dou.cycles == 7 and dou.blocked_cycles == 7
    writes[0].push(1)
    assert dou.stall_orbit() is None  # a word arrived
    dou.step()
    assert dou.words_retired == 1
    assert dou.stall_orbit() == [(1, 0)]  # drained again


def test_strict_schedules_never_stall_batch():
    program = broadcast_schedule()
    dou, _, _ = _rig(program, strict=True)
    # Strict starvation is an error, not a stall: batching must be off.
    assert dou.stall_orbit() is None
