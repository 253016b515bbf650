"""Compile column-local compute runs into batched execution.

Between communication instructions a column's behaviour is entirely
local: the SIMD controller streams compute instructions to the tiles,
nothing touches a comm buffer, and therefore nothing any other clock
domain can observe changes.  The reference engine still pays one full
fetch/issue round trip per tile-clock edge for those stretches.  This
module compiles them away:

* **Runs** - maximal blocks of plain compute instructions are bound
  into a dispatch table so a whole block issues without the
  controller's fetch machinery (pending slot, ZORM check, control
  resolution).  Each block is additionally *code-generated* into one
  specialized Python function per block that executes every
  instruction of the block on one tile with the register-file dict
  and memory list bound to locals; a companion bounds pre-check
  proves, from the statically-tracked pointer evolution, that no
  memory access in the block can fault before any tile commits.
  Blocks whose shape the generator does not model (and any block
  whose pre-check fails at run time) fall back to instruction-by-
  instruction issue through :meth:`~repro.arch.tile.Tile.execute`,
  which preserves partial state and error behaviour exactly.

* **Comm-headed issue** - a ``SEND``/``RECV`` may issue *as the first
  edge of a runner call* (that edge is the engine's current tick, so
  the buffer effect lands at exactly the reference time), after which
  the following compute run is pre-executed in the same call.  A comm
  instruction reached after the first edge always stops the run:
  pre-executing it would move its buffer traffic to the wrong tick.
  This also makes loops whose bodies contain communication cheap: the
  per-iteration ``ENDLOOP`` resolves zero-cost in the runner and the
  body's comm/compute segments dispatch individually.

* **Loops** - a ``LOOP`` whose body is all plain compute runs all
  its iterations inside one runner call: the ``LOOP``/``ENDLOOP``
  zero-cost control is accounted arithmetically and each iteration
  runs the body's generated block.  A body of only self-increment
  ``ADDI`` counters and ``NOP`` padding settles in *closed form*: a
  batch of ``k`` iterations advances each counter by ``imm * k``,
  wrapped once (exact by modular arithmetic).

The engine drives this through :class:`ColumnRunner`: ``run_edges(n)``
pre-executes up to ``n`` future tile-clock edges and returns how many
it consumed; the engine credits the column that many upcoming edges.
Crediting is invisible to every other domain because pre-executed
instructions are pure compute - the runner stops at every
communication instruction, branch, ``HALT``, ZORM-enabled controller,
or any other shape that needs the reference fetch path, which then
runs through :meth:`~repro.arch.chip.Column.step_tile_clock`
unchanged.

The runner maintains the exact post-commit controller state at every
stop: ``pc`` sits after the last issued instruction, loop frames and
``control_executed`` match what the reference fetch sequence would
have left, and a pending zero-cost ``ENDLOOP`` exit is only resolved
when the runner itself handles what follows (otherwise it is left for
the next reference fetch, which resolves it in the same cycle it
would have anyway).
"""

from __future__ import annotations

from repro.isa.instructions import Opcode
from repro.isa.program import MAX_LOOP_DEPTH
from repro.isa.registers import ACCUMULATORS, ALL_REGISTERS

__all__ = ["ColumnRunner", "compile_column_runner"]

_ACC_SET = frozenset(ACCUMULATORS)
_REG_SET = frozenset(ALL_REGISTERS)

_MASK32 = (1 << 32) - 1
_MASK40 = (1 << 40) - 1
_SMAX32 = (1 << 31) - 1
_SMAX40 = (1 << 39) - 1


def _reg(name):
    """Canonical register name, or None if unknown (stay scalar)."""
    if name in _REG_SET:
        return name
    name = name.upper()
    return name if name in _REG_SET else None


def _mask_of(name):
    return _MASK40 if name in _ACC_SET else _MASK32


def _emit_signed(lines, temp, name):
    """Lines loading register ``name`` two's-complement into ``temp``."""
    lines.append(f"    {temp} = v['{name}']")
    if name in _ACC_SET:
        lines.append(
            f"    if {temp} > {_SMAX40}: {temp} -= {_MASK40 + 1}"
        )
    else:
        lines.append(
            f"    if {temp} > {_SMAX32}: {temp} -= {_MASK32 + 1}"
        )


#: Structural memo for generated block functions.  Workload harnesses
#: rebuild identical chips per engine per repeat; the generated code
#: depends only on the instruction shapes, so recompiling per run
#: would put ``builtins.compile`` on the benchmark's critical path.
_CODEGEN_CACHE: dict = {}


def _codegen_key(instrs):
    return tuple(
        (
            instr.opcode, instr.dst, instr.srcs, instr.imm,
            instr.ptr, instr.offset, instr.post_increment,
        )
        for instr in instrs
    )


def _codegen_block(instrs):
    """Compile a compute block to ``(fn, check)``, or ``(None, None)``.

    ``fn(tile)`` executes the whole block on one tile, byte-identical
    to the :meth:`~repro.arch.tile.Tile.execute` sequence.  ``check``
    (``None`` when the block provably cannot fault) evaluates every
    memory address the block will touch - pointer evolution within the
    block is affine, tracked symbolically - against the tile's memory
    bound, so the caller can refuse the batch *before* any tile
    mutates.  Any shape outside the model (dynamic pointers, invalid
    operands that the reference path would fault on, negative shift
    counts) yields ``(None, None)`` and the scalar path keeps the
    reference semantics, including error ordering across tiles.
    """
    try:
        key = _codegen_key(instrs)
    except TypeError:
        key = None
    if key is not None:
        cached = _CODEGEN_CACHE.get(key)
        if cached is not None:
            return cached
    compiled = _codegen_block_uncached(instrs)
    if key is not None:
        _CODEGEN_CACHE[key] = compiled
    return compiled


def _codegen_block_uncached(instrs):
    lines = []
    check_lines = []
    # Symbolic register values relative to block entry:
    # ('e', delta) = entry value + delta, ('c', v) = constant, None =
    # dynamic (untrackable - no memory access may depend on it).
    sym = {name: ("e", 0) for name in ALL_REGISTERS}
    n_mem = 0
    n_mac = 0
    seen_checks = set()
    for instr in instrs:
        op = instr.opcode
        if op is Opcode.NOP:
            continue
        if op in (Opcode.LD, Opcode.ST):
            ptr = _reg(instr.ptr)
            if ptr is None:
                return None, None
            ptr_sym = sym[ptr]
            if ptr_sym is None:
                return None, None  # dynamic pointer: stay scalar
            mask = _mask_of(ptr)
            offset = instr.offset
            if ptr_sym[0] == "c":
                address = (ptr_sym[1] & mask) + offset
                if not 0 <= address < 1 << 32:
                    return None, None  # always faults: stay scalar
                # Constant addresses still need the per-tile memory
                # bound (memory size is uniform per chip config, but
                # the check keeps the generator honest).
                key = ("c", address)
                if key not in seen_checks:
                    seen_checks.add(key)
                    check_lines.append(
                        f"    if not 0 <= {address} < n: return False"
                    )
                addr_expr = str(address)
            else:
                delta = ptr_sym[1]
                evolved = (
                    f"(v['{ptr}'] + {delta}) & {mask}" if delta
                    else f"v['{ptr}']"
                )
                key = ("e", ptr, delta, offset)
                if key not in seen_checks:
                    seen_checks.add(key)
                    check_lines.append(f"    _a = {evolved}")
                    bound = (
                        f"_a + {offset}" if offset else "_a"
                    )
                    check_lines.append(
                        f"    if not 0 <= {bound} < n: return False"
                    )
                addr_expr = (
                    f"{evolved} + {offset}" if offset else evolved
                )
            n_mem += 1
            if op is Opcode.LD:
                dst = _reg(instr.dst)
                if dst is None:
                    return None, None
                # Memory words are stored wrapped, so no dst mask.
                lines.append(f"    v['{dst}'] = mem[{addr_expr}]")
                sym[dst] = None
            else:
                src = _reg(instr.srcs[0])
                if src is None:
                    return None, None
                value = (
                    f"v['{src}'] & {_MASK32}" if src in _ACC_SET
                    else f"v['{src}']"
                )
                lines.append(f"    mem[{addr_expr}] = {value}")
            if instr.post_increment:
                # Reference order: the increment reads the pointer
                # *after* an LD's destination write (dst == ptr loads
                # then increments the loaded value).
                pmask = _mask_of(ptr)
                lines.append(
                    f"    v['{ptr}'] = (v['{ptr}'] + 1) & {pmask}"
                )
                after = sym[ptr]
                sym[ptr] = (
                    (after[0], after[1] + 1) if after is not None
                    else None
                )
            continue
        dst = _reg(instr.dst) if instr.dst else None
        if op is Opcode.MOVI:
            if dst is None:
                return None, None
            lines.append(
                f"    v['{dst}'] = {instr.imm & _mask_of(dst)}"
            )
            sym[dst] = ("c", instr.imm & _mask_of(dst))
            continue
        if op is Opcode.TID:
            if dst is None:
                return None, None
            lines.append(f"    v['{dst}'] = tile.tile_id")
            sym[dst] = None
            continue
        if op is Opcode.MOV:
            src = _reg(instr.srcs[0])
            if dst is None or src is None:
                return None, None
            value = (
                f"v['{src}'] & {_MASK32}"
                if src in _ACC_SET and dst not in _ACC_SET
                else f"v['{src}']"
            )
            lines.append(f"    v['{dst}'] = {value}")
            src_sym = sym[src]
            # ('e', d) is relative to the *source's* entry value, so
            # only constants survive a register-to-register copy.
            sym[dst] = (
                src_sym
                if src_sym is not None and src_sym[0] == "c"
                and src not in _ACC_SET and dst not in _ACC_SET
                else None
            )
            continue
        if op in (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR,
                  Opcode.XOR):
            a = _reg(instr.srcs[0])
            b = _reg(instr.srcs[1])
            if dst is None or a is None or b is None:
                return None, None
            sign = {
                Opcode.ADD: "+", Opcode.SUB: "-", Opcode.AND: "&",
                Opcode.OR: "|", Opcode.XOR: "^",
            }[op]
            lines.append(
                f"    v['{dst}'] = (v['{a}'] {sign} v['{b}'])"
                f" & {_mask_of(dst)}"
            )
            sym[dst] = None
            continue
        if op is Opcode.ADDI:
            src = _reg(instr.srcs[0])
            if dst is None or src is None:
                return None, None
            lines.append(
                f"    v['{dst}'] = (v['{src}'] + {instr.imm})"
                f" & {_mask_of(dst)}"
            )
            src_sym = sym[src]
            if dst in _ACC_SET or src in _ACC_SET:
                sym[dst] = None
            elif src_sym is None:
                sym[dst] = None
            elif src_sym[0] == "c":
                sym[dst] = ("c", (src_sym[1] + instr.imm) & _MASK32)
            elif dst == src:
                sym[dst] = ("e", src_sym[1] + instr.imm)
            else:
                # entry-relative to *another* register: not modelled.
                sym[dst] = None
            continue
        if op in (Opcode.MIN, Opcode.MAX):
            a = _reg(instr.srcs[0])
            b = _reg(instr.srcs[1])
            if dst is None or a is None or b is None:
                return None, None
            _emit_signed(lines, "_a", a)
            _emit_signed(lines, "_b", b)
            cmp = "<=" if op is Opcode.MIN else ">="
            lines.append(
                f"    v['{dst}'] = (_a if _a {cmp} _b else _b)"
                f" & {_mask_of(dst)}"
            )
            sym[dst] = None
            continue
        if op in (Opcode.NEG, Opcode.ABS):
            src = _reg(instr.srcs[0])
            if dst is None or src is None:
                return None, None
            _emit_signed(lines, "_a", src)
            value = "-_a" if op is Opcode.NEG else "(_a if _a >= 0 else -_a)"
            lines.append(
                f"    v['{dst}'] = ({value}) & {_mask_of(dst)}"
            )
            sym[dst] = None
            continue
        if op in (Opcode.ASR, Opcode.LSL, Opcode.LSR):
            src = _reg(instr.srcs[0])
            if dst is None or src is None or instr.imm < 0:
                return None, None
            if op is Opcode.ASR:
                _emit_signed(lines, "_a", src)
                expr = f"_a >> {instr.imm}"
            elif op is Opcode.LSL:
                expr = f"v['{src}'] << {instr.imm}"
            else:
                expr = f"v['{src}'] >> {instr.imm}"
            lines.append(
                f"    v['{dst}'] = ({expr}) & {_mask_of(dst)}"
            )
            sym[dst] = None
            continue
        if op in (Opcode.MUL, Opcode.MULH, Opcode.MAC):
            a = _reg(instr.srcs[0])
            b = _reg(instr.srcs[1])
            if dst is None or a is None or b is None:
                return None, None
            if op is Opcode.MAC and dst not in _ACC_SET:
                return None, None  # reference path raises: stay scalar
            _emit_signed(lines, "_a", a)
            _emit_signed(lines, "_b", b)
            if op is Opcode.MAC:
                _emit_signed(lines, "_c", dst)
                lines.append(
                    f"    v['{dst}'] = (_c + _a * _b) & {_MASK40}"
                )
                n_mac += 1
            elif op is Opcode.MUL:
                lines.append(
                    f"    v['{dst}'] = (_a * _b) & {_mask_of(dst)}"
                )
            else:
                lines.append(
                    f"    v['{dst}'] = ((_a * _b) >> 32)"
                    f" & {_mask_of(dst)}"
                )
            sym[dst] = None
            continue
        return None, None  # unmodelled opcode (comm/control): scalar
    body = ["def _block(tile):", "    v = tile.regs._values"]
    if n_mem:
        body.append("    mem = tile.memory")
    body.extend(lines)
    body.append(f"    tile.instructions_executed += {len(instrs)}")
    if n_mem:
        body.append(f"    tile.memory_accesses += {n_mem}")
    if n_mac:
        body.append(f"    tile.mac_operations += {n_mac}")
    namespace: dict = {}
    exec(compile("\n".join(body), "<column-exec>", "exec"),
         {}, namespace)
    fn = namespace["_block"]
    if not check_lines:
        return fn, None
    check_src = "\n".join(
        ["def _check(tile):", "    v = tile.regs._values",
         "    n = len(tile.memory)"]
        + check_lines
        + ["    return True"]
    )
    exec(compile(check_src, "<column-exec>", "exec"),
         {"len": len}, namespace)
    return fn, namespace["_check"]


def _vectorize(body):
    """The closed-form step of an affine loop body, or None.

    A body of self-increment ``ADDI`` counters (no accumulator, no
    register incremented twice) and ``NOP`` padding has no data
    dependency a batch could break: ``k`` iterations add ``imm * k`` to
    each counter and nothing else.  Returns the ``(register, imm)``
    pairs, empty for an all-``NOP`` body; any other shape runs
    iteration by iteration.
    """
    addis = []
    for instr in body:
        op = instr.opcode
        if op is Opcode.NOP:
            continue
        if op is not Opcode.ADDI:
            return None
        dst = _reg(instr.dst)
        if dst is None or dst in _ACC_SET or dst != _reg(instr.srcs[0]):
            return None
        addis.append((dst, instr.imm))
    if len({dst for dst, _ in addis}) != len(addis):
        return None
    return tuple(addis)


class _LoopPlan:
    """One ``LOOP`` whose whole body is compiled compute."""

    __slots__ = ("body_start", "body", "body_len", "end_pc", "imm",
                 "vector", "body_fn", "body_check")

    def __init__(self, body_start, body, end_pc, imm, vector) -> None:
        self.body_start = body_start
        self.body = body
        self.body_len = len(body)
        self.end_pc = end_pc
        self.imm = imm
        self.vector = vector
        self.body_fn, self.body_check = _codegen_block(body)


#: Dispatch kinds.
_RUN = 0
_LOOP_HEAD = 1
_LOOP_END = 2
_COMM = 3
_LIGHT_END = 4


class ColumnRunner:
    """Pre-executes a column's compiled compute over future edges."""

    __slots__ = ("column", "ctrl", "program_len", "dispatch",
                 "calls", "edges", "vector_batches",
                 "vector_iterations")

    def __init__(self, column, program_len, dispatch) -> None:
        self.column = column
        self.ctrl = column.controller
        self.program_len = program_len
        self.dispatch = dispatch
        self.calls = 0
        self.edges = 0
        self.vector_batches = 0
        self.vector_iterations = 0

    def comm_head(self, pc: int) -> bool:
        """Whether ``pc`` sits on a SEND/RECV this runner can issue.

        The engine's lockstep replay uses this to classify a recorded
        runner call as *comm-headed*: its first edge carries a buffer
        effect, so replaying it inside a batched round fuses the comm
        edge into the batch instead of breaking the batch per call.
        """
        if 0 <= pc < self.program_len:
            entry = self.dispatch[pc]
            return entry is not None and entry[0] == _COMM
        return False

    def run_edges(self, budget: int) -> int:
        """Pre-execute up to ``budget`` tile-clock edges; return count.

        Stops (leaving exact post-commit controller state) at any
        shape the reference path must handle: a fetched-but-stalled
        comm instruction, a branch, ``HALT``/program end, a loop-stack
        error, or plain budget exhaustion.  A return of 0 means the
        very next edge needs :meth:`Column.step_tile_clock`.
        """
        ctrl = self.ctrl
        column = self.column
        dispatch = self.dispatch
        program_len = self.program_len
        consumed = 0
        light_used = False
        self.calls += 1
        while consumed < budget:
            if (ctrl._pending is not None or ctrl.halted
                    or ctrl._stall_pending):
                break
            pc = ctrl.pc
            if pc >= program_len:
                break  # the reference fetch records the halting bubble
            entry = dispatch[pc]
            if entry is None:
                break
            kind = entry[0]
            if kind == _RUN:
                instrs = entry[1]
                count = budget - consumed
                n = len(instrs)
                active = column.active_tiles()
                if n <= count:
                    fn = entry[2]
                    if fn is not None:
                        check = entry[3]
                        safe = True
                        if check is not None:
                            for tile in active:
                                if not check(tile):
                                    safe = False
                                    break
                        if safe:
                            for tile in active:
                                fn(tile)
                            column.tile_cycles += n
                            ctrl.pc += n
                            ctrl.issued += n
                            consumed += n
                            continue
                    count = n
                for instr in instrs[:count]:
                    column.tile_cycles += 1
                    ctrl.pc += 1
                    ctrl.issued += 1
                    for tile in active:
                        tile.execute(instr)
                consumed += count
                continue
            if kind == _COMM:
                if consumed:
                    break  # a future edge cannot carry a comm effect
                reg = entry[2]
                active = column.active_tiles()
                if entry[1]:  # SEND: every write buffer needs room
                    for tile in active:
                        buffer = tile.write_buffer
                        if len(buffer._words) >= buffer.capacity:
                            break
                    else:
                        column.tile_cycles += 1
                        ctrl.pc += 1
                        ctrl.issued += 1
                        for tile in active:
                            buffer = tile.write_buffer
                            buffer._words.append(
                                tile.regs._values[reg]
                            )
                            buffer.total_pushed += 1
                            tile.instructions_executed += 1
                        consumed = 1
                        continue
                    break
                for tile in active:  # RECV: every read buffer nonempty
                    if not tile.read_buffer._words:
                        break
                else:
                    column.tile_cycles += 1
                    ctrl.pc += 1
                    ctrl.issued += 1
                    for tile in active:
                        buffer = tile.read_buffer
                        buffer.total_popped += 1
                        tile.regs._values[reg] = (
                            buffer._words.popleft()
                        )
                        tile.instructions_executed += 1
                    consumed = 1
                    continue
                break
            if kind == _LIGHT_END:
                # Zero-cost ENDLOOP of a loop whose body contains
                # communication: resolve it at most once per call,
                # mirroring the reference fetch's control resolution.
                # Resolving it mid-call lands the pc/loop-frame update
                # a few edges before the reference fetch would - legal
                # for the same reason run crediting is: nothing any
                # other domain (or the settlement/governor machinery)
                # observes mid-window reads them.  Chains of zero-cost
                # control are left to the generic fetch, whose
                # control-only-cycle budget must stay authoritative.
                if light_used:
                    break
                stack = ctrl._loop_stack
                if not stack:
                    break  # reference fetch raises endloop-without-loop
                light_used = True
                ctrl.control_executed += 1
                top = stack[-1]
                if top[1] > 0:
                    top[1] -= 1
                    ctrl.pc = top[0]
                else:
                    stack.pop()
                    ctrl.pc = pc + 1
                continue
            plan = entry[1]
            if kind == _LOOP_HEAD:
                if len(ctrl._loop_stack) >= MAX_LOOP_DEPTH:
                    break  # the reference fetch raises the overflow
                ctrl.control_executed += 1
                ctrl._loop_stack.append([plan.body_start, plan.imm - 1])
                ctrl.pc = plan.body_start
                consumed += self._iterate(plan, budget - consumed)
                continue
            # _LOOP_END: the ENDLOOP of a compiled loop.
            stack = ctrl._loop_stack
            if not stack or stack[-1][0] != plan.body_start:
                break  # foreign/missing frame: reference semantics
            top = stack[-1]
            if top[1] > 0:
                ctrl.control_executed += 1
                top[1] -= 1
                ctrl.pc = plan.body_start
                consumed += self._iterate(plan, budget - consumed)
                continue
            # Loop exit resolves zero-cost control; only take it when
            # the runner handles what follows, otherwise leave the
            # ENDLOOP for the next reference fetch (which resolves it
            # within the same edge it always would have).
            nxt = plan.end_pc + 1
            if nxt >= program_len or dispatch[nxt] is None:
                break
            ctrl.control_executed += 1
            stack.pop()
            ctrl.pc = nxt
        self.edges += consumed
        return consumed

    def _iterate(self, plan, budget: int) -> int:
        """Run whole/partial loop iterations from the body start.

        Entered with ``pc`` at the body start and the top loop frame
        current; issues at least one edge (``budget >= 1``).
        """
        ctrl = self.ctrl
        column = self.column
        body = plan.body
        body_len = plan.body_len
        top = ctrl._loop_stack[-1]
        iterations = min(budget // body_len, top[1] + 1)
        active = column.active_tiles()
        if iterations == 0:
            # Budget ends mid-body: issue the prefix instruction by
            # instruction (exact partial state, including errors).
            for instr in body[:budget]:
                column.tile_cycles += 1
                ctrl.pc += 1
                ctrl.issued += 1
                for tile in active:
                    tile.execute(instr)
            return budget
        vector = plan.vector
        if vector is not None:
            count = iterations * body_len
            for tile in active:
                values = tile.regs._values
                for dst, imm in vector:
                    values[dst] = (values[dst] + imm * iterations) & _MASK32
                tile.instructions_executed += count
            column.tile_cycles += count
            ctrl.issued += count
            ctrl.control_executed += iterations - 1
            top[1] -= iterations - 1
            ctrl.pc = plan.end_pc
            self.vector_batches += 1
            self.vector_iterations += iterations
            return count
        body_fn = plan.body_fn
        body_check = plan.body_check
        first = True
        for _ in range(iterations):
            if first:
                first = False
            else:
                # ENDLOOP jump-back: zero-cost prefix of the next edge.
                ctrl.control_executed += 1
                top[1] -= 1
                ctrl.pc = plan.body_start
            if body_fn is not None:
                safe = True
                if body_check is not None:
                    for tile in active:
                        if not body_check(tile):
                            safe = False
                            break
                if safe:
                    for tile in active:
                        body_fn(tile)
                    column.tile_cycles += body_len
                    ctrl.pc += body_len
                    ctrl.issued += body_len
                    continue
            for instr in body:
                column.tile_cycles += 1
                ctrl.pc += 1
                ctrl.issued += 1
                for tile in active:
                    tile.execute(instr)
        return iterations * body_len


def compile_column_runner(column):
    """A :class:`ColumnRunner` for the column, or None.

    Returns None when nothing is compilable or when the controller
    hosts an enabled ZORM counter (rate-matching nops depend on the
    issue history, so every edge must go through the reference fetch).
    """
    ctrl = column.controller
    if ctrl.zorm.enabled:
        return None
    instructions = ctrl._instructions
    n = len(instructions)
    if n == 0:
        return None
    eligible = [
        not instr.is_control
        and instr.opcode is not Opcode.SEND
        and instr.opcode is not Opcode.RECV
        for instr in instructions
    ]
    dispatch: list = [None] * n
    index = 0
    while index < n:
        if not eligible[index]:
            index += 1
            continue
        stop = index
        while stop < n and eligible[stop]:
            stop += 1
        block = tuple(instructions[index:stop])
        for pc in range(index, stop):
            suffix = block[pc - index:]
            fn, check = _codegen_block(suffix)
            dispatch[pc] = (_RUN, suffix, fn, check)
        index = stop
    for pc, instr in enumerate(instructions):
        op = instr.opcode
        if op is Opcode.SEND:
            reg = _reg(instr.srcs[0]) if instr.srcs else None
            # An accumulator source would need the push-time 32-bit
            # mask; leave that rarity to the reference path.
            if reg is not None and reg not in _ACC_SET:
                dispatch[pc] = (_COMM, True, reg)
        elif op is Opcode.RECV:
            reg = _reg(instr.dst) if instr.dst else None
            if reg is not None:
                dispatch[pc] = (_COMM, False, reg)
    for pc, instr in enumerate(instructions):
        if instr.opcode is not Opcode.LOOP or instr.imm < 1:
            continue
        body_start = pc + 1
        end = body_start
        while end < n and eligible[end]:
            end += 1
        if end == body_start or end >= n:
            continue
        if instructions[end].opcode is not Opcode.ENDLOOP:
            continue
        body = tuple(instructions[body_start:end])
        plan = _LoopPlan(
            body_start, body, end, instr.imm, _vectorize(body)
        )
        dispatch[pc] = (_LOOP_HEAD, plan)
        dispatch[end] = (_LOOP_END, plan)
    # ENDLOOPs not claimed by a fully-compiled loop (bodies with
    # communication or other reference-path shapes) still resolve
    # zero-cost in the runner, provided they statically match a LOOP
    # whose body holds at least one non-control instruction - the
    # guard that keeps the generic fetch's control-only-cycle budget
    # reachable exactly when the reference would hit it.
    loop_stack: list = []
    for pc, instr in enumerate(instructions):
        op = instr.opcode
        if op is Opcode.LOOP:
            loop_stack.append((pc, instr.imm))
        elif op is Opcode.ENDLOOP and loop_stack:
            head, imm = loop_stack.pop()
            if dispatch[pc] is not None or imm < 1:
                continue
            if any(
                not ins.is_control
                for ins in instructions[head + 1:pc]
            ):
                dispatch[pc] = (_LIGHT_END,)
    if not any(entry is not None for entry in dispatch):
        return None
    return ColumnRunner(column, n, tuple(dispatch))
