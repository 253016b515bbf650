"""Instruction set definition.

Compute instructions execute on every active tile of a column (SIMD);
control instructions execute inside the SIMD controller and never reach
the tiles (Section 2.2).  Communication instructions move values
between the register file and the tile's read/write buffers, which the
DOU drains/fills on its static schedule (Section 2.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import AssemblyError

#: Tile-enable mask with all four tiles of a column active.
ALL_TILES_MASK = 0xF


class Opcode(enum.Enum):
    """Every operation understood by the column front end."""

    # tile compute
    NOP = "nop"
    MOVI = "movi"      # dst <- imm
    MOV = "mov"        # dst <- src1
    ADD = "add"        # dst <- src1 + src2
    ADDI = "addi"      # dst <- src1 + imm
    SUB = "sub"        # dst <- src1 - src2
    AND = "and"
    OR = "or"
    XOR = "xor"
    MIN = "min"        # signed minimum
    MAX = "max"        # signed maximum
    NEG = "neg"        # dst <- -src1
    ABS = "abs"        # dst <- |src1|
    ASR = "asr"        # arithmetic shift right by imm
    LSL = "lsl"        # logical shift left by imm
    LSR = "lsr"        # logical shift right by imm
    MUL = "mul"        # dst <- low 32 of src1 * src2 (signed)
    MULH = "mulh"      # dst <- high 32 of src1 * src2 (signed)
    MAC = "mac"        # accumulator dst += src1 * src2 (signed, 40-bit)
    TID = "tid"        # dst <- tile index within the column
    # tile memory
    LD = "ld"          # dst <- mem[ptr + offset]; optional post-increment
    ST = "st"          # mem[ptr + offset] <- src1; optional post-increment
    # tile communication
    SEND = "send"      # write buffer <- src1
    RECV = "recv"      # dst <- read buffer
    # controller-resident control
    JUMP = "jump"
    BEQ = "beq"        # branch if src1 == 0 (single-cycle stall)
    BNE = "bne"        # branch if src1 != 0
    BLT = "blt"        # branch if src1 < 0 (signed)
    BGE = "bge"        # branch if src1 >= 0 (signed)
    LOOP = "loop"      # zero-overhead loop, imm iterations
    ENDLOOP = "endloop"
    TMASK = "tmask"    # set active-tile mask to imm
    HALT = "halt"


CONTROL_OPCODES = frozenset({
    Opcode.JUMP, Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE,
    Opcode.LOOP, Opcode.ENDLOOP, Opcode.TMASK, Opcode.HALT,
})

BRANCH_OPCODES = frozenset({
    Opcode.JUMP, Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE,
})

CONDITIONAL_BRANCHES = frozenset({
    Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE,
})

MEMORY_OPCODES = frozenset({Opcode.LD, Opcode.ST})

#: opcode -> (has_dst, n_srcs, has_imm, has_target)
_SIGNATURES = {
    Opcode.NOP: (False, 0, False, False),
    Opcode.MOVI: (True, 0, True, False),
    Opcode.MOV: (True, 1, False, False),
    Opcode.ADD: (True, 2, False, False),
    Opcode.ADDI: (True, 1, True, False),
    Opcode.SUB: (True, 2, False, False),
    Opcode.AND: (True, 2, False, False),
    Opcode.OR: (True, 2, False, False),
    Opcode.XOR: (True, 2, False, False),
    Opcode.MIN: (True, 2, False, False),
    Opcode.MAX: (True, 2, False, False),
    Opcode.NEG: (True, 1, False, False),
    Opcode.ABS: (True, 1, False, False),
    Opcode.ASR: (True, 1, True, False),
    Opcode.LSL: (True, 1, True, False),
    Opcode.LSR: (True, 1, True, False),
    Opcode.MUL: (True, 2, False, False),
    Opcode.MULH: (True, 2, False, False),
    Opcode.MAC: (True, 2, False, False),
    Opcode.TID: (True, 0, False, False),
    Opcode.LD: (True, 0, False, False),
    Opcode.ST: (False, 1, False, False),
    Opcode.SEND: (False, 1, False, False),
    Opcode.RECV: (True, 0, False, False),
    Opcode.JUMP: (False, 0, False, True),
    Opcode.BEQ: (False, 1, False, True),
    Opcode.BNE: (False, 1, False, True),
    Opcode.BLT: (False, 1, False, True),
    Opcode.BGE: (False, 1, False, True),
    Opcode.LOOP: (False, 0, True, False),
    Opcode.ENDLOOP: (False, 0, False, False),
    Opcode.TMASK: (False, 0, True, False),
    Opcode.HALT: (False, 0, False, False),
}


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    ``target`` holds a label name before assembly resolution and an
    integer address afterwards.  For LD/ST, ``ptr``/``offset``/
    ``post_increment`` describe the addressing mode.
    """

    opcode: Opcode
    dst: str | None = None
    srcs: tuple = ()
    imm: int | None = None
    target: object = None
    ptr: str | None = None
    offset: int = 0
    post_increment: bool = False
    mask: int = ALL_TILES_MASK

    def __post_init__(self) -> None:
        has_dst, n_srcs, has_imm, has_target = _SIGNATURES[self.opcode]
        if has_dst and self.dst is None:
            raise AssemblyError(f"{self.opcode.value}: missing destination")
        if not has_dst and self.dst is not None:
            raise AssemblyError(f"{self.opcode.value}: unexpected destination")
        if len(self.srcs) != n_srcs:
            raise AssemblyError(
                f"{self.opcode.value}: expected {n_srcs} sources, "
                f"got {len(self.srcs)}"
            )
        if has_imm and self.imm is None:
            raise AssemblyError(f"{self.opcode.value}: missing immediate")
        if has_target and self.target is None:
            raise AssemblyError(f"{self.opcode.value}: missing branch target")
        if self.opcode in MEMORY_OPCODES and self.ptr is None:
            raise AssemblyError(f"{self.opcode.value}: missing pointer operand")
        if not 0 <= self.mask <= ALL_TILES_MASK:
            raise AssemblyError(f"tile mask {self.mask:#x} out of range")
        if self.opcode is Opcode.LOOP and (self.imm is None or self.imm < 1):
            raise AssemblyError("loop count must be at least 1")

    @cached_property
    def is_control(self) -> bool:
        """True when the SIMD controller consumes this instruction.

        Cached: the check sits on the controller's per-cycle fetch
        path and the instruction is immutable.
        """
        return self.opcode in CONTROL_OPCODES

    @cached_property
    def is_conditional_branch(self) -> bool:
        """True for the branches that incur the single-cycle stall."""
        return self.opcode in CONDITIONAL_BRANCHES

    def with_target(self, target: int) -> "Instruction":
        """Copy with the branch target resolved to an address."""
        return Instruction(
            opcode=self.opcode, dst=self.dst, srcs=self.srcs, imm=self.imm,
            target=target, ptr=self.ptr, offset=self.offset,
            post_increment=self.post_increment, mask=self.mask,
        )

    def text(self) -> str:
        """Render back to assembly-like text (used by traces/tests)."""
        parts = [self.opcode.value]
        operands = []
        if self.dst is not None:
            operands.append(self.dst.lower())
        if self.opcode in MEMORY_OPCODES:
            inc = "++" if self.post_increment else ""
            if self.offset:
                operands.append(f"[{self.ptr.lower()}+{self.offset}]")
            else:
                operands.append(f"[{self.ptr.lower()}{inc}]")
        operands.extend(s.lower() for s in self.srcs)
        if self.imm is not None:
            operands.append(str(self.imm))
        if self.target is not None:
            operands.append(str(self.target))
        if operands:
            parts.append(" " + ", ".join(operands))
        return "".join(parts)
