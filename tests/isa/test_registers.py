"""Register file semantics."""

import pytest

from repro.errors import SimulationError
from repro.isa.registers import (
    ACCUMULATORS,
    COMM_REGISTER,
    DATA_REGISTERS,
    POINTER_REGISTERS,
    RegisterFile,
    signed32,
    signed40,
    wrap32,
    wrap40,
)


def test_register_sets():
    assert len(DATA_REGISTERS) == 8
    assert len(POINTER_REGISTERS) == 6
    assert ACCUMULATORS == ("A0", "A1")
    assert COMM_REGISTER == "R7"


def test_unknown_register_raises():
    regs = RegisterFile()
    with pytest.raises(SimulationError):
        regs.read("R9")
    with pytest.raises(SimulationError):
        regs.write("R9", 0)


def test_wrap32():
    assert wrap32(-1) == 0xFFFFFFFF
    assert wrap32(1 << 32) == 0
    assert signed32(0xFFFFFFFF) == -1
    assert signed32(0x7FFFFFFF) == 0x7FFFFFFF


def test_wrap40():
    assert wrap40(-1) == (1 << 40) - 1
    assert signed40((1 << 40) - 1) == -1


def test_register_file_widths():
    regs = RegisterFile()
    regs.write("R0", -1)
    assert regs.read("R0") == 0xFFFFFFFF
    assert regs.read_signed("R0") == -1
    regs.write("A0", -1)
    assert regs.read("A0") == (1 << 40) - 1
    assert regs.read_signed("A0") == -1


def test_accumulator_holds_40_bits():
    regs = RegisterFile()
    big = (1 << 38) + 12345
    regs.write("A0", big)
    assert regs.read("A0") == big  # would not fit in 32 bits


def test_register_file_unknown_name():
    regs = RegisterFile()
    with pytest.raises(SimulationError):
        regs.read("X1")
    with pytest.raises(SimulationError):
        regs.write("X1", 0)


def test_snapshot_is_copy():
    regs = RegisterFile()
    snap = regs.snapshot()
    snap["R0"] = 42
    assert regs.read("R0") == 0
