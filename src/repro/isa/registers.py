"""Register architecture of a Synchroscalar tile.

Modelled on the Blackfin register set [20]:

* R0..R7  -- 32-bit data registers; R7 is the designated communication
             register whose bus alignment the DOU controls (Section 2.3).
* P0..P5  -- pointer registers for tile-local memory addressing.
* A0, A1  -- 40-bit multiply-accumulate registers.

All arithmetic wraps at the register width (two's complement).
"""

from __future__ import annotations

from repro.errors import SimulationError

DATA_REGISTERS = tuple(f"R{i}" for i in range(8))
POINTER_REGISTERS = tuple(f"P{i}" for i in range(6))
ACCUMULATORS = ("A0", "A1")
COMM_REGISTER = "R7"

ALL_REGISTERS = DATA_REGISTERS + POINTER_REGISTERS + ACCUMULATORS

_INDEX = {name: i for i, name in enumerate(ALL_REGISTERS)}

DATA_WIDTH = 32
ACCUMULATOR_WIDTH = 40

_DATA_MASK = (1 << DATA_WIDTH) - 1
_ACC_MASK = (1 << ACCUMULATOR_WIDTH) - 1


def register_index(name: str) -> int:
    """Dense index of a register name (used by the binary encoding)."""
    try:
        return _INDEX[name.upper()]
    except KeyError:
        raise SimulationError(f"unknown register {name!r}") from None


def register_name(index: int) -> str:
    """Inverse of :func:`register_index`."""
    if not 0 <= index < len(ALL_REGISTERS):
        raise SimulationError(f"register index {index} out of range")
    return ALL_REGISTERS[index]


def is_accumulator(name: str) -> bool:
    """True for A0/A1."""
    return name.upper() in ACCUMULATORS


def wrap32(value: int) -> int:
    """Wrap to unsigned 32-bit."""
    return value & _DATA_MASK


def wrap40(value: int) -> int:
    """Wrap to unsigned 40-bit (accumulators)."""
    return value & _ACC_MASK


def signed32(value: int) -> int:
    """Interpret an unsigned 32-bit pattern as two's-complement."""
    value &= _DATA_MASK
    return value - (1 << DATA_WIDTH) if value >> (DATA_WIDTH - 1) else value


def signed40(value: int) -> int:
    """Interpret an unsigned 40-bit pattern as two's-complement."""
    value &= _ACC_MASK
    return value - (1 << ACCUMULATOR_WIDTH) if value >> (ACCUMULATOR_WIDTH - 1) else value


_ACC_SET = frozenset(ACCUMULATORS)

#: Register lookups sit on the innermost simulation loop (one read or
#: write per operand per issued instruction across four tiles), so the
#: register file keeps an allocation-free fast path for names that are
#: already canonical (the assembler emits them uppercase) and only
#: falls back to ``str.upper`` normalization for hand-written callers.


class RegisterFile:
    """All architectural registers of one tile."""

    def __init__(self) -> None:
        self._values = {name: 0 for name in ALL_REGISTERS}

    def read(self, name: str) -> int:
        """Unsigned value of a register."""
        value = self._values.get(name)
        if value is not None:
            return value
        name = name.upper()
        if name not in self._values:
            raise SimulationError(f"unknown register {name!r}")
        return self._values[name]

    def read_signed(self, name: str) -> int:
        """Two's-complement value of a register."""
        raw = self.read(name)
        if name in _ACC_SET or is_accumulator(name):
            return signed40(raw)
        return signed32(raw)

    def write(self, name: str, value: int) -> None:
        """Write with width-appropriate wrapping."""
        values = self._values
        if name not in values:
            name = name.upper()
            if name not in values:
                raise SimulationError(f"unknown register {name!r}")
        if name in _ACC_SET:
            values[name] = value & _ACC_MASK
        else:
            values[name] = value & _DATA_MASK

    def snapshot(self) -> dict:
        """Copy of all register values (for tests and traces)."""
        return dict(self._values)
