"""Column and whole-chip assembly (paper Figure 1).

A column couples four tiles, a SIMD controller, a DOU, and a vertical
segmented bus with five taps: the four tiles plus a port position
where the column meets the horizontal inter-column bus (the paper
allocates a single horizontal bus for the lower inter-block bandwidth
and gather/scatter).  The chip instantiates columns, the shared
horizontal bus with its own static schedule, and the clock tree.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.arch.buffers import CommBuffer
from repro.arch.bus import SegmentedBus
from repro.arch.clocking import ClockTree
from repro.arch.config import ChipConfig, ColumnConfig
from repro.arch.dou import Dou, DouProgram
from repro.arch.rate_match import ZormCounter
from repro.arch.simd import SimdController
from repro.arch.tile import Tile
from repro.isa.instructions import Opcode
from repro.isa.program import Program

#: Bus position of the column's horizontal port (after the four tiles).
PORT_POSITION = 4

ISSUED = "issued"
STALLED = "stalled"
BUBBLE = "bubble"


class Column:
    """One frequency/voltage domain: four tiles under SIMD control."""

    def __init__(
        self,
        index: int,
        config: ColumnConfig,
        chip_config: ChipConfig,
        program: Program,
        dou_program: DouProgram | None = None,
    ) -> None:
        self.index = index
        self.config = config
        n_tiles = chip_config.tiles_per_column
        self.tiles = [
            Tile(
                tile_id=i,
                memory_words=chip_config.memory_words,
                buffer_capacity=chip_config.buffer_capacity,
            )
            for i in range(n_tiles)
        ]
        self.h_in = CommBuffer(
            f"col{index}.h_in", capacity=chip_config.port_capacity
        )
        self.h_out = CommBuffer(
            f"col{index}.h_out", capacity=chip_config.port_capacity
        )
        self.controller = SimdController(
            program=program,
            condition_source=self.tiles[0].read_signed_register,
            zorm=ZormCounter(*config.zorm),
            name=f"column{index}",
        )
        self.bus = SegmentedBus(
            name=f"col{index}.vbus",
            n_positions=n_tiles + 1,
            n_splits=chip_config.bus_splits,
        )
        write_ports = {i: tile.write_buffer for i, tile in enumerate(self.tiles)}
        write_ports[n_tiles] = self.h_in
        read_ports = {i: tile.read_buffer for i, tile in enumerate(self.tiles)}
        read_ports[n_tiles] = self.h_out
        self.dou = Dou(
            program=dou_program or DouProgram.idle(),
            bus=self.bus,
            write_ports=write_ports,
            read_ports=read_ports,
            strict=chip_config.strict_schedules,
        )
        self.port_position = n_tiles
        self.comm_stalls = 0
        self.tile_cycles = 0
        # active_tiles() sits on the issue hot path; the tile list is
        # fixed at construction, so the selection per SIMD mask is
        # cached instead of being rebuilt every issued instruction.
        self._active_tiles_cache: dict = {}

    @property
    def halted(self) -> bool:
        """Whether the column's program has finished."""
        return self.controller.halted

    def active_tiles(self) -> list:
        """Tiles enabled by the current SIMD mask (cached per mask).

        The returned list is shared between calls - callers must not
        mutate it.
        """
        mask = self.controller.mask
        tiles = self._active_tiles_cache.get(mask)
        if tiles is None:
            tiles = [
                t for i, t in enumerate(self.tiles) if (mask >> i) & 1
            ]
            self._active_tiles_cache[mask] = tiles
        return tiles

    def blocked_on_recv(self) -> bool:
        """Whether the next tile-clock edges are certain RECV stalls.

        True when the already-fetched pending instruction is a RECV
        and some enabled tile's read buffer is empty: the column
        cannot issue until a DOU capture lands, and every edge until
        then costs exactly one ``comm_stalls`` tile cycle.  A compiled
        engine that can prove no capture will land for a span may
        therefore account those stall edges arithmetically.
        """
        pending = self.controller._pending
        if pending is None or pending.opcode is not Opcode.RECV:
            return False
        for tile in self.active_tiles():
            if tile.read_buffer.is_empty:
                return True
        return False

    def blocked_on_send(self) -> bool:
        """Whether the next tile-clock edges are certain SEND stalls.

        The backpressure mirror of :meth:`blocked_on_recv`: the
        pending instruction is a SEND and some enabled tile's write
        buffer is full, so the column cannot issue until a DOU drain
        pops a word - every edge until then costs exactly one
        ``comm_stalls`` tile cycle.
        """
        pending = self.controller._pending
        if pending is None or pending.opcode is not Opcode.SEND:
            return False
        for tile in self.active_tiles():
            if tile.write_buffer.is_full:
                return True
        return False

    def parked_on_comm(self) -> bool:
        """Whether the column is certainly stalled on its pending comm.

        ``blocked_on_recv() or blocked_on_send()`` with the pending
        instruction inspected once - the form the compiled engine's
        batching loop calls per live column per jump.  A parked column
        stays parked exactly as long as no DOU capture or drain
        touches its buffers, so its stall edges can be settled
        arithmetically over any span the DOUs provably sit still.
        """
        pending = self.controller._pending
        if pending is None:
            return False
        op = pending.opcode
        if op is Opcode.RECV:
            for tile in self.active_tiles():
                if tile.read_buffer.is_empty:
                    return True
            return False
        if op is Opcode.SEND:
            for tile in self.active_tiles():
                if tile.write_buffer.is_full:
                    return True
        return False

    def step_tile_clock(self) -> str:
        """Advance the column by one tile clock; returns the outcome."""
        self.tile_cycles += 1
        instr = self.controller.next_instruction()
        if instr is None:
            return BUBBLE
        active = self.active_tiles()
        op = instr.opcode
        if op is Opcode.RECV or op is Opcode.SEND:
            # Only communication instructions can block on a buffer;
            # every other opcode issues unconditionally.
            for tile in active:
                if not tile.can_execute(instr):
                    self.comm_stalls += 1
                    return STALLED
        self.controller.commit()
        for tile in active:
            tile.execute(instr)
        return ISSUED


class Chip:
    """A full Synchroscalar chip."""

    def __init__(
        self,
        config: ChipConfig,
        programs: list,
        dou_programs: list | None = None,
        horizontal_dou: DouProgram | None = None,
    ) -> None:
        if len(programs) != config.n_columns:
            raise ConfigurationError(
                f"{config.n_columns} columns but {len(programs)} programs"
            )
        if dou_programs is None:
            dou_programs = [None] * config.n_columns
        if len(dou_programs) != config.n_columns:
            raise ConfigurationError(
                "dou_programs must match the column count"
            )
        self.config = config
        self.clock = ClockTree(
            config.reference_mhz,
            [c.divider for c in config.columns],
        )
        self.columns = [
            Column(
                index=i,
                config=config.columns[i],
                chip_config=config,
                program=programs[i],
                dou_program=dou_programs[i],
            )
            for i in range(config.n_columns)
        ]
        self.horizontal_bus = None
        self.horizontal_dou = None
        if config.n_columns >= 2:
            self.horizontal_bus = SegmentedBus(
                name="hbus",
                n_positions=config.n_columns,
                n_splits=config.bus_splits,
            )
            if horizontal_dou is not None:
                self.horizontal_dou = Dou(
                    program=horizontal_dou,
                    bus=self.horizontal_bus,
                    write_ports={
                        i: col.h_out for i, col in enumerate(self.columns)
                    },
                    read_ports={
                        i: col.h_in for i, col in enumerate(self.columns)
                    },
                    strict=config.strict_schedules,
                )
        elif horizontal_dou is not None:
            raise ConfigurationError(
                "a horizontal DOU needs at least two columns"
            )
        self.reference_ticks = 0
        #: Per-column PLL-relock gate: a column receives no tile-clock
        #: edges at reference ticks below its entry (runtime DVFS
        #: transitions stall the retuned column while its divided
        #: clock relocks; see repro.control.transitions).
        self.clock_gate_until = [0] * config.n_columns

    @property
    def all_halted(self) -> bool:
        """Whether every column program has finished."""
        return all(col.halted for col in self.columns)

    def retune(self, dividers) -> None:
        """Commit new column dividers (runtime DVFS).

        Divider changes are only legal at a hyperperiod boundary of
        the *outgoing* clock: every column phase is aligned there, so
        the retuned edge schedule stays deterministic and the compiled
        engine's striding remains exact (Section 2.4's single-PLL
        argument, extended to runtime).
        """
        if self.reference_ticks % self.clock.hyperperiod() != 0:
            raise ConfigurationError(
                f"retune at tick {self.reference_ticks} is not on a "
                f"hyperperiod boundary (hyperperiod "
                f"{self.clock.hyperperiod()})"
            )
        self.clock = self.clock.with_dividers(dividers)

    def step_reference_tick(self, observers: tuple = ()) -> None:
        """One reference-clock tick: buses first, then due columns.

        The DOUs run at the bus (maximum) frequency every tick; a
        column's tiles advance only on their divided clock edges, so
        words crossing domains sit in the voltage-adapting buffers in
        between - exactly the paper's decoupled communication model.

        ``observers`` are notified of every tile-clock issue outcome
        via ``observer.record(tick, column, outcome, pc)`` - the hook
        behind tracing, so traced and untraced runs share this single
        stepping loop.
        """
        tick = self.reference_ticks
        columns = self.columns
        for column in columns:
            column.dou.step()
        horizontal = self.horizontal_dou
        if horizontal is not None:
            horizontal.step()
        dividers = self.clock.dividers
        gates = self.clock_gate_until
        for index, column in enumerate(columns):
            if tick % dividers[index] == 0 and tick >= gates[index]:
                if observers:
                    pc = column.controller.pc
                    outcome = column.step_tile_clock()
                    for observer in observers:
                        observer.record(tick, index, outcome, pc)
                else:
                    column.step_tile_clock()
        self.reference_ticks = tick + 1

    # ------------------------------------------------------------------
    # external I/O (the IN DATA / OUT DATA arrows of Figure 1)
    # ------------------------------------------------------------------
    def feed_column(self, column: int, words: list) -> None:
        """Push input words into a column's horizontal-in port."""
        for word in words:
            self.columns[column].h_in.push(word)

    def drain_column(self, column: int) -> list:
        """Pop every word queued at a column's horizontal-out port."""
        out = self.columns[column].h_out
        words = []
        while not out.is_empty:
            words.append(out.pop())
        return words
