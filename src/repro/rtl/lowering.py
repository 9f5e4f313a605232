"""Lower a sysgen block diagram to an RTL netlist.

This is the analogue of System Generator's netlisting step ("the
low-level implementation can be generated automatically using System
Generator and EDK"): every arithmetic-level block becomes fabric cells
(LUT/MUXCY/FF), an embedded multiplier or a behavioral macro, wired by
per-bit nets.  The resulting simulation computes the same values as the
arithmetic-level model — verified by differential tests — while paying
per-bit event cost, and its cell counts feed the place-and-route
"actual" resource report (:mod:`repro.resources.par`).

FSL interface blocks lower to behavioral bus-functional bridges bound
to the same :class:`~repro.bus.fsl.FSLChannel` objects the processor
model uses, mirroring how a ModelSim testbench hooks the DUT to the
software side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fixedpoint import Rounding, Overflow
from repro.rtl.kernel import Kernel, Signal
from repro.rtl.netlist import Net, Netlist
from repro.sysgen.blocks import (
    FIFO,
    RAM,
    ROM,
    Accumulator,
    Add,
    AddSub,
    Concat,
    Constant,
    Convert,
    Counter,
    Delay,
    FSLRead,
    FSLWrite,
    GatewayIn,
    GatewayOut,
    Inverter,
    Logical,
    Mult,
    Mux,
    Negate,
    Register,
    Relational,
    Shift,
    Slice,
    Sub,
)
from repro.sysgen.model import Model
from repro.sysgen.ports import OutputPort


class LoweringError(NotImplementedError):
    """A block (or option) has no RTL lowering."""


@dataclass
class LoweredModel:
    """The lowered design plus its host-side access points."""

    netlist: Netlist
    clk: Signal
    port_map: dict[int, Net]  # id(OutputPort) -> bus
    inputs: dict[str, Net] = field(default_factory=dict)  # gateway-in buses
    outputs: dict[str, Net] = field(default_factory=dict)  # gateway-out buses

    def bus_of(self, port: OutputPort) -> Net:
        return self.port_map[id(port)]

    def drive_input(self, kernel: Kernel, name: str, value: int) -> None:
        for i, bit in enumerate(self.inputs[name]):
            kernel.schedule(bit, (value >> i) & 1)

    def read_output(self, name: str) -> int:
        value = 0
        for i, bit in enumerate(self.outputs[name]):
            value |= (bit.value & 1) << i
        return value


_GND_VALUE = 0


class _Lowerer:
    def __init__(self, model: Model, kernel: Kernel, clk: Signal,
                 name: str | None = None):
        self.model = model
        self.kernel = kernel
        self.clk = clk
        self.nl = Netlist(kernel, name or model.name)
        self.port_map: dict[int, Net] = {}
        self.lowered = LoweredModel(self.nl, clk, self.port_map)
        self._gnd = kernel.signal(f"{self.nl.name}.GND", 1, 0)
        self._vcc = kernel.signal(f"{self.nl.name}.VCC", 1, 1)

    # ------------------------------------------------------------------
    def in_bus(self, block, port_name: str, width: int | None = None) -> Net:
        """Bus driving ``block.port_name`` (default value when open),
        fitted to ``width`` (zero-extended / truncated)."""
        port = block.inputs[port_name]
        if port.source is None:
            bus = self.nl.const_bus(port.default, width or 32)
        else:
            bus = self.port_map[id(port.source)]
        if width is None:
            return bus
        return self.fit(bus, width)

    def fit(self, bus: Net, width: int) -> Net:
        if len(bus) == width:
            return bus
        if len(bus) > width:
            return Net(bus[:width])
        return Net(list(bus) + [self._gnd] * (width - len(bus)))

    def out(self, block, port_name: str, bus: Net) -> None:
        self.port_map[id(block.outputs[port_name])] = bus

    # ------------------------------------------------------------------
    def lower(self) -> LoweredModel:
        self.model.compile()
        # Phase 1: sequential block outputs become register nets up
        # front so feedback loops resolve; also gateways and constants.
        for block in self.model.blocks:
            fn = getattr(self, f"_pre_{type(block).__name__}", None)
            if fn is not None:
                fn(block)
            elif getattr(block, "latency", 0) > 0:
                # pipelined arithmetic: its registered output bus must
                # exist before downstream combinational construction
                port_name, width = self._arith_out(block)
                self.out(block, port_name,
                         self.nl.bus(f"{block.name}_{port_name}", width))
        # Phase 2: combinational construction in schedule order, then
        # sequential block internals.
        for block in self.model._schedule or []:
            self._dispatch(block)
        for block in self.model.blocks:
            if block.sequential:
                self._dispatch(block)
        return self.lowered

    def _dispatch(self, block) -> None:
        fn = getattr(self, f"_lower_{type(block).__name__}", None)
        if fn is None:
            raise LoweringError(
                f"no RTL lowering for block type {type(block).__name__}"
            )
        fn(block)

    # ------------------------------------------------------------------
    # Pre-pass: allocate output nets of state-holding blocks
    # ------------------------------------------------------------------
    def _pre_Register(self, b: Register) -> None:
        self.out(b, "q", self.nl.bus(f"{b.name}_q", b.width, init=b.init))

    def _pre_Delay(self, b: Delay) -> None:
        self.out(b, "q", self.nl.bus(f"{b.name}_q", b.width))

    def _pre_Counter(self, b: Counter) -> None:
        self.out(b, "q", self.nl.bus(f"{b.name}_q", b.width))

    def _pre_Accumulator(self, b: Accumulator) -> None:
        self.out(b, "q", self.nl.bus(f"{b.name}_q", b.width))

    def _pre_FIFO(self, b: FIFO) -> None:
        self.out(b, "dout", self.nl.bus(f"{b.name}_dout", b.width))
        self.out(b, "empty", self.nl.bus(f"{b.name}_empty", 1, init=1))
        self.out(b, "full", self.nl.bus(f"{b.name}_full", 1))
        self.out(b, "count", self.nl.bus(f"{b.name}_count",
                                         b.depth.bit_length()))

    def _pre_RAM(self, b: RAM) -> None:
        self.out(b, "dout", self.nl.bus(f"{b.name}_dout", b.width))

    def _pre_FSLRead(self, b: FSLRead) -> None:
        self.out(b, "data", self.nl.bus(f"{b.name}_data", 32))
        self.out(b, "exists", self.nl.bus(f"{b.name}_exists", 1))
        self.out(b, "control", self.nl.bus(f"{b.name}_control", 1))

    def _pre_FSLWrite(self, b: FSLWrite) -> None:
        self.out(b, "full", self.nl.bus(f"{b.name}_full", 1))

    # ------------------------------------------------------------------
    # Combinational blocks
    # ------------------------------------------------------------------
    def _lower_Constant(self, b: Constant) -> None:
        self.out(b, "out", self.nl.const_bus(b.value, b.width))

    def _lower_GatewayIn(self, b: GatewayIn) -> None:
        bus = self.nl.bus(f"{b.name}_in", b.fmt.word_bits)
        self.lowered.inputs[b.name] = bus
        self.out(b, "out", bus)

    def _lower_GatewayOut(self, b: GatewayOut) -> None:
        bus = self.in_bus(b, "in", b.fmt.word_bits)
        self.lowered.outputs[b.name] = bus
        self.out(b, "out", bus)

    @staticmethod
    def _arith_out(block) -> tuple[str, int]:
        """(output port name, width) for a pipelined arithmetic block."""
        if isinstance(block, (Add, AddSub, Shift)):
            return "s", block.width
        if isinstance(block, Sub):
            return "d", block.width
        if isinstance(block, Negate):
            return "n", block.width
        if isinstance(block, Convert):
            return "out", block.out_fmt.word_bits
        if isinstance(block, Mult):
            return "p", block.out_width
        raise LoweringError(
            f"no pipelined lowering for {type(block).__name__}"
        )

    def _finish(self, b, port_name: str, bus: Net) -> None:
        """Install ``bus`` as the block's output, through ``latency``
        pipeline register stages (the last stage lands on the
        pre-allocated output bus)."""
        lat = getattr(b, "latency", 0)
        if lat == 0:
            self.out(b, port_name, bus)
            return
        for _ in range(lat - 1):
            bus = self.nl.register_bus(self.clk, bus)
        q = self.port_map[id(b.outputs[port_name])]
        for i, bit in enumerate(bus):
            self.nl.dff(self.clk, bit, q=q[i])

    def _lower_Add(self, b: Add) -> None:
        s = self.nl.adder(self.in_bus(b, "a", b.width),
                          self.in_bus(b, "b", b.width))
        self._finish(b, "s", s)

    def _lower_Sub(self, b: Sub) -> None:
        d = self.nl.adder(self.in_bus(b, "a", b.width),
                          self.in_bus(b, "b", b.width), sub=self._vcc)
        self._finish(b, "d", d)

    def _lower_AddSub(self, b: AddSub) -> None:
        sub = self.in_bus(b, "sub", 1)[0]
        s = self.nl.adder(self.in_bus(b, "a", b.width),
                          self.in_bus(b, "b", b.width), sub=sub)
        self._finish(b, "s", s)

    def _lower_Negate(self, b: Negate) -> None:
        inv = self.nl.invert(self.in_bus(b, "a", b.width))
        n = self.nl.adder(inv, self.nl.const_bus(0, b.width),
                          carry_in=self._vcc)
        self._finish(b, "n", n)

    def _lower_Shift(self, b: Shift) -> None:
        a = self.in_bus(b, "a", b.width)
        amt = b.amount
        if b.direction == "left":
            bus = Net([self._gnd] * min(amt, b.width) + list(a))[: b.width]
        else:
            fill = a[-1] if b.arithmetic else self._gnd
            bus = Net(list(a[amt:]) + [fill] * min(amt, b.width))[: b.width]
        self._finish(b, "s", Net(bus))

    def _lower_Mult(self, b: Mult) -> None:
        if b.width_a > 18 or b.width_b > 18:
            raise LoweringError("only single-tile (<=18x18) multipliers lower")
        p = self.nl.mult18(self.in_bus(b, "a", b.width_a),
                           self.in_bus(b, "b", b.width_b), b.out_width)
        self._finish(b, "p", p)

    def _lower_Mux(self, b: Mux) -> None:
        sel = self.in_bus(b, "sel", max(1, (b.n - 1).bit_length()))
        inputs = [self.in_bus(b, f"d{i}", b.width) for i in range(b.n)]
        self.out(b, "out", self.nl.mux_tree(sel, inputs))

    def _lower_Relational(self, b: Relational) -> None:
        a = self.in_bus(b, "a", b.width)
        c = self.in_bus(b, "b", b.width)
        op = b.op
        if op in ("eq", "ne"):
            res = self.nl.equals(a, c)
            if op == "ne":
                res = self.nl.lut([res], 0b01)
        elif op in ("lt", "ge"):
            res = self.nl.less_than(a, c, signed=b.signed)
            if op == "ge":
                res = self.nl.lut([res], 0b01)
        else:  # gt / le
            res = self.nl.less_than(c, a, signed=b.signed)
            if op == "le":
                res = self.nl.lut([res], 0b01)
        self.out(b, "out", Net([res]))

    _TRUTH = {"and": 0b1000, "or": 0b1110, "xor": 0b0110}

    def _lower_Logical(self, b: Logical) -> None:
        base = b.op.removeprefix("n") if b.op in ("nand", "nor") else (
            "xor" if b.op == "xnor" else b.op
        )
        acc = self.in_bus(b, "d0", b.width)
        for i in range(1, b.n):
            acc = self.nl.logic2(acc, self.in_bus(b, f"d{i}", b.width),
                                 self._TRUTH[base])
        if b.op in ("nand", "nor", "xnor"):
            acc = self.nl.invert(acc)
        self.out(b, "out", acc)

    def _lower_Inverter(self, b: Inverter) -> None:
        self.out(b, "out", self.nl.invert(self.in_bus(b, "a", b.width)))

    def _lower_Slice(self, b: Slice) -> None:
        a = self.in_bus(b, "a", b.msb + 1)
        self.out(b, "out", Net(a[b.lsb : b.msb + 1]))

    def _lower_Concat(self, b: Concat) -> None:
        parts = []
        for i, width in reversed(list(enumerate(b.widths))):
            parts.extend(self.in_bus(b, f"d{i}", width))
        self.out(b, "out", Net(parts))

    def _lower_Convert(self, b: Convert) -> None:
        if b.rounding is not Rounding.TRUNCATE or b.overflow is not Overflow.WRAP:
            raise LoweringError(
                "only truncate/wrap Convert blocks lower to wiring"
            )
        a = self.in_bus(b, "in")
        shift = b.in_fmt.frac_bits - b.out_fmt.frac_bits
        src = Net(a)
        if shift > 0:
            fill = src[-1] if b.in_fmt.signed else self._gnd
            src = Net(list(src[shift:]) + [fill] * shift)
        elif shift < 0:
            src = Net([self._gnd] * (-shift) + list(src))
        out_w = b.out_fmt.word_bits
        if len(src) >= out_w:
            out = Net(src[:out_w])
        else:
            fill = src[-1] if b.in_fmt.signed else self._gnd
            out = Net(list(src) + [fill] * (out_w - len(src)))
        self._finish(b, "out", out)

    def _lower_ROM(self, b: ROM) -> None:
        addr = self.in_bus(b, "addr", max(1, (len(b.contents) - 1).bit_length()))
        out = self.nl.bus(f"{b.name}_data", b.width)
        contents = b.contents

        def proc(kern: Kernel) -> None:
            a = 0
            for i, bit in enumerate(addr):
                a |= (bit.value & 1) << i
            value = contents[a % len(contents)]
            for i, bit in enumerate(out):
                kern.schedule(bit, (value >> i) & 1)

        self.kernel.process(proc, sensitive=list(addr), name=f"{b.name}_rom")
        self.kernel.initial(proc)
        self.nl.stats.macro_slices += b.resources().slices
        self.out(b, "data", out)

    # ------------------------------------------------------------------
    # Sequential blocks
    # ------------------------------------------------------------------
    def _lower_Register(self, b: Register) -> None:
        d = self.in_bus(b, "d", b.width)
        ce = self._ctl(b, "en")
        rst = self._ctl(b, "rst")
        q = self.port_map[id(b.outputs["q"])]
        for i, bit in enumerate(d):
            self.nl.dff(self.clk, bit, q=q[i], ce=ce, rst=rst,
                        init=(b.init >> i) & 1)

    def _ctl(self, b, name: str) -> Signal | None:
        port = b.inputs[name]
        if port.source is None:
            return None if port.default else self._gnd_ctl(port.default)
        return self.port_map[id(port.source)][0]

    def _gnd_ctl(self, default: int) -> Signal | None:
        # default-0 control: tie to ground only where semantics differ
        return None

    def _lower_Delay(self, b: Delay) -> None:
        d = self.in_bus(b, "d", b.width)
        q = self.port_map[id(b.outputs["q"])]
        for _ in range(b.n - 1):
            d = self.nl.register_bus(self.clk, d)
        for i, bit in enumerate(d):
            self.nl.dff(self.clk, bit, q=q[i])

    def _lower_Counter(self, b: Counter) -> None:
        q = self.port_map[id(b.outputs["q"])]
        step = self.nl.const_bus(b.step & ((1 << b.width) - 1), b.width)
        nxt = self.nl.adder(q, step)
        ce = self._ctl(b, "en")
        rst = self._ctl(b, "rst")
        for i, bit in enumerate(nxt):
            self.nl.dff(self.clk, bit, q=q[i], ce=ce, rst=rst)

    def _lower_Accumulator(self, b: Accumulator) -> None:
        q = self.port_map[id(b.outputs["q"])]
        d = self.in_bus(b, "d", b.width)
        nxt = self.nl.adder(q, d)
        ce = self._ctl(b, "en")
        rst = self._ctl(b, "rst")
        for i, bit in enumerate(nxt):
            self.nl.dff(self.clk, bit, q=q[i], ce=ce, rst=rst)

    def _lower_FIFO(self, b: FIFO) -> None:
        # Behavioral macro (SRL16/BRAM FIFO in fabric terms).
        din = self.in_bus(b, "din", b.width)
        push = self.in_bus(b, "push", 1)[0]
        pop = self.in_bus(b, "pop", 1)[0]
        dout = self.port_map[id(b.outputs["dout"])]
        empty = self.port_map[id(b.outputs["empty"])][0]
        full = self.port_map[id(b.outputs["full"])][0]
        count = self.port_map[id(b.outputs["count"])]
        state: list[int] = []
        clk = self.clk
        depth = b.depth

        def proc(kern: Kernel) -> None:
            if not kern.is_rising(clk):
                return
            if pop.value & 1 and state:
                state.pop(0)
            if push.value & 1 and len(state) < depth:
                value = 0
                for i, bit in enumerate(din):
                    value |= (bit.value & 1) << i
                state.append(value)
            head = state[0] if state else 0
            for i, bit in enumerate(dout):
                kern.schedule(bit, (head >> i) & 1)
            kern.schedule(empty, int(not state))
            kern.schedule(full, int(len(state) >= depth))
            n = len(state)
            for i, bit in enumerate(count):
                kern.schedule(bit, (n >> i) & 1)

        self.kernel.process(proc, sensitive=[clk], name=f"{b.name}_fifo")
        self.nl.stats.macro_slices += b.resources().slices

    def _lower_RAM(self, b: RAM) -> None:
        addr = self.in_bus(b, "addr", max(1, (b.depth - 1).bit_length()))
        din = self.in_bus(b, "din", b.width)
        dout = self.port_map[id(b.outputs["dout"])]
        we = self.in_bus(b, "we", 1)[0]
        mem = [0] * b.depth
        clk = self.clk
        depth = b.depth

        def proc(kern: Kernel) -> None:
            if not kern.is_rising(clk):
                return
            a = 0
            for i, bit in enumerate(addr):
                a |= (bit.value & 1) << i
            a %= depth
            if we.value & 1:
                value = 0
                for i, bit in enumerate(din):
                    value |= (bit.value & 1) << i
                mem[a] = value
            value = mem[a]
            for i, bit in enumerate(dout):
                kern.schedule(bit, (value >> i) & 1)

        self.kernel.process(proc, sensitive=[clk], name=f"{b.name}_ram")
        self.nl.stats.brams += b.resources().brams
        self.nl.stats.macro_slices += b.resources().slices

    # ------------------------------------------------------------------
    # FSL bus-functional bridges (testbench side, no fabric resources)
    # ------------------------------------------------------------------
    def _lower_FSLRead(self, b: FSLRead) -> None:
        channel = b.channel
        if channel is None:
            raise LoweringError(f"FSLRead {b.name!r} has no bound channel")
        read = self.in_bus(b, "read", 1)[0]
        data = self.port_map[id(b.outputs["data"])]
        exists = self.port_map[id(b.outputs["exists"])][0]
        control = self.port_map[id(b.outputs["control"])][0]
        clk = self.clk

        def proc(kern: Kernel) -> None:
            if not kern.is_rising(clk):
                return
            if read.value & 1 and channel.exists:
                channel.take()
            head = channel.head()  # 0 when empty
            kern.schedule(exists, head >> 33)
            kern.schedule(control, (head >> 32) & 1)
            for i, bit in enumerate(data):
                kern.schedule(bit, (head >> i) & 1)

        self.kernel.process(proc, sensitive=[clk], name=f"{b.name}_bfm")

    def _lower_FSLWrite(self, b: FSLWrite) -> None:
        channel = b.channel
        if channel is None:
            raise LoweringError(f"FSLWrite {b.name!r} has no bound channel")
        data = self.in_bus(b, "data", 32)
        write = self.in_bus(b, "write", 1)[0]
        control = self.in_bus(b, "control", 1)[0]
        full = self.port_map[id(b.outputs["full"])][0]
        clk = self.clk

        def proc(kern: Kernel) -> None:
            if not kern.is_rising(clk):
                return
            if write.value & 1:
                value = 0
                for i, bit in enumerate(data):
                    value |= (bit.value & 1) << i
                channel.push(value, bool(control.value & 1))
            kern.schedule(full, int(channel.full))

        self.kernel.process(proc, sensitive=[clk], name=f"{b.name}_bfm")


def lower_model(model: Model, kernel: Kernel, clk: Signal,
                name: str | None = None) -> LoweredModel:
    """Lower ``model`` into ``kernel``, clocked by ``clk``."""
    return _Lowerer(model, kernel, clk, name).lower()
