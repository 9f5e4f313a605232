"""FSL interface blocks — the hardware-side view of the paper's
"MicroBlaze Simulink block" FSL ports (Section III-B).

``FSLRead`` faces a processor→peripheral channel: it presents the FIFO
head on ``data``/``control`` with the ``exists`` flag (the paper's
``Out#_exists``/``Out#_control``), and consumes a word at the clock
edge when the design asserts ``read`` while data exists.

``FSLWrite`` faces a peripheral→processor channel: the design drives
``data``/``control`` and asserts ``write``; the block reports ``full``
(the paper's ``In#_full``) and pushes at the clock edge.

Both are *bound* to an :class:`~repro.bus.fsl.FSLChannel` by the
co-simulation environment (:class:`repro.cosim.mb_block.MicroBlazeBlock`),
which owns the channel objects shared with the CPU's FSL unit.
"""

from __future__ import annotations

from repro.bus.fsl import FSLChannel
from repro.resources.types import Resources
from repro.sysgen.block import IDLE_FOREVER, SeqBlock
from repro.telemetry.events import BLOCK_FIRE, TelemetryEvent


class FSLBindError(RuntimeError):
    """Raised when stepping an FSL block that has no bound channel."""


class FSLRead(SeqBlock):
    """Peripheral-side reader of a processor→peripheral FSL."""

    def __init__(self, name: str):
        super().__init__(name)
        self.add_input("read", default=0)
        self.add_output("data", 32)
        self.add_output("exists", 1)
        self.add_output("control", 1)
        self.channel: FSLChannel | None = None
        #: optional telemetry bus + cycle source (set by the attach
        #: helpers in :mod:`repro.telemetry`)
        self.events = None
        self.telemetry_clock = None

    def bind(self, channel: FSLChannel) -> None:
        self.channel = channel

    def _require(self) -> FSLChannel:
        if self.channel is None:
            raise FSLBindError(f"FSLRead {self.name!r} has no bound channel")
        return self.channel

    def present(self) -> None:
        word = self._require().peek()
        if word is None:
            self.outputs["data"].value = 0
            self.outputs["control"].value = 0
            self.outputs["exists"].value = 0
        else:
            self.outputs["data"].value = word.data
            self.outputs["control"].value = int(word.control)
            self.outputs["exists"].value = 1

    def clock(self) -> None:
        ch = self._require()
        if self.in_value("read") & 1 and ch.exists:
            ch.pop()
            if self.events is not None:
                self.events.emit(TelemetryEvent(
                    BLOCK_FIRE,
                    self.telemetry_clock() if self.telemetry_clock else 0,
                    self.name,
                ))

    def emit(self, ctx) -> bool:
        b = ctx.bind(self)
        # channel binding and telemetry attach both happen after the
        # model compiles, so fetch the channel per call and the event
        # bus per cycle — never at codegen time.
        ch = ctx.fresh(self, "channel", "ch")
        vd = ctx.out(self, "data")
        ve = ctx.out(self, "exists")
        vc = ctx.out(self, "control")
        w = ctx.tmp()
        ctx.present(f"if {ch} is None: {b}._require()")
        ctx.present(f"{w} = {ch}.peek()")
        ctx.present(
            f"if {w} is None: {vd} = 0; {vc} = 0; {ve} = 0\n"
            f"else: {vd} = {w}.data; "
            f"{vc} = 1 if {w}.control else 0; {ve} = 1"
        )
        read = ctx.inp(self, "read")
        rlit = ctx.lit(read)
        guard = (f"{ch}.exists" if rlit is not None
                 else f"({read}) & 1 and {ch}.exists")
        if rlit is None or rlit & 1:
            # a word would be consumed at the next edge
            ctx.busy_if(f"{ch} is None", guard)
        else:
            ctx.busy_if(f"{ch} is None")
        ctx.horizon(
            f"{w} = {ch}.peek()\n"
            f"if {w} is None:\n"
            f"    if {vd} != 0 or {vc} != 0 or {ve} != 0: return 0\n"
            f"elif ({vd} != {w}.data or {vc} != int({w}.control)"
            f" or {ve} != 1): return 0"
        )
        if rlit is not None and not (rlit & 1):
            return True
        te = ctx.bind(TelemetryEvent, "TE")
        bf = ctx.bind(BLOCK_FIRE, "BF")
        ctx.clock(
            f"if {guard}:\n"
            f"    {ch}.pop()\n"
            f"    if {b}.events is not None:\n"
            f"        {b}.events.emit({te}({bf}, {b}.telemetry_clock() "
            f"if {b}.telemetry_clock else 0, {self.name!r}))"
        )
        return True

    def idle_horizon(self) -> int:
        ch = self.channel
        if ch is None:
            return 0
        if self.in_value("read") & 1 and ch.exists:
            return 0  # a word would be consumed at the next edge
        word = ch.peek()
        outs = self.outputs
        if word is None:
            settled = (outs["data"].value == 0 and outs["control"].value == 0
                       and outs["exists"].value == 0)
        else:
            settled = (outs["data"].value == word.data
                       and outs["control"].value == int(word.control)
                       and outs["exists"].value == 1)
        return IDLE_FOREVER if settled else 0

    def resources(self) -> Resources:
        return Resources(slices=4)  # handshake decode logic


class FSLWrite(SeqBlock):
    """Peripheral-side writer of a peripheral→processor FSL."""

    def __init__(self, name: str):
        super().__init__(name)
        self.add_input("data")
        self.add_input("write", default=0)
        self.add_input("control", default=0)
        self.add_output("full", 1)
        self.channel: FSLChannel | None = None
        self.dropped = 0  # writes attempted while full
        #: optional telemetry bus + cycle source (set by the attach
        #: helpers in :mod:`repro.telemetry`)
        self.events = None
        self.telemetry_clock = None

    def bind(self, channel: FSLChannel) -> None:
        self.channel = channel

    def _require(self) -> FSLChannel:
        if self.channel is None:
            raise FSLBindError(f"FSLWrite {self.name!r} has no bound channel")
        return self.channel

    def present(self) -> None:
        self.outputs["full"].value = int(self._require().full)

    def clock(self) -> None:
        ch = self._require()
        if self.in_value("write") & 1:
            ok = ch.push(self.in_value("data"), bool(self.in_value("control") & 1))
            if not ok:
                self.dropped += 1
            if self.events is not None:
                self.events.emit(TelemetryEvent(
                    BLOCK_FIRE,
                    self.telemetry_clock() if self.telemetry_clock else 0,
                    self.name,
                    aux=0 if ok else 1,
                ))

    def emit(self, ctx) -> bool:
        b = ctx.bind(self)
        ch = ctx.fresh(self, "channel", "ch")
        ctx.present(f"if {ch} is None: {b}._require()")
        ctx.present(f"{ctx.out(self, 'full')} = 1 if {ch}.full else 0")
        write = ctx.inp(self, "write")
        wlit = ctx.lit(write)
        # a push (or a counted drop) happens at every enabled edge
        if wlit is None:
            ctx.busy_if(f"{ch} is None", f"({write}) & 1")
        elif wlit & 1:
            ctx.horizon("return 0")
        else:
            ctx.busy_if(f"{ch} is None")
        ctx.busy_if(f"{ctx.out(self, 'full')} != int({ch}.full)")
        if wlit is not None and not (wlit & 1):
            return True
        data = ctx.inp(self, "data")
        control = ctx.inp(self, "control")
        clit = ctx.lit(control)
        ctrl = (repr(bool(clit & 1)) if clit is not None
                else f"bool(({control}) & 1)")
        drop = ctx.state_slot(self, "dropped")
        te = ctx.bind(TelemetryEvent, "TE")
        bf = ctx.bind(BLOCK_FIRE, "BF")
        ok = ctx.tmp()
        body = (
            f"{ok} = {ch}.push({data}, {ctrl})\n"
            f"if not {ok}: {drop} = {drop} + 1\n"
            f"if {b}.events is not None:\n"
            f"    {b}.events.emit({te}({bf}, {b}.telemetry_clock() "
            f"if {b}.telemetry_clock else 0, {self.name!r}, "
            f"aux=0 if {ok} else 1))"
        )
        if wlit is not None:
            ctx.clock(body)
        else:
            indented = "\n".join("    " + ln for ln in body.split("\n"))
            ctx.clock(f"if ({write}) & 1:\n{indented}")
        return True

    def reset(self) -> None:
        super().reset()
        self.dropped = 0

    def extra_state(self) -> dict:
        # The bound channel is owned (and checkpointed) by the
        # MicroBlazeBlock; only the drop counter lives here.
        return {"dropped": self.dropped}

    def load_extra_state(self, extra: dict) -> None:
        self.dropped = extra["dropped"]

    def idle_horizon(self) -> int:
        ch = self.channel
        if ch is None:
            return 0
        if self.in_value("write") & 1:
            return 0  # a push (or a counted drop) happens every edge
        if self.outputs["full"].value == int(ch.full):
            return IDLE_FOREVER
        return 0

    def resources(self) -> Resources:
        return Resources(slices=4)
