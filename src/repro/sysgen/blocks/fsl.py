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

In the lockstep schedule (:mod:`repro.sysgen.batched`) an endpoint's
lanes keep their channel state where the channels keep it.  Each lane
of a batch brings a channel set, keyed by endpoint block name, so the
endpoint finds the channel each lane moves whether or not the lane has
a model of its own.  When the schedule loads, the endpoint copies each
lane's channel row (:mod:`repro.bus.fsl`) into one ``(N, W)`` lane
table (``W`` fits the deepest lane) and each channel adopts its row of
that table, so the lane's CPU, the fault injector and checkpoints read
and write the very cells the vector endpoint does.  The present
gathers the head word and the count; the edge updates head, count,
ring word and counters with masked scatters — the FIFO ring idiom of
:mod:`repro.sysgen.blocks.memory`.
A lane whose endpoint or channel carries an event bus when the
schedule is built, or has no channel, or a channel another endpoint
also holds, makes the endpoint fall back per lane: the clones' own
``present``/``clock`` then emit every ``BLOCK_FIRE``/``FSL_PUSH``/
``FSL_POP`` event and raise :class:`FSLBindError` exactly as a scalar
run does.  The idle rule is the scalar one, read off the port arrays:
a reader is busy while ``read`` and ``exists`` are both high, a writer
while ``write`` is (a push or a counted drop at the next edge).  The
rest of the scalar rule compares the ports with the channel, and
within one step only the endpoint's own transfer can move the channel.
"""

from __future__ import annotations

from collections import Counter

from repro.bus.fsl import (
    COUNT, DEPTH, HEAD, MAX_OCCUPANCY, POPPED, PUSH_REJECTS, PUSHED, RING,
    FSLChannel, row_width,
)
from repro.resources.types import Resources
from repro.sysgen.batched import np
from repro.sysgen.block import IDLE_FOREVER, SeqBlock
from repro.telemetry.events import BLOCK_FIRE, TelemetryEvent

_MASK = 0xFFFFFFFF


class FSLBindError(RuntimeError):
    """Raised when stepping an FSL block that has no bound channel."""


def _lane_table(ctx, block) -> str | None:
    """The lane table of a vector endpoint (see the module docstring),
    or None when the endpoint must fall back per lane."""
    lanes = ctx.lane_blocks(block)
    # each lane's channel set names the channel its endpoint moves
    channels = [lane.get(block.name) for lane in ctx.channels]
    if any(ch is None or ch.events is not None or b.events is not None
           for b, ch in zip(lanes, channels)):
        return None
    held = Counter(id(ch) for lane in ctx.channels for ch in lane.values())
    if any(held[id(ch)] > 1 for ch in channels):
        return None
    width = max(row_width(ch.depth) for ch in channels)

    def load():
        table = np.zeros((len(channels), width), np.int64)
        for lane, ch in enumerate(channels):
            ch.adopt(table[lane])
        return table

    return ctx.table(load, width, "fq")


class _Endpoint(SeqBlock):
    """The channel binding and telemetry hooks both endpoints share."""

    def __init__(self, name: str):
        super().__init__(name)
        self.channel: FSLChannel | None = None
        #: optional telemetry bus + cycle source (set by the attach
        #: helpers in :mod:`repro.telemetry`)
        self.events = None
        self.telemetry_clock = None

    def bind(self, channel: FSLChannel) -> None:
        self.channel = channel

    def _require(self) -> FSLChannel:
        if self.channel is None:
            raise FSLBindError(f"{type(self).__name__} {self.name!r} "
                               "has no bound channel")
        return self.channel

    def _fire(self, aux: int = 0) -> None:
        """Emit ``BLOCK_FIRE`` (``events`` is set)."""
        self.events.emit(TelemetryEvent(
            BLOCK_FIRE, self.telemetry_clock() if self.telemetry_clock else 0,
            self.name, aux=aux))

    def resources(self) -> Resources:
        return Resources(slices=4)  # handshake decode logic


class FSLRead(_Endpoint):
    """Peripheral-side reader of a processor→peripheral FSL."""

    def __init__(self, name: str):
        super().__init__(name)
        self.add_input("read", default=0)
        self.add_output("data", 32)
        self.add_output("exists", 1)
        self.add_output("control", 1)

    def present(self) -> None:
        word = self._require().head()
        self.outputs["data"].value = word & _MASK
        self.outputs["control"].value = (word >> 32) & 1
        self.outputs["exists"].value = word >> 33

    def clock(self) -> None:
        ch = self._require()
        if self.in_value("read") & 1 and ch.exists:
            ch.take()
            if self.events is not None:
                self._fire()

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
        ctx.present(f"{w} = {ch}.head()")
        ctx.present(f"{vd} = {w} & {_MASK}; {vc} = ({w} >> 32) & 1; "
                    f"{ve} = {w} >> 33")
        read = ctx.inp(self, "read")
        rlit = ctx.lit(read)
        guard = (f"{ch}.exists" if rlit is not None
                 else f"({read}) & 1 and {ch}.exists")
        if rlit is None or rlit & 1:
            # a word would be consumed at the next edge
            ctx.busy_if(f"{ch} is None", guard)
        else:
            ctx.busy_if(f"{ch} is None")
        ctx.horizon(f"{w} = {ch}.head()\n"
                    f"if {vd} != {w} & {_MASK} or {vc} != ({w} >> 32) & 1"
                    f" or {ve} != {w} >> 33: return 0")
        if rlit is not None and not (rlit & 1):
            return True
        ctx.clock(f"if {guard}:\n    {ch}.take()\n"
                  f"    if {b}.events is not None: {b}._fire()")
        return True

    def emit_batched(self, ctx) -> bool:
        fq = _lane_table(ctx, self)
        if fq is None:
            return False
        count, head = ctx.cell(fq, COUNT), ctx.cell(fq, HEAD)
        word = ctx.tmp()  # what FSLChannel.head() gives
        ctx.present(f"{word} = " + ctx.where(
            f"{count} > 0", f"{ctx.cell(fq, f'{RING} + {head}')} | {1 << 33}",
            "0"))
        ctx.drive(ctx.out(self, "data"), f"{word} & {_MASK}")
        ctx.drive(ctx.out(self, "control"), f"({word} >> 32) & 1")
        exists = ctx.out(self, "exists")
        ctx.drive(exists, f"{word} >> 33")
        rflag = ctx.flag(ctx.inp(self, "read"))
        if rflag == "0":
            return True
        ctx.busy_if(exists if rflag == "1" else f"{rflag} & {exists}")
        pop = ctx.tmp()
        ctx.clock(f"{pop} = {ctx.act} & ({count} > 0)"
                  + ("" if rflag == "1" else f" & {rflag}"))
        ctx.clock(ctx.scatter(fq, pop, HEAD, ctx.mod(
            f"{head} + 1", f"2 * {ctx.cell(fq, DEPTH)}")))
        ctx.clock(ctx.scatter(fq, pop, COUNT, f"{count} - 1"))
        ctx.clock(ctx.scatter(fq, pop, POPPED,
                              f"{ctx.cell(fq, POPPED)} + 1"))
        return True

    def idle_horizon(self) -> int:
        ch = self.channel
        if ch is None:
            return 0
        if self.in_value("read") & 1 and ch.exists:
            return 0  # a word would be consumed at the next edge
        word, outs = ch.head(), self.outputs
        settled = (outs["data"].value == word & _MASK
                   and outs["control"].value == (word >> 32) & 1
                   and outs["exists"].value == word >> 33)
        return IDLE_FOREVER if settled else 0


class FSLWrite(_Endpoint):
    """Peripheral-side writer of a peripheral→processor FSL."""

    def __init__(self, name: str):
        super().__init__(name)
        self.add_input("data")
        self.add_input("write", default=0)
        self.add_input("control", default=0)
        self.add_output("full", 1)
        self.dropped = 0  # writes attempted while full

    def present(self) -> None:
        self.outputs["full"].value = int(self._require().full)

    def clock(self) -> None:
        ch = self._require()
        if self.in_value("write") & 1:
            ok = ch.push(self.in_value("data"), bool(self.in_value("control") & 1))
            if not ok:
                self.dropped += 1
            if self.events is not None:
                self._fire(0 if ok else 1)

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
        control = ctx.inp(self, "control")
        clit = ctx.lit(control)
        ctrl = (repr(bool(clit & 1)) if clit is not None
                else f"bool(({control}) & 1)")
        drop = ctx.state_slot(self, "dropped")
        ok = ctx.tmp()
        body = (f"{ok} = {ch}.push({ctx.inp(self, 'data')}, {ctrl})\n"
                f"if not {ok}: {drop} = {drop} + 1\n"
                f"if {b}.events is not None: {b}._fire(0 if {ok} else 1)")
        if wlit is None:
            body = f"if ({write}) & 1:\n    " + body.replace("\n", "\n    ")
        ctx.clock(body)
        return True

    def emit_batched(self, ctx) -> bool:
        fq = _lane_table(ctx, self)
        if fq is None:
            return False
        depth = ctx.cell(fq, DEPTH)
        ctx.drive(ctx.out(self, "full"),
                  ctx.as_int(f"{ctx.cell(fq, COUNT)} >= {depth}"))
        wflag = ctx.flag(ctx.inp(self, "write"))
        if wflag == "0":
            return True
        ctx.busy_if(wflag)
        fire = ctx.act if wflag == "1" else f"{ctx.act} & {wflag}"
        count, ok, drop = ctx.tmp(), ctx.tmp(), ctx.tmp()
        ctx.clock(f"{count} = {ctx.cell(fq, COUNT)}")
        ctx.clock(f"{ok} = {fire} & ({count} < {depth})")
        ctx.clock(f"{drop} = {fire} & ({count} >= {depth})")
        word = (f"(({ctx.inp(self, 'data')}) & {_MASK})"
                f" | ((({ctx.inp(self, 'control')}) & 1) << 32)")
        tail = ctx.mod(f"{ctx.cell(fq, HEAD)} + {count}", f"2 * {depth}")
        ctx.clock(ctx.scatter(fq, ok, f"{RING} + {tail}", word))
        ctx.clock(ctx.scatter(fq, ok, COUNT, f"{count} + 1"))
        ctx.clock(ctx.scatter(fq, ok, PUSHED, f"{ctx.cell(fq, PUSHED)} + 1"))
        peak = ctx.cell(fq, MAX_OCCUPANCY)
        ctx.clock(ctx.scatter(fq, ok, MAX_OCCUPANCY, ctx.where(
            f"{count} >= {peak}", f"{count} + 1", peak)))
        ctx.clock(ctx.scatter(fq, drop, PUSH_REJECTS,
                              f"{ctx.cell(fq, PUSH_REJECTS)} + 1"))
        dropped = ctx.state_slot(self, "dropped", "dr")
        ctx.clock(f"{dropped} = " + ctx.where(drop, f"{dropped} + 1",
                                              dropped))
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
