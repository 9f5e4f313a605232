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

In the lockstep schedule (:mod:`repro.sysgen.batched`) each lane's
channel stays the one source of truth, shared with that lane's CPU, the
fault injector, checkpoints and telemetry.  The vector endpoint keeps a
lane array mirroring what the channel presents (the head word; the
``full`` flag) and drives its ports from it under the active-lane mask.
Per step only lanes whose FIFO head word (reader) or occupancy
(writer) moved since the last present are rewritten, and only lanes
that pop, push or drop a word at the edge run per-lane python: the
transfer itself is ``pop()``/``push()`` on the lane's channel, so
channel statistics, drop counters and telemetry events are those of a
scalar run.  The idle rule is the scalar one, read off the port arrays:
a reader is busy while ``read`` and ``exists`` are both high, a writer
while ``write`` is (a push or a counted drop at the next edge).  The
rest of the scalar rule compares the ports with the channel, and within
one step only the endpoint's own transfer can move the channel.
"""

from __future__ import annotations

from repro.bus.fsl import FSLChannel
from repro.resources.types import Resources
from repro.sysgen.batched import np
from repro.sysgen.block import IDLE_FOREVER, SeqBlock
from repro.telemetry.events import BLOCK_FIRE, TelemetryEvent


class FSLBindError(RuntimeError):
    """Raised when stepping an FSL block that has no bound channel."""


def _lane_channels(ctx, lanes: list) -> tuple[str, str, str]:
    """Names of the bound lane clones and of two per-call locals: each
    lane's channel and its FIFO deque.  Binding happens after the
    schedule compiles, so both are fetched at every call entry; an
    active lane without a channel raises :class:`FSLBindError`.  The
    deque is read directly so that one list comprehension compares
    every lane's head word or occupancy per step."""
    fb = ctx.bind(lanes, "fb")
    ch, q = ctx.tmp(), ctx.tmp()
    ctx.entry(f"{ch} = [b.channel for b in {fb}]\n"
              f"if None in {ch}:\n"
              f"    for _l in {ctx.lanes}: {fb}[_l]._require()")
    ctx.entry(f"{q} = [() if c is None else c._fifo for c in {ch}]")
    return fb, ch, q


def _mirror(ctx, now: str, cache: str, update: str) -> None:
    """The present of a vector endpoint: ``now`` (a list comprehension
    over every lane) is compared with the bound ``cache`` list, and for
    each active lane whose entry changed the cache takes the new entry
    ``_w`` and ``update`` (python over lane ``_l``) rewrites that lane
    of the mirror array."""
    cur = ctx.tmp()
    ctx.present(f"{cur} = {now}\n"
                f"if {cur} != {cache}:\n"
                f"    for _l in {ctx.lanes}:\n"
                f"        _w = {cur}[_l]\n"
                f"        if _w != {cache}[_l]:\n"
                f"            {cache}[_l] = _w\n"
                f"            {update}")


def _lane_transfers(ctx, flag: str, test: str, body: str) -> None:
    """The edge of a vector endpoint: ``body`` (python over lane
    ``_l``) runs for each active lane whose input ``flag`` (a port
    array, or a literal) has bit 0 set and for which ``test`` holds."""
    lit = ctx.lit(flag)
    pick = ""
    conds = [test] if test else []
    if lit is None:
        bits = ctx.tmp()
        pick = f"{bits} = ({flag}).tolist()\n"
        conds.insert(0, f"{bits}[_l] & 1")
    lanes = (f"[_l for _l in {ctx.lanes} if {' and '.join(conds)}]"
             if conds else ctx.lanes)
    indented = "\n".join("    " + ln for ln in body.split("\n"))
    ctx.clock(f"{pick}for _l in {lanes}:\n{indented}")


def _fire(ctx, b: str, name: str, aux: str = "") -> str:
    """Python emitting a ``BLOCK_FIRE`` event for clone ``b`` when a
    telemetry bus is attached to it."""
    te = ctx.bind(TelemetryEvent, "TE")
    bf = ctx.bind(BLOCK_FIRE, "BF")
    return (f"if {b}.events is not None:\n"
            f"    {b}.events.emit({te}({bf}, {b}.telemetry_clock() "
            f"if {b}.telemetry_clock else 0, {name!r}{aux}))")


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
        fire = _fire(ctx, b, self.name).replace("\n", "\n    ")
        ctx.clock(f"if {guard}:\n    {ch}.pop()\n    {fire}")
        return True

    def emit_batched(self, ctx) -> bool:
        lanes = ctx.lane_blocks(self)
        fb, ch, q = _lane_channels(ctx, lanes)
        # the head word each lane's mirror holds (compared by value:
        # the ports depend on nothing else); the mirror packs
        # data | control << 32 | exists << 33
        heads: list = [None] * ctx.n
        hh = ctx.bind(heads, "hh")

        def load_mirror():
            heads[:] = [None if b.channel is None else b.channel.peek()
                        for b in lanes]
            return np.fromiter(
                (0 if w is None else w.data | w.control << 32 | 1 << 33
                 for w in heads), np.int64, ctx.n)

        hm = ctx.state(load_mirror, "hm")
        _mirror(ctx, f"[q[0] if q else None for q in {q}]", hh,
                f"{hm}[_l] = 0 if _w is None else "
                f"_w.data | _w.control << 32 | {1 << 33}")
        ctx.drive(ctx.out(self, "data"), f"{hm} & {0xFFFFFFFF}")
        ctx.drive(ctx.out(self, "control"), f"({hm} >> 32) & 1")
        exists = ctx.out(self, "exists")
        ctx.drive(exists, f"{hm} >> 33")
        read = ctx.inp(self, "read")
        rflag = ctx.flag(read)
        if rflag == "0":
            return True
        ctx.busy_if(exists if rflag == "1" else f"{rflag} & {exists}")
        _lane_transfers(ctx, read, f"{q}[_l]",
                        f"{ch}[_l].pop()\n"
                        f"_b = {fb}[_l]\n" + _fire(ctx, "_b", self.name))
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

    def emit_batched(self, ctx) -> bool:
        lanes = ctx.lane_blocks(self)
        fb, ch, q = _lane_channels(ctx, lanes)
        # the occupancy behind each lane's mirrored ``full`` flag, and
        # the channels it was read from: a rebound channel may have
        # another depth, so its lanes are re-read
        occupancy = [0] * ctx.n
        oc = ctx.bind(occupancy, "oc")
        seen = ctx.bind([None] * ctx.n, "cs")
        ctx.entry(f"if {ch} != {seen}:\n"
                  f"    {seen}[:] = {ch}\n"
                  f"    {oc}[:] = [-1] * {ctx.n}")

        def load_mirror():
            occupancy[:] = [0 if b.channel is None else len(b.channel)
                            for b in lanes]
            return np.fromiter(
                (b.channel is not None and b.channel.full for b in lanes),
                np.int64, ctx.n)

        fm = ctx.state(load_mirror, "fm")
        _mirror(ctx, f"[len(q) for q in {q}]", oc,
                f"{fm}[_l] = 1 if {ch}[_l].full else 0")
        ctx.drive(ctx.out(self, "full"), fm)
        write = ctx.inp(self, "write")
        wflag = ctx.flag(write)
        if wflag == "0":
            return True
        ctx.busy_if(wflag)
        data = ctx.inp(self, "data")
        if ctx.lit(data) is None:
            data = f"int({data}[_l])"
        control = ctx.inp(self, "control")
        clit = ctx.lit(control)
        ctrl = (repr(bool(clit & 1)) if clit is not None
                else f"bool({control}[_l] & 1)")
        ok = ctx.tmp()
        _lane_transfers(ctx, write, "",
                        f"{ok} = {ch}[_l].push({data}, {ctrl})\n"
                        f"_b = {fb}[_l]\n"
                        f"if not {ok}: _b.dropped += 1\n"
                        + _fire(ctx, "_b", self.name,
                                f", aux=0 if {ok} else 1"))
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
