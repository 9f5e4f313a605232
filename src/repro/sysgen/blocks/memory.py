"""State-holding blocks: registers, delays, FIFOs, ROM/RAM."""

from __future__ import annotations

from collections import deque

from repro.resources.types import Resources
from repro.sysgen.batched import np
from repro.sysgen.block import (
    IDLE_FOREVER,
    CombBlock,
    SeqBlock,
    slices_for_bits,
    wrap,
)


class Register(SeqBlock):
    """D-type register with optional enable and synchronous reset."""

    def __init__(self, name: str, width: int = 32, init: int = 0):
        super().__init__(name)
        self.width = width
        self.init = wrap(init, width)
        self.add_input("d")
        self.add_input("en", default=1)
        self.add_input("rst", default=0)
        self.add_output("q", width)
        self._state = self.init

    def present(self) -> None:
        self.outputs["q"].value = self._state

    def clock(self) -> None:
        if self.in_value("rst") & 1:
            self._state = self.init
        elif self.in_value("en") & 1:
            self._state = wrap(self.in_value("d"), self.width)

    def emit(self, ctx) -> bool:
        st = ctx.state_slot(self, "_state", "rg")
        init = ctx.param(self, "init", "kr")
        q = ctx.out(self, "q")
        ctx.drive(q, st)
        ctx.update(q, st, ctx.inp(self, "rst"), ctx.inp(self, "en"), init,
                   f"({ctx.inp(self, 'd')}) & {(1 << self.width) - 1}")
        return True

    emit_batched = emit

    def reset(self) -> None:
        super().reset()
        self._state = self.init

    def idle_horizon(self) -> int:
        if self.in_value("rst") & 1:
            next_state = self.init
        elif self.in_value("en") & 1:
            next_state = wrap(self.in_value("d"), self.width)
        else:
            next_state = self._state
        if next_state == self._state and self.outputs["q"].value == self._state:
            return IDLE_FOREVER
        return 0

    def extra_state(self) -> dict:
        return {"state": self._state}

    def load_extra_state(self, extra: dict) -> None:
        self._state = extra["state"]

    def resources(self) -> Resources:
        return Resources(slices=slices_for_bits(self.width))


class Delay(SeqBlock):
    """``n``-cycle delay line (SRL16-style shift register)."""

    def __init__(self, name: str, width: int = 32, n: int = 1):
        super().__init__(name)
        if n < 1:
            raise ValueError("delay length must be >= 1")
        self.width = width
        self.n = n
        self.add_input("d")
        self.add_output("q", width)
        self._line: deque[int] = deque([0] * n)

    def present(self) -> None:
        self.outputs["q"].value = self._line[0]

    def clock(self) -> None:
        self._line.popleft()
        self._line.append(wrap(self.in_value("d"), self.width))

    def emit(self, ctx) -> bool:
        line = ctx.fresh(self, "_line", "dq")
        pop = ctx.tmp()
        app = ctx.tmp()
        ctx.entry(f"{pop} = {line}.popleft")
        ctx.entry(f"{app} = {line}.append")
        ctx.drive(ctx.out(self, "q"), f"{line}[0]")
        ctx.clock(f"{pop}()")
        ctx.clock(
            f"{app}(({ctx.inp(self, 'd')}) & {(1 << self.width) - 1})"
        )
        head = ctx.tmp()
        ctx.horizon(f"{head} = {line}[0]")
        ctx.busy_if(
            f"{ctx.out(self, 'q')} != {head}",
            f"(({ctx.inp(self, 'd')}) & {(1 << self.width) - 1}) != {head}",
            f"{line}.count({head}) != len({line})",
        )
        return True

    def emit_batched(self, ctx) -> bool:
        # circular table, like FIFO's: the oldest word sits at the head,
        # and a clock edge overwrites it with the new word and advances
        # the head.  The clone deques load at head 0.
        lanes = ctx.lane_blocks(self)
        n = self.n
        line = ctx.table(
            lambda: np.array([list(b._line) for b in lanes], dtype=np.int64),
            n, "dl")
        head = ctx.state(lambda: np.zeros(len(lanes), dtype=np.int64),
                         "dh")

        def write_back(clone, lane, get):
            row = get(line)[lane].tolist()
            first = int(get(head)[lane])
            clone._line.clear()
            clone._line.extend(row[first:] + row[:first])

        ctx.write_back(self, write_back)
        act = ctx.act
        q = ctx.out(self, "q")
        ctx.drive(q, ctx.cell(line, head))
        ctx.clock(ctx.scatter(
            line, act, head,
            f"({ctx.inp(self, 'd')}) & {(1 << self.width) - 1}"))
        ctx.clock(f"{head} = " + ctx.where(act, ctx.mod(f"{head} + 1", n),
                                           head))
        # the scalar rule over the new line: busy unless ``q`` and every
        # word equal the oldest (``d`` is the newest word, so it is
        # among them)
        oldest = ctx.tmp()
        ctx.clock(f"{oldest} = {ctx.cell(line, head)}")
        ctx.busy_if(f"{q} != {oldest}",
                    *(f"{ctx.cell(line, i)} != {oldest}" for i in range(n)))
        return True

    def reset(self) -> None:
        super().reset()
        self._line = deque([0] * self.n)

    def idle_horizon(self) -> int:
        head = self._line[0]
        if self.outputs["q"].value != head:
            return 0
        if wrap(self.in_value("d"), self.width) != head:
            return 0
        if any(v != head for v in self._line):
            return 0
        return IDLE_FOREVER

    def extra_state(self) -> dict:
        return {"line": list(self._line)}

    def load_extra_state(self, extra: dict) -> None:
        self._line = deque(extra["line"])

    def resources(self) -> Resources:
        # SRL16: one LUT per bit per 16 stages.
        luts = self.width * ((self.n + 15) // 16)
        return Resources(slices=(luts + 1) // 2)


class FIFO(SeqBlock):
    """Synchronous FIFO with registered status flags.

    Ports: ``din``/``push`` write side, ``dout``/``pop`` read side,
    ``empty``/``full``/``count`` status.  ``dout`` presents the head
    word; a ``pop`` with ``empty`` high or ``push`` with ``full`` high
    is ignored (as in the Xilinx FSL FIFO macro).
    """

    def __init__(self, name: str, width: int = 32, depth: int = 16):
        super().__init__(name)
        if depth < 1:
            raise ValueError("FIFO depth must be >= 1")
        self.width = width
        self.depth = depth
        self.add_input("din")
        self.add_input("push", default=0)
        self.add_input("pop", default=0)
        self.add_output("dout", width)
        self.add_output("empty", 1)
        self.add_output("full", 1)
        self.add_output("count", depth.bit_length())
        self._fifo: deque[int] = deque()

    def present(self) -> None:
        self.outputs["dout"].value = self._fifo[0] if self._fifo else 0
        self.outputs["empty"].value = int(not self._fifo)
        self.outputs["full"].value = int(len(self._fifo) >= self.depth)
        self.outputs["count"].value = len(self._fifo)

    def clock(self) -> None:
        if self.in_value("pop") & 1 and self._fifo:
            self._fifo.popleft()
        if self.in_value("push") & 1 and len(self._fifo) < self.depth:
            self._fifo.append(wrap(self.in_value("din"), self.width))

    def emit(self, ctx) -> bool:
        fifo = ctx.fresh(self, "_fifo", "fq")
        ctx.drive(ctx.out(self, "dout"), f"{fifo}[0] if {fifo} else 0")
        ctx.drive(ctx.out(self, "empty"), f"0 if {fifo} else 1")
        ctx.drive(ctx.out(self, "full"),
                  f"1 if len({fifo}) >= {self.depth} else 0")
        ctx.drive(ctx.out(self, "count"), f"len({fifo})")
        pop = ctx.inp(self, "pop")
        plit = ctx.lit(pop)
        if plit is None:
            ctx.clock(f"if ({pop}) & 1 and {fifo}: {fifo}.popleft()")
        elif plit & 1:
            ctx.clock(f"if {fifo}: {fifo}.popleft()")
        push = ctx.inp(self, "push")
        din = f"({ctx.inp(self, 'din')}) & {(1 << self.width) - 1}"
        slit = ctx.lit(push)
        if slit is None:
            ctx.clock(f"if ({push}) & 1 and len({fifo}) < {self.depth}: "
                      f"{fifo}.append({din})")
        elif slit & 1:
            ctx.clock(f"if len({fifo}) < {self.depth}: {fifo}.append({din})")
        if plit is None:
            ctx.busy_if(f"({pop}) & 1 and {fifo}")
        elif plit & 1:
            ctx.busy_if(fifo)
        if slit is None:
            ctx.busy_if(f"({push}) & 1 and len({fifo}) < {self.depth}")
        elif slit & 1:
            ctx.busy_if(f"len({fifo}) < {self.depth}")
        ctx.busy_if(
            f"{ctx.out(self, 'dout')} != ({fifo}[0] if {fifo} else 0)",
            f"{ctx.out(self, 'empty')} != (0 if {fifo} else 1)",
            f"{ctx.out(self, 'full')} != "
            f"(1 if len({fifo}) >= {self.depth} else 0)",
            f"{ctx.out(self, 'count')} != len({fifo})",
        )
        return True

    def emit_batched(self, ctx) -> bool:
        # circular-buffer vectorization: (N, depth) storage plus head
        # and count arrays.  The clone deques are flattened to head 0
        # on (re)load.  Pop advances head before push computes its slot
        # (a push sees the post-pop count, as in clock()).
        lanes = ctx.lane_blocks(self)
        n, depth = ctx.n, self.depth

        def load_storage():
            arr = np.zeros((n, depth), dtype=np.int64)
            for lane, b in enumerate(lanes):
                for i, v in enumerate(b._fifo):
                    arr[lane, i] = v
            return arr

        store = ctx.table(load_storage, depth, "fs")
        head = ctx.state(lambda: np.zeros(n, dtype=np.int64), "fh")
        cnt = ctx.state(
            lambda: np.fromiter((len(b._fifo) for b in lanes),
                                np.int64, n), "fc")

        def write_back(clone, lane, get):
            first = int(get(head)[lane])
            words = get(store)[lane].tolist()
            fifo = clone._fifo
            fifo.clear()
            fifo.extend(words[(first + i) % depth]
                        for i in range(int(get(cnt)[lane])))

        ctx.write_back(self, write_back)
        ctx.drive(ctx.out(self, "dout"),
                  ctx.where(f"{cnt} > 0", ctx.cell(store, head), "0"))
        ctx.drive(ctx.out(self, "empty"), ctx.as_int(f"{cnt} == 0"))
        ctx.drive(ctx.out(self, "full"), ctx.as_int(f"{cnt} >= {depth}"))
        ctx.drive(ctx.out(self, "count"), cnt)
        act = ctx.act
        popf = ctx.flag(ctx.inp(self, "pop"))
        pushf = ctx.flag(ctx.inp(self, "push"))
        after = cnt
        if popf != "0":
            t_pop = ctx.tmp()
            after = ctx.tmp()
            guard = f"{act} & ({cnt} > 0)" if popf == "1" \
                else f"{act} & {popf} & ({cnt} > 0)"
            ctx.clock(f"{t_pop} = {guard}")
            ctx.clock(f"{after} = {cnt} - {t_pop}")
            ctx.clock(f"{head} = " + ctx.where(
                t_pop, ctx.mod(f"{head} + 1", depth), head))
        if pushf != "0":
            t_push = ctx.tmp()
            guard = f"{act} & ({after} < {depth})" if pushf == "1" \
                else f"{act} & {pushf} & ({after} < {depth})"
            ctx.clock(f"{t_push} = {guard}")
            ctx.clock(ctx.scatter(
                store, t_push, f"{head} + {after}",
                f"({ctx.inp(self, 'din')}) & {(1 << self.width) - 1}"))
            ctx.clock(f"{cnt} = {after} + {t_push}")
        elif popf != "0":
            ctx.clock(f"{cnt} = {after}")
        # the scalar rule over the new count.  This cycle's ports show
        # the old state, which differs from the new one only after a
        # transfer; one that kept the count was a pop and a push, and
        # the held ``pop`` keeps the block busy then anyway.
        for flag, room in ((popf, f"{cnt} > 0"), (pushf, f"{cnt} < {depth}")):
            if flag != "0":
                ctx.busy_if(room if flag == "1" else f"{flag} & ({room})")
        ctx.busy_if(f"{ctx.out(self, 'count')} != {cnt}")
        return True

    def reset(self) -> None:
        super().reset()
        self._fifo.clear()

    def idle_horizon(self) -> int:
        if self.in_value("pop") & 1 and self._fifo:
            return 0
        if self.in_value("push") & 1 and len(self._fifo) < self.depth:
            return 0
        outs = self.outputs
        if (
            outs["dout"].value == (self._fifo[0] if self._fifo else 0)
            and outs["empty"].value == int(not self._fifo)
            and outs["full"].value == int(len(self._fifo) >= self.depth)
            and outs["count"].value == len(self._fifo)
        ):
            return IDLE_FOREVER
        return 0

    def extra_state(self) -> dict:
        return {"fifo": list(self._fifo)}

    def load_extra_state(self, extra: dict) -> None:
        self._fifo = deque(extra["fifo"])

    def resources(self) -> Resources:
        if self.depth * self.width > 4096:  # BRAM-based beyond ~4 kbit
            return Resources(slices=16, brams=(self.depth * self.width + 18_431)
                             // 18_432)
        luts = self.width * ((self.depth + 15) // 16)
        return Resources(slices=(luts + 1) // 2 + 8)  # storage + pointers


class ROM(CombBlock):
    """Asynchronous-read constant table (distributed ROM)."""

    def __init__(self, name: str, contents: list[int], width: int = 32):
        super().__init__(name)
        if not contents:
            raise ValueError("ROM needs at least one word")
        self.width = width
        self.contents = [wrap(v, width) for v in contents]
        self.add_input("addr")
        self.add_output("data", width)

    def evaluate(self) -> None:
        addr = self.in_value("addr") % len(self.contents)
        self.outputs["data"].value = self.contents[addr]

    def emit(self, ctx) -> bool:
        rom = ctx.bind(self.contents, "rom")
        ctx.evaluate(
            f"{ctx.out(self, 'data')} = "
            f"{rom}[({ctx.inp(self, 'addr')}) % {len(self.contents)}]"
        )
        return True

    def emit_batched(self, ctx) -> bool:
        lanes = ctx.lane_blocks(self)
        # contents snapshot at codegen time (the table is a
        # construction parameter): one table all lanes read when every
        # lane has the same contents, else a row per lane
        if all(b.contents == self.contents for b in lanes):
            rom = ctx.shared(self.contents, "km")
        else:
            rom = ctx.table(lambda: np.array(
                [b.contents for b in lanes], dtype=np.int64),
                len(self.contents), "km")
        ctx.evaluate(f"{ctx.out(self, 'data')} = "
                     f"{ctx.cell(rom, ctx.inp(self, 'addr'))}")
        return True

    def resources(self) -> Resources:
        luts = self.width * ((len(self.contents) + 15) // 16)
        return Resources(slices=(luts + 1) // 2)


class RAM(SeqBlock):
    """Single-port synchronous RAM (BRAM behaviour: registered read)."""

    def __init__(self, name: str, depth: int, width: int = 32):
        super().__init__(name)
        if depth < 1:
            raise ValueError("RAM depth must be >= 1")
        self.width = width
        self.depth = depth
        self.add_input("addr")
        self.add_input("din")
        self.add_input("we", default=0)
        self.add_output("dout", width)
        self._mem = [0] * depth
        self._read_reg = 0

    def present(self) -> None:
        self.outputs["dout"].value = self._read_reg

    def clock(self) -> None:
        addr = self.in_value("addr") % self.depth
        if self.in_value("we") & 1:
            self._mem[addr] = wrap(self.in_value("din"), self.width)
        self._read_reg = self._mem[addr]

    def emit(self, ctx) -> bool:
        rreg = ctx.state_slot(self, "_read_reg")
        mem = ctx.fresh(self, "_mem", "mem")
        ctx.drive(ctx.out(self, "dout"), rreg)
        t = ctx.tmp()
        ctx.clock(f"{t} = ({ctx.inp(self, 'addr')}) % {self.depth}")
        we = ctx.inp(self, "we")
        din = f"({ctx.inp(self, 'din')}) & {(1 << self.width) - 1}"
        wlit = ctx.lit(we)
        if wlit is None:
            ctx.clock(f"if ({we}) & 1: {mem}[{t}] = {din}")
        elif wlit & 1:
            ctx.clock(f"{mem}[{t}] = {din}")
        ctx.clock(f"{rreg} = {mem}[{t}]")
        if wlit is None:
            ctx.busy_if(f"({we}) & 1")
        elif wlit & 1:
            ctx.horizon("return 0")
        ctx.busy_if(
            f"{rreg} != {mem}[({ctx.inp(self, 'addr')}) % {self.depth}]",
            f"{ctx.out(self, 'dout')} != {rreg}",
        )
        return True

    def emit_batched(self, ctx) -> bool:
        lanes = ctx.lane_blocks(self)
        mem = ctx.table(
            lambda: np.array([b._mem for b in lanes], dtype=np.int64),
            self.depth, "rm")

        def write_back(clone, lane, get):
            clone._mem[:] = get(mem)[lane].tolist()

        ctx.write_back(self, write_back)
        rreg = ctx.state_slot(self, "_read_reg", "rr")
        ctx.drive(ctx.out(self, "dout"), rreg)
        act = ctx.act
        t = ctx.tmp()
        ctx.clock(f"{t} = {ctx.mod(ctx.inp(self, 'addr'), self.depth)}")
        wef = ctx.flag(ctx.inp(self, "we"))
        if wef != "0":
            wm = ctx.tmp()
            ctx.clock(f"{wm} = {act}" if wef == "1"
                      else f"{wm} = {act} & {wef}")
            ctx.clock(ctx.scatter(
                mem, wm, t,
                f"({ctx.inp(self, 'din')}) & {(1 << self.width) - 1}"))
        ctx.clock(f"{rreg} = " + ctx.where(act, ctx.cell(mem, t), rreg))
        # the scalar rule; the clock just loaded ``rreg`` from the word
        # at ``t``, so it matches that word on every active lane
        if wef != "0":
            ctx.busy_if(wef)
        ctx.busy_if(f"{ctx.out(self, 'dout')} != {rreg}")
        return True

    def reset(self) -> None:
        super().reset()
        self._mem = [0] * self.depth
        self._read_reg = 0

    def idle_horizon(self) -> int:
        if self.in_value("we") & 1:
            return 0
        if (
            self._read_reg == self._mem[self.in_value("addr") % self.depth]
            and self.outputs["dout"].value == self._read_reg
        ):
            return IDLE_FOREVER
        return 0

    def extra_state(self) -> dict:
        return {"mem": list(self._mem), "read_reg": self._read_reg}

    def load_extra_state(self, extra: dict) -> None:
        self._mem = list(extra["mem"])
        self._read_reg = extra["read_reg"]

    def resources(self) -> Resources:
        bits = self.depth * self.width
        if bits > 4096:
            return Resources(brams=(bits + 18_431) // 18_432)
        return Resources(slices=(bits // 16 + 1) // 2 + 4)
