"""Arithmetic blocks.

All data ports carry raw two's-complement bit patterns; each block
declares the width it interprets.  Optional ``latency`` adds output
pipeline registers, exactly like the latency option on System Generator
arithmetic blocks (the embedded-multiplier block defaults to 3 pipeline
stages — the source of the 3-cycle multiply the paper calls out).
"""

from __future__ import annotations

from collections import deque

from repro.fixedpoint import FixedFormat, Overflow, Rounding
from repro.resources.types import Resources
from repro.sysgen.batched import np
from repro.sysgen.block import (
    IDLE_FOREVER,
    Block,
    slices_for_bits,
    to_signed,
    wrap,
)
from repro.sysgen.compiled import signed_expr


class _PipelinedBlock(Block):
    """Shared machinery: ``_compute() -> dict`` evaluated either
    combinationally (latency 0) or through a pipeline of ``latency``
    registers."""

    def __init__(self, name: str, latency: int = 0):
        super().__init__(name)
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.latency = latency
        self.sequential = latency > 0
        self._pipe: deque[dict[str, int]] = deque({} for _ in range(latency))

    def _compute(self) -> dict[str, int]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _apply(self, values: dict[str, int]) -> None:
        for key, value in values.items():
            self.outputs[key].value = value

    def evaluate(self) -> None:
        if not self.sequential:
            self._apply(self._compute())

    def present(self) -> None:
        if self.sequential:
            self._apply(self._pipe.popleft())

    def clock(self) -> None:
        if self.sequential:
            self._pipe.append(self._compute())

    def reset(self) -> None:
        super().reset()
        if self.sequential:
            self._pipe = deque({} for _ in range(self.latency))

    def idle_horizon(self) -> int:
        if not self.sequential:
            return IDLE_FOREVER
        entering = self._compute()
        if any(stage != entering for stage in self._pipe):
            return 0
        if any(self.outputs[k].value != v for k, v in entering.items()):
            return 0
        return IDLE_FOREVER

    def _emit_compute(self, ctx) -> str | None:
        """Expression computing this block's (single) output value, or
        None to fall back to a bound ``_compute()`` call.  The lockstep
        schedule evaluates the same text as C over one int64 lane, so it
        is integer arithmetic and rendering verbs only (or None to run
        the block per lane there)."""
        return None

    def _emit_lane_compute(self, ctx) -> str | None:
        """:meth:`_emit_compute` over one int64 lane in C (None: run per
        lane)."""
        return self._emit_compute(ctx)

    def emit_batched(self, ctx) -> bool:
        return self._emit_stages(ctx, self._emit_lane_compute(ctx))

    def _emit_stages(self, ctx, expr: str | None) -> bool:
        """The lockstep form of :meth:`emit`: ``expr`` over one lane,
        evaluated combinationally or through ``latency`` stage arrays
        (the shape of the stage storage differs from the scalar deque
        of dicts, so this stays a separate lane emitter)."""
        if expr is None:
            return False
        key = next(iter(self.outputs))
        out = ctx.out(self, key)
        if not self.sequential:
            ctx.evaluate(f"{out} = {expr}")
            return True
        # latency-deep pipeline: per-stage value lane arrays plus a
        # per-stage 0/1 validity array (the masked analogue of the deque
        # of possibly-empty dicts) — inactive lanes neither pop nor push.
        lanes = ctx.lane_blocks(self)
        n = ctx.n
        vals, oks = [], []
        for k in range(self.latency):
            vals.append(ctx.state(
                lambda k=k: np.fromiter(
                    (b._pipe[k].get(key, 0) for b in lanes), np.int64, n),
                "pv"))
            oks.append(ctx.state(
                lambda k=k: np.fromiter(
                    (key in b._pipe[k] for b in lanes), np.int64, n),
                "po"))

        def write_back(clone, lane, get):
            clone._pipe = deque(
                {key: int(get(v)[lane])} if get(ok)[lane] else {}
                for v, ok in zip(vals, oks))

        ctx.write_back(self, write_back)
        act = ctx.act
        ctx.present(
            f"{out} = {ctx.where(f'{act} & {oks[0]}', vals[0], out)}")
        for k in range(self.latency - 1):
            ctx.clock(f"{vals[k]} = {ctx.where(act, vals[k + 1], vals[k])}")
            ctx.clock(f"{oks[k]} = {ctx.where(act, oks[k + 1], oks[k])}")
        last = self.latency - 1
        ctx.clock(f"{vals[last]} = {ctx.where(act, expr, vals[last])}")
        ctx.clock(f"{oks[last]} = {oks[last]} | {act}")
        # the scalar rule: the entering value ``expr`` now sits in the
        # last stage of every active lane; busy unless every stage
        # holds it and the output presents it
        ctx.busy_if(*(f"{ok} == 0" for ok in oks[:last]),
                    *(f"{v} != {vals[last]}" for v in vals[:last]),
                    f"{out} != {vals[last]}")
        return True

    def emit(self, ctx) -> bool:
        key = next(iter(self.outputs))
        out = ctx.out(self, key)
        expr = self._emit_compute(ctx)
        if expr is None:
            # Dispatch to _compute() with the feeding ports synced —
            # still avoids the evaluate/present/clock method overhead.
            ctx.flush_inputs(self, ctx.clock if self.sequential
                             else ctx.evaluate)
            compute = ctx.tmp()
            ctx.entry(f"{compute} = {ctx.bind(self)}._compute")
            if not self.sequential:
                ctx.evaluate(f"{out} = {compute}()[{key!r}]")
                return True
            stage = f"{compute}()"
        else:
            if not self.sequential:
                ctx.evaluate(f"{out} = {expr}")
                return True
            stage = f"{{{key!r}: {expr}}}"
        pipe = ctx.fresh(self, "_pipe", "pq")
        pop = ctx.tmp()
        app = ctx.tmp()
        ctx.entry(f"{pop} = {pipe}.popleft")
        ctx.entry(f"{app} = {pipe}.append")
        t = ctx.tmp()
        # present() applies the (possibly empty) dict leaving the pipe;
        # an empty stage leaves the output untouched, as _apply does.
        ctx.present(f"{t} = {pop}()")
        ctx.present(f"if {t}: {out} = {t}[{key!r}]")
        ctx.clock(f"{app}({stage})")
        # idle once every stage already holds the entering value and
        # the output presents it (a ``_compute()`` stage is exact here:
        # the horizon runs between steps, when the ports are current)
        entering = ctx.tmp()
        ctx.horizon(f"{entering} = {stage}")
        ctx.busy_if(f"{pipe}.count({entering}) != len({pipe})",
                    f"{out} != {entering}[{key!r}]")
        return True

    def extra_state(self) -> dict:
        return {"pipe": [dict(stage) for stage in self._pipe]}

    def load_extra_state(self, extra: dict) -> None:
        if self.sequential:
            self._pipe = deque(dict(stage) for stage in extra["pipe"])


class Add(_PipelinedBlock):
    """``s = a + b`` (wrap) over ``width`` bits."""

    def __init__(self, name: str, width: int = 32, latency: int = 0):
        super().__init__(name, latency)
        self.width = width
        self.add_input("a")
        self.add_input("b")
        self.add_output("s", width)

    def _compute(self) -> dict[str, int]:
        return {"s": wrap(self.in_value("a") + self.in_value("b"), self.width)}

    def _emit_compute(self, ctx) -> str:
        return (f"(({ctx.inp(self, 'a')}) + ({ctx.inp(self, 'b')}))"
                f" & {(1 << self.width) - 1}")

    def resources(self) -> Resources:
        regs = self.latency * slices_for_bits(self.width)
        return Resources(slices=slices_for_bits(self.width) + regs)


class Sub(_PipelinedBlock):
    """``d = a - b`` (wrap)."""

    def __init__(self, name: str, width: int = 32, latency: int = 0):
        super().__init__(name, latency)
        self.width = width
        self.add_input("a")
        self.add_input("b")
        self.add_output("d", width)

    def _compute(self) -> dict[str, int]:
        return {"d": wrap(self.in_value("a") - self.in_value("b"), self.width)}

    def _emit_compute(self, ctx) -> str:
        return (f"(({ctx.inp(self, 'a')}) - ({ctx.inp(self, 'b')}))"
                f" & {(1 << self.width) - 1}")

    def resources(self) -> Resources:
        regs = self.latency * slices_for_bits(self.width)
        return Resources(slices=slices_for_bits(self.width) + regs)


class AddSub(_PipelinedBlock):
    """``s = sub ? a - b : a + b`` — the System Generator AddSub block,
    used by the CORDIC PE where the rotation direction selects the
    operation each cycle."""

    def __init__(self, name: str, width: int = 32, latency: int = 0):
        super().__init__(name, latency)
        self.width = width
        self.add_input("a")
        self.add_input("b")
        self.add_input("sub")
        self.add_output("s", width)

    def _compute(self) -> dict[str, int]:
        a = self.in_value("a")
        b = self.in_value("b")
        res = a - b if self.in_value("sub") & 1 else a + b
        return {"s": wrap(res, self.width)}

    def _emit_compute(self, ctx) -> str:
        a = ctx.inp(self, "a")
        b = ctx.inp(self, "b")
        sub = ctx.inp(self, "sub")
        m = (1 << self.width) - 1
        slit = ctx.lit(sub)
        if slit is not None:
            op = "-" if slit & 1 else "+"
            return f"(({a}) {op} ({b})) & {m}"
        return ctx.select(f"({sub}) & 1", f"(({a}) - ({b}))",
                          f"(({a}) + ({b}))", m)

    def resources(self) -> Resources:
        # add/sub sharing costs one extra LUT level: ~W LUTs + mode.
        regs = self.latency * slices_for_bits(self.width)
        return Resources(slices=slices_for_bits(self.width) + 1 + regs)


class Mult(_PipelinedBlock):
    """Signed multiplier.

    Widths up to 18×18 map onto one embedded MULT18X18; wider products
    decompose into multiple embedded multipliers plus adder slices
    (matching how ISE implements them on Virtex-II).
    """

    def __init__(
        self,
        name: str,
        width_a: int = 18,
        width_b: int = 18,
        out_width: int | None = None,
        latency: int = 3,
        use_embedded: bool = True,
    ):
        super().__init__(name, latency)
        self.width_a = width_a
        self.width_b = width_b
        self.out_width = out_width or (width_a + width_b)
        self.use_embedded = use_embedded
        self.add_input("a")
        self.add_input("b")
        self.add_output("p", self.out_width)

    def _compute(self) -> dict[str, int]:
        a = to_signed(self.in_value("a"), self.width_a)
        b = to_signed(self.in_value("b"), self.width_b)
        return {"p": wrap(a * b, self.out_width)}

    def _emit_compute(self, ctx) -> str:
        a = signed_expr(ctx.inp(self, "a"), self.width_a)
        b = signed_expr(ctx.inp(self, "b"), self.width_b)
        return f"({a} * {b}) & {(1 << self.out_width) - 1}"

    def _emit_lane_compute(self, ctx) -> str | None:
        # the signed product must fit an int64 lane
        if self.width_a + self.width_b > 62:
            return None
        return self._emit_compute(ctx)

    def resources(self) -> Resources:
        regs = self.latency * slices_for_bits(self.out_width)
        if not self.use_embedded:
            # slice-based multiplier: ~W*W/2 LUTs -> W*W/4 slices
            area = (self.width_a * self.width_b + 3) // 4
            return Resources(slices=area + regs)
        blocks_a = (self.width_a + 17) // 18
        blocks_b = (self.width_b + 17) // 18
        n_mult = blocks_a * blocks_b
        glue = 0 if n_mult == 1 else slices_for_bits(self.out_width) * (n_mult - 1)
        return Resources(slices=glue + regs, mult18=n_mult)


class Negate(_PipelinedBlock):
    def __init__(self, name: str, width: int = 32, latency: int = 0):
        super().__init__(name, latency)
        self.width = width
        self.add_input("a")
        self.add_output("n", width)

    def _compute(self) -> dict[str, int]:
        return {"n": wrap(-self.in_value("a"), self.width)}

    def _emit_compute(self, ctx) -> str:
        return f"(-({ctx.inp(self, 'a')})) & {(1 << self.width) - 1}"

    def resources(self) -> Resources:
        return Resources(slices=slices_for_bits(self.width)
                         + self.latency * slices_for_bits(self.width))


class Shift(_PipelinedBlock):
    """Constant shift: ``out = a << n`` or ``a >> n`` (arithmetic or
    logical).  Constant shifts are free in fabric (wiring), so the
    resource cost is only the optional output registers."""

    def __init__(
        self,
        name: str,
        width: int = 32,
        amount: int = 1,
        direction: str = "right",
        arithmetic: bool = True,
        latency: int = 0,
    ):
        super().__init__(name, latency)
        if direction not in ("left", "right"):
            raise ValueError("direction must be 'left' or 'right'")
        self.width = width
        self.amount = amount
        self.direction = direction
        self.arithmetic = arithmetic
        self.add_input("a")
        self.add_output("s", width)

    def _compute(self) -> dict[str, int]:
        a = self.in_value("a")
        if self.direction == "left":
            res = a << self.amount
        elif self.arithmetic:
            res = to_signed(a, self.width) >> self.amount
        else:
            res = (a & ((1 << self.width) - 1)) >> self.amount
        return {"s": wrap(res, self.width)}

    def _emit_compute(self, ctx) -> str:
        a = ctx.inp(self, "a")
        m = (1 << self.width) - 1
        if self.direction == "left":
            return f"(({a}) << {self.amount}) & {m}"
        if self.arithmetic:
            return f"({signed_expr(a, self.width)} >> {self.amount}) & {m}"
        return f"((({a}) & {m}) >> {self.amount})"

    def _emit_lane_compute(self, ctx) -> str:
        # int64 lanes: pre-mask so shifted intermediates never exceed
        # ``width`` bits, and clamp shift counts below the word size
        # (python bigints make the scalar forms safe; C int64 does not).
        a = ctx.inp(self, "a")
        m = (1 << self.width) - 1
        if self.amount >= self.width and not (
                self.direction == "right" and self.arithmetic):
            return f"(({a}) & 0)"
        if self.direction == "left":
            return f"((({a}) & {m >> self.amount}) << {self.amount})"
        if self.arithmetic:
            amt = min(self.amount, self.width)  # sign fill is complete
            return f"({signed_expr(a, self.width)} >> {amt}) & {m}"
        return f"((({a}) & {m}) >> {self.amount})"

    def resources(self) -> Resources:
        return Resources(slices=self.latency * slices_for_bits(self.width))


class Accumulator(Block):
    """Registered accumulator: ``q += d`` when ``en`` (with ``rst``)."""

    sequential = True

    def __init__(self, name: str, width: int = 32):
        super().__init__(name)
        self.width = width
        self.add_input("d")
        self.add_input("en", default=1)
        self.add_input("rst", default=0)
        self.add_output("q", width)
        self._state = 0

    def present(self) -> None:
        self.outputs["q"].value = self._state

    def clock(self) -> None:
        if self.in_value("rst") & 1:
            self._state = 0
        elif self.in_value("en") & 1:
            self._state = wrap(self._state + self.in_value("d"), self.width)

    def emit(self, ctx) -> bool:
        st = ctx.state_slot(self, "_state", "ac")
        q = ctx.out(self, "q")
        ctx.drive(q, st)
        ctx.update(q, st, ctx.inp(self, "rst"), ctx.inp(self, "en"), "0",
                   f"({st} + ({ctx.inp(self, 'd')}))"
                   f" & {(1 << self.width) - 1}")
        return True

    emit_batched = emit

    def reset(self) -> None:
        super().reset()
        self._state = 0

    def idle_horizon(self) -> int:
        if self.in_value("rst") & 1:
            next_state = 0
        elif self.in_value("en") & 1:
            next_state = wrap(self._state + self.in_value("d"), self.width)
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
        # adder + register
        return Resources(slices=2 * slices_for_bits(self.width))


class Convert(_PipelinedBlock):
    """Fixed-point format conversion (the System Generator Convert
    block): requantize from ``(in_width, in_frac)`` to ``(out_width,
    out_frac)`` with selectable rounding and overflow behaviour."""

    def __init__(
        self,
        name: str,
        in_width: int,
        in_frac: int,
        out_width: int,
        out_frac: int,
        signed: bool = True,
        rounding: Rounding = Rounding.TRUNCATE,
        overflow: Overflow = Overflow.WRAP,
        latency: int = 0,
    ):
        super().__init__(name, latency)
        self.in_fmt = FixedFormat(in_width, in_frac, signed)
        self.out_fmt = FixedFormat(out_width, out_frac, signed)
        self.rounding = rounding
        self.overflow = overflow
        self.add_input("in")
        self.add_output("out", out_width)

    def _compute(self) -> dict[str, int]:
        value = self.in_fmt.from_raw(self.in_value("in"))
        out = value.cast(self.out_fmt, self.rounding, self.overflow)
        return {"out": out.bits()}

    def resources(self) -> Resources:
        extra = 0
        if self.rounding is Rounding.ROUND:
            extra += slices_for_bits(self.out_fmt.word_bits)  # round adder
        if self.overflow is Overflow.SATURATE:
            extra += slices_for_bits(self.out_fmt.word_bits) // 2 + 1
        return Resources(slices=extra + self.latency *
                         slices_for_bits(self.out_fmt.word_bits))
