"""Combinational selection, comparison and bit-manipulation blocks."""

from __future__ import annotations

from repro.resources.types import Resources
from repro.sysgen.block import CombBlock, slices_for_bits, to_signed, wrap
from repro.sysgen.compiled import signed_expr

_REL_OPS = ("eq", "ne", "lt", "le", "gt", "ge")
_REL_SYMS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=",
             "gt": ">", "ge": ">="}
_LOGIC_OPS = ("and", "or", "xor", "nand", "nor", "xnor")
_LOGIC_SYMS = {"and": "&", "nand": "&", "or": "|", "nor": "|",
               "xor": "^", "xnor": "^"}


class Mux(CombBlock):
    """``n``-way multiplexer: ``out = d<sel>``."""

    def __init__(self, name: str, width: int = 32, n: int = 2):
        super().__init__(name)
        if n < 2:
            raise ValueError("mux needs at least 2 inputs")
        self.width = width
        self.n = n
        self.add_input("sel")
        for k in range(n):
            self.add_input(f"d{k}")
        self.add_output("out", width)

    def evaluate(self) -> None:
        sel = self.in_value("sel") % self.n
        self.outputs["out"].value = wrap(self.in_value(f"d{sel}"), self.width)

    def emit(self, ctx) -> bool:
        out = ctx.out(self, "out")
        sel = ctx.inp(self, "sel")
        m = (1 << self.width) - 1
        data = [ctx.inp(self, f"d{k}") for k in range(self.n)]
        slit = ctx.lit(sel)
        if slit is not None:
            ctx.evaluate(f"{out} = ({data[slit % self.n]}) & {m}")
        elif self.n == 2:
            # sel % 2 == sel & 1 for every python int
            ctx.evaluate(f"{out} = (({data[1]}) if ({sel}) & 1"
                         f" else ({data[0]})) & {m}")
        else:
            tup = ", ".join(data)
            # x % 2**k == x & (2**k - 1) for every python int
            idx = (f"({sel}) & {self.n - 1}"
                   if self.n & (self.n - 1) == 0 else f"({sel}) % {self.n}")
            ctx.evaluate(f"{out} = ({tup})[{idx}] & {m}")
        return True

    def emit_batched(self, ctx) -> bool:
        out = ctx.out(self, "out")
        sel = ctx.inp(self, "sel")
        m = (1 << self.width) - 1
        data = [f"({ctx.inp(self, f'd{k}')})" for k in range(self.n)]
        slit = ctx.lit(sel)
        if slit is not None:
            ctx.evaluate(f"{out} = {data[slit % self.n]} & {m}")
            return True
        if self.n == 2:
            pick = ctx.where(f"({sel}) & 1", data[1], data[0])
            ctx.evaluate(f"{out} = {pick} & {m}")
            return True
        idx = ctx.tmp()
        if self.n & (self.n - 1) == 0:
            ctx.evaluate(f"{idx} = ({sel}) & {self.n - 1}")
        else:
            ctx.evaluate(f"{idx} = {ctx.mod(sel, self.n)}")
        acc = data[0]
        for k in range(1, self.n):
            acc = ctx.where(f"{idx} == {k}", data[k], acc)
        ctx.evaluate(f"{out} = {acc} & {m}")
        return True

    def resources(self) -> Resources:
        # one LUT per output bit per pair of inputs
        return Resources(slices=slices_for_bits(self.width) * (self.n - 1))


class Relational(CombBlock):
    """Comparator producing a 1-bit flag."""

    def __init__(self, name: str, width: int = 32, op: str = "lt",
                 signed: bool = True):
        super().__init__(name)
        if op not in _REL_OPS:
            raise ValueError(f"op must be one of {_REL_OPS}")
        self.width = width
        self.op = op
        self.signed = signed
        self.add_input("a")
        self.add_input("b")
        self.add_output("out", 1)

    def evaluate(self) -> None:
        a = self.in_value("a")
        b = self.in_value("b")
        if self.signed:
            a = to_signed(a, self.width)
            b = to_signed(b, self.width)
        else:
            a = wrap(a, self.width)
            b = wrap(b, self.width)
        result = {
            "eq": a == b,
            "ne": a != b,
            "lt": a < b,
            "le": a <= b,
            "gt": a > b,
            "ge": a >= b,
        }[self.op]
        self.outputs["out"].value = int(result)

    def emit(self, ctx) -> bool:
        if self.signed:
            a = signed_expr(ctx.inp(self, "a"), self.width)
            b = signed_expr(ctx.inp(self, "b"), self.width)
        else:
            m = (1 << self.width) - 1
            a = f"(({ctx.inp(self, 'a')}) & {m})"
            b = f"(({ctx.inp(self, 'b')}) & {m})"
        sym = _REL_SYMS[self.op]
        ctx.evaluate(
            f"{ctx.out(self, 'out')} = {ctx.as_int(f'{a} {sym} {b}')}")
        return True

    emit_batched = emit

    def resources(self) -> Resources:
        return Resources(slices=slices_for_bits(self.width))


class Logical(CombBlock):
    """Bitwise logic over ``n`` operands of ``width`` bits."""

    def __init__(self, name: str, width: int = 32, op: str = "and", n: int = 2):
        super().__init__(name)
        if op not in _LOGIC_OPS:
            raise ValueError(f"op must be one of {_LOGIC_OPS}")
        if n < 2:
            raise ValueError("logical block needs at least 2 inputs")
        self.width = width
        self.op = op
        self.n = n
        for k in range(n):
            self.add_input(f"d{k}")
        self.add_output("out", width)

    def evaluate(self) -> None:
        values = [self.in_value(f"d{k}") for k in range(self.n)]
        acc = values[0]
        base = self.op.removeprefix("n") if self.op in ("nand", "nor") else (
            "xor" if self.op == "xnor" else self.op
        )
        for v in values[1:]:
            if base == "and":
                acc &= v
            elif base == "or":
                acc |= v
            else:
                acc ^= v
        if self.op in ("nand", "nor", "xnor"):
            acc = ~acc
        self.outputs["out"].value = wrap(acc, self.width)

    def emit(self, ctx) -> bool:
        sym = _LOGIC_SYMS[self.op]
        expr = f" {sym} ".join(
            f"({ctx.inp(self, f'd{k}')})" for k in range(self.n)
        )
        if self.op in ("nand", "nor", "xnor"):
            expr = f"~({expr})"
        m = (1 << self.width) - 1
        ctx.evaluate(f"{ctx.out(self, 'out')} = ({expr}) & {m}")
        return True

    emit_batched = emit

    def resources(self) -> Resources:
        return Resources(slices=slices_for_bits(self.width) * (self.n - 1))


class Inverter(CombBlock):
    """Bitwise NOT."""

    def __init__(self, name: str, width: int = 1):
        super().__init__(name)
        self.width = width
        self.add_input("a")
        self.add_output("out", width)

    def evaluate(self) -> None:
        self.outputs["out"].value = wrap(~self.in_value("a"), self.width)

    def emit(self, ctx) -> bool:
        m = (1 << self.width) - 1
        ctx.evaluate(
            f"{ctx.out(self, 'out')} = (~({ctx.inp(self, 'a')})) & {m}"
        )
        return True

    emit_batched = emit

    def resources(self) -> Resources:
        return Resources(slices=slices_for_bits(self.width))


class Slice(CombBlock):
    """Extract bits ``[msb:lsb]`` (inclusive) from the input."""

    def __init__(self, name: str, msb: int, lsb: int = 0):
        super().__init__(name)
        if msb < lsb or lsb < 0:
            # ModelError at construction: a reversed range would
            # otherwise surface as a zero/garbage mask at evaluate time
            # with no hint of which block is wrong.
            from repro.sysgen.model import ModelError
            raise ModelError(
                f"slice {name!r}: require msb >= lsb >= 0, "
                f"got [{msb}:{lsb}]"
            )
        self.msb = msb
        self.lsb = lsb
        self.add_input("a")
        self.add_output("out", msb - lsb + 1)

    def evaluate(self) -> None:
        width = self.msb - self.lsb + 1
        self.outputs["out"].value = (self.in_value("a") >> self.lsb) & (
            (1 << width) - 1
        )

    def emit(self, ctx) -> bool:
        m = (1 << (self.msb - self.lsb + 1)) - 1
        a = ctx.inp(self, "a")
        shifted = f"({a}) >> {self.lsb}" if self.lsb else f"({a})"
        ctx.evaluate(f"{ctx.out(self, 'out')} = ({shifted}) & {m}")
        return True

    emit_batched = emit

    def resources(self) -> Resources:
        return Resources()  # pure wiring


class Concat(CombBlock):
    """Concatenate inputs, ``d0`` becoming the most significant field."""

    def __init__(self, name: str, widths: list[int]):
        super().__init__(name)
        if not widths:
            raise ValueError("concat needs at least one field")
        self.widths = list(widths)
        for k in range(len(widths)):
            self.add_input(f"d{k}")
        self.add_output("out", sum(widths))

    def evaluate(self) -> None:
        acc = 0
        for k, width in enumerate(self.widths):
            acc = (acc << width) | wrap(self.in_value(f"d{k}"), width)
        self.outputs["out"].value = acc

    def emit(self, ctx) -> bool:
        parts = []
        shift = sum(self.widths)
        for k, width in enumerate(self.widths):
            shift -= width
            field = f"(({ctx.inp(self, f'd{k}')}) & {(1 << width) - 1})"
            parts.append(f"({field} << {shift})" if shift else field)
        ctx.evaluate(f"{ctx.out(self, 'out')} = {' | '.join(parts)}")
        return True

    emit_batched = emit

    def resources(self) -> Resources:
        return Resources()  # pure wiring
