"""Constant sources and counters."""

from __future__ import annotations

from repro.resources.types import Resources
from repro.sysgen.batched import guarded_update_batched, np
from repro.sysgen.block import (
    IDLE_FOREVER,
    CombBlock,
    SeqBlock,
    slices_for_bits,
    wrap,
)
from repro.sysgen.compiled import emit_register_horizon, guarded_update


class Constant(CombBlock):
    """A constant driver."""

    def __init__(self, name: str, value: int, width: int = 32):
        super().__init__(name)
        self.width = width
        self.value = wrap(value, width)
        self.add_output("out", width)

    def evaluate(self) -> None:
        self.outputs["out"].value = self.value

    def emit(self, ctx) -> bool:
        # ``value`` is read per call (not baked into the source) so a
        # rebuilt/loaded model never runs a stale constant.
        val = ctx.fresh(self, "value", "k")
        ctx.evaluate(f"{ctx.out(self, 'out')} = {val}")
        ctx.busy_if(f"{ctx.out(self, 'out')} != {val}")
        return True

    def emit_batched(self, ctx) -> bool:
        # per-lane values snapshot at codegen time (``value`` is a
        # construction parameter untouched by reset/load_state; poking
        # it after the batch is built is not supported)
        vals = ctx.bind(
            np.fromiter((b.value for b in ctx.lane_blocks(self)),
                        np.int64, ctx.n), "kc")
        ctx.evaluate(f"{ctx.out(self, 'out')} = {vals}")
        return True

    def idle_horizon(self) -> int:
        return IDLE_FOREVER if self.outputs["out"].value == self.value else 0

    def resources(self) -> Resources:
        return Resources()  # constants fold into downstream LUTs


class Counter(SeqBlock):
    """Free-running (or enabled) up-counter with synchronous reset."""

    def __init__(self, name: str, width: int = 16, step: int = 1):
        super().__init__(name)
        self.width = width
        self.step = step
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
            self._state = wrap(self._state + self.step, self.width)

    def emit(self, ctx) -> bool:
        st = ctx.scalar_state(self, "_state")
        ctx.present(f"{ctx.out(self, 'q')} = {st}")
        upd = guarded_update(
            ctx.inp(self, "rst"), ctx.inp(self, "en"),
            f"{st} = 0",
            f"{st} = ({st} + {self.step}) & {(1 << self.width) - 1}",
        )
        if upd:
            ctx.clock(upd)
        emit_register_horizon(
            ctx, self, "0",
            f"(({st} + {self.step}) & {(1 << self.width) - 1})", st)
        return True

    def emit_batched(self, ctx) -> bool:
        lanes = ctx.lane_blocks(self)
        st = ctx.state(
            lambda: np.fromiter((b._state for b in lanes), np.int64, ctx.n),
            "cn")
        # the step increment may vary per lane (a common sweep axis)
        steps = ctx.bind(
            np.fromiter((wrap(b.step, self.width) for b in lanes),
                        np.int64, ctx.n), "kn")
        ctx.masked_present(ctx.out(self, "q"), st)
        upd = guarded_update_batched(
            ctx, ctx.inp(self, "rst"), ctx.inp(self, "en"),
            "0",
            f"({st} + {steps}) & {(1 << self.width) - 1}",
            st,
        )
        if upd:
            ctx.clock(f"{st} = {upd}")
        return True

    def reset(self) -> None:
        super().reset()
        self._state = 0

    def idle_horizon(self) -> int:
        if self.in_value("rst") & 1:
            next_state = 0
        elif self.in_value("en") & 1:
            next_state = wrap(self._state + self.step, self.width)
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
