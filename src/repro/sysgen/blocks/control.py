"""Constant sources and counters."""

from __future__ import annotations

from repro.resources.types import Resources
from repro.sysgen.block import (
    IDLE_FOREVER,
    CombBlock,
    SeqBlock,
    slices_for_bits,
    wrap,
)


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
        out, val = self._drive(ctx)
        ctx.busy_if(f"{out} != {val}")
        return True

    def emit_batched(self, ctx) -> bool:
        # The lockstep step drives ``out`` from its snapshot of
        # ``value`` every cycle and nothing else writes it there, so
        # the busy rule could never hold: it would only cost a load and
        # a compare per lane per cycle.
        self._drive(ctx)
        return True

    def _drive(self, ctx) -> tuple[str, str]:
        # ``value`` is read per call (not baked into the source) so a
        # rebuilt/loaded model never runs a stale constant.
        val = ctx.param(self, "value", "kc", live=True)
        out = ctx.out(self, "out")
        ctx.evaluate(f"{out} = {val}")
        return out, val

    def idle_horizon(self) -> int:
        return IDLE_FOREVER if self.outputs["out"].value == self.value else 0

    def resources(self) -> Resources:
        return Resources()  # constants fold into downstream LUTs


class Counter(SeqBlock):
    """Free-running (or enabled) up-counter with synchronous reset."""

    def __init__(self, name: str, width: int = 16, step: int = 1):
        super().__init__(name)
        self.width = width
        self.step = wrap(step, width)
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
        st = ctx.state_slot(self, "_state", "cn")
        step = ctx.param(self, "step", "kn")
        q = ctx.out(self, "q")
        ctx.drive(q, st)
        ctx.update(q, st, ctx.inp(self, "rst"), ctx.inp(self, "en"), "0",
                   f"({st} + {step}) & {(1 << self.width) - 1}")
        return True

    emit_batched = emit

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
