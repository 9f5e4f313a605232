"""Gateway In / Gateway Out blocks.

In System Generator the gateways separate the fixed-point hardware
design from the surrounding Simulink model and define its I/O ports
(paper, Section III-A).  ``GatewayIn.drive()`` quantizes host values
(floats, ints, ``Fixed``) into the declared fixed-point format;
``GatewayOut`` exposes the settled signal back to the host, both as a
raw pattern and as a converted number.
"""

from __future__ import annotations

from fractions import Fraction

from repro.fixedpoint import Fixed, FixedFormat, Overflow, Rounding
from repro.resources.types import Resources
from repro.sysgen.block import IDLE_FOREVER, CombBlock


class GatewayIn(CombBlock):
    """Host → hardware boundary with input quantization."""

    def __init__(
        self,
        name: str,
        width: int = 32,
        frac: int = 0,
        signed: bool = True,
        rounding: Rounding = Rounding.TRUNCATE,
        overflow: Overflow = Overflow.SATURATE,
    ):
        super().__init__(name)
        if width == 1:
            signed = False  # 1-bit gateways are Boolean control signals
        self.fmt = FixedFormat(width, frac, signed)
        self.rounding = rounding
        self.overflow = overflow
        self.add_output("out", width)
        self._raw = 0

    def drive(self, value: "float | int | Fixed | Fraction") -> None:
        """Quantize ``value`` into the gateway format for the next cycle."""
        self._raw = self.fmt.quantize(value, self.rounding, self.overflow).bits()

    def drive_raw(self, raw: int) -> None:
        """Drive a raw bit pattern (no quantization)."""
        self._raw = raw & ((1 << self.fmt.word_bits) - 1)

    def evaluate(self) -> None:
        self.outputs["out"].value = self._raw

    def emit(self, ctx) -> bool:
        # drive()/drive_raw() can only happen between step() calls, so
        # one per-call load of _raw is exact.
        raw = ctx.fresh(self, "_raw", "gw")
        ctx.evaluate(f"{ctx.out(self, 'out')} = {raw}")
        # a drive() since the last step leaves the output stale
        ctx.busy_if(f"{ctx.out(self, 'out')} != {raw}")
        return True

    def idle_horizon(self) -> int:
        # A drive() since the last step leaves the output stale.
        return IDLE_FOREVER if self.outputs["out"].value == self._raw else 0

    def reset(self) -> None:
        super().reset()
        self._raw = 0

    def extra_state(self) -> dict:
        return {"raw": self._raw}

    def load_extra_state(self, extra: dict) -> None:
        self._raw = extra["raw"]

    def resources(self) -> Resources:
        return Resources()  # gateways are simulation artifacts


class GatewayOut(CombBlock):
    """Hardware → host boundary."""

    def __init__(self, name: str, width: int = 32, frac: int = 0,
                 signed: bool = True):
        super().__init__(name)
        if width == 1:
            signed = False  # 1-bit gateways are Boolean control signals
        self.fmt = FixedFormat(width, frac, signed)
        self.add_input("in")
        self.add_output("out", width)  # pass-through for probes

    def evaluate(self) -> None:
        self.outputs["out"].value = self.in_value("in") & (
            (1 << self.fmt.word_bits) - 1
        )

    def emit(self, ctx) -> bool:
        m = (1 << self.fmt.word_bits) - 1
        ctx.evaluate(
            f"{ctx.out(self, 'out')} = ({ctx.inp(self, 'in')}) & {m}"
        )
        return True

    # -- host-side accessors ----------------------------------------------
    @property
    def raw(self) -> int:
        return self.outputs["out"].value

    @property
    def fixed(self) -> Fixed:
        return self.fmt.from_raw(self.raw)

    @property
    def value(self) -> float:
        return float(self.fixed)

    @property
    def signed_int(self) -> int:
        raw = self.raw
        if self.fmt.signed and raw & (1 << (self.fmt.word_bits - 1)):
            raw -= 1 << self.fmt.word_bits
        return raw

    def resources(self) -> Resources:
        return Resources()
