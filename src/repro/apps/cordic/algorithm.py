"""Bit-exact reference model of the CORDIC division iteration.

This is the golden model every implementation (software on the ISS,
sysgen pipeline, RTL netlist) is checked against.  All arithmetic is
32-bit two's complement with the same incremental-shift formulation the
implementations use (``XC`` and ``C`` halve each iteration), so results
must match *exactly*, not approximately.
"""

from __future__ import annotations

import functools
from fractions import Fraction

_M32 = 0xFFFFFFFF

WIDTH = 32
DEFAULT_FRAC = 16


def _wrap(v: int) -> int:
    v &= _M32
    return v - 0x100000000 if v & 0x80000000 else v


def to_fixed(value: float | Fraction, frac: int = DEFAULT_FRAC) -> int:
    """Quantize ``value`` to a signed 32-bit Q(frac) integer (truncate)."""
    scaled = Fraction(value).limit_denominator(1 << 62) * (1 << frac)
    raw = scaled.numerator // scaled.denominator
    if not -(1 << 31) <= raw < (1 << 31):
        raise OverflowError(f"{value} does not fit Q{frac} in 32 bits")
    return raw


def from_fixed(raw: int, frac: int = DEFAULT_FRAC) -> float:
    """Back to float for reporting."""
    return raw / (1 << frac)


def cordic_divide_fixed(
    b_raw: int,
    a_raw: int,
    iterations: int,
    frac: int = DEFAULT_FRAC,
) -> tuple[int, int]:
    """Run ``iterations`` CORDIC steps on fixed-point inputs.

    Returns ``(y_raw, z_raw)`` — the residual and the quotient
    estimate, bit-exact against the hardware/software implementations.
    """
    one = 1 << frac
    xc = a_raw
    y = b_raw
    z = 0
    c = one
    for _ in range(iterations):
        if y < 0:
            y = _wrap(y + xc)
            z = _wrap(z - c)
        else:
            y = _wrap(y - xc)
            z = _wrap(z + c)
        xc = xc >> 1  # arithmetic shift (Python >> is arithmetic)
        c = (c & _M32) >> 1  # logical shift of the positive constant
    return y, z


def cordic_divide_trace(
    b_raw: int, a_raw: int, iterations: int, frac: int = DEFAULT_FRAC
) -> list[tuple[int, int, int, int]]:
    """Per-iteration (xc, y, z, c) trace, for debugging the pipeline."""
    one = 1 << frac
    xc, y, z, c = a_raw, b_raw, 0, one
    trace = [(xc, y, z, c)]
    for _ in range(iterations):
        if y < 0:
            y = _wrap(y + xc)
            z = _wrap(z - c)
        else:
            y = _wrap(y - xc)
            z = _wrap(z + c)
        xc >>= 1
        c = (c & _M32) >> 1
        trace.append((xc, y, z, c))
    return trace


def generate_dataset(
    n: int, frac: int = DEFAULT_FRAC, seed: int = 2005
) -> list[tuple[int, int]]:
    """Deterministic (a_raw, b_raw) divisor/dividend pairs with
    ``0 < b < a`` so the quotient converges in (0, 1) — the adaptive
    beamforming-style data the paper's application targets."""
    pairs: list[tuple[int, int]] = []
    state = seed & 0x7FFFFFFF
    for _ in range(n):
        # xorshift-style PRNG, reproducible across platforms
        state ^= (state << 13) & 0x7FFFFFFF
        state ^= state >> 17
        state ^= (state << 5) & 0x7FFFFFFF
        a = 1.0 + (state % 60000) / 10000.0  # 1.0 .. 7.0
        state ^= (state << 13) & 0x7FFFFFFF
        state ^= state >> 17
        state ^= (state << 5) & 0x7FFFFFFF
        b = (state % 9000) / 10000.0 * a  # 0 .. 0.9*a
        pairs.append((to_fixed(a, frac), to_fixed(b, frac)))
    return pairs


@functools.lru_cache(maxsize=64)
def _golden(ndata: int, frac: int, seed: int,
            iterations: int) -> tuple[tuple[int, int], ...]:
    return tuple(cordic_divide_fixed(b, a, iterations, frac)
                 for a, b in generate_dataset(ndata, frac, seed))


def golden_results(ndata: int, frac: int, seed: int,
                   iterations: int) -> list[tuple[int, int]]:
    """The (y, z) golden outputs of :func:`cordic_divide_fixed` for the
    ``ndata`` pairs of :func:`generate_dataset`, computed once per
    process and argument set (a fault campaign verifies every trial
    against them); the list is a fresh copy each call."""
    return list(_golden(ndata, frac, seed, iterations))


def quotient_error(a_raw: int, b_raw: int, z_raw: int,
                   frac: int = DEFAULT_FRAC) -> float:
    """Absolute error of the CORDIC quotient vs true division."""
    if a_raw == 0:
        raise ZeroDivisionError("a must be nonzero")
    true = Fraction(b_raw, a_raw)
    return abs(float(Fraction(z_raw, 1 << frac) - true))
