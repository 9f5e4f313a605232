"""Reference models and workload generation for block matmul.

All arithmetic is 32-bit two's complement (products wrap), bit-exact
against both the software program and the hardware peripheral.
"""

from __future__ import annotations

import functools

_M32 = 0xFFFFFFFF


def _wrap(v: int) -> int:
    v &= _M32
    return v - 0x100000000 if v & 0x80000000 else v


def generate_matrices(n: int, seed: int = 2005) -> tuple[list[list[int]], list[list[int]]]:
    """Two deterministic n×n integer matrices with smallish entries
    (the beamforming-style coefficient updates the paper motivates)."""
    state = seed & 0x7FFFFFFF

    def nxt() -> int:
        nonlocal state
        state ^= (state << 13) & 0x7FFFFFFF
        state ^= state >> 17
        state ^= (state << 5) & 0x7FFFFFFF
        return (state % 2001) - 1000  # -1000 .. 1000

    a = [[nxt() for _ in range(n)] for _ in range(n)]
    b = [[nxt() for _ in range(n)] for _ in range(n)]
    return a, b


def matmul_reference(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Plain O(n³) product with 32-bit wrap semantics."""
    n = len(a)
    m = len(b[0])
    k_dim = len(b)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        row = a[i]
        for j in range(m):
            acc = 0
            for k in range(k_dim):
                acc = _wrap(acc + _wrap(row[k] * b[k][j]))
            out[i][j] = acc
    return out


def block_matmul_reference(
    a: list[list[int]], b: list[list[int]], block: int
) -> list[list[int]]:
    """Blocked product (same result, exercised blockwise like the
    hardware): C_IJ += A_IK × B_KJ over block×block tiles."""
    n = len(a)
    if n % block:
        raise ValueError(f"matrix size {n} not divisible by block {block}")
    out = [[0] * n for _ in range(n)]
    nb = n // block
    for jj in range(nb):
        for kk in range(nb):
            for ii in range(nb):
                for i in range(block):
                    for j in range(block):
                        acc = out[ii * block + i][jj * block + j]
                        for k in range(block):
                            acc = _wrap(
                                acc
                                + _wrap(
                                    a[ii * block + i][kk * block + k]
                                    * b[kk * block + k][jj * block + j]
                                )
                            )
                        out[ii * block + i][jj * block + j] = acc
    return out


@functools.lru_cache(maxsize=64)
def _product(n: int, seed: int) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, matmul_reference(*generate_matrices(n, seed))))


def reference_product(n: int, seed: int = 2005) -> list[list[int]]:
    """:func:`matmul_reference` of the :func:`generate_matrices` pair,
    computed once per process and ``(n, seed)`` (a fault campaign
    verifies every trial against it); the rows are fresh lists each
    call."""
    return [list(row) for row in _product(n, seed)]
