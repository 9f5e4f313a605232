"""Native step kernel for the batched lockstep schedule.

The lockstep schedule (:mod:`repro.sysgen.batched`) is emitted as C
statements over one lane's scalars, cut into segments at the python
lines of its driver (per-lane fallback dispatch, probe loops).  This
module wraps each segment in one C loop over lanes, compiles the
translation unit with the system ``gcc`` at run time and drives it
through :mod:`ctypes`; it is the only executor of the lockstep step.
The segment frame defines what the statements may name besides their
own slots:

* ``_i``, the lane index, and ``_act``, 1 when the lane is active
  (masked updates test it, so frozen lanes keep their values),
* ``pymod(a, b)``, Python's floored ``%`` (``x % 0`` is 0),
* a lane array ``v`` as the C local ``v``: loaded from the lane's cell
  at lane entry and, where the segment assigns it, stored back at lane
  exit; a table as a pointer to its first cell, addressed in place,
* a temporary of the segment as an uninitialised C local.

The translation unit is compiled ``-fwrapv``, so signed arithmetic
wraps like int64 two's complement, and ``-Werror=shift-count-overflow``:
a shift by the width of its operand or more (``1 << 40`` on a C
``int``) fails the build instead of loading a kernel with undefined
behaviour.  A missing or failing compiler raises :class:`CUnsupported`;
the batch then refuses to build and its callers run every lane on the
scalar engine, whose reports are byte-identical.  Compiled objects are
cached in-process by source hash, failures included, so the per-chunk
rebuilds of a fault campaign share one ``gcc`` invocation.
"""

from __future__ import annotations

import ctypes
import hashlib
import multiprocessing.util
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class CUnsupported(Exception):
    """No kernel for this cycle body: ``gcc`` is missing or fails."""


@dataclass(frozen=True)
class Segment:
    """One run of C statements of the cycle body between two python
    lines, and what it touches: ``lanes`` — ``(name, slot)`` of each
    lane array it names; ``stores`` — the names of those it assigns;
    ``tables`` — ``(name, slot)`` of each table it names; ``locals`` —
    its temporaries.  Statements carry no closing ``;``."""

    statements: tuple[str, ...]
    lanes: tuple[tuple[str, int], ...]
    stores: tuple[str, ...]
    tables: tuple[tuple[str, int], ...]
    locals: tuple[str, ...]


class CStepKernel:
    """Compiled per-lane segments of one batched cycle body.

    ``run(j)`` executes segment ``j`` over all N lanes (frozen lanes
    are skipped exactly where the statements mask them) on the slot
    arrays the batch points it at (:meth:`point_at`).
    """

    def __init__(self, n: int, shapes: list[tuple[int, ...]],
                 lib_path: str, seg_count: int, source: str):
        self.n = n
        #: slot -> the shape of the int64 array it takes
        self.shapes = shapes
        #: slot -> its backing array, kept alive while the kernel runs
        self.arrays: list["np.ndarray"] = []
        self.source = source
        self.seg_count = seg_count
        self._lib = ctypes.CDLL(lib_path)
        self._segs = []
        for j in range(seg_count):
            fn = getattr(self._lib, f"seg{j}")
            fn.restype = None
            fn.argtypes = [ctypes.POINTER(ctypes.c_void_p),
                           ctypes.c_char_p, ctypes.c_longlong]
            self._segs.append(fn)
        self._table = (ctypes.c_void_p * len(shapes))()

    def point_at(self, arrays: list["np.ndarray"]) -> None:
        """Run on ``arrays`` from now on, one per slot: each must be a
        C-contiguous int64 array of its slot's shape, since the kernel
        addresses its cells directly."""
        if len(arrays) != len(self.shapes):
            raise ValueError(f"{len(arrays)} arrays for "
                             f"{len(self.shapes)} kernel slots")
        for k, (arr, shape) in enumerate(zip(arrays, self.shapes)):
            if (arr.dtype != "int64" or arr.shape != shape
                    or not arr.flags["C_CONTIGUOUS"]):
                raise ValueError(
                    f"kernel slot {k} takes a contiguous int64 array of "
                    f"shape {shape}, not {arr.dtype} {arr.shape}")
            self._table[k] = arr.ctypes.data
        self.arrays = list(arrays)

    def runner(self) -> Callable[[int, "np.ndarray"], None]:
        """A ``run(j, act)`` closure: segment ``j`` over the lanes where
        the boolean mask ``act`` holds.  The ctypes pointer is cached
        per mask-array identity (``reset`` replaces the mask)."""
        segs = self._segs
        table = self._table
        n = ctypes.c_longlong(self.n)
        cache: list = [None, None]  # [mask array, its c_char_p]

        def run(j: int, act: "np.ndarray") -> None:
            if act is not cache[0]:
                cache[0] = act
                cache[1] = act.ctypes.data_as(ctypes.c_char_p)
            segs[j](table, cache[1], n)

        return run


_PRELUDE = [
    "#include <stdint.h>",
    "#include <stddef.h>",
    "typedef int64_t i64;",
    "static inline i64 pymod(i64 a, i64 b) {",
    "    i64 r;",
    "    if (b == 0) return 0;  /* x % 0 == 0 */",
    "    r = a % b;",
    "    if (r != 0 && ((r < 0) != (b < 0))) r += b;",
    "    return r;",
    "}",
    "",
]


def _c_source(segments: list[Segment]) -> str:
    """The translation unit: one ``seg{j}`` function per segment."""
    src = list(_PRELUDE)
    for j, seg in enumerate(segments):
        src.append(f"void seg{j}(void **T, const unsigned char *ACT, "
                   "i64 N) {")
        src += [f"    i64 *{name} = (i64 *)T[{slot}];"
                for name, slot in seg.tables]
        src += [f"    i64 *P{slot} = (i64 *)T[{slot}];"
                for _, slot in seg.lanes]
        src.append("    for (i64 _i = 0; _i < N; _i++) {")
        src.append("        const i64 _act = (i64)ACT[_i];")
        src += [f"        i64 {name} = P{slot}[_i];"
                for name, slot in seg.lanes]
        src += [f"        i64 {name};" for name in seg.locals]
        src += [f"        {stmt};" for stmt in seg.statements]
        slot_of = dict(seg.lanes)
        src += [f"        P{slot_of[name]}[_i] = {name};"
                for name in seg.stores]
        src += ["    }", "}", ""]
    return "\n".join(src)


def build_step_kernel(n: int, shapes: list[tuple[int, ...]],
                      segments: list[Segment]) -> CStepKernel:
    """Compile ``segments`` of one cycle body into a kernel over ``n``
    lanes and one slot array of each of ``shapes``.  Raises
    :class:`CUnsupported` when the C source does not compile (no
    ``gcc`` on ``PATH`` included)."""
    source = _c_source(segments)
    lib_path = _compile_cached(source)
    return CStepKernel(n, shapes, lib_path, len(segments), source)


# ---------------------------------------------------------------------------
# Compilation (in-process cache keyed by source hash)
# ---------------------------------------------------------------------------

#: source hash -> the built library's path, or the reason it failed
_LIB_CACHE: dict[str, str | CUnsupported] = {}
_WORK_DIR: str | None = None


def _compile_cached(c_source: str) -> str:
    """The path of the library built from ``c_source``.  A failed build
    raises :class:`CUnsupported` and stays cached, so a host without
    ``gcc`` tries it once per source, not once per batch."""
    key = hashlib.sha256(c_source.encode()).hexdigest()
    if key not in _LIB_CACHE:
        try:
            _LIB_CACHE[key] = _compile(c_source, key)
        except CUnsupported as exc:
            _LIB_CACHE[key] = exc.with_traceback(None)
    built = _LIB_CACHE[key]
    if isinstance(built, CUnsupported):
        raise CUnsupported(*built.args)
    return built


def _compile(c_source: str, key: str) -> str:
    global _WORK_DIR
    if _WORK_DIR is None:
        _WORK_DIR = tempfile.mkdtemp(prefix="repro-ckernel-")
        # Remove it when this process exits (a loaded library stays
        # mapped after its file is unlinked).  Not ``atexit``: forked
        # multiprocessing workers leave through ``os._exit`` and skip
        # it, but run these finalizers; the main process runs them from
        # multiprocessing's own ``atexit`` hook.
        multiprocessing.util.Finalize(
            None, shutil.rmtree, args=(_WORK_DIR,),
            kwargs={"ignore_errors": True}, exitpriority=0)
    c_path = os.path.join(_WORK_DIR, f"{key[:16]}.c")
    so_path = os.path.join(_WORK_DIR, f"{key[:16]}.so")
    try:
        with open(c_path, "w") as fh:
            fh.write(c_source)
        proc = subprocess.run(
            ["gcc", "-O2", "-fwrapv", "-Werror=shift-count-overflow",
             "-shared", "-fPIC", "-o", so_path, c_path],
            capture_output=True, timeout=120,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        raise CUnsupported(f"gcc did not run: {exc}") from None
    if proc.returncode != 0:
        err = proc.stderr.decode(errors="replace").strip()[-400:]
        raise CUnsupported(f"gcc exited {proc.returncode}: {err}")
    return so_path
