"""Native step kernel for the batched lockstep schedule.

The lockstep schedule (:mod:`repro.sysgen.batched`) is generated as
lines of a deliberately tiny numpy-shaped expression grammar over
``(N,)`` int64 lane arrays and ``(N, D)`` int64 lane tables.  This
module translates those lines into one C loop over lanes, compiled
with the system ``gcc`` at run time and driven through :mod:`ctypes`;
it is the only executor of the lockstep step.  Per-lane semantics are
those the lines state:

* ``np.where(c, a, b)`` becomes the C ternary (numpy truthiness of a
  nonzero int64 equals C truthiness),
* masked updates skip frozen lanes through the ``act`` test the lines
  apply element-wise,
* a table is read only by the gather ``T[ar, i]`` (``ar`` the bound
  ``np.arange(N)``: each lane reads its own row) and written only by
  the masked scatter ``T[m, p[m]] = (v)[m]`` (a lane writes its own
  row where ``m`` holds), so running the lines lane by lane equals
  running them line by line,
* a temporary that one segment writes before it reads it, and no
  other segment or python line names, is a C local; any other name a
  line assigns lives in an ``(N,)`` lane array between segments,
* ``%`` uses Python/numpy floored-modulo semantics via a helper,
* the translation unit is compiled ``-fwrapv`` so signed arithmetic
  wraps like numpy int64.

Anything outside the grammar — unsupported calls or subscripts,
non-int64 or non-contiguous arrays — raises :class:`CUnsupported`, and
so does a missing or failing compiler; the batch then refuses to build
and its callers run every lane on the scalar engine, whose reports are
byte-identical.  Compiled objects are cached in-process by source
hash, failures included, so the per-chunk rebuilds of a fault campaign
share one ``gcc`` invocation.
"""

from __future__ import annotations

import ast
import ctypes
import hashlib
import multiprocessing.util
import os
import re
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from typing import Callable

try:  # pragma: no cover - numpy is baked into the environment
    import numpy as np
except ImportError:  # pragma: no cover
    np = None


class CUnsupported(Exception):
    """No kernel for this cycle body: a line falls outside the
    C-translatable grammar, or ``gcc`` is missing or fails."""


# ---------------------------------------------------------------------------
# Expression translation (python AST -> C, fully parenthesized)
# ---------------------------------------------------------------------------

_BINOPS = {
    ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*",
    ast.LShift: "<<", ast.RShift: ">>",
}
_CMPOPS = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=",
}


class _ExprEmitter:
    """Emit one C expression for one generated numpy line.

    ``resolve(name, base=False)`` returns a ``("lane", slot)`` /
    ``("table", slot, depth)`` / ``("shared", slot, length)`` /
    ``("local", k)`` / ``("const", int)`` / ``("act",)`` /
    ``("arange",)`` / ``("zero",)`` tag for every identifier
    (``base``: the name is subscripted),
    raising :class:`CUnsupported` for names it cannot place.
    """

    def __init__(self, resolve: Callable[..., tuple]):
        self.resolve = resolve
        self.reads: set[int] = set()
        self.shared_reads: set[int] = set()
        self.tables: set[int] = set()
        self.locals: set[int] = set()

    def emit(self, node: ast.expr) -> str:
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, int) or isinstance(node.value, bool):
                raise CUnsupported(f"non-int constant {node.value!r}")
            return f"INT64_C({node.value})"
        if isinstance(node, ast.Name):
            return self._name(node.id)
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Invert):
                return f"(~{self.emit(node.operand)})"
            if isinstance(node.op, ast.USub):
                return f"(-{self.emit(node.operand)})"
            raise CUnsupported(f"unary op {node.op!r}")
        if isinstance(node, ast.BinOp):
            op = _BINOPS.get(type(node.op))
            left, right = self.emit(node.left), self.emit(node.right)
            if op is not None:
                return f"({left} {op} {right})"
            if isinstance(node.op, ast.Mod):
                return f"pymod({left}, {right})"
            raise CUnsupported(f"binary op {node.op!r}")
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                raise CUnsupported("chained comparison")
            op = _CMPOPS.get(type(node.ops[0]))
            if op is None:
                raise CUnsupported(f"comparison {node.ops[0]!r}")
            return (f"((i64)({self.emit(node.left)} {op} "
                    f"{self.emit(node.comparators[0])}))")
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Subscript):
            return self._subscript(node)
        raise CUnsupported(f"node {type(node).__name__}")

    def _name(self, name: str) -> str:
        kind, *info = self.resolve(name)
        if kind == "lane":
            self.reads.add(info[0])
            return f"_v{info[0]}"
        if kind == "local":
            return f"_s{info[0]}"
        if kind == "const":
            return f"INT64_C({info[0]})"
        if kind == "act":
            return "_a"
        if kind == "zero":
            return "INT64_C(0)"
        raise CUnsupported(f"name {name!r} used as a scalar ({kind})")

    def _call(self, node: ast.Call) -> str:
        func = node.func
        if node.keywords:
            raise CUnsupported("keyword arguments")
        if (isinstance(func, ast.Attribute) and func.attr == "where"
                and isinstance(func.value, ast.Name)
                and func.value.id == "np" and len(node.args) == 3):
            cond, a, b = (self.emit(arg) for arg in node.args)
            return f"({cond} ? {a} : {b})"
        if (isinstance(func, ast.Attribute) and func.attr == "astype"
                and len(node.args) == 1):
            target = node.args[0]
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "np"
                    and target.attr in ("int64", "int_")):
                # comparisons already yield 0/1 int64 in the C emission
                return self.emit(func.value)
            raise CUnsupported("astype target")
        raise CUnsupported(f"call {ast.dump(func)}")

    def _subscript(self, node: ast.Subscript) -> str:
        if not isinstance(node.value, ast.Name):
            raise CUnsupported("computed subscript base")
        kind, *info = self.resolve(node.value.id, base=True)
        if kind == "table":
            # gather ``T[ar, i]``: each lane reads its own row
            sl = node.slice
            if not (isinstance(sl, ast.Tuple) and len(sl.elts) == 2
                    and isinstance(sl.elts[0], ast.Name)
                    and self.resolve(sl.elts[0].id)[0] == "arange"):
                raise CUnsupported(f"table access {ast.dump(sl)}")
            return self.cell(*info, sl.elts[1])
        if kind != "shared":
            raise CUnsupported(
                f"subscript of non-shared array {node.value.id!r}")
        slot, length = info
        self.shared_reads.add(slot)
        index = self.emit(node.slice)
        # numpy would raise on out-of-range indices; every generated
        # gather is masked (`rom[x % len]`), so clamping via floored
        # modulo is exact for in-range indices and keeps C memory-safe.
        return f"_T{slot}[(size_t)pymod({index}, INT64_C({length}))]"

    def cell(self, slot: int, depth: int, index: ast.expr) -> str:
        """Lane ``_i``'s cell ``index`` of table ``slot`` (clamped by
        floored modulo, like a shared-array gather)."""
        self.tables.add(slot)
        return (f"_d{slot}[_i * {depth} + "
                f"(size_t)pymod({self.emit(index)}, INT64_C({depth}))]")


def _match_scatter(assign: ast.Assign, emitter: _ExprEmitter) -> str | None:
    """``T[m, p[m]] = (v)[m]`` → the C statement
    ``if (m) T[lane, p] = v;`` or None for any other target."""
    target = assign.targets[0]
    if not (isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)):
        return None
    kind, *info = emitter.resolve(target.value.id)
    sl, v = target.slice, assign.value
    if not (kind == "table"
            and isinstance(sl, ast.Tuple) and len(sl.elts) == 2
            and isinstance(sl.elts[0], ast.Name)
            and isinstance(sl.elts[1], ast.Subscript)
            and isinstance(v, ast.Subscript)):
        return None
    mask = ast.dump(sl.elts[0])
    if ast.dump(sl.elts[1].slice) != mask or ast.dump(v.slice) != mask:
        return None
    return (f"if ({emitter.emit(sl.elts[0])}) "
            f"{emitter.cell(*info, sl.elts[1].value)} = "
            f"{emitter.emit(v.value)};")


# ---------------------------------------------------------------------------
# Kernel builder
# ---------------------------------------------------------------------------


class CStepKernel:
    """Compiled per-lane segments of one batched cycle body.

    ``segments`` holds, per python-interleaved run of numpy lines, the
    list of original source lines it replaces.  ``run(j)`` executes
    segment ``j`` over all N lanes (frozen lanes are skipped exactly
    where the lines mask them).
    """

    def __init__(self, n: int, arrays: list["np.ndarray"],
                 lib_path: str, seg_count: int, source: str):
        self.n = n
        self.arrays = arrays  # slot -> backing ndarray
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
        self._table = (ctypes.c_void_p * len(arrays))()
        self._gen = -1

    def _refresh(self) -> None:
        table = self._table
        for k, arr in enumerate(self.arrays):
            table[k] = arr.ctypes.data
        self._gen = 0

    def runner(self) -> Callable[[int, "np.ndarray"], None]:
        """A ``run(j, act)`` closure: segment ``j`` over the lanes where
        the boolean mask ``act`` holds.  The ctypes pointer is cached
        per mask-array identity (``reset`` replaces the mask)."""
        segs = self._segs
        table = self._table
        n = ctypes.c_longlong(self.n)
        cache: list = [None, None]  # [mask array, its c_char_p]

        def run(j: int, act: "np.ndarray", _self=self) -> None:
            if _self._gen < 0:
                _self._refresh()
            if act is not cache[0]:
                cache[0] = act
                cache[1] = act.ctypes.data_as(ctypes.c_char_p)
            segs[j](table, cache[1], n)

        return run


def _slot_kind(arr, n: int, what: str) -> tuple:
    """Classify a backing array: ``("i64",)`` / ``("u8",)`` lane arrays
    or a ``("table", depth)`` of ``depth`` int64 cells per lane."""
    if not isinstance(arr, np.ndarray) or not arr.flags["C_CONTIGUOUS"]:
        raise CUnsupported(f"{what}: not a contiguous ndarray")
    if arr.shape == (n,) and arr.dtype == np.int64:
        return ("i64",)
    if arr.shape == (n,) and arr.dtype == np.bool_:
        return ("u8",)
    if arr.ndim == 2 and arr.shape[0] == n and arr.shape[1] >= 1 \
            and arr.dtype == np.int64:
        return ("table", arr.shape[1])
    raise CUnsupported(f"{what}: shape {arr.shape}, dtype {arr.dtype}")


@dataclass(frozen=True)
class _Translation:
    """The C translation of one cycle body, free of the arrays it runs
    on: the C source, the ``body`` plan (python lines and segment
    indices), and the slot layout by name — per slot its origin
    (``port``/``state``/``bound``/``shared``/``scratch``), name and
    kind — plus the bound integers the source inlines."""

    c_source: str
    body: tuple[object, ...]
    seg_count: int
    slots: tuple[tuple[str, str, tuple], ...]
    consts: tuple[tuple[str, int], ...]

    def bind(self, n: int, port_store: list, state_store: list,
             port_names: dict[str, int], state_names: dict[str, int],
             bound: dict[str, object]) -> list["np.ndarray"] | None:
        """This batch's slot arrays, or ``None`` when its bindings
        differ from the translated ones (another inlined constant,
        shared-table length or slot kind): then translate afresh."""
        for name, value in self.consts:
            if _const_value(bound.get(name)) != value:
                return None
        arrays: list["np.ndarray"] = []
        for origin, name, kind in self.slots:
            if origin == "port":
                arr = port_store[port_names[name]]
            elif origin == "state":
                arr = state_store[state_names[name]]
            elif origin == "scratch":
                if bound.get(name) is not None:
                    return None
                arr = np.zeros(n, dtype=np.int64)
            else:
                arr = bound.get(name)
            if _kind(arr, n, origin == "shared") != kind:
                return None
            arrays.append(arr)
        return arrays


def _const_value(obj) -> int | None:
    """A bound name's value when the C source may inline it."""
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return int(obj)
    return None


def _kind(arr, n: int, shared: bool) -> tuple | None:
    """A slot's kind (:func:`_slot_kind`, or ``("shared", length)`` for
    a shared table), ``None`` when ``arr`` cannot fill that slot."""
    if shared:
        if isinstance(arr, np.ndarray) and arr.ndim == 1 \
                and arr.dtype == np.int64 and arr.flags["C_CONTIGUOUS"]:
            return ("shared", arr.shape[0])
        return None
    try:
        return _slot_kind(arr, n, "slot")
    except CUnsupported:
        return None


#: translations by cycle body; the oldest are evicted first.  The
#: compiled libraries stay in :data:`_LIB_CACHE` alone.
TRANSLATION_CACHE_LIMIT = 64

_TRANSLATIONS: dict[bytes, _Translation] = {}
_TRANSLATIONS_LOCK = threading.Lock()


def build_step_kernel(
    n: int,
    cycle_lines: list[str],
    port_store: list,
    state_store: list,
    port_names: dict[str, int],
    state_names: dict[str, int],
    bound: dict[str, object],
    act_name: str,
    arange_name: str,
    zeros_name: str,
) -> tuple["CStepKernel", list[object]]:
    """Translate + compile the numpy-shaped runs of one cycle body.

    Returns ``(kernel, body)`` where ``body`` interleaves the
    untranslated python lines (strings) with segment indices (ints).
    Raises :class:`CUnsupported` when any line falls outside the
    grammar or the C source does not compile (no ``gcc`` on ``PATH``
    included).

    The translation is cached in-process by the cycle body and its
    names (a campaign builds one batch per chunk of the same design);
    each build re-resolves the slot arrays by name.
    """
    names = (n, act_name, arange_name, zeros_name,
             list(port_names.items()), list(state_names.items()))
    key = hashlib.sha256(
        "\0".join([repr(names), *cycle_lines]).encode()).digest()
    stores = (n, port_store, state_store, port_names, state_names, bound)
    plan = _TRANSLATIONS.get(key)
    arrays = plan.bind(*stores) if plan is not None else None
    if arrays is None:
        plan, arrays = _translate(cycle_lines, *stores, act_name,
                                  arange_name, zeros_name)
        with _TRANSLATIONS_LOCK:
            while len(_TRANSLATIONS) >= TRANSLATION_CACHE_LIMIT:
                del _TRANSLATIONS[next(iter(_TRANSLATIONS))]
            _TRANSLATIONS[key] = plan
    lib_path = _compile_cached(plan.c_source)
    kernel = CStepKernel(n, arrays, lib_path, plan.seg_count, plan.c_source)
    return kernel, list(plan.body)


def _translate(
    cycle_lines: list[str],
    n: int,
    port_store: list,
    state_store: list,
    port_names: dict[str, int],
    state_names: dict[str, int],
    bound: dict[str, object],
    act_name: str,
    arange_name: str,
    zeros_name: str,
) -> tuple[_Translation, list["np.ndarray"]]:
    """Translate one cycle body: its :class:`_Translation` and the slot
    arrays it resolved."""
    # -- slot layout: ports, then states, then shared/scratch ----------
    arrays: list["np.ndarray"] = []
    slots: list[tuple[str, str, tuple]] = []
    slot_of: dict[str, int] = {}
    elem: dict[int, tuple] = {}  # slot -> ("i64",) | ("u8",) | ("table", D)
    shared: dict[str, tuple[int, int]] = {}

    def add_slot(name: str, arr, origin: str) -> tuple:
        kind = _slot_kind(arr, n, f"{origin} {name}")
        slot = len(arrays)
        slot_of[name] = slot
        elem[slot] = kind
        arrays.append(arr)
        slots.append((origin, name, kind))
        return slot_tag(slot)

    def slot_tag(slot: int) -> tuple:
        if elem[slot][0] == "table":
            return ("table", slot, elem[slot][1])
        return ("lane", slot)

    for name, k in port_names.items():
        add_slot(name, port_store[k], "port")
    for name, k in state_names.items():
        add_slot(name, state_store[k], "state")

    consts: dict[str, int] = {}
    fixed = {act_name: ("act",), arange_name: ("arange",),
             zeros_name: ("zero",)}

    def resolve(name: str, base: bool = False) -> tuple:
        # ``base``: ``name`` is subscripted, so a bound 1-D array is a
        # shared table whatever its length (a lane vector otherwise)
        if name in slot_of:
            return slot_tag(slot_of[name])
        if name in local_of:
            return ("local", local_of[name])
        if name in consts:
            return ("const", consts[name])
        if name in shared:
            return ("shared", *shared[name])
        if name in fixed:
            return fixed[name]
        obj = bound.get(name)
        value = _const_value(obj)
        if value is not None:
            consts[name] = value
            return ("const", value)
        if isinstance(obj, np.ndarray):
            kind = _kind(obj, n, shared=True) if base else None
            if kind is not None:
                shared[name] = (len(arrays), kind[1])
                arrays.append(obj)
                slots.append(("shared", name, kind))
                return ("shared", *shared[name])
            return add_slot(name, obj, "bound")
        raise CUnsupported(f"unresolvable name {name!r} ({type(obj)})")

    # -- partition into python runs and C segments ---------------------
    # each numpy line parsed; a python line stays a string
    groups: list[list] = []
    for line in cycle_lines:
        if "\n" in line or "[_l]" in line or line.lstrip().startswith("for "):
            groups.append(line)
            continue
        # a SyntaxError here is a block's emitter bug: it propagates
        tree = ast.parse(line.strip(), mode="exec")
        if len(tree.body) != 1 or not isinstance(tree.body[0], ast.Assign) \
                or len(tree.body[0].targets) != 1:
            raise CUnsupported(f"not a single assignment: {line!r}")
        if not groups or isinstance(groups[-1], str):
            groups.append([])
        groups[-1].append((line, tree.body[0]))
    local_of = _scratch_locals(groups, set(slot_of) | set(fixed), bound)

    # seg stmt: ("a", slot, c_expr) or ("raw", c_code)
    body: list[object] = []
    seg_stmts: list[list[tuple]] = []
    segs: list[_ExprEmitter] = []  # per segment: what its lines name
    for group in groups:
        if isinstance(group, str):
            body.append(group)
            continue
        emitter = _ExprEmitter(resolve)
        stmts: list[tuple] = []
        for line, assign in group:
            target = assign.targets[0]
            if not isinstance(target, ast.Name):
                code = _match_scatter(assign, emitter)
                if code is None:
                    raise CUnsupported(f"compound target: {line!r}")
                stmts.append(("raw", code))
                continue
            expr = emitter.emit(assign.value)
            if target.id in local_of:
                emitter.locals.add(local_of[target.id])
                stmts.append(("raw", f"_s{local_of[target.id]} = {expr};"))
                continue
            if target.id not in slot_of:
                if target.id in consts or target.id in shared \
                        or target.id in fixed \
                        or bound.get(target.id) is not None:
                    raise CUnsupported(
                        f"assignment to bound name {target.id!r}")
                add_slot(target.id, np.zeros(n, dtype=np.int64), "scratch")
            if elem[slot_of[target.id]][0] == "table":
                raise CUnsupported(f"whole-table write: {line!r}")
            stmts.append(("a", slot_of[target.id], expr))
        segs.append(emitter)
        seg_stmts.append(stmts)
        body.append(len(seg_stmts) - 1)

    if not seg_stmts:
        raise CUnsupported("no translatable lines")

    # -- C source ------------------------------------------------------
    src = [
        "#include <stdint.h>",
        "#include <stddef.h>",
        "typedef int64_t i64;",
        "static inline i64 pymod(i64 a, i64 b) {",
        "    i64 r;",
        "    if (b == 0) return 0;  /* numpy int64 x %% 0 == 0 */",
        "    r = a % b;",
        "    if (r != 0 && ((r < 0) != (b < 0))) r += b;",
        "    return r;",
        "}",
        "",
    ]
    for j, stmts in enumerate(seg_stmts):
        writes = {st[1] for st in stmts if st[0] == "a"}
        lane_slots = sorted(segs[j].reads | writes)
        src.append(f"void seg{j}(void **T, const unsigned char *ACT, "
                   "i64 N) {")
        for s in sorted(segs[j].shared_reads):
            src.append(f"    const i64 *_T{s} = (const i64 *)T[{s}];")
        for s in sorted(segs[j].tables):
            src.append(f"    i64 *_d{s} = (i64 *)T[{s}];")
        for s in lane_slots:
            ctyp = "unsigned char" if elem[s][0] == "u8" else "i64"
            src.append(f"    {ctyp} *_p{s} = ({ctyp} *)T[{s}];")
        src.append("    for (i64 _i = 0; _i < N; _i++) {")
        src.append("        const i64 _a = (i64)ACT[_i];")
        for s in lane_slots:
            src.append(f"        i64 _v{s} = (i64)_p{s}[_i];")
        for k in sorted(segs[j].locals):
            src.append(f"        i64 _s{k};")
        for st in stmts:
            if st[0] == "a":
                src.append(f"        _v{st[1]} = {st[2]};")
            else:
                src.append(f"        {st[1]}")
        for s in sorted(writes):
            if elem[s][0] == "u8":
                src.append(
                    f"        _p{s}[_i] = (unsigned char)(_v{s} != 0);")
            else:
                src.append(f"        _p{s}[_i] = _v{s};")
        src.append("    }")
        src.append("}")
        src.append("")
    c_source = "\n".join(src)

    plan = _Translation(c_source, tuple(body), len(seg_stmts), tuple(slots),
                        tuple(consts.items()))
    return plan, arrays


def _scratch_locals(groups: list, placed: set[str],
                    bound: dict[str, object]) -> dict[str, int]:
    """The temporaries that become C locals, numbered: names assigned
    in the numpy lines that are no port, state or binding, which one
    segment writes before it reads them and nothing else names (no
    other segment, no python line) — so no lane array has to carry
    them from one segment or cycle to the next."""
    home: dict[str, int] = {}  # name -> its one segment, or -1
    python: set[str] = set()
    for j, group in enumerate(groups):
        if isinstance(group, str):
            python.update(_IDENTIFIER.findall(group))
            continue
        for _line, assign in group:
            target = assign.targets[0]
            named = isinstance(target, ast.Name)
            for node in ast.walk(assign.value if named else assign):
                if isinstance(node, ast.Name):
                    # read before this segment wrote it, or elsewhere
                    home[node.id] = j if home.get(node.id) == j else -1
            if named:
                home[target.id] = j if home.get(target.id, j) == j else -1
    names = sorted(name for name, j in home.items()
                   if j >= 0 and name not in python and name not in placed
                   and bound.get(name) is None)
    return {name: k for k, name in enumerate(names)}


#: a python identifier (the names a generated python line uses)
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


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
            ["gcc", "-O2", "-fwrapv", "-shared", "-fPIC",
             "-o", so_path, c_path],
            capture_output=True, timeout=120,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        raise CUnsupported(f"gcc did not run: {exc}") from None
    if proc.returncode != 0:
        err = proc.stderr.decode(errors="replace").strip()[-400:]
        raise CUnsupported(f"gcc exited {proc.returncode}: {err}")
    return so_path
