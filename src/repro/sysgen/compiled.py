"""Compiled-schedule execution engine for sysgen models.

The per-cycle interpreter in :mod:`repro.sysgen.model` walks python
objects every cycle: ``present()`` on each sequential block, a topo-
ordered ``evaluate()`` sweep, probe sampling, ``clock()`` — hundreds of
method calls, dict lookups and ``InputPort.value`` property chases per
simulated cycle.  Following the FLASH insight (simulate at the
*schedule* level, not the per-block dispatch level), this module
specializes the whole schedule into one flat generated python function
per model:

* every output-port value lives in a local variable for the duration
  of a ``step(cycles)`` call,
* each block contributes straight-line source for its present /
  evaluate / clock behaviour via :meth:`~repro.sysgen.block.Block.emit`
  (unconnected inputs fold to their literal defaults, which prunes
  enable/reset branches),
* combinational chains become consecutive local-variable expressions
  in topological order — no dispatch between them,
* probes become bound ``list.append`` calls.

The same pass generates ``_idle_horizon``, the compiled form of
:meth:`Model.idle_horizon <repro.sysgen.model.Model.idle_horizon>`:
each block's ``emit`` adds straight-line "busy -> ``return 0``" checks
over read-only port locals (unconnected inputs fold to literals), so
the fast-forward kernel's per-cycle quiescence scan no longer walks
block objects and ``in_value`` property chains.

Blocks that do not implement :meth:`emit` (user subclasses) fall back
to their interpreter methods, spliced into the generated function with
port synchronization around the call, so compiled and interpreted
execution remain bit-identical for arbitrary block mixes.  Likewise a
block whose ``idle_horizon`` has no compiled form (it overrides the
method without emitting a matching check) gets a bound call spliced
into ``_idle_horizon``, ``if block.idle_horizon() < IDLE_FOREVER:
return 0``: the scan is binary, so a finite horizon counts as busy.

Observable equivalence is the contract: port values, block state,
probe samples, telemetry events, exception behaviour and the
``state_dict()`` surface match the interpreter cycle for cycle (the
conformance oracle and ``tests/test_compiled.py`` enforce this).  The
generated function loads port/state values on entry and flushes them
in a ``finally`` on exit, so external mutation between calls —
gateway drives, OPB stores, fault injection poking ``port.value``,
``load_state`` — behaves exactly as under the interpreter.

The lockstep batched engine (:mod:`repro.sysgen.batched`) generates
its lane schedule with the same machinery: its context subclasses
:class:`EmitContext` and renders the same verbs as masked C over one
lane (so a block written with them has one ``emit`` for both engines),
:func:`function_frame` builds every generated function of both
engines, and :func:`exec_generated` is the one compile site.
It compiles each distinct generated source once per process: code
objects are cached by content (filename and source text), so a rebuilt
model -- a campaign's baseline, each lockstep batch, every scalar
replay -- reuses the compiled code and only runs it to bind fresh
functions to its own objects.

Select ``engine="interpreter"`` (``model.set_engine``,
``CoSimulation(engine=...)`` or :func:`repro.runapi.engine_scope`) to
disable compilation and run the classic interpreter loop;
``model.compiled_source`` exposes the generated source for inspection.
"""

from __future__ import annotations

import hashlib
import re
import threading
from types import CodeType
from typing import TYPE_CHECKING, Callable

from repro.sysgen.block import IDLE_FOREVER, Block

if TYPE_CHECKING:  # pragma: no cover
    from repro.sysgen.model import Model
    from repro.sysgen.ports import InputPort, OutputPort

class CompileError(RuntimeError):
    """Schedule code generation failed (a block emitted bad source)."""


#: most code objects the process-wide cache of :func:`exec_generated`
#: keeps; the oldest are evicted first.  One schedule of a large design
#: (CORDIC P=8) takes 50-70 KB, so a full cache stays under ~5 MB.
CODE_CACHE_LIMIT = 64

_code_cache: dict[bytes, CodeType] = {}
_code_cache_lock = threading.Lock()


#: matches generated port-variable tokens (see :meth:`EmitContext.out`)
_PORT_VAR = re.compile(r"\bv\d+\b")
#: matches every identifier token in generated source
_NAME = re.compile(r"\b[A-Za-z_]\w*\b")


class EmitContext:
    """Code-generation context handed to each block's ``emit``.

    Line sinks — each takes one complete python statement (emitters may
    pass several physical lines with *relative* indentation to build
    ``if``/``else`` blocks; everything is re-indented into the loop):

    * :meth:`present` — sequential output drive, start of cycle
    * :meth:`evaluate` — combinational propagation, topo position
    * :meth:`clock` — state capture at the clock edge
    * :meth:`horizon` — the block's idle-horizon check (``return 0``
      when busy; see :meth:`busy_if`)

    Value helpers:

    * :meth:`inp` — expression for an input port's current value
      (a port-variable, or the literal default when unconnected)
    * :meth:`lit` — the literal int behind an expression, or ``None``
    * :meth:`out` — the local variable holding an output port's value
    * :meth:`bind` — closure name for an arbitrary python object
    * :meth:`fresh` — per-call rebound attribute (collections that
      ``reset``/``load_state`` may replace)
    * :meth:`tmp` — fresh temporary name

    Rendering verbs — scalar python here; the batched engine's
    :class:`~repro.sysgen.batched.BatchEmitContext` overrides each once
    with masked C over one lane's scalars, so an ``emit`` written with
    only these, the value helpers and integer arithmetic serves both
    schedules:

    * :meth:`state_slot` — block state cached in a local (lane array)
    * :meth:`param` — construction parameter: literal or per-call load
      (lane vector)
    * :meth:`drive` — sequential output drive (masked)
    * :meth:`update` — guarded register update and its horizon check
    * :meth:`select` / :meth:`as_int` — masked two-way select, 0/1 flag
    """

    def __init__(self, model: "Model"):
        self.model = model
        self.ns: dict[str, object] = {}
        self._bound: dict[int, str] = {}
        self._port_var: dict[int, str] = {}
        self._ports: list["OutputPort"] = []
        self._entry: list[str] = []
        self._present: list[str] = []
        self._evaluate: list[str] = []
        self._probe: list[str] = []
        self._clock: list[str] = []
        self._exit: list[str] = []
        #: id(block) -> its idle-horizon lines; ``block`` is the block
        #: whose ``emit`` is running
        self._horizon: dict[int, list[str]] = {}
        self.block: "Block | None" = None
        self._n = 0

    # -- line sinks -----------------------------------------------------
    def entry(self, line: str) -> None:
        self._entry.append(line)

    def present(self, line: str) -> None:
        self._present.append(line)

    def evaluate(self, line: str) -> None:
        self._evaluate.append(line)

    def probe_line(self, line: str) -> None:
        self._probe.append(line)

    def clock(self, line: str) -> None:
        self._clock.append(line)

    def exit(self, line: str) -> None:
        self._exit.append(line)

    def horizon(self, line: str) -> None:
        """A statement of the current block's compiled idle horizon.

        It runs between steps, on read-only locals: the port variables
        and entry-loaded names hold the values the ports and block
        attributes have at call time, and assignments to them are
        never written back.  The statement must ``return 0`` when the
        block has pending work and fall through when it is at a fixed
        point."""
        self._horizon.setdefault(id(self.block), []).append(line)

    def busy_if(self, *conds: str) -> None:
        """Horizon check: the block is busy when any of ``conds``
        holds."""
        if conds:
            self.horizon(
                f"if {' or '.join(f'({c})' for c in conds)}: return 0")

    # -- names ----------------------------------------------------------
    def _fresh_name(self, prefix: str) -> str:
        self._n += 1
        return f"{prefix}{self._n}"

    def tmp(self) -> str:
        """A fresh temporary local name."""
        return self._fresh_name("_t")

    def bind(self, obj: object, hint: str = "b") -> str:
        """Closure name for ``obj`` (deduplicated by identity)."""
        key = id(obj)
        name = self._bound.get(key)
        if name is None:
            name = self._fresh_name(f"_{hint}")
            self._bound[key] = name
            self.ns[name] = obj
        return name

    def fresh(self, obj: object, attr: str, hint: str = "a") -> str:
        """A local rebound from ``obj.attr`` at every call entry.

        Use for mutable collections operated on in place (deques,
        lists): ``reset``/``load_state`` may replace the attribute
        between calls, so the local must be re-fetched per call."""
        name = self._fresh_name(f"_{hint}")
        self.entry(f"{name} = {self.bind(obj)}.{attr}")
        return name


    # -- ports ----------------------------------------------------------
    def port_var(self, port: "OutputPort") -> str:
        """The local variable mirroring ``port.value``."""
        name = self._port_var.get(id(port))
        if name is None:
            name = f"v{len(self._ports)}"
            self._port_var[id(port)] = name
            self._ports.append(port)
        return name

    def out(self, block: "Block", name: str) -> str:
        """Local variable for output port ``block.name`` (assign it)."""
        return self.port_var(block.outputs[name])

    def inp(self, block: "Block", name: str) -> str:
        """Expression for input port ``block.name``'s current value."""
        port = block.inputs[name]
        if port.source is None:
            return repr(port.default)
        return self.port_var(port.source)

    @staticmethod
    def lit(expr: str) -> int | None:
        """The compile-time literal behind ``expr``, if any."""
        try:
            return int(expr)
        except ValueError:
            return None

    # -- rendering verbs -------------------------------------------------
    def state_slot(self, block: "Block", attr: str, hint: str = "st") -> str:
        """The int attribute ``block.attr`` cached in a local for the
        whole call: loaded at entry, written back in the exit
        ``finally``.  (``hint`` names the lane array of the batched
        rendering; the scalar local is always ``_sN``.)"""
        name = self._fresh_name("_s")
        ref = f"{self.bind(block)}.{attr}"
        self.entry(f"{name} = {ref}")
        self.exit(f"{ref} = {name}")
        return name

    def param(self, block: "Block", attr: str, hint: str,
              live: bool = False) -> str:
        """Construction parameter ``block.attr`` (an int): its literal,
        or with ``live`` a local re-read at every call entry, so a
        rebuilt or reloaded model never runs a stale value.  (``hint``
        names the lane vector of the batched rendering.)"""
        if live:
            return self.fresh(block, attr, "k")
        return repr(getattr(block, attr))

    def drive(self, out: str, expr: str) -> None:
        """Sequential output drive ``out = expr`` at the start of the
        cycle."""
        self.present(f"{out} = {expr}")

    def update(self, q: str, state: str, rst: str, en: str,
               rst_val: str, en_val: str) -> None:
        """The registered update at the clock edge::

            if rst & 1: state = rst_val
            elif en & 1: state = en_val

        with branches pruned when a guard is a literal (an unconnected
        ``en``/``rst`` input folded to its default), plus its horizon
        check: busy unless the state stored at the next edge equals the
        current one and output ``q`` already presents it."""
        rlit, elit = self.lit(rst), self.lit(en)
        on_rst, on_en = f"{state} = {rst_val}", f"{state} = {en_val}"
        if rlit is None:
            tail = (f"\nelif {en} & 1: {on_en}" if elit is None
                    else f"\nelse: {on_en}" if elit & 1 else "")
            self.clock(f"if {rst} & 1: {on_rst}{tail}")
        elif rlit & 1:
            self.clock(on_rst)
        elif elit is None:
            self.clock(f"if {en} & 1: {on_en}")
        elif elit & 1:
            self.clock(on_en)
        if elit is None:
            nxt = f"(({en_val}) if ({en}) & 1 else {state})"
        else:
            nxt = f"({en_val})" if elit & 1 else state
        if rlit is None:
            nxt = f"({rst_val} if ({rst}) & 1 else {nxt})"
        elif rlit & 1:
            nxt = rst_val
        if nxt == state:
            self.busy_if(f"{q} != {state}")
        else:
            self.busy_if(f"{nxt} != {state}", f"{q} != {state}")

    def select(self, cond: str, a: str, b: str, mask: int) -> str:
        """``a`` where ``cond`` holds, else ``b``, masked to ``mask``."""
        return f"({a} if {cond} else {b}) & {mask}"

    def as_int(self, cond: str) -> str:
        """The condition ``cond`` as an int: 1 when it holds, else 0."""
        return f"1 if {cond} else 0"

    # -- fallback support ------------------------------------------------
    def flush_inputs(self, block: "Block", sink: Callable[[str], None]) -> None:
        """Write the source-port locals feeding ``block`` back to their
        ports, so an interpreter-dispatched method reading
        ``in_value()`` sees current values."""
        for port in block.inputs.values():
            if port.source is not None:
                var = self.port_var(port.source)
                sink(f"{self.bind(port.source, 'p')}.value = {var}")

    def reload_outputs(self, block: "Block", sink: Callable[[str], None]) -> None:
        """Refresh the locals for ``block``'s outputs from the ports
        after an interpreter-dispatched method may have written them."""
        for port in block.outputs.values():
            var = self.port_var(port)
            sink(f"{var} = {self.bind(port, 'p')}.value")


def signed_expr(expr: str, width: int) -> str:
    """Pure-expression sign extension of ``expr`` (an unsigned pattern)
    to a python int — the inline form of
    :func:`repro.sysgen.block.to_signed`."""
    m = (1 << width) - 1
    sb = 1 << (width - 1)
    return f"((({expr}) & {m}) - ((({expr}) & {sb}) << 1))"


def _emit_fallback(ctx: EmitContext, block: "Block") -> None:
    """Interpreter dispatch for a block without :meth:`emit`, spliced
    into the generated function with port synchronization."""
    ref = ctx.bind(block)
    if block.sequential:
        ctx.present(f"{ref}.present()")
        ctx.reload_outputs(block, ctx.present)
        ctx.flush_inputs(block, ctx.clock)
        ctx.clock(f"{ref}.clock()")
        ctx.reload_outputs(block, ctx.clock)
    else:
        ctx.flush_inputs(block, ctx.evaluate)
        ctx.evaluate(f"{ref}.evaluate()")
        ctx.reload_outputs(block, ctx.evaluate)


def _reindent(lines: list[str], pad: str) -> list[str]:
    out = []
    for chunk in lines:
        for line in chunk.split("\n"):
            out.append(pad + line if line.strip() else line)
    return out


def function_frame(name: str, params: list[str], ns: dict[str, object],
                   prologue: list[str], body: list[str],
                   epilogue: list[str], loop: bool = True) -> list[str]:
    """Source lines (ending in a blank line) of one generated function.

    Every generated step and settle function has this shape.  The
    signature is ``params`` followed by each ``ns`` name as a keyword
    default bound to itself, so the hot loop reads closure objects as
    fast locals.  ``prologue`` runs once on entry (state and port
    loads).  ``body`` runs ``_n`` times, counting finished cycles in
    ``_done`` — or once with ``loop=False`` (the settle functions).
    ``epilogue`` runs in the ``finally`` however the body exits (port
    stores, write-backs, cycle accounting)."""
    sig = ", ".join(params + [f"{k}={k}" for k in ns])
    src = [f"def {name}({sig}):"]
    src += _reindent(prologue, "    ")
    if loop:
        src += ["    _done = 0",
                "    try:",
                "        while _done < _n:"]
        src += _reindent(body, "            ") or ["            pass"]
        src += ["            _done += 1"]
    else:
        src += ["    try:"]
        src += _reindent(body, "        ") or ["        pass"]
    src += ["    finally:"]
    src += _reindent(epilogue, "        ") or ["        pass"]
    src.append("")
    return src


def exec_generated(source: str, filename: str, ns: dict[str, object],
                   what: str) -> dict[str, object]:
    """Run ``source`` in a copy of ``ns``; returns that namespace, which
    now holds the generated functions.

    The source is compiled once per process: the code object is cached
    by the content of ``filename`` and ``source``, so a rebuilt model
    whose schedule emits the same text skips ``compile()``.  Each call
    still executes the module in its own namespace, so every model gets
    fresh functions whose keyword defaults bind its own ports, blocks
    and arrays (code objects are immutable; sharing one couples
    nothing).  A block that emitted invalid python raises
    :class:`CompileError` naming ``what`` (the schedule and its model)
    on every build: a failed compile is never cached."""
    key = hashlib.sha256(
        filename.encode() + b"\0" + source.encode()).digest()
    code = _code_cache.get(key)
    if code is None:
        try:
            code = compile(source, filename, "exec")
        except SyntaxError as exc:
            raise CompileError(
                f"generated {what} does not compile: {exc}\n{source}"
            ) from exc
        with _code_cache_lock:
            while len(_code_cache) >= CODE_CACHE_LIMIT:
                del _code_cache[next(iter(_code_cache))]
            _code_cache[key] = code
    ns = dict(ns)
    exec(code, ns)  # noqa: S102 - our own generated source
    return ns


def _unconditionally_written_first(lines: list[str]) -> set[str]:
    """Port variables whose *first* textual occurrence in the cycle
    body is a top-level unconditional assignment — these need no entry
    load (everything else is loaded from its port at call entry)."""
    decided: set[str] = set()
    written_first: set[str] = set()
    physical = [line for chunk in lines for line in chunk.split("\n")]
    for line in physical:
        target = None
        if not line.startswith((" ", "\t")):
            head, sep, rhs = line.partition(" = ")
            if sep and _PORT_VAR.fullmatch(head.strip()):
                target = head.strip()
                # variables read on the right-hand side count first
                for var in _PORT_VAR.findall(rhs):
                    if var not in decided:
                        decided.add(var)
        for var in _PORT_VAR.findall(line):
            if var == target:
                continue
            decided.add(var)
        if target is not None and target not in decided:
            decided.add(target)
            written_first.add(target)
    return written_first


def _defining_class(cls: type, name: str) -> type:
    return next(k for k in cls.__mro__ if name in vars(k))


def horizon_rule(block: "Block", emitter: str) -> str:
    """Where ``block``'s idle rule comes from in a schedule whose step
    code its method ``emitter`` (``"emit"``/``"emit_batched"``) wrote:
    ``"idle"``/``"busy"`` for the :class:`Block` default (combinational
    blocks are idle whenever the rest of the design is, sequential ones
    always busy), ``"emitted"`` when the class that wrote the step code
    also wrote the horizon it emitted (possibly nothing: always idle),
    else ``"call"``: only ``idle_horizon()`` itself knows."""
    owner = _defining_class(type(block), "idle_horizon")
    # A method patched onto the instance is always called.  (Probe the
    # bound method rather than ``vars(block)``: materializing an
    # instance __dict__ slows every later attribute access on the
    # block, including the generated _step's.)
    if (getattr(block.idle_horizon, "__func__", None)
            is not vars(owner)["idle_horizon"]):
        return "call"
    if owner is Block:
        return "busy" if block.sequential else "idle"
    return "emitted" if _defining_class(type(block), emitter) is owner \
        else "call"


def _horizon_body(ctx: EmitContext, model: "Model",
                  emitted: set[int]) -> list[str]:
    """The ``_idle_horizon`` statements, block by block in
    ``model.blocks`` order (the order of the interpreted walk, so
    spliced ``idle_horizon()`` calls run exactly when they would
    there)."""
    body: list[str] = []
    for block in model.blocks:
        rule = horizon_rule(block, "emit")
        if rule == "busy":
            body.append("return 0")
        elif rule == "emitted" and id(block) in emitted:
            body += ctx._horizon.get(id(block), [])
        elif rule != "idle":
            body.append(f"if {ctx.bind(block)}.idle_horizon() < "
                        f"{IDLE_FOREVER}: return 0")
    return body + [f"return {IDLE_FOREVER}"]


def _with_lazy_loads(ctx: EmitContext, body: list[str]) -> list[str]:
    """``body`` with each port load (``vN = port.value``) and entry line
    it reads placed just before the first statement that needs it, so a
    busy design returns after loading only what its first busy check
    reads."""
    ports = {ctx.port_var(p): f"{ctx.port_var(p)} = {ctx.bind(p, 'p')}.value"
             for p in ctx._ports}
    # every entry line is a ``name = expr`` rebinding
    entry = {line.partition(" = ")[0]: line for line in ctx._entry}
    out: list[str] = []
    loaded: set[str] = set()
    for chunk in body:
        for name in _NAME.findall(chunk):
            _load(name, ports, entry, loaded, out)
        out.append(chunk)
    return out


def _load(name: str, ports: dict[str, str], entry: dict[str, str],
          loaded: set[str], out: list[str]) -> None:
    """Append to ``out`` the lines that bind ``name`` (a port load, or
    an entry line after the lines of the names it reads), unless
    ``loaded`` has it.  A module function, not a closure: a recursive
    closure would hold itself in a reference cycle."""
    if name in loaded:
        return
    loaded.add(name)
    if name in ports:
        out.append(ports[name])
    elif name in entry:
        for dep in _NAME.findall(entry[name].partition(" = ")[2]):
            _load(dep, ports, entry, loaded, out)
        out.append(entry[name])


class CompiledSchedule:
    """Generated step/settle/idle-horizon functions for one compiled
    model.

    ``source`` holds the generated python (also surfaced as
    :attr:`Model.compiled_source`); ``step(cycles)``, ``settle()`` and
    ``idle_horizon()`` are the executable entry points.
    """

    def __init__(self, model: "Model"):
        assert model._schedule is not None
        ctx = EmitContext(model)
        emitted: set[int] = set()
        for block in model._seq + model._schedule:
            ctx.block = block
            if block.emit(ctx):
                emitted.add(id(block))
            else:
                _emit_fallback(ctx, block)
        for k, probe in enumerate(model.probes):
            app = ctx._fresh_name("_ap")
            ctx.entry(f"{app} = {ctx.bind(probe, 'pr')}.samples.append")
            port = probe.port
            if id(port) in ctx._port_var:
                ctx.probe_line(f"{app}({ctx.port_var(port)})")
            else:  # probe on a foreign port: read it live
                ctx.probe_line(f"{app}({ctx.bind(port, 'p')}.value)")

        cycle_body = (ctx._present + ctx._evaluate + ctx._probe
                      + ctx._clock)
        settle_body = ctx._present + ctx._evaluate
        no_load = _unconditionally_written_first(cycle_body)

        loads, stores = [], []
        for port in ctx._ports:
            var = ctx.port_var(port)
            ref = f"{ctx.bind(port, 'p')}.value"
            if var not in no_load:
                loads.append(f"{var} = {ref}")
            else:
                # written before any read each cycle; a zero seed keeps
                # the exit flush well-defined if cycle 0 raises early
                loads.append(f"{var} = 0")
            stores.append(f"{ref} = {var}")
        # settle() has no clock phase: a variable first written there
        # may be read (or flushed) during present/evaluate, so load
        # everything for settle.
        settle_loads = [f"{ctx.port_var(p)} = {ctx.bind(p, 'p')}.value"
                        for p in ctx._ports]

        stores += ctx._exit
        # the model's clock, not the model: no reference cycle
        clock = ctx.bind(model._clock, "m")
        src = function_frame("_step", ["_n"], ctx.ns, ctx._entry + loads,
                             cycle_body, stores + [f"{clock}.cycle += _done"])
        src += function_frame("_settle", [], ctx.ns,
                              ctx._entry + settle_loads, settle_body,
                              stores, loop=False)
        # Bound names stay globals of the generated module here: each
        # is read at most once per call, so binding them as defaults
        # (as _step does for its hot loop) would cost more per call
        # than it saves.
        src += ["def _idle_horizon():"]
        src += _reindent(
            _with_lazy_loads(ctx, _horizon_body(ctx, model, emitted)), "    ")
        src.append("")
        self.source = "\n".join(src)

        ns = exec_generated(self.source, f"<sysgen-compiled:{model.name}>",
                            ctx.ns, f"schedule for model {model.name!r}")
        # popped, so the namespace does not hold its own functions
        self.step = ns.pop("_step")
        self.settle = ns.pop("_settle")
        self.idle_horizon = ns.pop("_idle_horizon")
