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

Blocks that do not implement :meth:`emit` (user subclasses) fall back
to their interpreter methods, spliced into the generated function with
port synchronization around the call, so compiled and interpreted
execution remain bit-identical for arbitrary block mixes.

Observable equivalence is the contract: port values, block state,
probe samples, telemetry events, exception behaviour and the
``state_dict()`` surface match the interpreter cycle for cycle (the
conformance oracle and ``tests/test_compiled.py`` enforce this).  The
generated function loads port/state values on entry and flushes them
in a ``finally`` on exit, so external mutation between calls —
gateway drives, OPB stores, fault injection poking ``port.value``,
``load_state`` — behaves exactly as under the interpreter.

Select ``engine="interpreter"`` (``model.set_engine``,
``CoSimulation(engine=...)`` or :func:`repro.runapi.engine_scope`) to
disable compilation and run the classic interpreter loop;
``model.compiled_source`` exposes the generated source for inspection.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sysgen.block import Block
    from repro.sysgen.model import Model
    from repro.sysgen.ports import InputPort, OutputPort

class CompileError(RuntimeError):
    """Schedule code generation failed (a block emitted bad source)."""


#: matches generated port-variable tokens (see :meth:`EmitContext.out`)
_PORT_VAR = re.compile(r"\bv\d+\b")


class EmitContext:
    """Code-generation context handed to each block's ``emit``.

    Line sinks — each takes one complete python statement (emitters may
    pass several physical lines with *relative* indentation to build
    ``if``/``else`` blocks; everything is re-indented into the loop):

    * :meth:`present` — sequential output drive, start of cycle
    * :meth:`evaluate` — combinational propagation, topo position
    * :meth:`clock` — state capture at the clock edge

    Value helpers:

    * :meth:`inp` — expression for an input port's current value
      (a port-variable, or the literal default when unconnected)
    * :meth:`lit` — the literal int behind an expression, or ``None``
    * :meth:`out` — the local variable holding an output port's value
    * :meth:`bind` — closure name for an arbitrary python object
    * :meth:`fresh` — per-call rebound attribute (collections that
      ``reset``/``load_state`` may replace)
    * :meth:`scalar_state` — cached scalar attribute with write-back
    * :meth:`tmp` — fresh temporary name
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

    def scalar_state(self, obj: object, attr: str) -> str:
        """A scalar attribute cached in a local for the whole call:
        loaded at entry, written back in the exit ``finally``."""
        name = self._fresh_name("_s")
        ref = f"{self.bind(obj)}.{attr}"
        self.entry(f"{name} = {ref}")
        self.exit(f"{ref} = {name}")
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


def guarded_update(rst: str, en: str, rst_stmt: str, en_stmt: str) -> str | None:
    """Source for the standard registered-update pattern::

        if rst & 1: <rst_stmt>
        elif en & 1: <en_stmt>

    with branches pruned when a guard is a literal (an unconnected
    ``en``/``rst`` input folded to its default).  Returns None when the
    whole update is dead (rst=0, en=0)."""
    rlit = EmitContext.lit(rst)
    elit = EmitContext.lit(en)
    if rlit is not None:
        if rlit & 1:
            return rst_stmt
        if elit is not None:
            return en_stmt if elit & 1 else None
        return f"if {en} & 1: {en_stmt}"
    if elit is not None:
        if elit & 1:
            return f"if {rst} & 1: {rst_stmt}\nelse: {en_stmt}"
        return f"if {rst} & 1: {rst_stmt}"
    return f"if {rst} & 1: {rst_stmt}\nelif {en} & 1: {en_stmt}"


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


class CompiledSchedule:
    """Generated step/settle functions for one compiled model.

    ``source`` holds the generated python (also surfaced as
    :attr:`Model.compiled_source`); ``step(cycles)`` and ``settle()``
    are the executable entry points.
    """

    def __init__(self, model: "Model"):
        assert model._schedule is not None
        ctx = EmitContext(model)
        for block in model._seq:
            if not block.emit(ctx):
                _emit_fallback(ctx, block)
        for block in model._schedule:
            if not block.emit(ctx):
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

        mref = ctx.bind(model, "m")
        args = ", ".join(f"{k}={k}" for k in ctx.ns)
        head = f", {args}" if args else ""
        src = [f"def _step(_n{head}):"]
        src += _reindent(ctx._entry + loads, "    ")
        src += ["    _done = 0",
                "    try:",
                "        while _done < _n:"]
        src += _reindent(cycle_body, "            ") or ["            pass"]
        src += ["            _done += 1",
                "    finally:"]
        src += _reindent(stores + ctx._exit, "        ")
        src += [f"        {mref}.cycle += _done", ""]
        src += [f"def _settle({args}):" if args else "def _settle():"]
        src += _reindent(ctx._entry + settle_loads, "    ")
        src += ["    try:"]
        src += _reindent(settle_body, "        ") or ["        pass"]
        src += ["    finally:"]
        src += _reindent(stores + ctx._exit, "        ") or ["        pass"]
        src.append("")
        self.source = "\n".join(src)

        ns = dict(ctx.ns)
        try:
            code = compile(self.source, f"<sysgen-compiled:{model.name}>",
                           "exec")
            exec(code, ns)  # noqa: S102 - our own generated source
        except SyntaxError as exc:  # pragma: no cover - emitter bug
            raise CompileError(
                f"generated schedule for model {model.name!r} does not "
                f"compile: {exc}\n{self.source}"
            ) from exc
        self.step = ns["_step"]
        self.settle = ns["_settle"]
