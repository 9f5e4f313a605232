"""Batched lockstep execution of N models of one design.

A parameter sweep or fault campaign simulates the *same* design many
times with different constants, programs or seeds.  Run scalar, each
variant pays the full python interpretation cost per cycle.  This
module extends the compiled-schedule idea of
:mod:`repro.sysgen.compiled` one axis further: N variants advance in
lockstep through one generated step whose values are ``int64`` lane
arrays of shape ``(N,)`` — one lane per variant.  State that the
scalar engines keep in python attributes (register contents, port
values, FIFO occupancies, pipeline stages) moves into arrays with a
batch axis.

The step is emitted as C statements over one lane's scalars (a
register update reads ``q = _act ? (d) : q``), and the native kernel
(:mod:`repro.sysgen.ckernel`) wraps them in one C loop over lanes,
compiled by ``gcc``; that kernel is the only executor of the step.
Code generation is shared with the scalar engine:
:class:`BatchEmitContext` subclasses
:class:`~repro.sysgen.compiled.EmitContext`, overrides each of its
rendering verbs once and adds the lane helpers, and the kernel's python
driver ``_step_c`` comes from the scalar engine's
:func:`~repro.sysgen.compiled.function_frame` and is compiled by its
:func:`~repro.sysgen.compiled.exec_generated`.  The context hands out
every name the statements use and records what it is (port, state,
constant, table, temporary), so it lays out the kernel's slots itself:
each segment loads and stores only the lane arrays it names, and a
temporary lives in a lane array only when two segments name it.

Blocks contribute their lane step through
:meth:`~repro.sysgen.block.Block.emit_batched`.  Most standard blocks
(registers, counters, accumulators, constants, the combinational
logic) write their step once, in ``emit`` through the verbs, and set
``emit_batched = emit``: the fragments a scalar ``emit`` writes are C
as they stand, with every unconnected input an int64 literal.  Delay
lines, FIFOs, RAMs, ROMs, muxes, pipeline stages and the FSL endpoints
keep a lane emitter, because their lane state has another shape than
their scalar state or their scalar form is python-only.  The stateful
ones share one table idiom: an ``(N, depth)`` int64 lane table, read by
the gather :meth:`BatchEmitContext.cell` and written by the masked
:meth:`BatchEmitContext.scatter`, each lane in its own row.  An FSL
endpoint's table holds its lanes' channel rows, which the channels
adopt: the lane's CPU, fault injector and checkpoints read and write
that very table (see :mod:`repro.sysgen.blocks.fsl`).  Blocks that
cannot be vectorized (fixed-point Convert, user subclasses) *fall back
per lane*: the driver dispatches their interpreter methods on the
per-lane clone objects with port synchronization around the call,
exactly like the scalar compiled engine's fallback — so telemetry,
channel statistics and drop counters stay bit-identical with a scalar
run.  The clones of vectorized blocks are written only on request
(:meth:`BatchedModel.write_back`).

One :class:`BatchedModel` is the whole batch: its lanes, the
generated step, the port and state arrays and the native kernel.  A
lane is its FSL channel set plus, only if it has one, its own model.
A sweep's lanes bring models, which may differ in value-like
parameters; a campaign's lanes of one template own none until asked
(:meth:`BatchedModel.lane_model`), and every per-lane read of the
emitters (:meth:`BatchEmitContext.lane_blocks`) sees the template
instead, so those lane arrays start as broadcasts of its state.  Both
are laid out by one path, and nothing the batch generates refers back
to it: a dropped batch is freed by reference counting.

Idle hardware has the scalar rule: the blocks' ``busy_if`` checks,
rendered lane-wise, close every cycle body and leave a busy bit per
lane (:meth:`BatchedModel.idle_horizon`), set whenever the lane's
scalar :meth:`~repro.sysgen.model.Model.idle_horizon` would say busy.

Divergence between lanes is handled by masking: the step function
takes a boolean active-lane array, sequential state updates keep the
old value where the lane's ``_act`` is 0, probes sample active lanes
only, and fallback dispatch loops over the active lane list.  A
halted or evicted lane's clone objects and array rows freeze at their
final values.  Events that cannot be expressed under a mask at all
(GDB attach, checkpoint rollback, mid-run exceptions) are *evicted* by
the batched co-simulation layer (:mod:`repro.cosim.batch`), which
replays the lane on a scalar engine from cycle 0.

``BatchUnsupported`` is the refusal signal: lanes that are not
structurally identical, ports too wide for int64 lanes, a missing or
failing ``gcc`` (a statement that is not C, a shift past its operand's
width), or a missing numpy all raise it, and callers fall back to scalar
simulation, whose reports are byte-identical.  On a 2-core x86 host,
a CORDIC P=8 fault campaign of 64 trials (rollback, ``max_cycles``
8192) took 469 ms on the scalar path and 87 ms at ``--batch 32`` on
the kernel; the numpy executor the kernel replaced took 1,031 ms,
slower than no batch at all.
"""

from __future__ import annotations

import bisect
from collections import Counter
from typing import TYPE_CHECKING, Callable

try:  # numpy is the only dependency; gate it so scalar paths never pay
    import numpy as np
except ImportError:  # pragma: no cover - baked into the toolchain image
    np = None  # type: ignore[assignment]

from repro.sysgen.block import IDLE_FOREVER
from repro.sysgen.compiled import (
    EmitContext,
    exec_generated,
    function_frame,
    horizon_rule,
)
from repro.sysgen.model import Probe

if TYPE_CHECKING:  # pragma: no cover
    from repro.sysgen.block import Block
    from repro.sysgen.model import Model
    from repro.sysgen.ports import OutputPort

#: widest output port a vectorized lane can carry: values live in
#: int64 lanes and intermediates (a+b, sign extension) need headroom.
MAX_VEC_WIDTH = 60

#: ``str.translate`` table blanking every character that cannot be part
#: of a C identifier, so ``split()`` yields the names a statement uses
_NAMES_ONLY = {c: " " for c in range(128)
               if not (chr(c).isalnum() or chr(c) == "_")}


class BatchUnsupported(RuntimeError):
    """The model set cannot run as one lockstep batch; run scalar."""


# ---------------------------------------------------------------------------
# Structural identity
# ---------------------------------------------------------------------------

#: construction attributes that shape the generated code and therefore
#: must match across lanes.  Value-like attributes (Constant.value,
#: Register init, Counter.step, ROM contents) deliberately stay out:
#: those become per-lane arrays.
_STRUCT_ATTRS = (
    "width", "latency", "depth", "n", "msb", "lsb", "widths", "op",
    "signed", "direction", "arithmetic", "amount",
    "width_a", "width_b", "out_width", "sequential",
)


def block_signature(block: "Block") -> tuple:
    """Hashable structural fingerprint of one block."""
    ins = tuple(
        (p.name, p.default,
         None if p.source is None
         else (p.source.owner, p.source.name))
        for p in block.inputs.values()
    )
    outs = tuple((p.name, p.width) for p in block.outputs.values())
    attrs = tuple(
        (a, getattr(block, a)) for a in _STRUCT_ATTRS if hasattr(block, a)
    )
    # tuple-ify list attrs (Concat.widths) so the signature hashes
    attrs = tuple((a, tuple(v) if isinstance(v, list) else v)
                  for a, v in attrs)
    return (type(block).__name__, block.name, ins, outs, attrs)


def lockstep_signature(model: "Model") -> tuple:
    """Structural fingerprint of a model: two models with equal
    signatures can share one lockstep schedule (their value-like
    parameters — constants, ROM contents, programs — may differ)."""
    blocks = tuple(block_signature(b) for b in model.blocks)
    probes = tuple((p.port.owner, p.port.name, p.name)
                   for p in model.probes)
    return (model.name, blocks, probes)


# ---------------------------------------------------------------------------
# Emit context
# ---------------------------------------------------------------------------


class _Python(str):
    """A python statement of the step's driver among the cycle body's C
    statements: a per-lane fallback dispatch or a probe loop.  Each one
    ends a C segment of the kernel."""


class BatchEmitContext(EmitContext):
    """Code-generation context handed to ``emit_batched``.

    An :class:`~repro.sysgen.compiled.EmitContext` whose statements are
    C over one lane's scalars: the native kernel
    (:mod:`repro.sysgen.ckernel`) runs them once per lane.  Every name
    it hands out is the C local of that name: a port variable ``vK``,
    a state, a parameter, a table or a temporary.  The line sinks and
    name helpers (``tmp``/``out``) are inherited; a statement carries
    no closing ``;``.  An unconnected input is an int64 literal
    (``INT64_C(0)``), which :meth:`lit` still folds, so the fragments a
    scalar ``emit`` writes (``& | ^ + - * ~ << >>``, comparisons,
    integer literals) are C as they stand.  Sequential updates must be
    masked by :attr:`act`, 1 on an active lane.

    It overrides each rendering verb once, so a block whose ``emit``
    uses only the verbs opts in with ``emit_batched = emit``:

    * :meth:`state_slot` — a lane array loaded from the clones' attribute
    * :meth:`param` — the clones' parameter values as a constant lane
      array
    * :meth:`drive` — the present masked to the active lanes
    * :meth:`update` — the guarded update as a masked ternary chain,
      and the scalar register check
    * :meth:`select` / :meth:`as_int` — a ternary / ``(i64)(c)``
    * :meth:`busy_if` — 0/1 lane conditions, OR-ed into the busy bits
      at the end of the cycle body (a statement-form :meth:`horizon`
      has no lane rendering: the block counts as always busy)

    Lane emitters for state of another shape (delay lines, FIFOs, RAMs,
    pipeline stages, the FSL endpoints) state their ``busy_if`` rule
    from their tables and lane arrays, and use:

    * :meth:`state` / :meth:`table` — a persistent lane array or
      ``(N, depth)`` lane table, (re)loadable from the per-lane clone
      blocks, and :meth:`write_back` — its inverse, one lane's clone at
      a time; :meth:`shared` — a read-only table every lane reads
    * :meth:`cell` — a table's cell (the lane's own row of a lane
      table), :meth:`scatter` — the masked write of one, :meth:`where`
      — the ternary, :meth:`mod` — Python's floored ``%``
    * :meth:`lane_blocks` / :meth:`lane_ports` — the per-lane objects
      behind a template block / port: the lane's own, or the template's
      while the lane has no model
    * :meth:`flag` — literal-folded guard conditions

    A per-lane fallback writes python lines instead (see
    :class:`_Python`); only those see :attr:`lanes`, the active lane
    index list, and the names :meth:`bind` gives.
    """

    def __init__(self, template: "Model", block_maps: list,
                 channels: list[dict], lane_model: Callable[[int], "Model"]):
        super().__init__(template)
        self.n = len(block_maps)
        #: per lane, block name -> the lane's own block (None: the lane
        #: has no model); :meth:`own_lane_blocks` fills it in
        self.block_maps = block_maps
        #: per lane, endpoint block name -> the FSL channel it moves
        self.channels = channels
        self._lane_model = lane_model
        self.state_loaders: list[Callable[[], "np.ndarray"]] = []
        #: state name -> its index in the state store
        self.state_slots: dict[str, int] = {}
        #: constant lane array or shared table name -> its array
        self.consts: dict[str, "np.ndarray"] = {}
        #: table name -> (cells per row, whether each lane has a row)
        self.tables: dict[str, tuple[int, bool]] = {}
        #: the names :meth:`tmp` gave
        self.temps: set[str] = set()
        #: (block name, ``fn(clone, lane, get)``) per lane emitter: see
        #: :meth:`write_back`
        self.write_backs: list[tuple[str, Callable]] = []
        self.act = "_act"
        self.lanes = "_ln"
        #: lane -> 1 when a fallback block's clock() rewrote an output
        #: in the lane's last step: the busy rules take that cycle's
        #: ports for the values its edge used, so the lane is busy
        self.moved = [0] * self.n

    def tmp(self) -> str:
        name = super().tmp()
        self.temps.add(name)
        return name

    def inp(self, block: "Block", name: str) -> str:
        port = block.inputs[name]
        if port.source is None:
            return f"INT64_C({port.default})"
        return self.port_var(port.source)

    @staticmethod
    def lit(expr: str) -> int | None:
        if expr.startswith("INT64_C(") and expr.endswith(")"):
            expr = expr[len("INT64_C("):-1]
        return EmitContext.lit(expr)

    # -- state and tables ------------------------------------------------
    def state(self, loader: Callable[[], "np.ndarray"], hint: str = "st") -> str:
        """A persistent ``(N,)`` int64 lane array, which the native
        kernel updates in place.  ``loader()`` rebuilds it from the
        per-lane clone blocks (at construction and on
        :meth:`BatchedModel.reset`); it outlives this context, so it
        must not refer to it."""
        name = self._fresh_name(f"_{hint}")
        self.state_slots[name] = len(self.state_loaders)
        self.state_loaders.append(loader)
        return name

    def table(self, loader: Callable[[], "np.ndarray"], depth: int,
              hint: str = "tb") -> str:
        """A persistent ``(N, depth)`` int64 lane table (see
        :meth:`state`): each lane reads and writes only its own row,
        through :meth:`cell` and :meth:`scatter`."""
        name = self.state(loader, hint)
        self.tables[name] = (depth, True)
        return name

    def shared(self, values: list[int], hint: str = "sh") -> str:
        """A read-only table of ``values`` that every lane reads."""
        name = self._fresh_name(f"_{hint}")
        self.consts[name] = np.array(values, dtype=np.int64)
        self.tables[name] = (len(values), False)
        return name

    def write_back(self, block: "Block",
                   fn: Callable[["Block", int, Callable], None]) -> None:
        """Register ``fn(clone, lane, get)``, the inverse of ``block``'s
        state loaders: it writes one lane's state into ``clone``, that
        lane's copy of ``block``, reading each state array as
        ``get(name)``.  :meth:`BatchedModel.write_back` calls it, so
        scalar code that inspects a lane's model sees the lockstep
        run's state."""
        self.write_backs.append((block.name, fn))

    # -- per-lane clone access -------------------------------------------
    def lane_blocks(self, block: "Block") -> list["Block"]:
        """The block each lane's values start from: the lane's clone of
        ``block``, or ``block`` itself while the lane has no model (a
        template lane: the template is never stepped, so its state is
        the lane's until the batch runs)."""
        return _lane_blocks(self.block_maps, block)

    def own_lane_blocks(self, block: "Block") -> list["Block"]:
        """Every lane's own clone of ``block``, building the lane
        models that are missing (per-lane dispatch needs live blocks)."""
        for lane, bm in enumerate(self.block_maps):
            if bm is None:
                self._lane_model(lane)
        return self.lane_blocks(block)

    def lane_ports(self, port: "OutputPort") -> list["OutputPort"]:
        return [b.outputs[port.name]
                for b in self.lane_blocks(self.model.block(port.owner))]

    # -- lane expressions --------------------------------------------------
    def flag(self, expr: str) -> str:
        """Condition string for ``(expr) & 1`` with literal folding:
        returns ``"1"``/``"0"`` for compile-time-constant guards."""
        v = self.lit(expr)
        if v is not None:
            return "1" if v & 1 else "0"
        return f"((({expr}) & 1) > 0)"

    def where(self, cond: str, a: str, b: str) -> str:
        """``a`` where ``cond`` holds, else ``b``."""
        return f"(({cond}) ? {a} : {b})"

    def mod(self, a: str, b: str) -> str:
        """Python's floored ``a % b`` (0 when ``b`` is 0)."""
        return f"pymod({a}, {b})"

    def cell(self, table: str, index: str | int) -> str:
        """Cell ``index`` of ``table`` — of the lane's own row of a lane
        table — with the index taken floored modulo the row length, so
        the read stays in bounds."""
        depth, per_lane = self.tables[table]
        k = self.lit(str(index))
        at = (str(k % depth) if k is not None
              else f"(size_t){self.mod(index, f'INT64_C({depth})')}")
        return f"{table}[_i * {depth} + {at}]" if per_lane \
            else f"{table}[{at}]"

    def scatter(self, table: str, mask: str, index: str | int,
                value: str) -> str:
        """The statement writing ``value`` to the lane's cell ``index``
        of lane table ``table`` where ``mask`` holds."""
        return f"if ({mask}) {self.cell(table, index)} = {value}"

    # -- rendering verbs -------------------------------------------------
    def state_slot(self, block: "Block", attr: str, hint: str = "st") -> str:
        lanes = self.lane_blocks(block)
        name = self.state(
            lambda: np.fromiter((getattr(b, attr) for b in lanes),
                                np.int64, len(lanes)), hint)
        self.write_back(block, lambda clone, lane, get: setattr(
            clone, attr, int(get(name)[lane])))
        return name

    def param(self, block: "Block", attr: str, hint: str,
              live: bool = False) -> str:
        # snapshot at codegen time: values may vary per lane (a common
        # sweep axis); changing one after the batch is built is not
        # supported
        name = self._fresh_name(f"_{hint}")
        self.consts[name] = np.fromiter(
            (getattr(b, attr) for b in self.lane_blocks(block)),
            np.int64, self.n)
        return name

    def drive(self, out: str, expr: str) -> None:
        """Present ``out = expr`` for active lanes only.  Deactivated
        lanes must keep the port value of their final executed cycle
        (the scalar engine's value at the moment it stopped), so every
        sequential present is masked; combinational re-evaluation then
        reproduces the frozen values from these frozen inputs."""
        self.present(f"{out} = {self.act} ? ({expr}) : {out}")

    def update(self, q: str, state: str, rst: str, en: str,
               rst_val: str, en_val: str) -> None:
        rflag, eflag = self.flag(rst), self.flag(en)
        if rflag == "1":
            nxt = rst_val
        else:
            nxt = (state if eflag == "0" else f"({en_val})" if eflag == "1"
                   else self.where(eflag, f"({en_val})", state))
            if rflag != "0":
                nxt = self.where(rflag, rst_val, nxt)
        if nxt != state:
            self.clock(f"{state} = {self.act} ? {nxt} : {state}")
        # the scalar check, after the edge: ``q`` shows the state from
        # before it.  A state the edge kept stays put at every later
        # edge with the same inputs, so busy is a state that moved.
        self.busy_if(f"{q} != {state}")

    def busy_if(self, *conds: str) -> None:
        self._horizon.setdefault(id(self.block), []).extend(conds)

    def horizon(self, line: str) -> None:
        self.busy_if("1")

    def select(self, cond: str, a: str, b: str, mask: int) -> str:
        return self.where(cond, f"{a} & {mask}", f"{b} & {mask}")

    def as_int(self, cond: str) -> str:
        return f"((i64)({cond}))"


def _lane_blocks(block_maps: list, block: "Block") -> list["Block"]:
    """Per lane, the lane's own block named like ``block``, or
    ``block`` itself where the lane has no model."""
    return [block if bm is None else bm[block.name] for bm in block_maps]


def _emit_fallback_batched(ctx: BatchEmitContext, block: "Block") -> None:
    """Per-lane interpreter dispatch for a block without a vectorized
    emitter: sync the clone's feeding ports from the lane arrays, run
    the clone's method, read the outputs back — for active lanes only.
    Bit-identical with a scalar run of each lane (same channel objects,
    telemetry hooks and drop counters fire on the clones)."""
    clones = ctx.bind(ctx.own_lane_blocks(block), "fb")
    flush = []
    for port in block.inputs.values():
        if port.source is not None:
            var = ctx.port_var(port.source)
            pl = ctx.bind(ctx.lane_ports(port.source), "fp")
            flush.append(f"    {pl}[_l].value = int({var}[_l])")
    reload, edge = [], []
    mv = ctx.bind(ctx.moved, "mv") if block.sequential else None
    for port in block.outputs.values():
        var = ctx.port_var(port)
        pl = ctx.bind(ctx.lane_ports(port), "fp")
        reload.append(f"    {var}[_l] = {pl}[_l].value")
        edge.append(f"    if {var}[_l] != {pl}[_l].value: "
                    f"{var}[_l] = {pl}[_l].value; {mv}[_l] = 1")

    def loop(body: list[str], sink) -> None:
        sink(_Python("\n".join([f"for _l in {ctx.lanes}:"] + body)))

    if block.sequential:
        loop([f"    {mv}[_l] = 0", f"    {clones}[_l].present()"] + reload,
             ctx.present)
        loop(flush + [f"    {clones}[_l].clock()"] + edge, ctx.clock)
    else:
        loop(flush + [f"    {clones}[_l].evaluate()"] + reload, ctx.evaluate)


# ---------------------------------------------------------------------------
# Batched model
# ---------------------------------------------------------------------------


class _LaneClock:
    """A template lane's clock and probe samples until the lane's model
    is built and takes both over (:meth:`BatchedModel.lane_model`)."""

    def __init__(self, template: "Model"):
        self.cycle = 0
        self.probes = [Probe(p.port, p.name) for p in template.probes]

    def reset(self) -> None:
        self.cycle = 0
        for probe in self.probes:
            probe.samples.clear()


def _pinned(model: "Model") -> "Model":
    """``model`` as a lane model: lane models only ever run their
    interpreter methods (per lane, via fallback dispatch), so their
    scalar codegen is skipped."""
    model.set_engine("interpreter")
    if model._schedule is None:
        model.compile()
    return model


class BatchedModel:
    """N lanes of one design advancing in lockstep through one
    generated step function.

    ``models[0]`` is the structural template.  A lane is its FSL channel
    set — endpoint block name -> the channel that lane's endpoint moves
    — plus, only if it has one, its own model.  Without ``channels``,
    ``models`` are the N lanes' own models (lane 0's included), which
    may differ in value-like parameters but must match the template
    (:func:`lockstep_signature`); their channel sets are the channels
    their endpoints are bound to.  With ``channels`` the batch has
    ``len(channels)`` lanes of the template, which is compiled once and
    never stepped or written: the lanes own no model until
    :meth:`lane_model` builds one with ``build(lane)`` (a new model of
    the design, its endpoints on the lane's channels) — every lane's at
    once when blocks run per lane (fallback).

    The batch owns the generated step (``step_c``, the python driver of
    the native kernel ``ckernel``), the port and state arrays behind it
    (``port_store``/``state_store``) and the probe sources; nothing it
    generates points back at it, so a dropped batch is freed by
    reference counting.
    Raises :class:`BatchUnsupported` when the lanes cannot share one
    lockstep schedule or its kernel cannot be built (no ``gcc``) —
    callers fall back to scalar simulation.
    """

    def __init__(self, models: list["Model"],
                 channels: list[dict] | None = None,
                 build: Callable[[int], "Model"] | None = None):
        if np is None:  # pragma: no cover - numpy is baked in
            raise BatchUnsupported("numpy is not available")
        if not models:
            raise BatchUnsupported("empty batch")
        for m in models:
            _pinned(m)
        self.template = template = models[0]
        sig0 = lockstep_signature(template) if len(models) > 1 else None
        for lane, m in enumerate(models[1:], start=1):
            if lockstep_signature(m) != sig0:
                raise BatchUnsupported(
                    f"lane {lane} is not structurally identical to lane 0"
                    " (block set, wiring, widths and probes must match)"
                )
        wide = [
            f"{b.name}.{p.name}({p.width})"
            for b in template.blocks
            for p in b.outputs.values() if p.width > MAX_VEC_WIDTH
        ]
        if wide:
            raise BatchUnsupported(
                "ports too wide for int64 lanes: " + ", ".join(wide)
            )
        if channels is None:  # the lanes' endpoints name their channels
            own = list(models)
            channels = [{b.name: b.channel for b in m.blocks
                         if hasattr(b, "channel")} for m in models]
        else:
            own = [None] * len(channels)
        self._build = build
        self._lay_out(own, channels)

    def _lay_out(self, own: list, channels: list[dict]) -> None:
        """Generate the lockstep step over lanes ``own`` (a model or
        None each) moving ``channels``, build its native kernel, then
        load its arrays from the lanes: a batch whose kernel cannot be
        built refuses before any channel adopts a row of its tables."""
        template = self.template
        #: the lanes' own models (None: not built yet)
        self.models = own
        self.n = len(own)
        #: per lane, its model or the :class:`_LaneClock` standing in
        self._clocks = [_LaneClock(template) if m is None else m
                        for m in own]
        #: per lane, block name -> the lane's own block (None: unbuilt)
        self._block_maps = [
            None if m is None else {b.name: b for b in m.blocks}
            for m in own]
        self.cycle = 0
        self.active = np.ones(self.n, dtype=bool)
        self._lanes = list(range(self.n))

        ctx = BatchEmitContext(template, self._block_maps, channels,
                               self.lane_model)
        #: blocks running per-lane interpreter dispatch (not vectorized)
        self.fallback_blocks: list[str] = []
        for block in list(template._seq) + list(template._schedule):
            ctx.block = block
            if not block.emit_batched(ctx):
                _emit_fallback_batched(ctx, block)
                self.fallback_blocks.append(block.name)

        #: (probe index, port-store index | None, clone ports) per
        #: probe — where :meth:`fast_forward` reads the frozen samples
        self._probe_sources: list[tuple] = []
        for k, probe in enumerate(template.probes):
            apps = [m.probes[k].samples.append for m in self._clocks]
            ap = ctx.bind(apps, "ap")
            port = probe.port
            if id(port) in ctx._port_var:
                var = ctx.port_var(port)
                ctx.probe_line(_Python(
                    f"for _l in {ctx.lanes}: {ap}[_l](int({var}[_l]))"))
                self._probe_sources.append((k, ctx._ports.index(port), None))
            else:  # probe on a port no block drives through the batch
                pl = ctx.bind(ctx.lane_ports(port), "fp")
                ctx.probe_line(_Python(
                    f"for _l in {ctx.lanes}: {ap}[_l](int({pl}[_l].value))"))
                self._probe_sources.append((k, None, ctx.lane_ports(port)))

        cycle_body = (ctx._present + ctx._evaluate + ctx._probe + ctx._clock
                      + self._busy_lines(ctx))
        self._ports = ctx._ports
        self._port_slots = {id(p): k for k, p in enumerate(ctx._ports)}
        self._state_loaders = ctx.state_loaders
        self._state_slots = ctx.state_slots
        self._write_backs = ctx.write_backs
        self._moved = ctx.moved
        self.port_store = [None] * len(ctx._ports)
        self.state_store = [None] * len(ctx.state_loaders)
        self._build_ckernel(ctx, cycle_body)
        self.sync_from_clones()

    def _busy_lines(self, ctx: BatchEmitContext) -> list[str]:
        """The closing lines of the cycle body: each vectorized block's
        idle rule (:func:`~repro.sysgen.compiled.horizon_rule`) OR-ed
        into an accumulator, stored under the active-lane mask in the
        busy lane array (a frozen lane keeps its last step's bit; before
        any step every lane is busy, like an unsettled model).  The
        fallback blocks' rules stay with their live clones."""
        n = ctx.n
        busy = ctx.state(lambda: np.ones(n, np.int64), "bz")
        self._busy_slot = ctx.state_slots[busy]
        acc = ctx.tmp()
        lines = []
        for block in self.template.blocks:
            if block.name in self.fallback_blocks:
                continue
            rule = horizon_rule(block, "emit_batched")
            conds = (ctx._horizon.get(id(block), []) if rule == "emitted"
                     else [] if rule == "idle" else ["1"])
            if conds:
                head = f"{acc} | " if lines else ""
                lines.append(f"{acc} = {head}"
                             + " | ".join(f"({c})" for c in conds))
        return lines + [f"{busy} = {ctx.act} ? {acc if lines else 0} "
                        f": {busy}"]

    def _build_ckernel(self, ctx: BatchEmitContext,
                       cycle_body: list[str]) -> None:
        """Compile the cycle body's C segments into the native kernel
        (see :mod:`repro.sysgen.ckernel`) and generate its python
        driver ``step_c``, which runs the segments and the python lines
        between them in order.  A missing ``gcc`` or a failed compile
        raises :class:`BatchUnsupported`.

        The slots are the port arrays, then the states, then the
        constant arrays and the scratch lane arrays.  A temporary that
        two segments name is a scratch lane array, since one lane's
        value must outlive its segment; every other one is a C local of
        its segment."""
        from repro.sysgen.ckernel import (
            CUnsupported, Segment, build_step_kernel)

        slot_of = {f"v{k}": k for k in range(len(self._ports))}
        for name, k in ctx.state_slots.items():
            slot_of[name] = len(self.port_store) + k
        self._extra_arrays = []
        for name, arr in ctx.consts.items():
            slot_of[name] = len(slot_of)
            self._extra_arrays.append(arr)
        body: list[str] = []  # the driver: python lines, segment calls
        runs: list[list[str]] = []  # each segment's C statements
        for line in cycle_body:
            if isinstance(line, _Python):
                body.append(line)
                continue
            if not body or isinstance(body[-1], _Python):
                body.append(f"_ck({len(runs)}, {ctx.act})")
                runs.append([])
            runs[-1].append(line)
        named = [set("\n".join(lines).translate(_NAMES_ONLY).split())
                 for lines in runs]
        segs_of = Counter(t for names in named for t in names & ctx.temps)
        for temp in sorted(t for t, segs in segs_of.items() if segs > 1):
            slot_of[temp] = len(slot_of)
            self._extra_arrays.append(np.zeros(self.n, dtype=np.int64))
        segments = []
        for lines, names in zip(runs, named):
            lanes = sorted((v for v in names
                            if v in slot_of and v not in ctx.tables),
                           key=slot_of.get)
            tables = sorted((v for v in names if v in ctx.tables),
                            key=slot_of.get)
            assigned = {line.partition(" = ")[0] for line in lines}
            segments.append(Segment(
                statements=tuple(lines),
                lanes=tuple((v, slot_of[v]) for v in lanes),
                stores=tuple(v for v in lanes if v in assigned),
                tables=tuple((v, slot_of[v]) for v in tables),
                locals=tuple(sorted((names & ctx.temps) - slot_of.keys()))))
        shapes = [(self.n,)] * len(slot_of)
        for table, (depth, per_lane) in ctx.tables.items():
            shapes[slot_of[table]] = (self.n, depth) if per_lane else (depth,)
        name = self.template.name
        try:
            self.ckernel = build_step_kernel(self.n, shapes, segments)
        except CUnsupported as exc:
            raise BatchUnsupported(
                f"no C kernel for model {name!r}: {exc}") from None
        models = ctx.bind(self._clocks, "lm")
        ns = dict(ctx.ns)
        ns["_ck"] = self.ckernel.runner()
        ns["_P"] = self.port_store
        loads = [f"v{k} = _P[{k}]" for k in range(len(self._ports))]
        advance = [f"for _l in _ln: {models}[_l].cycle += _done"]
        # the kernel works on the slot arrays in place: nothing to store
        source_c = "\n".join(function_frame(
            "_step_c", ["_n", "_act", "_ln"], ns, loads, body, advance))
        # popped: a function left in its own namespace is a cycle
        self.step_c = exec_generated(
            source_c, f"<sysgen-batched-c:{name}x{self.n}>", ns,
            f"C-kernel driver for model {name!r}").pop("_step_c")

    def sync_from_clones(self) -> None:
        """(Re)build every port and state array from the lanes' blocks
        — at construction, and after :meth:`reset` — and point the
        kernel's slots at them."""
        template = {b.name: b for b in self.template.blocks}
        for k, port in enumerate(self._ports):
            self.port_store[k] = np.fromiter(
                (b.outputs[port.name].value for b in _lane_blocks(
                    self._block_maps, template[port.owner])),
                np.int64, self.n)
        for k, loader in enumerate(self._state_loaders):
            self.state_store[k] = loader()
        self.ckernel.point_at(self.port_store + self.state_store
                              + self._extra_arrays)

    def lane_model(self, lane: int) -> "Model":
        """Lane ``lane``'s own model, built on the first request in a
        template batch (interpreter-pinned like every lane model, taking
        over the lane's clock and probe samples); its state is the
        lane's as of the last :meth:`write_back`."""
        model = self.models[lane]
        if model is None:
            model = _pinned(self._build(lane))
            clock = self._clocks[lane]
            model.cycle = clock.cycle
            for probe, kept in zip(model.probes, clock.probes):
                probe.samples = kept.samples
            self.models[lane] = self._clocks[lane] = model
            self._block_maps[lane] = {b.name: b for b in model.blocks}
        return model

    # -- lane lifecycle --------------------------------------------------
    @property
    def lanes(self) -> list[int]:
        """Active lane indices (in lane order)."""
        return list(self._lanes)

    def deactivate(self, lane: int) -> None:
        """Freeze a lane: its state, probes and clone objects keep
        their current values; subsequent steps skip it."""
        if self.active[lane]:
            self.active[lane] = False
            self._lanes.remove(lane)

    def activate(self, lane: int) -> None:
        """Thaw a frozen lane.  Masked updates keep every lane's state
        arrays exact while frozen, so a reactivated lane continues bit-
        identically from the cycle it was frozen at — this is how the
        batched co-simulation pauses lanes at per-lane cycle targets."""
        if not self.active[lane]:
            self.active[lane] = True
            bisect.insort(self._lanes, lane)

    # -- simulation ------------------------------------------------------
    def step(self, cycles: int = 1) -> None:
        """Advance every active lane ``cycles`` clock cycles."""
        if cycles <= 0:
            return
        self.step_c(cycles, self.active, self._lanes)
        self.cycle += cycles

    def idle_horizon(self, lanes: list[int] | None = None) -> int:
        """:data:`~repro.sysgen.block.IDLE_FOREVER` when the given lanes
        (default: the active ones) sit at a fixed point, else 0 — the
        contract of :meth:`~repro.sysgen.model.Model.idle_horizon`,
        lane by lane (:meth:`idle_lanes`)."""
        lanes = self._lanes if lanes is None else lanes
        return IDLE_FOREVER if len(self.idle_lanes(lanes)) == len(lanes) \
            else 0

    def idle_lanes(self, lanes: list[int]) -> list[int]:
        """The lanes of ``lanes`` that sit at a fixed point.  A lane's
        bit was computed by its last step, from its vectorized blocks'
        ``busy_if`` rules; then the fallback blocks' clones are asked
        (:meth:`fallback_idle_horizon`)."""
        busy = self.state_store[self._busy_slot].tolist()
        quiet = [lane for lane in lanes if not busy[lane]]
        if self.fallback_blocks:
            quiet = [lane for lane in quiet
                     if self.fallback_idle_horizon([lane]) >= IDLE_FOREVER]
        return quiet

    def fallback_idle_horizon(self, lanes: list[int] | None = None) -> int:
        """:data:`~repro.sysgen.block.IDLE_FOREVER` when every fallback
        block of the given lanes is at a fixed point, else 0 (their
        clone state is live — the generated step dispatches them per
        lane every cycle, unlike the vectorized blocks), and no lane
        has :attr:`BatchEmitContext.moved` set."""
        names, moved = self.fallback_blocks, self._moved
        for lane in (self._lanes if lanes is None else lanes):
            if moved[lane]:
                return 0
            bm = self._block_maps[lane]
            for name in names:
                if bm[name].idle_horizon() < IDLE_FOREVER:
                    return 0
        return IDLE_FOREVER

    def fast_forward(self, cycles: int) -> None:
        """Advance every active lane ``cycles`` cycles without stepping.

        Caller contract (mirrors the scalar
        :meth:`~repro.sysgen.model.Model.fast_forward`): the lanes sit
        at a fixed point (:meth:`idle_horizon` returned ``IDLE_FOREVER``)
        and no external input changed during the ``cycles`` skipped; the
        batched co-simulation calls it to catch lanes whose CPUs ran
        ahead up to them.  Probes record the frozen
        values so traces stay bit-identical with a per-cycle run; a
        block at a fixed point has no state to catch up."""
        if cycles <= 0:
            return
        for k, idx, clones in self._probe_sources:
            arr = None if idx is None else self.port_store[idx]
            for lane in self._lanes:
                value = clones[lane].value if arr is None else arr[lane]
                self._clocks[lane].probes[k].samples.extend(
                    (int(value),) * cycles)
        for lane in self._lanes:
            self._clocks[lane].cycle += cycles
        self.cycle += cycles

    def reset(self) -> None:
        """Reset every lane (clone models included) to cycle 0."""
        for m in self._clocks:
            m.reset()
        self.cycle = 0
        self.active = np.ones(self.n, dtype=bool)
        self._lanes = list(range(self.n))
        self.sync_from_clones()

    def write_back(self, lane: int) -> None:
        """Bring lane ``lane``'s clone model up to date with the vector
        arrays: port values, block state, and the settled flag a scalar
        model has after its first step.  The clones are not written
        while the batch runs; call this before reading a lane's model
        (:meth:`BatchedCoSimulation.lane
        <repro.cosim.batch.BatchedCoSimulation.lane>` does).  In a
        template batch, build it first (:meth:`lane_model`)."""
        blocks = self._block_maps[lane]
        for k, port in enumerate(self._ports):
            blocks[port.owner].outputs[port.name].value = \
                int(self.port_store[k][lane])

        def get(name: str) -> "np.ndarray":
            return self.state_store[self._state_slots[name]]

        for name, fn in self._write_backs:
            fn(blocks[name], lane, get)
        model = self.models[lane]
        if model.cycle > 0:
            model._settled = True

    # -- introspection / pokes -------------------------------------------
    def port_index(self, block_name: str, port_name: str) -> int:
        """The port-store index of an output port.  Raises
        :class:`BatchUnsupported` when the schedule does not track the
        port (a lane forcing it must then be evicted to a scalar
        replay)."""
        port = self.template.block(block_name).outputs[port_name]
        k = self._port_slots.get(id(port))
        if k is None:
            raise BatchUnsupported(
                f"port {block_name}.{port_name} is not tracked by the "
                "lockstep schedule"
            )
        return k

    def peek(self, block_name: str, port_name: str) -> "np.ndarray":
        """Copy of the (N,) value array behind an output port."""
        return self.port_store[self.port_index(block_name, port_name)].copy()

    def poke(self, block_name: str, port_name: str, lane: int,
             value: int) -> None:
        """Write one lane of an output port (fault injection's
        ``stuck_at``), in place: every port array is its own, and the
        kernel steps it where it lies."""
        self.poke_slot(self.port_index(block_name, port_name), lane, value)

    def poke_slot(self, k: int, lane: int, value: int) -> None:
        """:meth:`poke` by port-store index (:meth:`port_index`)."""
        self.port_store[k][lane] = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<BatchedModel {self.template.name!r} x{self.n}: "
                f"{len(self._lanes)} active>")
