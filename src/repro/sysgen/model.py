"""Cycle-driven simulation engine for sysgen block diagrams.

The model compiles a static schedule once: sequential-block outputs and
source blocks are roots, combinational blocks are topologically sorted
between them.  Each :meth:`Model.step` then simulates one clock cycle::

    present()  on every sequential block   (registered outputs appear)
    evaluate() on comb blocks in topo order (signals settle)
    sample     probes
    clock()    on every sequential block   (state captures inputs)

A combinational feedback loop (no register on the path) is rejected at
compile time, matching hardware semantics.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace

from repro.resources.types import Resources
from repro.runapi.engine import EngineError, resolve_engine
from repro.sysgen.block import IDLE_FOREVER, Block
from repro.sysgen.compiled import CompiledSchedule
from repro.sysgen.ports import InputPort, OutputPort, PortRef


class ModelError(RuntimeError):
    """Construction or scheduling error."""


class Probe:
    """Records one port's value every cycle."""

    def __init__(self, port: OutputPort, name: str = ""):
        self.port = port
        self.name = name or f"{port.owner}.{port.name}"
        self.samples: list[int] = []

    def sample(self) -> None:
        self.samples.append(self.port.value)


class Model:
    """A System Generator design: blocks + wires + schedule."""

    def __init__(self, name: str = "design"):
        self.name = name
        self.blocks: list[Block] = []
        self._names: set[str] = set()
        self.probes: list[Probe] = []
        #: the cycle count, apart from the model so that its generated
        #: step advances it without a reference cycle back to the model
        self._clock = SimpleNamespace(cycle=0)
        self._schedule: list[Block] | None = None
        self._seq: list[Block] = []
        #: generated-code engine (None = interpreter; see compile())
        self._compiled: CompiledSchedule | None = None
        #: unified engine request; see repro.runapi.engine
        self._engine_request = "auto"
        #: True once a full step() has run since the last reset/compile,
        #: i.e. every output port holds its settled post-evaluate value.
        self._settled = False
        #: (source OutputPort, dest InputPort) pairs, for lowering
        self.connections: list[tuple[OutputPort, InputPort]] = []

    @property
    def cycle(self) -> int:
        return self._clock.cycle

    @cycle.setter
    def cycle(self, cycle: int) -> None:
        self._clock.cycle = cycle

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        """Structure changed: both the schedule and any generated code
        derived from it are stale."""
        self._schedule = None
        self._compiled = None

    def add(self, block: Block) -> Block:
        if block.name in self._names:
            raise ModelError(f"duplicate block name {block.name!r}")
        if block.model_name is not None:
            raise ModelError(f"block {block.name!r} already belongs to a model")
        self._names.add(block.name)
        block.model_name = self.name
        self.blocks.append(block)
        self._invalidate()
        return block

    def connect(self, src: PortRef, *dsts: PortRef) -> None:
        """Wire an output to one or more inputs.

        All targets are validated before any is wired: a bad target
        anywhere in ``dsts`` leaves the model exactly as it was (no
        partially-applied multi-target connect shadowed by a stale
        compiled schedule).
        """
        if src.is_input:
            raise ModelError(f"connection source must be an output: {src!r}")
        out = src.port
        assert isinstance(out, OutputPort)
        targets: list[InputPort] = []
        for dst in dsts:
            if not dst.is_input:
                raise ModelError(f"connection target must be an input: {dst!r}")
            port = dst.port
            assert isinstance(port, InputPort)
            if port.source is not None or port in targets:
                driver = port.source if port.source is not None else out
                raise ModelError(
                    f"input {port.owner}.{port.name} already driven by "
                    f"{driver.owner}.{driver.name}"
                )
            targets.append(port)
        for port in targets:
            port.source = out
            self.connections.append((out, port))
            self._invalidate()

    def probe(self, ref: PortRef, name: str = "") -> Probe:
        if ref.is_input:
            raise ModelError("probes attach to output ports")
        probe = Probe(ref.port, name)  # type: ignore[arg-type]
        self.probes.append(probe)
        # The compiled step function binds the probe list at codegen
        # time; regenerate (without touching the schedule or the
        # settle flag) so a probe added mid-run starts sampling
        # immediately, as under the interpreter.
        if self._schedule is not None:
            self._codegen()
        return probe

    def block(self, name: str) -> Block:
        for b in self.blocks:
            if b.name == name:
                return b
        raise ModelError(f"no block named {name!r}")

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def compile(self) -> None:
        """Build the static combinational schedule."""
        comb = [b for b in self.blocks if not b.sequential]
        self._seq = [b for b in self.blocks if b.sequential]
        # dependency edges between comb blocks
        deps: dict[Block, set[Block]] = {b: set() for b in comb}
        users: dict[Block, list[Block]] = {b: [] for b in comb}
        by_name = {b.name: b for b in comb}
        for block in comb:
            for port in block.inputs.values():
                if port.source is None:
                    continue
                src = by_name.get(port.source.owner)
                if src is not None and src is not block:
                    if src not in deps[block]:
                        deps[block].add(src)
                        users[src].append(block)
        ready = deque(b for b in comb if not deps[b])
        order: list[Block] = []
        remaining = {b: len(deps[b]) for b in comb}
        while ready:
            block = ready.popleft()
            order.append(block)
            for user in users[block]:
                remaining[user] -= 1
                if remaining[user] == 0:
                    ready.append(user)
        if len(order) != len(comb):
            cyclic = sorted(b.name for b in comb if remaining[b] > 0)
            raise ModelError(
                "combinational loop through blocks: " + ", ".join(cyclic)
                + " (insert a Register/Delay)"
            )
        self._schedule = order
        self._settled = False
        self._codegen()

    def _codegen(self) -> None:
        """(Re)generate the compiled step/settle functions for the
        current schedule, unless the engine request resolves to the
        interpreter."""
        self._compiled = None
        if resolve_engine(self._engine_request) == "interpreter":
            return
        self._compiled = CompiledSchedule(self)

    def set_engine(self, engine: str) -> None:
        """Pin this model to an engine (``"auto"``, ``"compiled"`` or
        ``"interpreter"``); an explicit choice overrides an enclosing
        :func:`~repro.runapi.engine_scope`."""
        if engine == "batched":
            raise EngineError(
                "a scalar Model cannot run batched; construct a "
                "repro.sysgen.batched.BatchedModel over N models instead"
            )
        resolve_engine(engine if engine != "auto" else "compiled")  # validate
        self._engine_request = engine
        if self._schedule is not None:
            self._codegen()

    @property
    def engine(self) -> str:
        """Which engine the next step() will run: ``"compiled"`` or
        ``"interpreter"`` (compiles the model if needed)."""
        if self._schedule is None:
            self.compile()
        return "compiled" if self._compiled is not None else "interpreter"

    @property
    def compiled_source(self) -> str | None:
        """Generated python source of the compiled schedule, or None
        when running under the interpreter."""
        if self._schedule is None:
            self.compile()
        return None if self._compiled is None else self._compiled.source

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def step(self, cycles: int = 1) -> None:
        """Advance ``cycles`` clock cycles."""
        if self._schedule is None:
            self.compile()
        assert self._schedule is not None
        if self._compiled is not None:
            if cycles > 0:
                self._compiled.step(cycles)
                self._settled = True
            return
        schedule = self._schedule
        seq = self._seq
        probes = self.probes
        for _ in range(cycles):
            for block in seq:
                block.present()
            for block in schedule:
                block.evaluate()
            for probe in probes:
                probe.sample()
            for block in seq:
                block.clock()
            self._clock.cycle += 1
        if cycles > 0:
            self._settled = True

    # ------------------------------------------------------------------
    # Fast-forward (bulk time advance between interface events)
    # ------------------------------------------------------------------
    def idle_horizon(self) -> int:
        """:data:`~repro.sysgen.block.IDLE_FOREVER` when the whole design
        sits at a fixed point, else 0.

        The design is at a fixed point when every block's
        :meth:`~repro.sysgen.block.Block.idle_horizon` is
        ``IDLE_FOREVER``: no sequential block or FSL endpoint has
        pending work and every output already holds its settled value,
        so the design stays idle until an external input (FSL push/pop,
        gateway drive, OPB store) changes.  The co-simulation kernel
        uses this as the hardware side of the event horizon.

        A compiled model runs the generated ``_idle_horizon`` (see
        :mod:`repro.sysgen.compiled`); the interpreter walks the blocks.
        """
        if self._schedule is None or not self._settled:
            return 0
        if self._compiled is not None:
            return self._compiled.idle_horizon()
        for block in self.blocks:
            if block.idle_horizon() < IDLE_FOREVER:
                return 0
        return IDLE_FOREVER

    def fast_forward(self, cycles: int) -> None:
        """Advance the clock ``cycles`` cycles without simulating them.

        Caller contract: a preceding :meth:`idle_horizon` returned
        ``IDLE_FOREVER`` and no external input changed since, so no
        block has state to catch up.  Probes record the (unchanged)
        settled values so traces stay bit-identical with a per-cycle
        run.
        """
        if cycles <= 0:
            return
        for probe in self.probes:
            probe.samples.extend((probe.port.value,) * cycles)
        self._clock.cycle += cycles

    def settle(self) -> None:
        """Propagate combinational logic without advancing the clock
        (useful to inspect mid-cycle values in tests)."""
        if self._schedule is None:
            self.compile()
        assert self._schedule is not None
        if self._compiled is not None:
            self._compiled.settle()
            return
        for block in self._seq:
            block.present()
        for block in self._schedule:
            block.evaluate()

    def reset(self) -> None:
        self.cycle = 0
        self._settled = False
        for block in self.blocks:
            block.reset()
        for probe in self.probes:
            probe.samples.clear()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Dynamic state only: cycle count, settle flag, probe samples
        and per-block state.  The schedule is derived (rebuilt by
        :meth:`compile`) and the wiring is construction-time."""
        return {
            "cycle": self.cycle,
            "settled": self._settled,
            "probes": [list(p.samples) for p in self.probes],
            "blocks": {b.name: b.state_dict() for b in self.blocks},
        }

    def load_state(self, state: dict) -> None:
        if set(state["blocks"]) != self._names:
            missing = self._names.symmetric_difference(state["blocks"])
            raise ModelError(
                "checkpoint block set does not match this model: "
                + ", ".join(sorted(missing))
            )
        if len(state["probes"]) != len(self.probes):
            raise ModelError(
                f"checkpoint has {len(state['probes'])} probes, "
                f"model has {len(self.probes)}"
            )
        self.cycle = state["cycle"]
        self._settled = state["settled"]
        for probe, samples in zip(self.probes, state["probes"]):
            probe.samples[:] = samples
        for block in self.blocks:
            block.load_state(state["blocks"][block.name])
        if self._schedule is None:
            self.compile()
            self._settled = state["settled"]

    # ------------------------------------------------------------------
    def resources(self) -> Resources:
        """Total estimated resources over all blocks (the System
        Generator resource-estimator analogue)."""
        total = Resources()
        for block in self.blocks:
            total = total + block.resources()
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Model {self.name!r}: {len(self.blocks)} blocks>"
