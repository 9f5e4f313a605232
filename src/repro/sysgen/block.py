"""Block base classes.

Two evaluation disciplines:

* :class:`CombBlock` — combinational: ``evaluate()`` computes outputs
  from current input values; scheduled in topological order each cycle.
* :class:`SeqBlock` — sequential: ``present()`` drives outputs from the
  registered state at the start of a cycle, ``clock()`` captures inputs
  at the active edge.  Sequential blocks break combinational cycles
  (feedback must pass through at least one register, as in hardware).

Every block reports estimated FPGA resources via :meth:`Block.resources`
(slice counts use the Virtex-II fabric rule of thumb: one slice holds
two 4-input LUTs and two flip-flops, so a W-bit adder or register costs
about ``ceil(W/2)`` slices).
"""

from __future__ import annotations

from repro.resources.types import Resources
from repro.sysgen.ports import InputPort, OutputPort, PortRef

#: Sentinel horizon for "this block can be skipped indefinitely" — the
#: block is at a fixed point: re-running present/evaluate/clock with the
#: current inputs would change neither its outputs nor its state.
IDLE_FOREVER = 1 << 62


def slices_for_bits(bits: int) -> int:
    """Virtex-II slices for ``bits`` LUT/FF pairs (2 per slice)."""
    return (bits + 1) // 2


class Block:
    """Base class: named ports + resource model."""

    sequential = False

    def __init__(self, name: str):
        self.name = name
        self.inputs: dict[str, InputPort] = {}
        self.outputs: dict[str, OutputPort] = {}
        #: the name of the model the block was added to (Model.add)
        self.model_name: str | None = None

    def rename(self, name: str) -> None:
        """Rename the block and its ports' ``owner``."""
        self.name = name
        for port in (*self.inputs.values(), *self.outputs.values()):
            port.owner = name

    # -- port construction ------------------------------------------------
    def add_input(self, name: str, default: int = 0) -> InputPort:
        if name in self.inputs or name in self.outputs:
            raise ValueError(f"duplicate port {name!r} on block {self.name!r}")
        port = InputPort(self.name, name, default)
        self.inputs[name] = port
        return port

    def add_output(self, name: str, width: int = 32) -> OutputPort:
        if name in self.inputs or name in self.outputs:
            raise ValueError(f"duplicate port {name!r} on block {self.name!r}")
        port = OutputPort(self.name, name, width)
        self.outputs[name] = port
        return port

    # -- port access --------------------------------------------------------
    def i(self, name: str) -> PortRef:
        """Reference to input port ``name`` (for ``Model.connect``)."""
        return PortRef(self.inputs[name])

    def o(self, name: str) -> PortRef:
        """Reference to output port ``name``."""
        return PortRef(self.outputs[name])

    def in_value(self, name: str) -> int:
        return self.inputs[name].value

    def out_value(self, name: str) -> int:
        return self.outputs[name].value

    # -- simulation hooks --------------------------------------------------
    def evaluate(self) -> None:
        """Combinational propagation (comb blocks only)."""

    def present(self) -> None:
        """Drive outputs from registered state (seq blocks only)."""

    def clock(self) -> None:
        """Capture inputs at the clock edge (seq blocks only)."""

    def reset(self) -> None:
        """Return to power-on state."""
        for out in self.outputs.values():
            out.value = 0

    # -- checkpointing -------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe snapshot: output-port values plus any internal
        state a subclass contributes via :meth:`extra_state`."""
        state = {"outputs": {n: p.value for n, p in self.outputs.items()}}
        extra = self.extra_state()
        if extra:
            state["extra"] = extra
        return state

    def load_state(self, state: dict) -> None:
        for name, value in state["outputs"].items():
            self.outputs[name].value = value
        self.load_extra_state(state.get("extra", {}))

    def extra_state(self) -> dict:
        """Internal (non-port) state; stateful subclasses override both
        this and :meth:`load_extra_state` symmetrically."""
        return {}

    def load_extra_state(self, extra: dict) -> None:
        pass

    # -- fast-forward (activity tracking) -----------------------------------
    def idle_horizon(self) -> int:
        """:data:`IDLE_FOREVER` when the block is at a fixed point,
        assuming its input signals hold their current values; else 0.

        At a fixed point, re-running present/evaluate/clock would
        change neither the outputs nor the internal state, so the model
        may skip any number of cycles without simulating the block.
        Return 0 when the block has (or may have) pending work — any
        state transition or output change on the next clock edge.  Any
        value below :data:`IDLE_FOREVER` counts as busy: the block is
        stepped, never caught up after a skip.

        The default is conservative: combinational blocks are pure
        functions of their inputs (idle whenever the rest of the design
        is), sequential blocks must opt in by overriding.
        """
        return 0 if self.sequential else IDLE_FOREVER

    # -- compiled-schedule code generation -----------------------------------
    def emit(self, ctx) -> bool:
        """Contribute inline source for this block to a compiled
        schedule (see :mod:`repro.sysgen.compiled`).

        Implementations use the :class:`~repro.sysgen.compiled.EmitContext`
        helpers to append statements to the ``present``/``evaluate``/
        ``clock`` phases and return True.  The default returns False,
        which makes the compiler splice interpreter-style method
        dispatch (with port synchronization) into the generated
        function instead — correct for any subclass, just slower.

        The emitted code must be observably identical to the
        ``present``/``evaluate``/``clock`` methods: same port values,
        same state transitions, same telemetry events, same exceptions.

        An ``emit`` that states its step only through the context's
        rendering verbs (``state_slot``, ``param``, ``drive``,
        ``update``, ``select``, ``as_int``), the port helpers and
        integer arithmetic that reads the same in C (``& | ^ + - * ~
        << >>``, comparisons) also serves the lockstep schedule: its
        class opts in with ``emit_batched = emit`` (see
        :meth:`emit_batched`).

        A class that overrides :meth:`idle_horizon` as well emits its
        compiled form here too, through ``ctx.busy_if``/``ctx.horizon``
        (emitting nothing means "always idle").  The compiler trusts
        those lines only when this ``emit`` and ``idle_horizon`` come
        from the same class; otherwise the generated scan calls
        ``idle_horizon()`` itself.
        """
        return False

    def emit_batched(self, ctx) -> bool:
        """Contribute vectorized source for this block to a lockstep
        batched schedule (see :mod:`repro.sysgen.batched`).

        Same contract as :meth:`emit`, except the statements are C over
        one lane's scalars (one lane per batched variant; no closing
        ``;``), every unconnected input is an int64 literal, and any
        sequential state update must be masked by ``ctx.act`` (1 on an
        active lane) so inactive lanes stay frozen.  ``ctx`` is a
        :class:`~repro.sysgen.batched.BatchEmitContext`, which renders
        every verb of :meth:`emit` as C — so a verb-only ``emit`` is
        assigned here unchanged (``emit_batched = emit``).  Blocks whose
        lane state has another shape than their scalar state (delay
        lines, FIFOs, RAMs, pipeline stages) write a separate lane
        emitter with the lane verbs: ``ctx.where(c, a, b)``,
        ``ctx.mod(a, b)`` (Python's floored ``%``), ``ctx.flag`` and
        ``ctx.lane_blocks``/``ctx.lane_ports``, and register a
        ``write_back`` that writes one lane's state into that lane's
        clone.  Lane state wider than one word is an ``(N, depth)``
        int64 table (``ctx.table``), read by the gather
        ``ctx.cell(T, i)`` and written by the masked statement
        ``ctx.scatter(T, m, i, v)``; ``ctx.shared(values)`` is a
        read-only table every lane reads through ``ctx.cell``.  The idle
        rule is stated as in :meth:`emit`, with 0/1 lane conditions to
        ``ctx.busy_if``; a block whose ``idle_horizon`` comes from
        another class is always busy.

        The default returns False: the batch compiler then dispatches
        this block's interpreter methods per active lane on the
        per-lane clone objects — bit-identical with a scalar run, just
        not vectorized.  User blocks and the scalar-only standard
        blocks (gateways, the OPB register bank) keep it even when
        they define :meth:`emit`.

        Implementations must either emit the complete block and return
        True or emit nothing and return False — no partial output.
        """
        return False

    # -- metadata -------------------------------------------------------------
    def resources(self) -> Resources:
        """Estimated FPGA resources for this block."""
        return Resources()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = type(self).__name__
        return f"<{kind} {self.name!r}>"


class CombBlock(Block):
    sequential = False


class SeqBlock(Block):
    sequential = True


def mask(width: int) -> int:
    return (1 << width) - 1


def wrap(value: int, width: int) -> int:
    """Two's-complement wrap of ``value`` into ``width`` bits, returned
    as an unsigned bit pattern."""
    return value & ((1 << width) - 1)


def to_signed(value: int, width: int) -> int:
    """Interpret an unsigned bit pattern as a signed value."""
    value &= (1 << width) - 1
    return value - (1 << width) if value & (1 << (width - 1)) else value
