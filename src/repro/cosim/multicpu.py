"""K-CPU co-simulation: soft-processor arrays over FSL links.

:class:`MultiCoSimulation` is the K-CPU case of the lock-step run
kernel whose K=1 case is
:class:`~repro.cosim.environment.CoSimulation` (see
:class:`~repro.cosim.environment.LockstepKernel`): the same loop, with
the same fast-forward, watchdog, wall-clock budget, verify mode, policy
resolution and reset, runs over K processors wired into a
:class:`~repro.cosim.topology.TopologySpec`.  Each inter-CPU link is
one plain FSL FIFO connected as a master (``put``) channel on the
source CPU's FSL unit and a slave (``get``) channel on the destination
CPU's — no hardware block mediates, exactly like a physical FSL wire
between two soft processors.  Every CPU may additionally carry its own
hardware model behind its own
:class:`~repro.cosim.mb_block.MicroBlazeBlock` (with a per-node channel
name prefix so names stay system-unique).  This module keeps only what
is K-CPU specific: the topology wiring, the global clock (``cycle``,
checkpointed), the aggregate :class:`MultiCoSimResult` and the text of
its deadlock/timeout messages.

Deterministic inter-CPU ordering
--------------------------------
Per global cycle, non-halted CPUs tick in **node-index order**, then
every hardware model steps (node order).  A word pushed by CPU *i* in
cycle *t* is therefore visible to CPU *j*'s blocking/non-blocking get
in the *same* cycle iff ``i < j``, and in cycle *t+1* otherwise.  This
is the ordering contract all five conformance execution modes must
reproduce bit-for-bit.

Fast-forward soundness for K CPUs carries over from the single-CPU
argument: a window is only skipped when every *active* CPU reports a
positive ``advance_horizon()`` — i.e. none can issue an instruction or
complete a pending FSL transfer during the window — so no FIFO (link
or peripheral) changes state inside it, and every hardware model is
quiescent.  ``cpu.advance()`` itself re-validates the preconditions
and mirrors the per-cycle reject/stall accounting per CPU.  Once all
but one CPU halted, the survivor runs in bursts (see
:mod:`repro.cosim.environment`): no other processor is left to observe
its links, and every model catches up after each burst.  While two or
more CPUs run, the loop stays lockstep.

CPUs that exit stop ticking (their local cycle freezes at the exit
cycle, as it would under per-cycle execution); the run ends when all
CPUs halted or the global budget is exhausted.  The progress watchdog
trips when **no active CPU** has retired an instruction for a full
window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.asm.linker import Program
from repro.bus.fsl import FSLChannel
from repro.cosim.environment import CoSimResult, LockstepKernel
from repro.cosim.mb_block import MicroBlazeBlock
from repro.cosim.topology import TopologySpec
from repro.iss.cpu import CPU, CPUConfig, HaltReason
from repro.iss.run import make_cpu
from repro.runapi import RunOutcome, RunPolicy
from repro.sysgen.model import Model
from repro.telemetry import Telemetry

__all__ = [
    "CPUNode",
    "MultiCoSimResult",
    "MultiCoSimulation",
]


@dataclass
class CPUNode:
    """One processor of a multi-CPU system.

    ``model``/``mb_block`` attach node-local hardware (built with a
    per-node :class:`MicroBlazeBlock` whose channel ids must not clash
    with the node's topology link channels).  ``name`` becomes the
    node's telemetry track and state-dict key; it defaults to
    ``cpu{index}``.
    """

    program: Program
    cpu_config: CPUConfig | None = None
    model: Model | None = None
    mb_block: MicroBlazeBlock | None = None
    memory_size: int | None = None
    name: str = ""
    #: filled in by MultiCoSimulation
    cpu: CPU = field(default=None, repr=False)  # type: ignore[assignment]


@dataclass
class MultiCoSimResult(RunOutcome):
    """Outcome of one multi-CPU run: the aggregate plus one
    :class:`~repro.cosim.environment.CoSimResult` per CPU (node order).

    ``cycles`` counts *global* clock cycles of this run; per-CPU cycle
    deltas can be shorter when a processor exited early.  ``exit_code``
    aggregates: ``None`` while any CPU has not exited, else the first
    nonzero code in node order, else 0.
    """

    exit_code: int | None
    cycles: int
    instructions: int
    stall_cycles: int
    wall_seconds: float
    simulated_seconds: float
    halt_reason: HaltReason | None
    cpus: tuple[CoSimResult, ...] = ()

    # the aggregate behaves exactly like a CoSimResult
    status = CoSimResult.status
    error = CoSimResult.error
    cycles_per_wall_second = CoSimResult.cycles_per_wall_second
    simulated_microseconds = CoSimResult.simulated_microseconds

    def extra_dict(self) -> dict:
        out = CoSimResult.extra_dict(self)
        out["cpus"] = [r.to_dict() for r in self.cpus]
        return out


class MultiCoSimulation(LockstepKernel):
    """Couples K CPUs over FSL point-to-point links (plus optional
    per-node hardware models) under one global clock."""

    _BATCHED_HINT = (
        "engine='batched' is the N-simulations lockstep engine; "
        "a multi-CPU system is one simulation — batch whole "
        "MultiCoSimulations via scalar lanes instead"
    )

    def __init__(
        self,
        nodes: list[CPUNode],
        topology: TopologySpec,
        *,
        link_depth: int = FSLChannel.DEFAULT_DEPTH,
        fast_forward: bool = True,
        verify_fast_forward: bool = False,
        telemetry: Telemetry | None = None,
        deadlock_window: int | None = None,
        engine: str = "auto",
    ):
        if len(nodes) != topology.n_cpus:
            raise ValueError(
                f"topology expects {topology.n_cpus} CPUs, "
                f"got {len(nodes)} nodes")
        self.nodes = list(nodes)
        self.topology = topology
        self.link_depth = link_depth
        self._resolve_engine(engine)

        #: inter-CPU FIFOs keyed by link name, in topology link order
        self.links: dict[str, FSLChannel] = topology.build_channels(link_depth)

        for index, node in enumerate(self.nodes):
            if not node.name:
                node.name = f"cpu{index}"
            ports = (node.mb_block.fsl_ports if node.mb_block is not None
                     else None)
            node.cpu = make_cpu(
                node.program,
                config=node.cpu_config,
                fsl=ports,
                memory_size=node.memory_size,
            )
            node.cpu.track = node.name
        for link in topology.links:
            channel = self.links[link.name]
            self.nodes[link.src].cpu.fsl.connect_output(
                link.src_channel, channel)
            self.nodes[link.dst].cpu.fsl.connect_input(
                link.dst_channel, channel)

        # the global clock (``_cycle``): every non-halted CPU's local
        # cycle tracks it; halted CPUs freeze at their exit cycle
        self._init_kernel(
            [node.program for node in self.nodes],
            [node.cpu for node in self.nodes],
            [node.model for node in self.nodes if node.model is not None],
            fast_forward=fast_forward,
            verify_fast_forward=verify_fast_forward,
            deadlock_window=deadlock_window,
            telemetry=telemetry,
        )

    def _attach_telemetry(self, telemetry: Telemetry) -> None:
        clock = lambda: self._cycle  # noqa: E731
        for node in self.nodes:
            telemetry.attach_cpu(node.cpu)
            if node.mb_block is not None:
                for channel in node.mb_block.channels():
                    telemetry.attach_channel(channel, clock)
            if node.model is not None:
                for block in node.model.blocks:
                    telemetry.attach_block(block, clock)
        for channel in self.links.values():
            telemetry.attach_channel(channel, clock)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def cycle(self) -> int:
        """The global clock (== every active CPU's local cycle)."""
        return self._cycle

    @property
    def n_cpus(self) -> int:
        return len(self.nodes)

    @property
    def halted(self) -> bool:
        return all(cpu.halted for cpu in self.cpus)

    @property
    def halt_reason(self) -> HaltReason | None:
        """Aggregate halt reason: MAX_CYCLES while any CPU is parked on
        the budget, else the first non-EXIT reason, else EXIT."""
        reasons = [cpu.halt_reason for cpu in self.cpus]
        if any(r is HaltReason.MAX_CYCLES for r in reasons):
            return HaltReason.MAX_CYCLES
        if any(r is None for r in reasons):
            return None
        for reason in reasons:
            if reason is not HaltReason.EXIT:
                return reason
        return HaltReason.EXIT

    @property
    def exit_code(self) -> int | None:
        codes = [cpu.exit_code for cpu in self.cpus]
        if any(code is None for code in codes):
            return None
        return next((code for code in codes if code != 0), 0)

    def resume(self) -> None:
        """Clear MAX_CYCLES/breakpoint halts on every CPU (exited
        processors stay exited) so a further ``run()`` segment
        continues."""
        for cpu in self.cpus:
            if cpu.halted and cpu.halt_reason is not HaltReason.EXIT:
                cpu.resume()

    def all_channels(self) -> tuple[FSLChannel, ...]:
        """Every FSL FIFO of the system: inter-CPU links (topology
        order) then each node's peripheral channels (node order)."""
        channels = list(self.links.values())
        for node in self.nodes:
            if node.mb_block is not None:
                channels.extend(node.mb_block.channels())
        return tuple(channels)

    def lockstep_signature(self) -> tuple:
        """Structural grouping key (the K-CPU face of
        :func:`repro.sysgen.batched.lockstep_signature`): topology
        wiring plus each node's model signature."""
        from repro.sysgen.batched import lockstep_signature as model_sig

        return (
            "multicpu",
            self.topology.signature(),
            tuple(
                model_sig(node.model) if node.model is not None else None
                for node in self.nodes
            ),
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self, cycles: int = 1,
             skip_cpus: frozenset[int] | set[int] = frozenset()) -> None:
        """Advance the whole system per-cycle (the reference ordering:
        CPUs in node order, then models).

        ``skip_cpus`` gates the named node indices off the clock for
        these cycles — the ``node_stall`` fault model: a stalled
        processor's local clock freezes while the rest of the system
        runs on.
        """
        cpus = self.cpus
        models = self._models
        for _ in range(cycles):
            if skip_cpus:
                for index, cpu in enumerate(cpus):
                    if index not in skip_cpus and not cpu.halted:
                        cpu.tick()
            else:
                for cpu in cpus:
                    if not cpu.halted:
                        cpu.tick()
            for m in models:
                m.step()
            self._cycle += 1

    def run(
        self,
        until: int | None = None,
        *,
        policy: RunPolicy | None = None,
    ) -> MultiCoSimResult:
        """Run until every CPU exits (or the global cycle budget).

        Mirrors :meth:`CoSimulation.run`: ``until`` is this call's
        global-cycle budget, ``policy`` overrides wall-clock budget,
        fast-forward mode and watchdog window for the call.
        """
        return self._run(until, policy)

    def _read_clock(self) -> int:
        return self._cycle

    def _result(self, per_cpu: list[CoSimResult], cycles: int,
                wall: float) -> MultiCoSimResult:
        frequency = self.cpus[0].config.frequency_hz
        return MultiCoSimResult(
            exit_code=self.exit_code,
            cycles=cycles,
            instructions=sum(r.instructions for r in per_cpu),
            stall_cycles=sum(r.stall_cycles for r in per_cpu),
            wall_seconds=wall,
            simulated_seconds=cycles / frequency,
            halt_reason=self.halt_reason,
            cpus=tuple(per_cpu),
        )

    def _timeout_message(self, budget: float, cycles: int) -> str:
        pcs = ", ".join(f"{node.name}@{node.cpu.pc:#010x}"
                        for node in self.nodes)
        return (
            f"multi-CPU co-simulation exceeded its {budget:.3f}s "
            f"wall-clock budget after {cycles} cycles ({pcs})"
        )

    def _deadlock_message(self, window: int) -> str:
        pcs = ", ".join(
            f"{node.name}@{node.cpu.pc:#010x}"
            f"{'(halted)' if node.cpu.halted else ''}"
            for node in self.nodes)
        return (
            f"no active CPU retired an instruction in {window} cycles "
            f"({pcs}); FSL occupancies: {self.channel_occupancies()}"
        )

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Complete system state, JSON-safe: the global clock, every
        CPU (keyed by node name), every model, every link FIFO and
        every node-local peripheral channel set."""
        state = {
            "cycle": self._cycle,
            "cpus": {node.name: node.cpu.state_dict()
                     for node in self.nodes},
            "models": [m.state_dict() for m in self._models],
            "links": {name: ch.state_dict()
                      for name, ch in self.links.items()},
            "mb_channels": {
                node.name: node.mb_block.state_dict()
                for node in self.nodes if node.mb_block is not None
            },
        }
        if self.telemetry is not None:
            state["telemetry"] = self.telemetry.state_dict()
        return state

    def load_state(self, state: dict) -> None:
        names = {node.name for node in self.nodes}
        if set(state["cpus"]) != names:
            missing = names.symmetric_difference(state["cpus"])
            raise ValueError(
                "checkpoint CPU set does not match this system: "
                + ", ".join(sorted(missing)))
        if len(state["models"]) != len(self._models):
            raise ValueError(
                f"checkpoint has {len(state['models'])} models, "
                f"system has {len(self._models)}")
        if set(state["links"]) != set(self.links):
            missing = set(self.links).symmetric_difference(state["links"])
            raise ValueError(
                "checkpoint link set does not match this topology: "
                + ", ".join(sorted(missing)))
        self._cycle = int(state["cycle"])
        for node in self.nodes:
            node.cpu.load_state(state["cpus"][node.name])
        for model, payload in zip(self._models, state["models"]):
            model.load_state(payload)
        for name, channel in self.links.items():
            channel.load_state(state["links"][name])
        for node in self.nodes:
            if node.mb_block is not None:
                node.mb_block.load_state(state["mb_channels"][node.name])
        if self.telemetry is not None and "telemetry" in state:
            self.telemetry.load_state(state["telemetry"])
