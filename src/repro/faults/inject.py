"""Fault injection into a running co-simulation.

A :class:`FaultInjector` is a cursor over its plan, sorted by cycle; it
never advances the simulation itself.  :meth:`~FaultInjector.next_stop`
names the next absolute cycle a driver must reach — the next fault, the
end of an open window, or the budget — and
:meth:`~FaultInjector.apply_due` perturbs the exact piece of state each
fault due at the current cycle names.  ``stuck_at`` and ``node_stall``
open a *window* of ``duration`` cycles that the driver steps per cycle,
so the forced output (or the gated-off CPU) holds every cycle
regardless of quiescence.

Two drivers consume the cursor: :meth:`FaultInjector.run` advances one
scalar or K-CPU simulation with the run-to-cycle primitive of
checkpointing (``run(until=K)`` parks the CPU on ``MAX_CYCLES``; the
driver clears that park before every segment), and the batched
campaign advances lockstep lanes through the vector engine
(:func:`repro.faults.campaign._run_trial_batch`).

Every applied (or skipped) fault is logged here and only here, and a
``FAULT_INJECTED`` telemetry event is emitted when the simulation has
telemetry attached.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from repro.bus.fsl import FSLChannel
from repro.cosim.environment import CoSimulation
from repro.faults.plan import FaultPlan, FaultSpec
from repro.iss.cpu import HaltReason
from repro.telemetry.events import (
    COSIM_TRACK,
    FAULT_INJECTED,
    TelemetryEvent,
)


def run_state(sim):
    """The run-state facade of a simulation: a :class:`CoSimulation`'s
    CPU, or a K-CPU :class:`~repro.cosim.multicpu.MultiCoSimulation`
    itself — both expose ``halted`` / ``halt_reason`` / ``cycle`` /
    ``exit_code`` / ``resume()``."""
    return sim if hasattr(sim, "topology") else sim.cpu


class FaultWindow(NamedTuple):
    """A ``stuck_at`` or ``node_stall`` fault in force until absolute
    cycle ``end``; ``step`` advances the simulation one cycle under
    it."""

    spec: FaultSpec
    end: int
    step: Callable[[], None]


class FaultInjector:
    """Applies one :class:`FaultPlan` to one :class:`CoSimulation`.

    :class:`MultiFaultInjector` retargets it at a K-CPU
    :class:`~repro.cosim.multicpu.MultiCoSimulation` by overriding how
    a fault resolves its CPU and channel.
    """

    def __init__(self, sim: CoSimulation, plan: FaultPlan):
        self.sim = sim
        self.plan = plan
        #: one entry per scheduled fault: description, the cycle it
        #: landed on (a window's: the cycle it closed), and whether it
        #: actually perturbed state (a FIFO fault on an empty FIFO is a
        #: recorded no-op)
        self.log: list[dict[str, Any]] = []
        self.state = run_state(sim)
        #: the open ``stuck_at``/``node_stall`` window, if any
        self.window: FaultWindow | None = None
        self._faults = sorted(plan.faults, key=lambda f: f.cycle)
        self._next = 0

    # -- the cursor ----------------------------------------------------
    def _ended(self) -> bool:
        """The program stopped for good (a ``MAX_CYCLES`` park is a
        segment end, not an end)."""
        state = self.state
        return state.halted and state.halt_reason is not HaltReason.MAX_CYCLES

    def _pending(self, until_cycle: int) -> FaultSpec | None:
        """The next unapplied fault, unless it lies at or past the
        budget (then so does every later one)."""
        if self._next < len(self._faults) and \
                self._faults[self._next].cycle < until_cycle:
            return self._faults[self._next]
        return None

    def next_stop(self, until_cycle: int) -> int | None:
        """The next absolute cycle the driver must reach: the end of the
        open window, the next fault, or ``until_cycle``.  ``None`` once
        the plan is finished — the budget reached, or the program ended
        (the fault it ended before is then logged as not applied)."""
        if self.window is not None:
            return self.window.end
        pending = self._pending(until_cycle)
        if self._ended():
            if pending is not None:
                self._log(pending, False,
                          "program ended before the fault cycle")
                self._next = len(self._faults)
            return None
        if pending is not None:
            return pending.cycle
        return until_cycle if self.state.cycle < until_cycle else None

    def apply_due(self, until_cycle: int) -> list[FaultSpec]:
        """Close the open window once it has expired, then apply every
        fault due at the current cycle, stopping after one that opens a
        window (later faults wait for it to close).  Returns the faults
        applied by this call, in order."""
        state = self.state
        if self.window is not None:
            if not state.halted and state.cycle < self.window.end:
                return []
            self._close_window()
        applied: list[FaultSpec] = []
        while self.window is None and not self._ended():
            spec = self._pending(until_cycle)
            if spec is None or spec.cycle > state.cycle:
                break
            self._next += 1
            applied.append(spec)
            self._inject(spec, until_cycle)
        return applied

    def _close_window(self) -> None:
        spec = self.window.spec
        self.window = None
        self._log(spec, True, "")

    def _log(self, spec: FaultSpec, applied: bool, note: str) -> None:
        fault, cycle = spec.describe(), self.state.cycle
        self.log.append(
            {"fault": fault, "cycle": cycle, "applied": applied, "note": note}
        )
        if applied and self.sim.telemetry is not None:
            self.sim.telemetry.bus.emit(
                TelemetryEvent(FAULT_INJECTED, cycle, COSIM_TRACK, text=fault)
            )

    # -- the scalar driver ---------------------------------------------
    def run(self, until_cycle: int) -> None:
        """Advance to absolute ``until_cycle``, injecting every planned
        fault at its exact cycle.  Deadlocks and bus faults propagate
        to the caller (they are detection outcomes, not engine bugs).
        """
        state = self.state
        while (stop := self.next_stop(until_cycle)) is not None:
            if state.halted:  # parked on MAX_CYCLES by the last segment
                state.resume()
            if self.window is None:
                if stop > state.cycle:
                    self.sim.run(until=stop - state.cycle)
            else:
                try:
                    while not state.halted and state.cycle < stop:
                        self.window.step()
                except BaseException:
                    self._close_window()  # a crash mid-window still logs it
                    raise
            self.apply_due(until_cycle)

    # -- the faults ----------------------------------------------------
    def _inject(self, spec: FaultSpec, until_cycle: int) -> None:
        """Apply one fault; a window-opening fault is logged when its
        window closes, every other one right here."""
        applied, note = True, ""
        try:
            if spec.kind == "reg_flip":
                self._reg_flip(spec)
            elif spec.kind == "mem_flip":
                self._mem_flip(spec)
            elif spec.kind in ("fifo_corrupt", "fifo_drop", "fifo_dup"):
                applied, note = self._fifo_fault(spec)
            elif spec.kind == "link_drop":
                applied, note = self._link_drop(spec)
            elif spec.kind == "node_stall":
                applied, note = self._node_stall(spec, until_cycle)
            elif spec.kind == "stuck_at":
                applied, note = self._stuck_at(spec, until_cycle)
        finally:
            if self.window is None:
                self._log(spec, applied, note)

    def _open_window(self, spec: FaultSpec, until_cycle: int,
                     step: Callable[[], None]) -> tuple[bool, str]:
        end = min(self.state.cycle + spec.duration, until_cycle)
        self.window = FaultWindow(spec, end, step)
        return True, ""

    def _target_cpu(self, spec: FaultSpec):
        """The CPU a register/memory fault lands on."""
        return self.sim.cpu

    def _reg_flip(self, spec: FaultSpec) -> None:
        # r0 is hardwired zero on MicroBlaze; fault the other 31.
        idx = 1 + spec.index % 31
        cpu = self._target_cpu(spec)
        cpu.regs[idx] = (cpu.regs[idx] ^ (1 << (spec.bit % 32))) & 0xFFFFFFFF

    def _mem_flip(self, spec: FaultSpec) -> None:
        cpu = self._target_cpu(spec)
        size_words = cpu.mem.bram.size // 4
        addr = (spec.index % size_words) * 4
        word = cpu.mem.read_u32(addr)
        # Through the address space so the write hook invalidates any
        # cached decode of a flipped code word.
        cpu.mem.write_u32(addr, word ^ (1 << (spec.bit % 32)))

    def _channel(self, name: str) -> FSLChannel | None:
        for channel in self.sim.all_channels():
            if channel.name == name:
                return channel
        return None

    def _fifo_fault(self, spec: FaultSpec) -> tuple[bool, str]:
        channel = self._channel(spec.target)
        if channel is None:
            return False, f"no channel named {spec.target!r}"
        if not channel.occupancy:
            return False, "FIFO empty at injection time"
        pos = spec.index % channel.occupancy
        if spec.kind == "fifo_corrupt":
            channel.flip(pos, spec.bit)
        elif spec.kind == "fifo_drop":
            channel.lose(1)  # physically lost: statistics left untouched
        elif not channel.duplicate(pos):
            return False, "no free FIFO slot for the duplicate"
        return True, ""

    def _link_drop(self, spec: FaultSpec) -> tuple[bool, str]:
        """Lose up to ``duration`` words queued on an (inter-CPU) link.
        The sender already saw its pushes accepted — the words vanish
        in transit, statistics untouched, exactly like ``fifo_drop``
        but sized for a burst loss."""
        channel = self._channel(spec.target)
        if channel is None:
            return False, f"no channel named {spec.target!r}"
        if not channel.occupancy:
            return False, "link idle at injection time"
        lost = channel.lose(max(1, spec.duration))
        return True, f"dropped {lost} word(s)"

    def _node_stall(
        self, spec: FaultSpec, until_cycle: int
    ) -> tuple[bool, str]:
        return False, "node_stall needs a multi-CPU simulation"

    def _stuck_at(
        self, spec: FaultSpec, until_cycle: int
    ) -> tuple[bool, str]:
        block_name, _, port_name = spec.target.partition(":")
        port = None
        for model in self.sim._models:
            for block in model.blocks:
                if block.name == block_name and port_name in block.outputs:
                    port = block.outputs[port_name]
        if port is None:
            return False, f"no output port {spec.target!r}"
        forced = spec.value & 0xFFFFFFFF
        port.value = forced

        def step() -> None:
            # per-cycle: a fast-forward skip would treat the forced
            # output as ordinary quiescent state, so pin it every cycle
            self.sim.step(1)
            port.value = forced

        return self._open_window(spec, until_cycle, step)


class MultiFaultInjector(FaultInjector):
    """Applies a :class:`FaultPlan` to a K-CPU
    :class:`~repro.cosim.multicpu.MultiCoSimulation`.

    The cursor and the driver are inherited (the clock is the global
    lockstep cycle, "halted" means every CPU has halted); only fault
    resolution changes: register/memory faults resolve their node by
    name (``spec.target``) or index, FIFO faults see every channel in
    the system (inter-CPU links included), and ``node_stall`` opens a
    window that gates one processor's clock off via
    ``step(skip_cpus=...)`` while the rest of the topology keeps
    running.
    """

    def _node_index(self, spec: FaultSpec) -> int:
        if spec.target:
            for k, node in enumerate(self.sim.nodes):
                if node.name == spec.target:
                    return k
        return spec.index % self.sim.n_cpus

    def _target_cpu(self, spec: FaultSpec):
        return self.sim.nodes[self._node_index(spec)].cpu

    def _node_stall(
        self, spec: FaultSpec, until_cycle: int
    ) -> tuple[bool, str]:
        """Gate one CPU's clock off for ``duration`` global cycles.

        The victim's local clock freezes behind the global one (its
        retire timestamps lag by at most the stall length — far inside
        any watchdog window); every other processor, model and link
        keeps stepping, so downstream FIFOs drain and upstream ones
        back up exactly as a held-in-reset processor would cause."""
        victim = self._node_index(spec)
        vcpu = self.sim.nodes[victim].cpu
        if vcpu.halted and vcpu.halt_reason is HaltReason.EXIT:
            return False, "node already exited at injection time"
        skip = frozenset({victim})
        return self._open_window(
            spec, until_cycle, lambda: self.sim.step(1, skip_cpus=skip))
