"""Fault injection into a running co-simulation.

The injector drives the simulation in segments — run to the next
scheduled fault cycle, perturb the exact piece of state the
:class:`~repro.faults.plan.FaultSpec` names, continue — using the same
run-to-cycle primitive as checkpointing (``run(until=K)`` halts
with ``MAX_CYCLES``; ``cpu.resume()`` clears it).  Injection therefore
composes with both per-cycle and fast-forward execution, except during
a ``stuck_at`` window, which steps per-cycle so the forced output is
visible every cycle regardless of quiescence.

Every applied (or skipped) fault is logged, and a ``FAULT_INJECTED``
telemetry event is emitted when the simulation has telemetry attached.
"""

from __future__ import annotations

from typing import Any

from repro.bus.fsl import FSLChannel, FSLWord
from repro.cosim.environment import CoSimulation
from repro.faults.plan import FaultPlan, FaultSpec
from repro.iss.cpu import HaltReason
from repro.telemetry.events import (
    COSIM_TRACK,
    FAULT_INJECTED,
    TelemetryEvent,
)


class FaultInjector:
    """Applies one :class:`FaultPlan` to one :class:`CoSimulation`.

    :class:`MultiFaultInjector` retargets the same drive loop at a
    K-CPU :class:`~repro.cosim.multicpu.MultiCoSimulation` by
    overriding the clock/halt/CPU-resolution hooks below.
    """

    def __init__(self, sim: CoSimulation, plan: FaultPlan):
        self.sim = sim
        self.plan = plan
        #: one entry per scheduled fault: description, the cycle it
        #: landed on, and whether it actually perturbed state (a FIFO
        #: fault on an empty FIFO is a recorded no-op)
        self.log: list[dict[str, Any]] = []

    # -- simulation-shape hooks ----------------------------------------
    def _cycle_now(self) -> int:
        return self.sim.cpu.cycle

    def _halted(self) -> bool:
        return self.sim.cpu.halted

    def _target_cpu(self, spec: FaultSpec):
        """The CPU a register/memory fault lands on."""
        return self.sim.cpu

    # ------------------------------------------------------------------
    def _advance_to(self, cycle: int) -> bool:
        """Run to absolute ``cycle``; True while the program is still
        continuable (running, or force-halted at the segment end)."""
        cpu = self.sim.cpu
        if cpu.halted:
            if cpu.halt_reason is not HaltReason.MAX_CYCLES:
                return False
            cpu.resume()
        if cycle > cpu.cycle:
            self.sim.run(until=cycle - cpu.cycle)
        return not cpu.halted or cpu.halt_reason is HaltReason.MAX_CYCLES

    def run(self, until_cycle: int) -> None:
        """Advance to absolute ``until_cycle``, injecting every planned
        fault at its exact cycle.  Deadlocks and bus faults propagate
        to the caller (they are detection outcomes, not engine bugs).
        """
        for spec in sorted(self.plan.faults, key=lambda f: f.cycle):
            if spec.cycle >= until_cycle:
                break
            if not self._advance_to(spec.cycle):
                self.log.append(
                    {
                        "fault": spec.describe(),
                        "cycle": self._cycle_now(),
                        "applied": False,
                        "note": "program ended before the fault cycle",
                    }
                )
                return
            self._apply(spec, until_cycle)
        self._advance_to(until_cycle)

    # ------------------------------------------------------------------
    def _apply(self, spec: FaultSpec, until_cycle: int) -> None:
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
            self.log.append(
                {
                    "fault": spec.describe(),
                    "cycle": self._cycle_now(),
                    "applied": applied,
                    "note": note,
                }
            )
        if applied and self.sim.telemetry is not None:
            self.sim.telemetry.bus.emit(
                TelemetryEvent(
                    FAULT_INJECTED, self._cycle_now(), COSIM_TRACK,
                    text=spec.describe(),
                )
            )

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
        for channel in self.sim.mb_block.channels():
            if channel.name == name:
                return channel
        return None

    def _fifo_fault(self, spec: FaultSpec) -> tuple[bool, str]:
        channel = self._channel(spec.target)
        if channel is None:
            return False, f"no channel named {spec.target!r}"
        fifo = channel._fifo
        if not fifo:
            return False, "FIFO empty at injection time"
        pos = spec.index % len(fifo)
        if spec.kind == "fifo_corrupt":
            word = fifo[pos]
            fifo[pos] = FSLWord(
                (word.data ^ (1 << (spec.bit % 32))) & 0xFFFFFFFF,
                word.control,
            )
        elif spec.kind == "fifo_drop":
            fifo.popleft()  # physically lost: statistics left untouched
        else:  # fifo_dup
            word = fifo[pos]
            fifo.insert(pos, FSLWord(word.data, word.control))
        return True, ""

    def _link_drop(self, spec: FaultSpec) -> tuple[bool, str]:
        """Lose up to ``duration`` words queued on an (inter-CPU) link.
        The sender already saw its pushes accepted — the words vanish
        in transit, statistics untouched, exactly like ``fifo_drop``
        but sized for a burst loss."""
        channel = self._channel(spec.target)
        if channel is None:
            return False, f"no channel named {spec.target!r}"
        fifo = channel._fifo
        if not fifo:
            return False, "link idle at injection time"
        lost = min(max(1, spec.duration), len(fifo))
        for _ in range(lost):
            fifo.popleft()
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
        end = min(self._cycle_now() + spec.duration, until_cycle)
        # Per-cycle stepping: a fast-forward skip would treat the forced
        # output as ordinary quiescent state, so pin it every cycle.
        port.value = forced
        while not self._halted() and self._cycle_now() < end:
            self.sim.step(1)
            if self._cycle_now() <= end:
                port.value = forced
        return True, ""


class MultiFaultInjector(FaultInjector):
    """Applies a :class:`FaultPlan` to a K-CPU
    :class:`~repro.cosim.multicpu.MultiCoSimulation`.

    The drive loop is inherited; only the simulation-shape hooks
    change: the clock is the global lockstep cycle, "halted" means
    every CPU has halted, register/memory faults resolve their node by
    name (``spec.target``) or index, FIFO faults see every channel in
    the system (inter-CPU links included), and ``node_stall`` gates one
    processor's clock off via ``step(skip_cpus=...)`` while the rest of
    the topology keeps running.
    """

    def _cycle_now(self) -> int:
        return self.sim.cycle

    def _halted(self) -> bool:
        return self.sim.halted

    def _node_index(self, spec: FaultSpec) -> int:
        if spec.target:
            for k, node in enumerate(self.sim.nodes):
                if node.name == spec.target:
                    return k
        return spec.index % self.sim.n_cpus

    def _target_cpu(self, spec: FaultSpec):
        return self.sim.nodes[self._node_index(spec)].cpu

    def _channel(self, name: str) -> FSLChannel | None:
        for channel in self.sim.all_channels():
            if channel.name == name:
                return channel
        return None

    def _advance_to(self, cycle: int) -> bool:
        sim = self.sim
        if sim.halted:
            if sim.halt_reason is not HaltReason.MAX_CYCLES:
                return False
            sim.resume()
        if cycle > sim.cycle:
            sim.run(until=cycle - sim.cycle)
        return not sim.halted or sim.halt_reason is HaltReason.MAX_CYCLES

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
        # _advance_to parks every CPU on MAX_CYCLES at the segment end;
        # clear it so the un-stalled processors actually run
        self.sim.resume()
        end = min(self.sim.cycle + spec.duration, until_cycle)
        skip = frozenset({victim})
        while not self.sim.halted and self.sim.cycle < end:
            self.sim.step(1, skip_cpus=skip)
        return True, ""
