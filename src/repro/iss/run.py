"""Convenience helpers to load and run linked programs on the ISS."""

from __future__ import annotations

from repro.asm.linker import Program
from repro.iss.cpu import CPU, CPUConfig, HaltReason
from repro.iss.fsl import FSLPorts
from repro.iss.memory import AddressSpace, BRAM


def make_cpu(
    program: Program,
    config: CPUConfig | None = None,
    fsl: FSLPorts | None = None,
    memory_size: int | None = None,
) -> CPU:
    """Build a CPU with ``program`` loaded and the PC at its entry."""
    if memory_size is None:
        memory_size = program.memory_size or max(program.memory_required, 4096)
    memory_size = (memory_size + 3) & ~3
    bram = BRAM(memory_size)
    program.load_into(bram)
    cpu = CPU(AddressSpace(bram), config=config, fsl=fsl)
    cpu.pc = program.entry
    cpu._text_end = min(program.text_size, memory_size)
    return cpu


def reload_cpu(cpu: CPU, program: Program) -> None:
    """Return ``cpu`` to the state :func:`make_cpu` built it in:
    architectural reset with the PC at the entry, BRAM zeroed (no stale
    ``.bss`` or stack from an earlier run) and the program image
    loaded."""
    cpu.reset(pc=program.entry)
    bram = cpu.mem.bram
    bram.load(0, bytes(bram.size))
    program.load_into(bram)
    cpu._text_end = min(program.text_size, bram.size)


def run_to_completion(
    program: Program,
    config: CPUConfig | None = None,
    fsl: FSLPorts | None = None,
    max_cycles: int = 10_000_000,
    memory_size: int | None = None,
) -> tuple[int | None, CPU]:
    """Run ``program`` until it exits; returns ``(exit_code, cpu)``.

    ``exit_code`` is None when the run hit ``max_cycles`` instead of
    exiting — callers that expect termination should assert on it.
    """
    cpu = make_cpu(program, config=config, fsl=fsl, memory_size=memory_size)
    reason = cpu.run(max_cycles=max_cycles)
    if reason is HaltReason.EXIT:
        return cpu.exit_code, cpu
    return None, cpu
