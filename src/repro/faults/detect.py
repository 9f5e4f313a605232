"""Fault detection: invariant checkers over a finished (or wedged) run.

Detection layers, cheapest first:

* the **progress watchdog** — ``CoSimulation(deadlock_window=…)``
  raises :class:`~repro.cosim.environment.CoSimDeadlock` when no
  instruction retires for the configured window; campaigns tighten it
  so hangs surface in thousands, not millions, of cycles,
* **architectural invariants** checked here after the run: FSL error
  flags, FIFO occupancy beyond physical depth, missing exit,
* the **result invariant** — the application's own golden-model
  verification (``design._verify``), which separates silent data
  corruption from masked faults.

Each tripped checker emits a ``FAULT_DETECTED`` telemetry event when
the simulation has telemetry attached.
"""

from __future__ import annotations

from repro.cosim.environment import CoSimulation
from repro.telemetry.events import (
    COSIM_TRACK,
    FAULT_DETECTED,
    TelemetryEvent,
)


def check_invariants(sim) -> list[str]:
    """Architectural anomalies visible in the simulation state.

    Accepts a single-CPU :class:`CoSimulation` or a K-CPU
    :class:`~repro.cosim.multicpu.MultiCoSimulation` (every processor
    and every channel — inter-CPU links included — is checked, with
    the node name in the diagnostic).  Returns one human-readable
    string per tripped invariant (empty list = clean) and mirrors each
    to the telemetry bus.
    """
    # (whose FSL interface, who exited, the CPU) per processor
    if hasattr(sim, "topology"):  # MultiCoSimulation
        cycle = sim.cycle
        cpus = [(f"{node.name}'s", node.name, node.cpu) for node in sim.nodes]
    else:
        cycle = sim.cpu.cycle
        cpus = [("the", "program", sim.cpu)]
    anomalies = [
        f"fsl-error: control-bit mismatch flagged by {whose} FSL interface"
        for whose, _, cpu in cpus if cpu.fsl is not None and cpu.fsl.error
    ]
    anomalies += [
        f"fifo-overflow: {channel.name} holds {channel.occupancy} words "
        f"(depth {channel.depth})"
        for channel in sim.all_channels() if channel.occupancy > channel.depth
    ]
    anomalies += [
        f"exit-code: {who} exited with {cpu.exit_code}"
        for _, who, cpu in cpus
        if cpu.halted and cpu.exit_code not in (0, None)
    ]
    if sim.telemetry is not None:
        for anomaly in anomalies:
            name = anomaly.split(":", 1)[0]
            sim.telemetry.bus.emit(
                TelemetryEvent(
                    FAULT_DETECTED, cycle, COSIM_TRACK, text=name
                )
            )
    return anomalies
