"""The high-level cycle-accurate HW/SW co-simulation environment.

This is the paper's contribution (Section III): couple

* the cycle-accurate instruction simulator (:mod:`repro.iss`) running
  the compiled C program — the *software execution platform*,
* the arithmetic-level hardware model (:mod:`repro.sysgen`) — the
  *customized hardware peripherals*,
* the FSL FIFO models (:mod:`repro.bus.fsl`) — the *communication
  interface*,

under one clock.  The :class:`~repro.cosim.mb_block.MicroBlazeBlock`
plays the role of the paper's "MicroBlaze Simulink block": it owns the
FSL channels, exposes their hardware-side ports into the sysgen model
and shares the same channel objects with the CPU's FSL unit, keeping
both worlds cycle-consistent.
"""

from repro.cosim.mb_block import MicroBlazeBlock
from repro.cosim.environment import (
    CoSimDeadlock,
    CoSimResult,
    CoSimTimeout,
    CoSimulation,
    FastForwardError,
    run_timeout,
)
from repro.cosim.topology import (
    LinkSpec,
    TOPOLOGY_KINDS,
    TopologyError,
    TopologySpec,
)
from repro.cosim.multicpu import (
    CPUNode,
    MultiCoSimResult,
    MultiCoSimulation,
)
from repro.cosim.partition import DesignPoint, DesignSpec, PartitionKind
from repro.cosim.dse import DSEResult
from repro.cosim.report import format_sweep, format_table
from repro.cosim.sweep import (
    SweepProgress,
    SweepReport,
    sweep,
)
from repro.cosim.sweep_batched import sweep_batched
from repro.cosim.batch import BatchedCoSimulation, LaneResult

__all__ = [
    "MicroBlazeBlock",
    "CoSimulation",
    "CoSimResult",
    "CoSimDeadlock",
    "CoSimTimeout",
    "FastForwardError",
    "run_timeout",
    "LinkSpec",
    "TOPOLOGY_KINDS",
    "TopologyError",
    "TopologySpec",
    "CPUNode",
    "MultiCoSimResult",
    "MultiCoSimulation",
    "DesignPoint",
    "DesignSpec",
    "PartitionKind",
    "DSEResult",
    "sweep",
    "sweep_batched",
    "BatchedCoSimulation",
    "LaneResult",
    "SweepProgress",
    "SweepReport",
    "format_table",
    "format_sweep",
]
