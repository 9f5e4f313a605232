"""CORDIC design points: build, run, verify, estimate.

A :class:`CordicDesign` bundles one partition choice (pure software or
a P-PE pipeline) with its compiled program, hardware model and
processor configuration.  ``run()`` co-simulates, then checks every
quotient in BRAM against the bit-exact golden model — the machine-
checked substitute for the paper's ML300-board validation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.apps.common import VerificationError, read_int32_array, run_software_only
from repro.apps.cordic.algorithm import cordic_divide_fixed, generate_dataset
from repro.apps.cordic.hardware import build_cordic_model
from repro.apps.cordic.software import cordic_hw_source, cordic_sw_source
from repro.cosim.environment import CoSimResult, CoSimulation
from repro.cosim.partition import DesignPoint, DesignSpec, PartitionKind
from repro.iss.cpu import CPUConfig
from repro.mcc import CompileOptions, build_executable
from repro.resources.estimator import DesignEstimate, estimate_design

DEFAULT_ITERS = 24
DEFAULT_NDATA = 32
DEFAULT_FRAC = 16
DEFAULT_SEED = 2005


@dataclass
class CordicDesign:
    """One evaluated point of the CORDIC application."""

    p: int  # 0 = pure software
    iters: int = DEFAULT_ITERS
    ndata: int = DEFAULT_NDATA
    frac: int = DEFAULT_FRAC
    seed: int = DEFAULT_SEED
    fifo_depth: int = 16
    cpu_config: CPUConfig = field(default_factory=CPUConfig)
    verify: bool = True
    fast_forward: bool = True  # co-sim execution strategy (p > 0 only)

    def __post_init__(self) -> None:
        options = CompileOptions(
            hw_multiplier=self.cpu_config.use_hw_multiplier,
            hw_divider=self.cpu_config.use_hw_divider,
        )
        if self.p == 0:
            source = cordic_sw_source(self.iters, self.ndata, self.frac, self.seed)
            self.model = None
            self.mb = None
        else:
            source = cordic_hw_source(
                self.p, self.iters, self.ndata, self.frac,
                self.fifo_depth, self.seed,
            )
            self.model, self.mb = build_cordic_model(self.p, self.fifo_depth)
        self.source = source
        self.program = build_executable(source, options)

    # ------------------------------------------------------------------
    @property
    def effective_iterations(self) -> int:
        """Iterations actually performed: the pipeline always runs a
        whole pass of P (ceil), the software exactly ``iters``."""
        if self.p == 0:
            return self.iters
        passes = -(-self.iters // self.p)
        return passes * self.p

    def expected_results(self) -> list[tuple[int, int]]:
        """(y, z) golden outputs for every datum."""
        pairs = generate_dataset(self.ndata, self.frac, self.seed)
        return [
            cordic_divide_fixed(b, a, self.effective_iterations, self.frac)
            for a, b in pairs
        ]

    # ------------------------------------------------------------------
    def run(self) -> CoSimResult:
        if self.p == 0:
            result, cpu = run_software_only(self.program, self.cpu_config)
        else:
            sim = CoSimulation(
                self.program, self.model, self.mb,
                cpu_config=self.cpu_config,
                fast_forward=self.fast_forward,
            )
            result = sim.run()
            cpu = sim.cpu
        self.check(cpu, result)
        return result

    def check(self, cpu, result: CoSimResult) -> None:
        """Post-run acceptance: exit code + golden-model compare.

        The tail of :meth:`run`, callable on an externally driven
        simulation (e.g. one lane of a batched sweep) so every engine
        applies the identical verdict and diagnostic text."""
        if result.exit_code != 0:
            raise VerificationError(
                f"CORDIC P={self.p}: program exited with {result.exit_code}"
            )
        if self.verify:
            self._verify(cpu)

    def fresh_hardware(self):
        """A new ``(model, mb)`` pair for this partition — what a
        batched campaign lane needs, without recompiling the program."""
        if self.p == 0:
            raise ValueError("software-only partition has no hardware")
        return build_cordic_model(self.p, self.fifo_depth)

    def _verify(self, cpu) -> None:
        got_y = read_int32_array(cpu, self.program, "Yv", self.ndata)
        got_z = read_int32_array(cpu, self.program, "Zv", self.ndata)
        for i, (exp_y, exp_z) in enumerate(self.expected_results()):
            if got_y[i] != exp_y or got_z[i] != exp_z:
                raise VerificationError(
                    f"CORDIC P={self.p}, datum {i}: got (y={got_y[i]}, "
                    f"z={got_z[i]}), expected (y={exp_y}, z={exp_z})"
                )

    # ------------------------------------------------------------------
    def estimate(self) -> DesignEstimate:
        return estimate_design(
            model=self.model,
            program=self.program,
            cpu_config=self.cpu_config,
            n_fsl_links=self.mb.n_links if self.mb is not None else 0,
        )

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return "cordic-sw" if self.p == 0 else f"cordic-p{self.p}"


def cordic_design_points(
    ps: tuple[int, ...] = (0, 2, 4, 6, 8),
    iters: int = DEFAULT_ITERS,
    ndata: int = DEFAULT_NDATA,
    **kwargs,
) -> list[DesignPoint]:
    """The Figure 5 sweep as design points for the sweep engine."""
    points = []
    for p in ps:
        kind = PartitionKind.SOFTWARE_ONLY if p == 0 else \
            PartitionKind.HW_ACCELERATED
        points.append(
            DesignPoint(
                name=f"cordic-{'sw' if p == 0 else f'p{p}'}-{iters}it",
                kind=kind,
                build=(lambda p=p: CordicDesign(p=p, iters=iters,
                                                ndata=ndata, **kwargs)),
                params={"P": p, "iterations": iters, "ndata": ndata},
            )
        )
    return points


def cordic_design_specs(
    ps: tuple[int, ...] = (0, 2, 4, 6, 8),
    iters: int = DEFAULT_ITERS,
    ndata: int = DEFAULT_NDATA,
    **kwargs,
) -> list[DesignSpec]:
    """The same sweep as picklable specs for the parallel engine."""
    specs = []
    for p in ps:
        kind = PartitionKind.SOFTWARE_ONLY if p == 0 else \
            PartitionKind.HW_ACCELERATED
        specs.append(
            DesignSpec(
                name=f"cordic-{'sw' if p == 0 else f'p{p}'}-{iters}it",
                factory="repro.apps.cordic.design:CordicDesign",
                params={"p": p, "iters": iters, "ndata": ndata, **kwargs},
                kind=kind,
            )
        )
    return specs
