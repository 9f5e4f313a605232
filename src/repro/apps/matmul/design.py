"""Matmul design points: build, run, verify, estimate."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.common import VerificationError, read_int32_array, run_software_only
from repro.apps.matmul.algorithm import generate_matrices, matmul_reference
from repro.apps.matmul.hardware import build_matmul_model
from repro.apps.matmul.software import matmul_hw_source, matmul_sw_source
from repro.cosim.environment import CoSimResult, CoSimulation
from repro.cosim.partition import DesignPoint, DesignSpec, PartitionKind
from repro.iss.cpu import CPUConfig
from repro.mcc import CompileOptions, build_executable
from repro.resources.estimator import DesignEstimate, estimate_design

DEFAULT_MATN = 16
DEFAULT_SEED = 2005


@dataclass
class MatmulDesign:
    """One evaluated point of the matmul application.

    ``block = 0`` denotes the pure-software partition.
    """

    block: int
    matn: int = DEFAULT_MATN
    seed: int = DEFAULT_SEED
    fifo_depth: int = 16
    cpu_config: CPUConfig = field(default_factory=CPUConfig)
    verify: bool = True
    fast_forward: bool = True  # co-sim execution strategy (block > 0 only)

    def __post_init__(self) -> None:
        options = CompileOptions(
            hw_multiplier=self.cpu_config.use_hw_multiplier,
            hw_divider=self.cpu_config.use_hw_divider,
        )
        if self.block == 0:
            self.source = matmul_sw_source(self.matn, self.seed)
            self.model = None
            self.mb = None
        else:
            self.source = matmul_hw_source(self.block, self.matn, self.seed)
            self.model, self.mb = build_matmul_model(self.block, self.fifo_depth)
        self.program = build_executable(self.source, options)

    # ------------------------------------------------------------------
    def expected_result(self) -> list[list[int]]:
        a, b = generate_matrices(self.matn, self.seed)
        return matmul_reference(a, b)

    def run(self) -> CoSimResult:
        if self.block == 0:
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
                f"matmul block={self.block}: exit code {result.exit_code}"
            )
        if self.verify:
            self._verify(cpu)

    def fresh_hardware(self):
        """A new ``(model, mb)`` pair for this partition — what a
        batched campaign lane needs, without recompiling the program."""
        if self.block == 0:
            raise ValueError("software-only partition has no hardware")
        return build_matmul_model(self.block, self.fifo_depth)

    def _verify(self, cpu) -> None:
        flat = read_int32_array(cpu, self.program, "C", self.matn * self.matn)
        expected = self.expected_result()
        for i in range(self.matn):
            for j in range(self.matn):
                got = flat[i * self.matn + j]
                if got != expected[i][j]:
                    raise VerificationError(
                        f"matmul block={self.block}: C[{i}][{j}] = {got}, "
                        f"expected {expected[i][j]}"
                    )

    def estimate(self) -> DesignEstimate:
        return estimate_design(
            model=self.model,
            program=self.program,
            cpu_config=self.cpu_config,
            n_fsl_links=self.mb.n_links if self.mb is not None else 0,
        )

    @property
    def name(self) -> str:
        return "matmul-sw" if self.block == 0 else f"matmul-{self.block}x{self.block}"


def matmul_design_points(
    blocks: tuple[int, ...] = (0, 2, 4),
    matn: int = DEFAULT_MATN,
    **kwargs,
) -> list[DesignPoint]:
    """The Figure 7 family as sweep-engine design points."""
    points = []
    for block in blocks:
        kind = PartitionKind.SOFTWARE_ONLY if block == 0 else \
            PartitionKind.HW_ACCELERATED
        points.append(
            DesignPoint(
                name=f"matmul-{'sw' if block == 0 else f'{block}x{block}'}-n{matn}",
                kind=kind,
                build=(lambda block=block: MatmulDesign(block=block, matn=matn,
                                                        **kwargs)),
                params={"block": block, "N": matn},
            )
        )
    return points


def matmul_design_specs(
    blocks: tuple[int, ...] = (0, 2, 4),
    matn: int = DEFAULT_MATN,
    **kwargs,
) -> list[DesignSpec]:
    """The same family as picklable specs for the parallel engine."""
    specs = []
    for block in blocks:
        kind = PartitionKind.SOFTWARE_ONLY if block == 0 else \
            PartitionKind.HW_ACCELERATED
        specs.append(
            DesignSpec(
                name=f"matmul-{'sw' if block == 0 else f'{block}x{block}'}"
                     f"-n{matn}",
                factory="repro.apps.matmul.design:MatmulDesign",
                params={"block": block, "matn": matn, **kwargs},
                kind=kind,
            )
        )
    return specs
