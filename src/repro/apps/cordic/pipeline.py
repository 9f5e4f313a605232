"""Multi-processor CORDIC division: one CPU per rotation stage.

The paper's P-PE design keeps one MicroBlaze feeding a P-stage
*hardware* pipeline.  This variant turns the same algorithm into a
genuinely parallel **software** pipeline over a K-CPU FSL topology
(:class:`~repro.cosim.MultiCoSimulation`):

* CPU 0 (*feed*) streams each datum as an ``(XC, Y, Z)`` triple,
* CPUs 1..S (*stage s*) each run a statically-compiled share of the
  CORDIC iterations on every passing triple — the rotation constant
  ``C`` depends only on the global iteration index, so stage ``s``
  starts from the compile-time constant ``one >> offset(s)``,
* CPU S+1 (*collect*) stores the ``(Y, Z)`` results in its own BRAM,
  where verification reads them back against the bit-exact golden
  model (:func:`~repro.apps.cordic.algorithm.cordic_divide_fixed`).

Datum ``i+1``'s early rotations overlap datum ``i``'s late ones on
different processors — the throughput win over the single-CPU software
baseline (``CordicDesign(p=0)``) that EXPERIMENTS.md tabulates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.apps.common import VerificationError, read_int32_array
from repro.apps.cordic.algorithm import cordic_divide_fixed, generate_dataset
from repro.apps.cordic.software import _dataset_decls
from repro.asm.linker import Program
from repro.cosim.multicpu import CPUNode, MultiCoSimResult, MultiCoSimulation
from repro.cosim.topology import TopologySpec
from repro.iss.cpu import CPUConfig
from repro.mcc import CompileOptions, build_executable

DEFAULT_ITERS = 24
DEFAULT_NDATA = 32
DEFAULT_FRAC = 16
DEFAULT_SEED = 2005


def stage_split(iters: int, stages: int) -> list[int]:
    """Per-stage iteration counts (earlier stages absorb the
    remainder): ``sum(stage_split(i, s)) == i``, every entry >= 1."""
    if stages < 1:
        raise ValueError("need at least one rotation stage")
    if iters < stages:
        raise ValueError(f"cannot split {iters} iterations over "
                         f"{stages} stages")
    base, extra = divmod(iters, stages)
    return [base + (1 if s < extra else 0) for s in range(stages)]


def feed_source(ndata: int, frac: int, seed: int) -> str:
    """CPU 0: stream the dataset downstream, one (XC, Y, Z) triple per
    datum."""
    return f"""\
/* CORDIC pipeline feed (cpu0).  Generated. */
{_dataset_decls(ndata, frac, seed)}

int main(void) {{
    int *xp = Xa;
    int *bp = Yb;
    for (int i = 0; i < {ndata}; i++) {{
        putfsl(*xp, 0);
        putfsl(*bp, 0);
        putfsl(0, 0);
        xp++;
        bp++;
    }}
    return 0;
}}
"""


def stage_source(stage: int, offset: int, rounds: int, ndata: int,
                 frac: int) -> str:
    """CPU ``stage+1``: apply CORDIC iterations ``offset ..
    offset+rounds`` to every passing triple.  ``C`` starts at the
    compile-time constant ``one >> offset`` — the stage's position in
    the global iteration sequence, baked in at build time."""
    c_start = ((1 << frac) & 0xFFFFFFFF) >> offset
    return f"""\
/* CORDIC rotation stage {stage} (cpu{stage + 1}): iterations \
{offset}..{offset + rounds - 1}.  Generated. */
int main(void) {{
    for (int i = 0; i < {ndata}; i++) {{
        int xc = getfsl(0);
        int y = getfsl(0);
        int z = getfsl(0);
        int c = {c_start};
        for (int j = 0; j < {rounds}; j++) {{
            if (y < 0) {{ y += xc; z -= c; }}
            else       {{ y -= xc; z += c; }}
            xc >>= 1;
            c = (int)((unsigned)c >> 1);
        }}
        putfsl(xc, 0);
        putfsl(y, 0);
        putfsl(z, 0);
    }}
    return 0;
}}
"""


def collect_source(stages: int, ndata: int) -> str:
    """Last CPU: land every result triple in its own BRAM."""
    return f"""\
/* CORDIC pipeline collector (cpu{stages + 1}).  Generated. */
int Yv[{ndata}];
int Zv[{ndata}];

int main(void) {{
    int *yp = Yv;
    int *zp = Zv;
    for (int i = 0; i < {ndata}; i++) {{
        int xc = getfsl(0);
        *yp = getfsl(0);
        *zp = getfsl(0);
        yp++;
        zp++;
    }}
    return 0;
}}
"""


@dataclass
class CordicPipelineDesign:
    """A K-CPU pipelined CORDIC division design point.

    ``stages`` rotation CPUs plus the feed and collect processors:
    ``n_cpus == stages + 2``.
    """

    stages: int = 4
    iters: int = DEFAULT_ITERS
    ndata: int = DEFAULT_NDATA
    frac: int = DEFAULT_FRAC
    seed: int = DEFAULT_SEED
    link_depth: int = 16
    cpu_config: CPUConfig = field(default_factory=CPUConfig)
    verify: bool = True
    max_cycles: int = 2_000_000

    #: campaign dispatch marker: this design runs on MultiCoSimulation
    is_multi = True

    def __post_init__(self) -> None:
        self.split = stage_split(self.iters, self.stages)
        options = CompileOptions(
            hw_multiplier=self.cpu_config.use_hw_multiplier,
            hw_divider=self.cpu_config.use_hw_divider,
        )
        sources = [feed_source(self.ndata, self.frac, self.seed)]
        offset = 0
        for s, rounds in enumerate(self.split):
            sources.append(
                stage_source(s, offset, rounds, self.ndata, self.frac))
            offset += rounds
        sources.append(collect_source(self.stages, self.ndata))
        self.sources = sources
        self.programs: list[Program] = [
            build_executable(src, options) for src in sources
        ]

    # ------------------------------------------------------------------
    @property
    def n_cpus(self) -> int:
        return self.stages + 2

    @property
    def name(self) -> str:
        return f"cordic-pipe{self.stages}"

    def topology(self) -> TopologySpec:
        return TopologySpec.pipeline(self.n_cpus)

    def build_sim(self, deadlock_window: int | None = None) -> MultiCoSimulation:
        nodes = [CPUNode(program=program, cpu_config=self.cpu_config)
                 for program in self.programs]
        return MultiCoSimulation(
            nodes,
            self.topology(),
            link_depth=self.link_depth,
            deadlock_window=deadlock_window,
        )

    def expected_results(self) -> list[tuple[int, int]]:
        pairs = generate_dataset(self.ndata, self.frac, self.seed)
        return [cordic_divide_fixed(b, a, self.iters, self.frac)
                for a, b in pairs]

    # ------------------------------------------------------------------
    def run(self) -> MultiCoSimResult:
        sim = self.build_sim()
        result = sim.run(until=self.max_cycles)
        self.check(sim, result)
        return result

    def check(self, sim: MultiCoSimulation, result: MultiCoSimResult) -> None:
        if result.exit_code != 0:
            raise VerificationError(
                f"{self.name}: exited with {result.exit_code} "
                f"(halt: {result.halt_reason})")
        if self.verify:
            self._verify(sim)

    def _verify(self, sim: MultiCoSimulation) -> None:
        sink = sim.nodes[-1]
        got_y = read_int32_array(sink.cpu, sink.program, "Yv", self.ndata)
        got_z = read_int32_array(sink.cpu, sink.program, "Zv", self.ndata)
        for i, (exp_y, exp_z) in enumerate(self.expected_results()):
            if got_y[i] != exp_y or got_z[i] != exp_z:
                raise VerificationError(
                    f"{self.name}, datum {i}: got (y={got_y[i]}, "
                    f"z={got_z[i]}), expected (y={exp_y}, z={exp_z})")


def compare_with_software(stages: int = 4,
                          iters: int = DEFAULT_ITERS,
                          ndata: int = DEFAULT_NDATA) -> dict:
    """Cycle counts of the K-CPU pipeline vs the single-CPU software
    baseline on the identical dataset (the EXPERIMENTS.md table)."""
    from repro.apps.common import run_software_only
    from repro.apps.cordic.design import CordicDesign

    sw = CordicDesign(p=0, iters=iters, ndata=ndata)
    t0 = time.perf_counter()
    sw_result, _cpu = run_software_only(sw.program, sw.cpu_config)
    sw_wall = time.perf_counter() - t0
    sw.check(_cpu, sw_result)

    pipe = CordicPipelineDesign(stages=stages, iters=iters, ndata=ndata)
    pipe_result = pipe.run()
    return {
        "iters": iters,
        "ndata": ndata,
        "stages": stages,
        "n_cpus": pipe.n_cpus,
        "sw_cycles": sw_result.cycles,
        "pipe_cycles": pipe_result.cycles,
        "speedup": sw_result.cycles / pipe_result.cycles,
        "sw_wall_s": sw_wall,
        "pipe_wall_s": pipe_result.wall_seconds,
    }
