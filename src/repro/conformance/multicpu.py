"""Seeded random multi-CPU conformance scenarios.

A :class:`MultiScenario` is a complete K-processor co-simulation: a
named FSL topology (pipeline / ring / 2-D mesh), one generated mini-C
driver per CPU, and optionally a small node-local hardware pipeline
behind each processor's own :class:`MicroBlazeBlock` (so both sysgen
engines stay load-bearing in the diff).  A word stream flows along a
deterministic route through the topology — every relay transforms the
tokens, the sink folds them into its exit code — and every CPU is
seasoned with timing-sensitive garnish:

* bounded **non-blocking polls** before the blocking phase, counting
  failures through the MSR carry — the per-cycle *arrival time* of an
  upstream word decides how many polls miss, which is exactly the
  inter-CPU race the oracle must prove execution-mode-invariant,
* **local hardware rounds** through the node's own FSL peripheral,
  skewing that CPU against its neighbours,
* optional **hazards** (a starving sink, an over-producing source)
  whose deadlock must be reported identically by every mode.

Like single-CPU scenarios, everything is plain frozen data with a
stable dict round-trip (``family: "multi"`` tags the documents), and
everything random derives from
``random.Random(f"mb32-multicpu/{seed}/{index}")``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.asm.linker import Program
from repro.conformance.scenario import STAGE_KINDS, StageSpec, _build_stage
from repro.cosim.mb_block import MicroBlazeBlock
from repro.cosim.multicpu import CPUNode, MultiCoSimulation
from repro.cosim.topology import TopologySpec
from repro.cosim.trace import FSLTrace
from repro.iss.cpu import CPUConfig
from repro.mcc import CompileOptions, build_executable
from repro.sysgen import Model
from repro.sysgen.blocks import Delay, Inverter, Logical
from repro.telemetry import Telemetry

MULTI_TOPOLOGY_KINDS = ("pipeline", "ring", "mesh")

#: per-token transforms a relay may apply
NODE_ARITH = ("none", "inc", "dbl", "xor", "mul3")

#: FSL channel id for a node's local hardware loopback — clear of the
#: topology link channels (pipeline/ring use 0, mesh uses 0..3)
LOCAL_HW_CHANNEL = 6


@dataclass(frozen=True)
class MultiNodeSpec:
    """Per-CPU configuration of a multi-CPU scenario."""

    arith: str = "none"
    #: non-blocking ``nget`` attempts before the blocking stream phase
    polls: int = 0
    #: optional node-local hardware stage on :data:`LOCAL_HW_CHANNEL`
    hw_stage: StageSpec | None = None
    #: words the node streams through its local hardware before (and
    #: interleaved ahead of) the inter-CPU phase
    hw_rounds: int = 0
    hw_multiplier: bool = True
    hw_divider: bool = False
    hw_barrel_shifter: bool = True

    def compile_options(self) -> CompileOptions:
        return CompileOptions(
            hw_multiplier=self.hw_multiplier,
            hw_divider=self.hw_divider,
            hw_barrel_shifter=self.hw_barrel_shifter,
        )

    def cpu_config(self) -> CPUConfig:
        return CPUConfig(
            use_hw_multiplier=self.hw_multiplier,
            use_hw_divider=self.hw_divider,
            use_barrel_shifter=self.hw_barrel_shifter,
        )

    def to_dict(self) -> dict:
        return {
            "arith": self.arith,
            "polls": self.polls,
            "hw_stage": (self.hw_stage.to_dict()
                         if self.hw_stage is not None else None),
            "hw_rounds": self.hw_rounds,
            "hw_multiplier": self.hw_multiplier,
            "hw_divider": self.hw_divider,
            "hw_barrel_shifter": self.hw_barrel_shifter,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MultiNodeSpec":
        stage = data.get("hw_stage")
        return cls(
            arith=data.get("arith", "none"),
            polls=int(data.get("polls", 0)),
            hw_stage=StageSpec.from_dict(stage) if stage else None,
            hw_rounds=int(data.get("hw_rounds", 0)),
            hw_multiplier=bool(data.get("hw_multiplier", True)),
            hw_divider=bool(data.get("hw_divider", False)),
            hw_barrel_shifter=bool(data.get("hw_barrel_shifter", True)),
        )


@dataclass(frozen=True)
class MultiScenario:
    """A complete randomized K-CPU design + per-CPU driver programs."""

    name: str
    seed: str
    topology_kind: str = "pipeline"
    n_cpus: int = 2
    rows: int = 0
    cols: int = 0
    link_depth: int = 16
    tokens: int = 4
    value_param: int = 0
    hazard: str = ""  # "" | "starve" | "overflow"
    nodes: tuple[MultiNodeSpec, ...] = ()
    max_cycles: int = 120_000

    #: discriminator for mixed-family corpora / golden files
    family = "multi"

    def topology(self) -> TopologySpec:
        return TopologySpec.named(self.topology_kind, n_cpus=self.n_cpus,
                                  rows=self.rows, cols=self.cols)

    def route(self) -> tuple[int, ...]:
        """Node indices along the token stream.  Pipelines run front to
        back, rings close the loop back to node 0 (which is both source
        and sink), meshes snake row-major (serpentine) so every hop is
        a neighbour link; the reverse mesh links stay idle."""
        if self.topology_kind == "pipeline":
            return tuple(range(self.n_cpus))
        if self.topology_kind == "ring":
            return tuple(range(self.n_cpus)) + (0,)
        if self.topology_kind == "mesh":
            path: list[int] = []
            for r in range(self.rows):
                cols = range(self.cols)
                if r % 2:
                    cols = reversed(cols)
                path.extend(r * self.cols + c for c in cols)
            return tuple(path)
        raise ValueError(f"unknown topology kind {self.topology_kind!r}")

    def stream_channels(self, node: int) -> tuple[int | None, int | None]:
        """(input FSL channel, output FSL channel) of ``node`` along
        the route — ``None`` at the open ends of a pipeline/mesh."""
        topo = self.topology()
        route = self.route()
        in_ch = out_ch = None
        for a, b in zip(route, route[1:]):
            for link in topo.links:
                if link.src == a and link.dst == b:
                    if a == node:
                        out_ch = link.src_channel
                    if b == node:
                        in_ch = link.dst_channel
        return in_ch, out_ch

    def to_dict(self) -> dict:
        return {
            "family": "multi",
            "name": self.name,
            "seed": self.seed,
            "topology_kind": self.topology_kind,
            "n_cpus": self.n_cpus,
            "rows": self.rows,
            "cols": self.cols,
            "link_depth": self.link_depth,
            "tokens": self.tokens,
            "value_param": self.value_param,
            "hazard": self.hazard,
            "nodes": [n.to_dict() for n in self.nodes],
            "max_cycles": self.max_cycles,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MultiScenario":
        return cls(
            name=data["name"],
            seed=data["seed"],
            topology_kind=data.get("topology_kind", "pipeline"),
            n_cpus=int(data.get("n_cpus", 2)),
            rows=int(data.get("rows", 0)),
            cols=int(data.get("cols", 0)),
            link_depth=int(data.get("link_depth", 16)),
            tokens=int(data.get("tokens", 4)),
            value_param=int(data.get("value_param", 0)),
            hazard=data.get("hazard", ""),
            nodes=tuple(MultiNodeSpec.from_dict(n)
                        for n in data.get("nodes", [])),
            max_cycles=int(data.get("max_cycles", 120_000)),
        )


# --------------------------------------------------------------------------
# program rendering


def _transform(arith: str, var: str) -> str:
    if arith == "none":
        return var
    if arith == "inc":
        return f"{var} + 1"
    if arith == "dbl":
        return f"{var} + {var}"
    if arith == "xor":
        return f"{var} ^ 23130"
    if arith == "mul3":
        return f"{var} * 3"
    raise ValueError(f"unknown node arith {arith!r}")


def _hw_session(node: MultiNodeSpec, lines: list[str]) -> None:
    if node.hw_stage is None or node.hw_rounds <= 0:
        return
    lines += [
        f"    for (int w0 = 0; w0 < {node.hw_rounds}; w0++) {{",
        f"        putfsl(w0 * 3 + 1, {LOCAL_HW_CHANNEL});",
        f"        acc = acc + getfsl({LOCAL_HW_CHANNEL});",
        "    }",
    ]


def _poll_prelude(scenario: MultiScenario, node: MultiNodeSpec,
                  in_ch: int, forward_to: int | None,
                  lines: list[str]) -> None:
    """Bounded non-blocking drain: every missed poll bumps ``acc``
    through the carry flag; every hit is forwarded (relay) or folded
    (sink).  ``got`` counts hits so the blocking phase consumes exactly
    the remaining tokens."""
    arith = node.arith
    lines.append("    int got = 0;")
    if node.polls > 0:
        lines.append(f"    for (int p0 = 0; p0 < {node.polls}; p0++) {{")
        lines.append(f"        unsigned u0 = ngetfsl({in_ch});")
        lines.append("        if (fsl_isinvalid()) {")
        lines.append("            acc = acc + 1;")
        lines.append("        } else {")
        if forward_to is not None:
            lines.append(
                f"            putfsl({_transform(arith, 'u0')}, {forward_to});")
        else:
            lines.append(f"            acc = acc + u0;")
        lines.append("            got = got + 1;")
        lines.append("        }")
        lines.append("    }")


def render_node_program(scenario: MultiScenario, node_index: int) -> str:
    """Render one CPU's driver as mini-C source."""
    node = scenario.nodes[node_index]
    route = scenario.route()
    in_ch, out_ch = scenario.stream_channels(node_index)
    tokens = scenario.tokens
    mult = (scenario.value_param % 7) + 1
    bias = scenario.value_param % 29
    is_head = scenario.topology_kind == "ring" and node_index == 0
    is_source = node_index == route[0] and not is_head
    is_sink = node_index == route[-1] and not is_head

    lines = [
        f"/* generated by mb32-conformance — scenario {scenario.name}, "
        f"cpu{node_index} */",
        "int main(void) {",
        "    unsigned acc = 1;",
    ]
    _hw_session(node, lines)

    if is_head:
        # ring head: source and sink in one — one token in flight
        lines += [
            f"    for (int i0 = 0; i0 < {tokens}; i0++) {{",
            f"        putfsl(i0 * {mult} + {bias}, {out_ch});",
            f"        acc = acc + getfsl({in_ch});",
            "    }",
        ]
    elif is_source:
        lines += [
            f"    for (int i0 = 0; i0 < {tokens}; i0++)",
            f"        putfsl(i0 * {mult} + {bias}, {out_ch});",
        ]
    elif is_sink:
        _poll_prelude(scenario, node, in_ch, None, lines)
        lines += [
            f"    while (got < {tokens}) {{",
            f"        acc = acc + getfsl({in_ch});",
            "        got = got + 1;",
            "    }",
        ]
    else:  # relay
        _poll_prelude(scenario, node, in_ch, out_ch, lines)
        lines += [
            f"    while (got < {tokens}) {{",
            f"        unsigned t0 = getfsl({in_ch});",
            f"        putfsl({_transform(node.arith, 't0')}, {out_ch});",
            "        got = got + 1;",
            "    }",
        ]

    if scenario.hazard == "overflow" and (is_source or is_head):
        # downstream has exited by the time these flood in: the source
        # fills the link FIFO and blocks forever — a deadlock every
        # mode must report identically
        extra = scenario.link_depth + 4
        lines += [
            f"    for (int h0 = 0; h0 < {extra}; h0++)",
            f"        putfsl(h0, {out_ch});",
        ]
    if scenario.hazard == "starve" and (is_sink or is_head):
        lines.append(f"    acc = acc + getfsl({in_ch});")

    lines += [
        "    return acc & 255;",
        "}",
        "",
    ]
    return "\n".join(lines)


def build_node_program(scenario: MultiScenario, node_index: int) -> Program:
    return build_executable(
        render_node_program(scenario, node_index),
        options=scenario.nodes[node_index].compile_options(),
    )


def build_programs(scenario: MultiScenario) -> list[Program]:
    """Compile every CPU's driver program, node order."""
    return [build_node_program(scenario, k)
            for k in range(len(scenario.nodes))]


# --------------------------------------------------------------------------
# hardware / simulation builder


def _build_local_hw(scenario: MultiScenario, node_index: int,
                    node: MultiNodeSpec) -> tuple[Model, MicroBlazeBlock]:
    """One gated single-stage FSL pipeline behind the node's own
    MicroBlaze block (the shrunk twin of the single-CPU scenario
    builder)."""
    model = Model(f"{scenario.name}_cpu{node_index}")
    mb = MicroBlazeBlock(model, fifo_depth=8,
                         prefix=f"cpu{node_index}_mb_")
    rd = mb.master_fsl(LOCAL_HW_CHANNEL)
    wr = mb.slave_fsl(LOCAL_HW_CHANNEL)
    notfull = model.add(Inverter("hw_notfull", width=1))
    model.connect(wr.o("full"), notfull.i("a"))
    strobe_blk = model.add(Logical("hw_strobe", width=1, op="and"))
    model.connect(rd.o("exists"), strobe_blk.i("d0"))
    model.connect(notfull.o("out"), strobe_blk.i("d1"))
    strobe = strobe_blk.o("out")
    model.connect(strobe, rd.i("read"))
    data, latency = _build_stage(
        model, f"hw_s0_{node.hw_stage.kind}", node.hw_stage, rd.o("data"))
    if latency > 0:
        valid_blk = model.add(Delay("hw_valid", width=1, n=latency))
        model.connect(strobe, valid_blk.i("d"))
        valid = valid_blk.o("q")
    else:
        valid = strobe
    model.connect(data, wr.i("data"))
    model.connect(valid, wr.i("write"))
    model.probe(rd.o("exists"), name="hw_exists")
    model.probe(wr.o("full"), name="hw_full")
    return model, mb


def build_multi_sim(
    scenario: MultiScenario,
    programs: list[Program] | None = None,
    *,
    fast_forward: bool,
    verify: bool = False,
    bus: bool = True,
) -> tuple[MultiCoSimulation, FSLTrace | None]:
    """Build the K-CPU simulation (+ an installed FSL tracer spanning
    every link and node-local channel, unless ``bus`` is off: then no
    telemetry bus attaches and there is no tracer)."""
    if programs is None:
        programs = build_programs(scenario)
    nodes = []
    for k, nspec in enumerate(scenario.nodes):
        model = mb = None
        if nspec.hw_stage is not None and nspec.hw_rounds > 0:
            model, mb = _build_local_hw(scenario, k, nspec)
        nodes.append(CPUNode(
            program=programs[k],
            cpu_config=nspec.cpu_config(),
            model=model,
            mb_block=mb,
        ))
    # telemetry attaches at construction so the FSLTrace installed
    # below subscribes to the same event bus instead of a private one
    sim = MultiCoSimulation(
        nodes,
        scenario.topology(),
        link_depth=scenario.link_depth,
        fast_forward=fast_forward,
        verify_fast_forward=verify,
        telemetry=Telemetry() if bus else None,
    )
    if not bus:
        return sim, None
    trace = FSLTrace(sim, clock=lambda: sim.cycle).install()
    return sim, trace


# --------------------------------------------------------------------------
# generator


@dataclass
class MultiScenarioGenerator:
    """Deterministic stream of random K-CPU scenarios (2–4 CPUs over
    pipeline/ring/mesh topologies).  Scenario ``i`` of seed ``s``
    depends only on ``(s, i)``, mirroring
    :class:`~repro.conformance.scenario.ScenarioGenerator`."""

    seed: int = 0
    max_cycles: int = 120_000
    hazard_rate: float = 0.10

    def scenario(self, index: int) -> MultiScenario:
        rng = random.Random(f"mb32-multicpu/{self.seed}/{index}")
        name = f"m{self.seed}-{index:04d}"

        kind = rng.choice(("pipeline", "pipeline", "ring", "mesh"))
        if kind == "mesh":
            rows = cols = 2
            n_cpus = 4
        else:
            rows = cols = 0
            n_cpus = rng.randint(2, 4)
        link_depth = rng.choice((2, 4, 8, 16))
        tokens = rng.randint(2, 12)
        hazard = ""
        if rng.random() < self.hazard_rate:
            hazard = rng.choice(("starve", "overflow"))

        nodes = []
        for _ in range(n_cpus):
            hw_stage = None
            hw_rounds = 0
            if rng.random() < 0.45:
                hw_stage = StageSpec(kind=rng.choice(STAGE_KINDS),
                                     param=rng.randint(0, 63),
                                     latency=rng.randint(0, 2))
                hw_rounds = rng.randint(1, 4)
            nodes.append(MultiNodeSpec(
                arith=rng.choice(NODE_ARITH),
                polls=rng.randint(1, 4) if rng.random() < 0.5 else 0,
                hw_stage=hw_stage,
                hw_rounds=hw_rounds,
                hw_multiplier=rng.random() < 0.8,
                hw_divider=rng.random() < 0.3,
                hw_barrel_shifter=rng.random() < 0.8,
            ))

        return MultiScenario(
            name=name,
            seed=f"{self.seed}/{index}",
            topology_kind=kind,
            n_cpus=n_cpus,
            rows=rows,
            cols=cols,
            link_depth=link_depth,
            tokens=tokens,
            value_param=rng.randint(0, 200),
            hazard=hazard,
            nodes=tuple(nodes),
            max_cycles=self.max_cycles,
        )

    def scenarios(self, count: int, start: int = 0):
        for index in range(start, start + count):
            yield self.scenario(index)


def multi_variants(scenario: MultiScenario):
    """Structurally smaller shrink candidates, biggest cuts first
    (consumed by :func:`repro.conformance.shrink.shrink_scenario`)."""
    if scenario.hazard:
        yield replace(scenario, hazard="")
    if scenario.topology_kind == "pipeline" and scenario.n_cpus > 2:
        yield replace(scenario, n_cpus=scenario.n_cpus - 1,
                      nodes=scenario.nodes[:-1])
    for k, node in enumerate(scenario.nodes):
        if node.hw_stage is not None:
            yield replace(scenario, nodes=(
                scenario.nodes[:k]
                + (replace(node, hw_stage=None, hw_rounds=0),)
                + scenario.nodes[k + 1:]))
        if node.polls:
            yield replace(scenario, nodes=(
                scenario.nodes[:k] + (replace(node, polls=0),)
                + scenario.nodes[k + 1:]))
        if node.arith != "none":
            yield replace(scenario, nodes=(
                scenario.nodes[:k] + (replace(node, arith="none"),)
                + scenario.nodes[k + 1:]))
    if scenario.tokens > 1:
        yield replace(scenario, tokens=scenario.tokens // 2)
