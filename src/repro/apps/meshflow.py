"""Deterministic 2D-mesh dataflow app for K-CPU fault campaigns.

One CPU per mesh node; tokens stream along the serpentine route the
conformance family uses (source corner → relay chain → sink), each hop
applying its own arithmetic transform.  Unlike the conformance drivers
(whose observable *is* the exit code), every node here exits 0 and
lands a running checksum in its own BRAM (``Out``), with the sink also
keeping the raw values (``Vals``) — so the campaign's invariant
checker owns the exit codes and ``_verify`` reads the data surface
back against the fault-free run.  This is ``mb32-faultsim mesh``: the
K-CPU campaign with ``link_drop`` and ``node_stall`` in play on a
topology with idle reverse links.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.common import VerificationError, read_int32_array
from repro.conformance.multicpu import NODE_ARITH, MultiScenario, _transform
from repro.cosim.multicpu import CPUNode, MultiCoSimResult, MultiCoSimulation
from repro.iss.cpu import CPUConfig
from repro.mcc import build_executable


def _node_source(scenario: MultiScenario, node_index: int,
                 arith: str) -> str:
    """Mini-C driver for one mesh node: checksum everything that passes
    through, exit 0, leave the checksum in BRAM."""
    in_ch, out_ch = scenario.stream_channels(node_index)
    tokens = scenario.tokens
    mult = (scenario.value_param % 7) + 1
    bias = scenario.value_param % 29
    body: list[str] = []
    decls = "int Out;"
    if in_ch is None:  # route head: the token source
        body += [
            f"        int v = i * {mult} + {bias};",
            f"        putfsl(v, {out_ch});",
        ]
    elif out_ch is None:  # route tail: the sink keeps the raw values
        decls = f"int Out;\nint Vals[{tokens}];"
        body += [
            f"        int v = getfsl({in_ch});",
            f"        v = {_transform(arith, 'v')};",
            "        Vals[i] = v;",
        ]
    else:  # relay hop
        body += [
            f"        int v = getfsl({in_ch});",
            f"        v = {_transform(arith, 'v')};",
            f"        putfsl(v, {out_ch});",
        ]
    body.append("        acc = acc * 3 + v;")
    inner = "\n".join(body)
    return f"""\
/* meshflow node {node_index}.  Generated. */
{decls}

int main(void) {{
    int acc = 1;
    for (int i = 0; i < {tokens}; i++) {{
{inner}
    }}
    Out = acc;
    return 0;
}}
"""


@dataclass
class MeshFlowDesign:
    """A ``rows`` x ``cols`` mesh design point for fault campaigns."""

    rows: int = 2
    cols: int = 2
    tokens: int = 8
    value_param: int = 17
    link_depth: int = 8
    max_cycles: int = 120_000
    verify: bool = True

    #: campaign dispatch marker: this design runs on MultiCoSimulation
    is_multi = True

    #: per-node ``Out`` checksums of the fault-free run (filled lazily)
    expected_out: list[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1 or self.rows * self.cols < 2:
            raise ValueError("mesh needs at least two nodes")
        n = self.rows * self.cols
        # the topology/route conventions come from the conformance
        # family; the node programs are this app's own (exit-0) drivers
        self.scenario = MultiScenario(
            name=f"meshflow{self.rows}x{self.cols}",
            seed="meshflow",
            topology_kind="mesh",
            n_cpus=n,
            rows=self.rows,
            cols=self.cols,
            link_depth=self.link_depth,
            tokens=self.tokens,
            value_param=self.value_param,
            max_cycles=self.max_cycles,
        )
        # arithmetic varies per hop so corruption anywhere lands on a
        # distinct surface; no node-local hardware — every injectable
        # channel is an inter-CPU link
        self.ariths = [NODE_ARITH[1 + k % (len(NODE_ARITH) - 1)]
                       for k in range(n)]
        self.sources = [_node_source(self.scenario, k, self.ariths[k])
                        for k in range(n)]
        self.programs = [build_executable(src) for src in self.sources]

    @property
    def name(self) -> str:
        return self.scenario.name

    def topology(self):
        return self.scenario.topology()

    def build_sim(self, deadlock_window: int | None = None) -> MultiCoSimulation:
        nodes = [CPUNode(program=program, cpu_config=CPUConfig())
                 for program in self.programs]
        return MultiCoSimulation(
            nodes,
            self.topology(),
            link_depth=self.link_depth,
            deadlock_window=deadlock_window,
        )

    # ------------------------------------------------------------------
    def run(self) -> MultiCoSimResult:
        sim = self.build_sim()
        result = sim.run(until=self.max_cycles)
        if result.exit_code != 0:
            raise VerificationError(
                f"{self.name}: fault-free run exited with "
                f"{result.exit_code} (halt: {result.halt_reason})")
        self.expected_out = self._surface(sim)
        return result

    def _surface(self, sim: MultiCoSimulation) -> list[int]:
        out = [read_int32_array(node.cpu, node.program, "Out", 1)[0]
               for node in sim.nodes]
        sink = sim.nodes[self.scenario.route()[-1]]
        out.extend(read_int32_array(sink.cpu, sink.program, "Vals",
                                    self.tokens))
        return out

    def _expected(self) -> list[int]:
        if not self.expected_out:
            self.run()
        return self.expected_out

    def _verify(self, sim: MultiCoSimulation) -> None:
        got = self._surface(sim)
        expected = self._expected()
        if got != expected:
            bad = next(i for i, (g, e) in enumerate(zip(got, expected))
                       if g != e)
            raise VerificationError(
                f"{self.name}: data surface mismatch at slot {bad}: "
                f"got {got[bad]}, expected {expected[bad]}")
