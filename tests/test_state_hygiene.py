"""State hygiene: ``reset()`` must return every stateful component to
exactly the state a freshly constructed twin reports.

The property compared is ``state_dict()`` equality — the same snapshot
checkpointing serializes — so any internal field a ``reset()``
implementation forgets to clear shows up here (instead of as a
miscompare between a re-run and a restored run three layers up).

Each component is perturbed by actually exercising it (clock edges with
nonzero inputs, pushes/pops, executed cycles), then by scribbling over
its ports directly, before ``reset()`` is called.
"""

from __future__ import annotations

import functools

import pytest

from repro.apps.matmul.design import MatmulDesign
from repro.bus.fsl import FSLChannel
from repro.conformance.oracle import _make_sim
from repro.conformance.scenario import ScenarioGenerator, build_program
from repro.cosim.environment import CoSimulation
from repro.cosim.multicpu import CPUNode, MultiCoSimulation
from repro.cosim.topology import TopologySpec
from repro.iss.run import reload_cpu
from repro.sysgen.blocks import (
    FIFO,
    RAM,
    ROM,
    Accumulator,
    Add,
    AddSub,
    Concat,
    Constant,
    Convert,
    Counter,
    Delay,
    FSLRead,
    FSLWrite,
    GatewayIn,
    GatewayOut,
    Inverter,
    Logical,
    Mult,
    Mux,
    Negate,
    OPBRegisterBank,
    Register,
    Relational,
    Shift,
    Slice,
    Sub,
)

@pytest.fixture(autouse=True)
def _engine(sysgen_engine):
    """Run every test here under both execution engines — the
    simulation-level tests build models whose reset path must be
    engine-independent; see conftest."""


#: one factory per exported sysgen block type, with enough non-default
#: construction parameters that internal pipelines/memories exist
BLOCK_FACTORIES = {
    "Add": lambda: Add("b", width=32, latency=2),
    "Sub": lambda: Sub("b", width=32, latency=1),
    "AddSub": lambda: AddSub("b", width=32, latency=2),
    "Mult": lambda: Mult("b", latency=3),
    "Negate": lambda: Negate("b", width=32, latency=1),
    "Shift": lambda: Shift("b", width=32, amount=3, direction="left",
                           latency=2),
    "Accumulator": lambda: Accumulator("b", width=32),
    "Convert": lambda: Convert("b", in_width=32, in_frac=8, out_width=16,
                               out_frac=4, latency=1),
    "Constant": lambda: Constant("b", value=0x5A5A, width=32),
    "Counter": lambda: Counter("b", width=16, step=3),
    "GatewayIn": lambda: GatewayIn("b", width=16, frac=4),
    "GatewayOut": lambda: GatewayOut("b", width=16, frac=4),
    "Mux": lambda: Mux("b", width=32, n=3),
    "Relational": lambda: Relational("b", width=32),
    "Logical": lambda: Logical("b", width=32, op="xor"),
    "Inverter": lambda: Inverter("b", width=8),
    "Slice": lambda: Slice("b", msb=15, lsb=4),
    "Concat": lambda: Concat("b", widths=[8, 8, 16]),
    "Register": lambda: Register("b", width=32, init=0x77),
    "Delay": lambda: Delay("b", width=32, n=3),
    "FIFO": lambda: FIFO("b", width=32, depth=4),
    "ROM": lambda: ROM("b", contents=[3, 1, 4, 1, 5, 9, 2, 6]),
    "RAM": lambda: RAM("b", depth=8, width=32),
    "FSLRead": lambda: _bound(FSLRead("b")),
    "FSLWrite": lambda: _bound(FSLWrite("b")),
    "OPBRegisterBank": lambda: OPBRegisterBank("b", n_command=2, n_status=2),
}


def _bound(block):
    channel = FSLChannel(depth=4, name="hygiene")
    channel.push(0xAB, False)
    block.bind(channel)
    return block


def _perturb(block) -> None:
    """Drive the block hard through its normal simulation hooks, then
    scribble over the output ports for good measure."""
    if isinstance(block, GatewayIn):
        block.drive_raw(0x3FF)
    for i, port in enumerate(block.inputs.values(), start=1):
        # unconnected inputs read their default — perturb through it
        # (odd values so 1-bit strobes like ``write`` actually assert)
        port.default = ((0x9E3779B1 * i) | 1) & 0xFFFFFFFF
    for _ in range(5):
        block.present()
        block.evaluate()
        block.clock()
    for i, port in enumerate(block.outputs.values(), start=1):
        port.value = ((0xDEADBEEF ^ i) | 1) & ((1 << port.width) - 1)


@pytest.mark.parametrize("kind", sorted(BLOCK_FACTORIES))
def test_block_reset_matches_fresh(kind):
    factory = BLOCK_FACTORIES[kind]
    fresh = factory()
    used = factory()
    _perturb(used)
    assert used.state_dict() != fresh.state_dict() or not used.sequential, (
        f"{kind}: perturbation did not change sequential state — "
        "the test would pass vacuously")
    used.reset()
    assert used.state_dict() == fresh.state_dict(), (
        f"{kind}.reset() left state behind")


def test_fsl_channel_reset_matches_fresh():
    fresh = FSLChannel(depth=4, name="ch")
    used = FSLChannel(depth=4, name="ch")
    used.push(1, False)
    used.push(2, True)
    used.pop()
    used.push(3, False)
    used.push(4, False)
    used.push(5, False)  # rejected: full
    assert used.state_dict() != fresh.state_dict()
    used.reset(reset_stats=True)
    assert used.state_dict() == fresh.state_dict()


def test_cpu_reset_matches_fresh():
    """A CPU that executed a real co-simulated program and is then
    reloaded (the way ``CoSimulation.reset`` does it: architectural
    reset, zeroed BRAM, program image reload) reports the state of a
    never-run twin — data memory included."""
    scenario = ScenarioGenerator(seed=11, max_cycles=30_000).scenario(0)
    program = build_program(scenario)
    fresh_sim, _t1 = _make_sim(scenario, program, fast_forward=False)
    used_sim, _t2 = _make_sim(scenario, program, fast_forward=False)
    used_sim.run(until=200)
    assert used_sim.cpu.state_dict() != fresh_sim.cpu.state_dict()
    reload_cpu(used_sim.cpu, program)
    assert used_sim.cpu.state_dict() == fresh_sim.cpu.state_dict()


def test_full_sim_reset_matches_fresh():
    """The composite: ``CoSimulation.reset()`` restores the *entire*
    simulation state dict."""
    scenario = ScenarioGenerator(seed=11, max_cycles=30_000).scenario(1)
    program = build_program(scenario)
    fresh_sim, _t1 = _make_sim(scenario, program, fast_forward=False)
    used_sim, _t2 = _make_sim(scenario, program, fast_forward=False)
    used_sim.run(until=300)
    used_sim.reset()
    assert used_sim.state_dict() == fresh_sim.state_dict()


# ----------------------------------------------------------------------
# K-CPU systems: reset must be per-CPU clean
# ----------------------------------------------------------------------
def _multi_sim(index: int = 0, seed: int = 5):
    from repro.conformance.multicpu import (
        MultiScenarioGenerator,
        build_multi_sim,
    )

    scenario = MultiScenarioGenerator(seed=seed).scenario(index)
    sim, _trace = build_multi_sim(scenario, fast_forward=False)
    return sim


def test_multicpu_reset_matches_fresh():
    """``MultiCoSimulation.reset()`` restores the whole-system state
    dict — global clock, every CPU, every link, every node-local
    peripheral — to a freshly built twin's."""
    fresh = _multi_sim()
    used = _multi_sim()
    used.run(until=400)
    assert used.state_dict() != fresh.state_dict()
    used.reset()
    assert used.state_dict() == fresh.state_dict()


def test_multicpu_reset_clears_fsl_error_per_cpu():
    """Each CPU's sticky ``fsl.error`` and its FSL statistics clear
    independently on reset — an error flagged on one node must not
    survive anywhere, and the other nodes' stats must not be disturbed
    before the reset."""
    fresh = _multi_sim(index=1)
    used = _multi_sim(index=1)
    used.run(until=200)
    # flag an error on exactly one CPU and scribble its link stats
    victim, bystander = used.nodes[0], used.nodes[1]
    victim.cpu.fsl.error = True
    assert not bystander.cpu.fsl.error, (
        "perturbation leaked across CPUs — each node must own its "
        "FSL error flag")
    for channel in used.all_channels():
        channel.push(0xBAD, True)
    used.reset()
    for node in used.nodes:
        assert not node.cpu.fsl.error, f"{node.name}: fsl.error survived"
    for channel in used.all_channels():
        assert channel.occupancy == 0
        stats = channel.state_dict().get("stats")
        if stats is not None:
            assert not any(stats.values()), (
                f"{channel.name}: statistics survived reset")
    assert used.state_dict() == fresh.state_dict()


# ----------------------------------------------------------------------
# Re-run after reset: zero-initialised data must start at zero again
# ----------------------------------------------------------------------
# The matmul kernel accumulates into its zero-initialised global ``C``,
# so a re-run over stale ``.bss`` doubles every product while taking
# exactly as many cycles as a fresh run — only the data betrays it.
@functools.lru_cache(maxsize=1)
def _matmul() -> MatmulDesign:
    return MatmulDesign(block=4, matn=4)


def _matmul_sim() -> CoSimulation:
    design = _matmul()
    model, mb = design.fresh_hardware()
    return CoSimulation(design.program, model, mb,
                        cpu_config=design.cpu_config)


def _matmul_multi_sim(n_cpus: int = 2) -> MultiCoSimulation:
    design = _matmul()
    nodes = []
    for _ in range(n_cpus):
        model, mb = design.fresh_hardware()
        nodes.append(CPUNode(program=design.program,
                             cpu_config=design.cpu_config,
                             model=model, mb_block=mb))
    return MultiCoSimulation(nodes, TopologySpec("custom", n_cpus))


def test_matmul_rerun_after_reset_matches_fresh():
    fresh = _matmul_sim()
    expected = fresh.run()
    sim = _matmul_sim()
    sim.run()
    sim.reset()
    again = sim.run()
    _matmul().check(sim.cpu, again)
    assert again.cycles == expected.cycles
    assert sim.state_dict() == fresh.state_dict()


def test_multicpu_matmul_rerun_after_reset_matches_fresh():
    fresh = _matmul_multi_sim()
    expected = fresh.run()
    sim = _matmul_multi_sim()
    sim.run()
    sim.reset()
    again = sim.run()
    for node, result in zip(sim.nodes, again.cpus):
        _matmul().check(node.cpu, result)
    assert again.cycles == expected.cycles
    assert sim.state_dict() == fresh.state_dict()
