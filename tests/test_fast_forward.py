"""Fast-forward co-simulation kernel: equivalence and regression tests.

The kernel (``CoSimulation.run`` with ``fast_forward=True``, the
default) must be *indistinguishable* from the per-cycle reference loop:
identical cycle counts, instruction counts, stall accounting, FSL
statistics and probe traces.  These tests pin that contract on the
paper's two applications (CORDIC divider, blocked matmul) and on a
latency-swept FSL doubler, and cover the state-reset bugfixes that
shipped with the kernel.
"""

import collections
import dataclasses
import json

import pytest

from repro.apps.cordic.design import CordicDesign
from repro.apps.matmul.design import MatmulDesign
from repro.bus.fsl import FSLChannel
from repro.bus.opb import OPBBus
from repro.cosim import CoSimulation, FastForwardError, MicroBlazeBlock
from repro.cosim.batch import BatchedCoSimulation
from repro.cosim.checkpoint import checkpoint_to_dict, restore_from_dict
from repro.cosim.environment import CoSimDeadlock
from repro.cosim.multicpu import CPUNode, MultiCoSimulation
from repro.cosim.topology import TopologySpec
from repro.iss.cpu import CPU, CPUConfig, CPUError, HaltReason
from repro.iss.memory import BusFault
from repro.iss.run import make_cpu
from repro.mcc import CompileOptions, build_executable
from repro.sysgen import IDLE_FOREVER, Model
from repro.sysgen.block import Block, CombBlock, SeqBlock
from repro.sysgen.blocks import (
    FIFO,
    RAM,
    Accumulator,
    Add,
    Constant,
    Convert,
    Counter,
    Delay,
    FSLRead,
    FSLWrite,
    GatewayIn,
    Mult,
    OPBRegisterBank,
    Register,
)
from repro.telemetry import Telemetry
from tests.conftest import needs_gcc
from tests.test_cosim import doubler_design


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
ECHO_SUM_SRC = """
int main(void) {
    int sum = 0;
    for (int i = 1; i <= 5; i++) {
        putfsl(i, 0);
        sum += getfsl(0);
    }
    return sum;   /* doubler: 2+4+6+8+10 = 30 */
}
"""


def _attach_interface_probes(model: Model, mb: MicroBlazeBlock) -> None:
    """Probe the FSL handshake/data ports — the signals fast-forward
    must reproduce sample by sample."""
    for blk in mb.read_blocks.values():
        model.probe(blk.o("data"))
        model.probe(blk.o("exists"))
    for blk in mb.write_blocks.values():
        model.probe(blk.o("full"))


def _run_mode(program, model, mb, cpu_config, mode: str):
    sim = CoSimulation(
        program,
        model,
        mb,
        cpu_config=cpu_config,
        fast_forward=(mode != "per_cycle"),
        verify_fast_forward=(mode == "verify"),
    )
    result = sim.run()
    probes = {p.name: list(p.samples) for p in model.probes}
    fsl_stats = {
        name: (ch.total_pushed, ch.total_popped, ch.push_rejects,
               ch.pop_rejects, ch.max_occupancy)
        for name, ch in (
            *((f"to{i}", mb.to_hw_channel(i)) for i in mb.read_blocks),
            *((f"from{i}", mb.from_hw_channel(i)) for i in mb.write_blocks),
        )
    }
    return result, probes, fsl_stats


def _assert_equivalent(reference, candidate, label: str) -> None:
    ref_result, ref_probes, ref_fsl = reference
    res, probes, fsl = candidate
    assert res.exit_code == ref_result.exit_code, label
    assert res.halt_reason == ref_result.halt_reason, label
    assert res.cycles == ref_result.cycles, label
    assert res.instructions == ref_result.instructions, label
    assert res.stall_cycles == ref_result.stall_cycles, label
    assert fsl == ref_fsl, label
    assert probes.keys() == ref_probes.keys(), label
    for name in ref_probes:
        assert probes[name] == ref_probes[name], f"{label}: probe {name}"


# ----------------------------------------------------------------------
# Tentpole: bit-identical fast-forward on the paper's applications
# ----------------------------------------------------------------------
DESIGN_CASES = {
    "cordic_p2": lambda: CordicDesign(p=2, iters=8, ndata=8, verify=False),
    "cordic_p4": lambda: CordicDesign(p=4, iters=12, ndata=8, verify=False),
    "matmul_b2": lambda: MatmulDesign(block=2, matn=4, verify=False),
}


@pytest.mark.parametrize("case", sorted(DESIGN_CASES))
def test_fast_forward_equivalent_on_applications(case):
    runs = {}
    for mode in ("per_cycle", "fast", "verify"):
        design = DESIGN_CASES[case]()
        _attach_interface_probes(design.model, design.mb)
        runs[mode] = _run_mode(
            design.program, design.model, design.mb, design.cpu_config, mode
        )
    assert runs["per_cycle"][0].exit_code == 0
    assert runs["per_cycle"][0].cycles > 0
    _assert_equivalent(runs["per_cycle"], runs["fast"], f"{case}: fast")
    _assert_equivalent(runs["per_cycle"], runs["verify"], f"{case}: verify")


@pytest.mark.parametrize("latency", [0, 1, 3, 8])
@pytest.mark.parametrize("depth", [2, 16])
def test_fast_forward_equivalent_on_doubler_grid(latency, depth):
    # Property-style sweep over pipeline latency x FIFO depth: every
    # stall/backpressure pattern must fast-forward bit-identically.
    program = build_executable(ECHO_SUM_SRC, CompileOptions())
    runs = {}
    for mode in ("per_cycle", "fast"):
        model, mb = doubler_design(fifo_depth=depth, extra_latency=latency)
        _attach_interface_probes(model, mb)
        runs[mode] = _run_mode(program, model, mb, CPUConfig(), mode)
    assert runs["per_cycle"][0].exit_code == 30
    _assert_equivalent(
        runs["per_cycle"], runs["fast"], f"latency={latency} depth={depth}"
    )


def test_fast_forward_deadlock_detected_at_same_cycle():
    # Skips are clamped to the deadlock-check boundary, so the overflow
    # deadlock must trip in both modes (and at the same simulated time).
    src = """
    int main(void) {
        int sum = 0;
        for (int i = 0; i < 40; i++) putfsl(i, 0);
        for (int i = 0; i < 40; i++) sum += getfsl(0);
        return sum;
    }
    """
    program = build_executable(src, CompileOptions())
    cycles_at_raise = {}
    for mode in ("per_cycle", "fast"):
        model, mb = doubler_design(fifo_depth=4)
        sim = CoSimulation(
            program, model, mb, fast_forward=(mode == "fast")
        )
        with pytest.raises(CoSimDeadlock) as excinfo:
            sim.run()
        cycles_at_raise[mode] = sim.cpu.cycle
        # Reporter goes through the public accessor, naming channels.
        assert "mb_out0" in str(excinfo.value)
    assert cycles_at_raise["fast"] == cycles_at_raise["per_cycle"]


class LyingCounter(Counter):
    """Claims quiescence while its state keeps changing; overrides
    ``idle_horizon`` with no compiled form, and counts its calls."""

    asked = 0

    def idle_horizon(self) -> int:
        self.asked += 1
        return IDLE_FOREVER


def test_fast_forward_verify_catches_lying_idle_horizon():
    # A block that claims quiescence while its state keeps changing must
    # be caught by verify_fast_forward (the debug cross-check).
    model = Model("liar")
    mb = MicroBlazeBlock(model)
    model.add(LyingCounter("free", width=8))
    program = build_executable("int main(void) { return 7; }")
    sim = CoSimulation(program, model, mb, verify_fast_forward=True)
    assert model.engine == "compiled"
    with pytest.raises(FastForwardError):
        sim.run()


def test_fast_forward_idle_horizon_tracks_gateway_drive():
    model = Model("gw")
    gw = model.add(GatewayIn("x", width=16))
    ctr = model.add(Counter("ctr", width=8))
    model.connect(gw.o("out"), ctr.i("rst"))
    model.compile()
    # Pre-settle, outputs are stale: never claim idleness.
    assert model.idle_horizon() == 0
    gw.drive(1)  # rst held high -> counter pinned at 0
    model.step()
    assert model.idle_horizon() == IDLE_FOREVER
    # A host-side drive is an external event: idleness must drop...
    gw.drive(0)
    assert model.idle_horizon() == 0
    model.step()
    # ...and stay dropped while the counter free-runs.
    assert model.idle_horizon() == 0


def test_fast_forward_cpu_advance_guards():
    program = build_executable("int main(void) { return 0; }")
    cpu = make_cpu(program)
    # Ready to issue: advancing would skip real work.
    assert cpu.advance_horizon() == 0
    with pytest.raises(CPUError):
        cpu.advance(1)
    cpu.tick()  # issue the first (multi-cycle) instruction if any
    if cpu.advance_horizon() > 0:
        with pytest.raises(CPUError):
            cpu.advance(cpu.advance_horizon() + 1)


# ----------------------------------------------------------------------
# Satellite regressions: reset/re-run state bugs
# ----------------------------------------------------------------------
def test_fast_forward_satellite_fsl_reset_clears_stats():
    ch = FSLChannel(depth=2, name="t")
    ch.push(1)
    ch.push(2)
    assert not ch.push(3)  # full -> reject
    ch.pop()
    assert ch.pop() is not None
    assert ch.pop() is None  # empty -> reject
    assert (ch.total_pushed, ch.total_popped) == (2, 2)
    assert (ch.push_rejects, ch.pop_rejects, ch.max_occupancy) == (1, 1, 2)

    ch.push(4)
    ch.reset(reset_stats=False)  # profiling mode keeps counters
    assert ch.occupancy == 0
    assert ch.total_pushed == 3

    ch.reset()  # default clears everything
    assert (ch.total_pushed, ch.total_popped) == (0, 0)
    assert (ch.push_rejects, ch.pop_rejects, ch.max_occupancy) == (0, 0, 0)


def test_fast_forward_satellite_cosim_reset_clears_channel_stats():
    model, mb = doubler_design()
    program = build_executable(ECHO_SUM_SRC, CompileOptions())
    sim = CoSimulation(program, model, mb)
    sim.run()
    first_pushed = mb.to_hw_channel(0).total_pushed
    assert first_pushed == 5
    sim.reset()
    assert mb.to_hw_channel(0).total_pushed == 0
    assert mb.from_hw_channel(0).total_popped == 0
    second = sim.run()
    # Second run's statistics equal a fresh run's, not 2x.
    assert second.exit_code == 30
    assert mb.to_hw_channel(0).total_pushed == first_pushed


def test_fast_forward_satellite_cpu_reset_clears_fsl_error():
    program = build_executable("int main(void) { return 0; }")
    cpu = make_cpu(program)
    cpu.fsl.error = True  # MSR[FSL] sticky bit from a "previous run"
    cpu.reset(pc=program.entry)
    assert cpu.fsl.error is False


def test_fast_forward_satellite_second_run_reports_deltas():
    model, mb = doubler_design()
    program = build_executable(ECHO_SUM_SRC, CompileOptions())
    # Reference: one uninterrupted run.
    ref_model, ref_mb = doubler_design()
    reference = CoSimulation(program, ref_model, ref_mb).run()

    sim = CoSimulation(program, model, mb)
    first = sim.run(until=50)
    assert first.halt_reason == HaltReason.MAX_CYCLES
    assert first.cycles == 50  # not the CPU's lifetime cycle count
    sim.cpu.resume()
    second = sim.run()
    assert second.exit_code == 30
    # Each result pairs its own cycles with its own wall time.
    assert first.cycles + second.cycles == reference.cycles
    assert second.cycles < reference.cycles
    assert (
        first.instructions + second.instructions == reference.instructions
    )
    assert (
        first.stall_cycles + second.stall_cycles == reference.stall_cycles
    )


def test_fast_forward_satellite_channel_occupancies_accessor():
    model, mb = doubler_design()
    assert mb.channel_occupancies() == {"mb_out0": 0, "mb_in0": 0}
    mb.to_hw_channel(0).push(11)
    mb.to_hw_channel(0).push(22)
    mb.from_hw_channel(0).push(33)
    assert mb.channel_occupancies() == {"mb_out0": 2, "mb_in0": 1}


# ----------------------------------------------------------------------
# Compiled idle horizon: the generated _idle_horizon against the walk
# ----------------------------------------------------------------------
def _walked_horizon(model: Model) -> int:
    """Reference: the interpreter's block-by-block quiescence walk."""
    horizon = IDLE_FOREVER
    for block in model.blocks:
        h = block.idle_horizon()
        if h <= 0:
            return 0
        horizon = min(horizon, h)
    return horizon


def _compiled_horizon(model: Model) -> int:
    """The generated horizon, checked against the walk on the same
    state (called directly, so it is compared even before the model
    settles)."""
    assert model._compiled is not None
    horizon = model._compiled.idle_horizon()
    assert horizon == _walked_horizon(model), f"cycle {model.cycle}"
    return horizon


def _check_every_cycle(model: Model) -> collections.Counter:
    """Compare both horizons after every step() of a co-simulation;
    returns how often each horizon came up."""
    seen: collections.Counter = collections.Counter()
    step = model.step

    def checked_step(cycles: int = 1) -> None:
        step(cycles)
        horizon = _compiled_horizon(model)
        assert model.idle_horizon() == horizon
        seen[horizon] += 1

    model.step = checked_step
    return seen


def _per_cycle_checked(program, model, mb, cpu_config):
    sim = CoSimulation(program, model, mb, cpu_config=cpu_config,
                       fast_forward=False)
    assert model.engine == "compiled"
    seen = _check_every_cycle(model)
    result = sim.run()
    assert sum(seen.values()) == result.cycles
    return result, seen


@pytest.mark.parametrize("case", sorted(DESIGN_CASES))
def test_compiled_horizon_matches_walk_on_applications(case):
    design = DESIGN_CASES[case]()
    result, seen = _per_cycle_checked(
        design.program, design.model, design.mb, design.cpu_config)
    assert result.exit_code == 0
    assert seen[0] > 0 and seen[IDLE_FOREVER] > 0
    # every block's horizon is trusted inline: an emit moved away from
    # the class defining idle_horizon would splice per-block calls here
    assert ".idle_horizon()" not in design.model.compiled_source


@pytest.mark.parametrize("latency", [0, 1, 3, 8])
@pytest.mark.parametrize("depth", [2, 16])
def test_compiled_horizon_matches_walk_on_doubler_grid(latency, depth):
    program = build_executable(ECHO_SUM_SRC, CompileOptions())
    model, mb = doubler_design(fifo_depth=depth, extra_latency=latency)
    result, seen = _per_cycle_checked(program, model, mb, CPUConfig())
    assert result.exit_code == 30
    assert seen[0] > 0 and seen[IDLE_FOREVER] > 0


OPB_BASE = 0x0001_0000

OPB_SRC = f"""
int main(void) {{
    int *cmd = (int *){OPB_BASE};
    int *sts = (int *)({OPB_BASE} + 8);
    int total = 0;
    for (int i = 1; i <= 4; i++) {{
        cmd[0] = i * 10;
        cmd[1] = i;
        int v = sts[0];
        v = sts[0];
        total += v;
    }}
    return total;   /* (10+1)+(20+2)+(30+3)+(40+4) = 110 */
}}
"""


def test_compiled_horizon_matches_walk_on_opb_design():
    # cmd0 + cmd1 through a pipelined adder into the status register:
    # OPB stores land between steps and must drop the horizon to 0.
    model = Model("opb_adder")
    bank = model.add(OPBRegisterBank("bank", n_command=2, n_status=1))
    adder = model.add(Add("sum", width=32, latency=2))
    model.connect(bank.o("cmd0"), adder.i("a"))
    model.connect(bank.o("cmd1"), adder.i("b"))
    model.connect(adder.o("s"), bank.i("sts0"))
    bus = OPBBus()
    bus.attach(OPB_BASE, bank.opb_size, bank)
    mb = MicroBlazeBlock(model)
    sim = CoSimulation(build_executable(OPB_SRC), model, mb,
                       fast_forward=False)
    sim.cpu.mem.map_opb(bus, OPB_BASE, bank.opb_size)
    seen = _check_every_cycle(model)
    assert sim.run().exit_code == 110
    assert seen[0] > 0 and seen[IDLE_FOREVER] > 0


def _horizon_zoo():
    """Every standard-library block with an idle horizon.  Each write
    path has its own enable gateway, so one block at a time can be
    made busy while the rest of the design sits at a fixed point."""
    model = Model("horizon_zoo")
    gw = {name: model.add(GatewayIn(name, width=16 if name == "x" else 1,
                                    signed=False))
          for name in ("x", "en", "push", "pop", "we", "read", "write")}
    x = gw["x"]
    k = model.add(Constant("k", 3, width=16))
    reg = model.add(Register("reg", width=16, init=5))
    model.connect(x.o("out"), reg.i("d"))
    ctr = model.add(Counter("ctr", width=3))
    model.connect(gw["en"].o("out"), ctr.i("en"))
    acc = model.add(Accumulator("acc", width=16))
    model.connect(x.o("out"), acc.i("d"))
    model.connect(gw["en"].o("out"), acc.i("en"))
    dly = model.add(Delay("dly", width=16, n=3))
    model.connect(x.o("out"), dly.i("d"))
    fifo = model.add(FIFO("fifo", width=16, depth=4))
    model.connect(x.o("out"), fifo.i("din"))
    model.connect(gw["push"].o("out"), fifo.i("push"))
    model.connect(gw["pop"].o("out"), fifo.i("pop"))
    ram = model.add(RAM("ram", depth=8, width=16))
    model.connect(ctr.o("q"), ram.i("addr"))
    model.connect(x.o("out"), ram.i("din"))
    model.connect(gw["we"].o("out"), ram.i("we"))
    add = model.add(Add("add", width=16, latency=2))
    model.connect(x.o("out"), add.i("a"))
    model.connect(k.o("out"), add.i("b"))
    mult = model.add(Mult("mult", 16, 16, latency=3))
    model.connect(x.o("out"), mult.i("a"))
    model.connect(k.o("out"), mult.i("b"))
    conv = model.add(Convert("conv", in_width=16, in_frac=8, out_width=8,
                             out_frac=4, latency=1))
    model.connect(x.o("out"), conv.i("in"))
    rd = model.add(FSLRead("rd"))
    model.connect(gw["read"].o("out"), rd.i("read"))
    wr = model.add(FSLWrite("wr"))
    model.connect(rd.o("data"), wr.i("data"))
    model.connect(gw["write"].o("out"), wr.i("write"))
    bank = model.add(OPBRegisterBank("bank", n_command=1, n_status=1))
    model.connect(reg.o("q"), bank.i("sts0"))
    ch_in, ch_out = FSLChannel(depth=4), FSLChannel(depth=4)
    rd.bind(ch_in)
    wr.bind(ch_out)
    model.compile()
    return model, gw, ch_in


def _park(model: Model, max_cycles: int = 16) -> None:
    """Step until the design reaches a fixed point."""
    for _ in range(max_cycles):
        model.step()
        if _compiled_horizon(model) == IDLE_FOREVER:
            return
    raise AssertionError("design never settled to a fixed point")


def _flip(holder, key) -> None:
    """Fault-style bit flip of an attribute or an item."""
    if isinstance(key, str) and not isinstance(holder, dict):
        setattr(holder, key, getattr(holder, key) ^ 1)
    else:
        holder[key] ^= 1


def test_compiled_horizon_matches_walk_after_external_changes():
    model, gw, ch_in = _horizon_zoo()
    assert model.engine == "compiled"
    assert "def _idle_horizon" in model.compiled_source
    _compiled_horizon(model)  # unsettled power-on state
    assert model.idle_horizon() == 0
    gw["x"].drive(9)
    _park(model)
    parked = model.state_dict()

    gw["x"].drive(10)  # a gateway drive leaves the output stale
    assert _compiled_horizon(model) == 0
    _park(model)

    ch_in.push(0x1234, True)  # new FSL word: read side not settled
    assert _compiled_horizon(model) == 0
    _park(model)
    # one write path at a time: only that block is busy
    for name in ("en", "push", "pop", "we", "read", "write"):
        gw[name].drive(1)
        # propagate the gateway by hand, so the enable reaches its block
        # before an edge (settle() would pop the pipelines' stages)
        gw[name].outputs["out"].value = 1
        assert _compiled_horizon(model) == 0, name
        busy = 0
        for _ in range(6):
            model.step()
            busy += _compiled_horizon(model) == 0
        assert busy, name
        gw[name].drive(0)
        _park(model)

    # fault-style pokes, one at a time: every output port, then the
    # internal state each block's horizon reads
    blocks = {b.name: b for b in model.blocks}
    gw["push"].drive(1)  # leave a word in the FIFO for its poke
    model.step()
    gw["push"].drive(0)
    ch_in.push(0x55, False)  # and one on the FSL read side
    _park(model)
    pokes = [(port, "value") for b in model.blocks
             for port in b.outputs.values()]
    pokes += [(blocks["reg"], "_state"), (blocks["ctr"], "_state"),
              (blocks["acc"], "_state"), (blocks["ram"], "_read_reg"),
              (blocks["ram"]._mem, blocks["ctr"]._state),
              (blocks["dly"]._line, 1), (blocks["fifo"]._fifo, 0),
              (blocks["add"]._pipe[1], "s"), (blocks["bank"]._cmd, 0),
              (blocks["bank"]._sts, 0), (blocks["bank"], "_writes"),
              (blocks["x"], "_raw"), (blocks["k"], "value")]
    for holder, key in pokes:
        _flip(holder, key)
        _compiled_horizon(model)
        _flip(holder, key)
        assert _compiled_horizon(model) == IDLE_FOREVER

    model.load_state(parked)  # the FSL word outlives the model state
    assert _compiled_horizon(model) == 0
    _park(model)
    model.reset()
    _compiled_horizon(model)
    assert model.idle_horizon() == 0  # unsettled after reset
    _park(model)


# ----------------------------------------------------------------------
# Compiled idle horizon: no block walk on the compiled path
# ----------------------------------------------------------------------
def _stdlib_horizon_classes() -> list[type]:
    found, todo = [], [Block]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if (cls.__module__.startswith("repro.sysgen")
                and "idle_horizon" in vars(cls)):
            found.append(cls)
    return found


def test_compiled_fast_forward_walks_no_blocks(monkeypatch):
    design = CordicDesign(p=4, iters=12, ndata=8, verify=False)
    sim = CoSimulation(design.program, design.model, design.mb,
                       cpu_config=design.cpu_config)
    assert design.model.engine == "compiled"
    calls: collections.Counter = collections.Counter()

    def count(owner: type, name: str) -> None:
        original = vars(owner)[name]

        def counted(self, *args):
            calls[f"{owner.__name__}.{name}"] += 1
            return original(self, *args)

        monkeypatch.setattr(owner, name, counted)

    classes = _stdlib_horizon_classes()
    assert Register in classes and FSLRead in classes
    for cls in classes:
        count(cls, "idle_horizon")
    count(Block, "in_value")
    count(Model, "idle_horizon")
    assert sim.run().exit_code == 0
    assert calls.pop("Model.idle_horizon") > 0
    assert calls == {}


def test_compiled_horizon_calls_user_override():
    # A user block overriding idle_horizon with no compiled form keeps
    # its own method: a bound call spliced into the generated horizon.
    model = Model("liar")
    mb = MicroBlazeBlock(model)
    liar = model.add(LyingCounter("free", width=8))
    sim = CoSimulation(build_executable("int main(void) { return 7; }"),
                       model, mb)
    assert model.engine == "compiled"
    assert ".idle_horizon()" in model.compiled_source
    assert sim.run().exit_code == 7
    assert liar.asked > 0


class _PlusOne(CombBlock):
    """User combinational block: no emit(), default idle_horizon."""

    def __init__(self, name: str):
        super().__init__(name)
        self.add_input("a")
        self.add_output("out", 16)

    def evaluate(self) -> None:
        self.outputs["out"].value = (self.in_value("a") + 1) & 0xFFFF


class _Hold(SeqBlock):
    """User sequential block: no emit(), default idle_horizon."""

    def __init__(self, name: str):
        super().__init__(name)
        self.add_input("d")
        self.add_output("q", 16)
        self._state = 0

    def present(self) -> None:
        self.outputs["q"].value = self._state

    def clock(self) -> None:
        self._state = self.in_value("d")


@pytest.mark.parametrize("with_seq", [False, True])
def test_compiled_horizon_default_rules_for_user_blocks(with_seq):
    # Without an override, a combinational block is idle whenever the
    # rest of the design is and a sequential block is always busy.
    model = Model("user")
    x = model.add(GatewayIn("x", width=16))
    plus = model.add(_PlusOne("plus"))
    model.connect(x.o("out"), plus.i("a"))
    if with_seq:
        hold = model.add(_Hold("hold"))
        model.connect(plus.o("out"), hold.i("d"))
    x.drive(4)
    model.step(3)
    assert model.engine == "compiled"
    assert _compiled_horizon(model) == (0 if with_seq else IDLE_FOREVER)


# ----------------------------------------------------------------------
# Bursts: the CPU runs alone between couplings, then the hardware
# catches up.  Every case compares against the per-cycle loop on both
# engines: the result, FIFO contents and statistics, probe samples and
# the CPU and model state.
# ----------------------------------------------------------------------
ENGINES = ("compiled", "interpreter")


def _without_wall(value):
    if isinstance(value, dict):
        return {k: _without_wall(v) for k, v in value.items()
                if k != "wall_seconds"}
    if isinstance(value, (list, tuple)):
        return [_without_wall(v) for v in value]
    return value


def _surface(sim, result) -> dict:
    return {"result": _without_wall(dataclasses.asdict(result)),
            "state": sim.state_dict()}


def _record_bursts(cpu) -> list[int]:
    """Lengths of the bursts ``cpu`` runs from now on."""
    lengths: list[int] = []
    burst = cpu.burst

    def recorded(limit, memory=False):
        n = burst(limit, memory)
        lengths.append(n)
        return n

    cpu.burst = recorded
    return lengths


def _design_sim(design, engine: str, fast_forward: bool,
                **kwargs) -> CoSimulation:
    model, mb = design.fresh_hardware()
    _attach_interface_probes(model, mb)
    return CoSimulation(design.program, model, mb,
                        cpu_config=design.cpu_config,
                        fast_forward=fast_forward, engine=engine, **kwargs)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", sorted(DESIGN_CASES))
def test_burst_matches_per_cycle_on_applications(case, engine):
    design = DESIGN_CASES[case]()
    reference = _design_sim(design, engine, fast_forward=False)
    expected = _surface(reference, reference.run())
    sim = _design_sim(design, engine, fast_forward=True)
    lengths = _record_bursts(sim.cpu)
    assert _surface(sim, sim.run()) == expected
    assert expected["result"]["exit_code"] == 0
    assert max(lengths) > 1


@pytest.mark.parametrize("engine", ENGINES)
def test_burst_matches_per_cycle_with_extra_models(engine):
    program = build_executable(ECHO_SUM_SRC, CompileOptions())
    surfaces = {}
    for fast in (False, True):
        model, mb = doubler_design(extra_latency=3)
        _attach_interface_probes(model, mb)
        ticks = model.add(Counter("ticks", width=16))
        # A second design wired to a signal of the first one that moves
        # every cycle: the models must step together, one cycle at a
        # time.
        extra = Model("tap")
        tap = extra.add(Register("tap", width=16))
        extra.connect(ticks.o("q"), tap.i("d"))
        extra.probe(tap.o("q"))
        sim = CoSimulation(program, model, mb, extra_models=[extra],
                           fast_forward=fast, engine=engine)
        lengths = _record_bursts(sim.cpu)
        surfaces[fast] = _surface(sim, sim.run())
    assert surfaces[True] == surfaces[False]
    assert surfaces[False]["result"]["exit_code"] == 30
    assert max(lengths) > 1


@pytest.mark.parametrize("engine", ENGINES)
def test_burst_stops_at_until_and_round_trips_checkpoints(engine):
    design = DESIGN_CASES["matmul_b2"]()
    reference = _design_sim(design, engine, fast_forward=False)
    reference.run()
    expected = reference.state_dict()
    for cut in (1, 7, 333, 1001, 2049):
        per_cycle = _design_sim(design, engine, fast_forward=False)
        sim = _design_sim(design, engine, fast_forward=True)
        assert _surface(sim, sim.run(until=cut)) == \
            _surface(per_cycle, per_cycle.run(until=cut)), cut
        assert sim.cpu.cycle == cut
        doc = json.loads(json.dumps(checkpoint_to_dict(sim)))
        restored = _design_sim(design, engine, fast_forward=True)
        restore_from_dict(restored, doc)
        restored.cpu.resume()
        restored.run()
        assert restored.state_dict() == expected, cut


@pytest.mark.parametrize("engine", ENGINES)
def test_burst_halts_at_breakpoint_like_per_cycle(engine):
    design = DESIGN_CASES["matmul_b2"]()
    scout = _design_sim(design, engine, fast_forward=False)
    scout.run(until=1500)
    breakpoint_pc = scout.cpu.pc
    surfaces = {}
    for fast in (False, True):
        sim = _design_sim(design, engine, fast_forward=fast)
        lengths = _record_bursts(sim.cpu)
        sim.cpu.breakpoints.add(breakpoint_pc)
        stopped = sim.run()
        assert stopped.halt_reason is HaltReason.BREAKPOINT
        at_breakpoint = _surface(sim, stopped)
        # the breakpoint halted the CPU inside a burst, not on its
        # first tick
        assert not fast or lengths[-1] > 1
        sim.cpu.breakpoints.clear()
        sim.cpu.resume()
        surfaces[fast] = (at_breakpoint, _surface(sim, sim.run()))
    assert surfaces[True] == surfaces[False]


@pytest.mark.parametrize("engine", ENGINES)
def test_burst_runs_the_last_cpu_of_a_topology(engine):
    design = DESIGN_CASES["matmul_b2"]()
    short = build_executable("int main(void) { return 0; }")
    surfaces = {}
    for fast in (False, True):
        nodes = []
        for program, config in ((short, None),
                                (design.program, design.cpu_config)):
            model, mb = design.fresh_hardware()
            _attach_interface_probes(model, mb)
            nodes.append(CPUNode(program=program, cpu_config=config,
                                 model=model, mb_block=mb))
        sim = MultiCoSimulation(nodes, TopologySpec("custom", 2),
                                fast_forward=fast, engine=engine)
        lengths = _record_bursts(sim.cpus[1])
        surfaces[fast] = _surface(sim, sim.run())
    assert surfaces[True] == surfaces[False]
    assert surfaces[False]["result"]["exit_code"] == 0
    assert max(lengths) > 1


def test_burst_is_not_taken_with_a_telemetry_bus():
    design = DESIGN_CASES["matmul_b2"]()
    sim = _design_sim(design, "compiled", fast_forward=True,
                      telemetry=Telemetry())
    lengths = _record_bursts(sim.cpu)
    assert sim.run().exit_code == 0
    assert lengths == []


def test_burst_verify_catches_a_tick_that_couples(monkeypatch):
    # verify mode checks every cycle a burst would run alone: a CPU
    # that claims its FSL transfers do not couple is caught.
    monkeypatch.setattr(CPU, "couples", lambda self, memory=False: False)
    program = build_executable(ECHO_SUM_SRC, CompileOptions())
    model, mb = doubler_design()
    sim = CoSimulation(program, model, mb, verify_fast_forward=True)
    with pytest.raises(FastForwardError, match="inside a burst"):
        sim.run()


FAULTING_SRC = """
int main(void) {
    int sum = 0;
    for (int i = 1; i <= 3; i++) {
        putfsl(i, 0);
        sum += getfsl(0);
    }
    int *wild = (int *)0x7ffffff0;
    return sum + *wild;
}
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_burst_fault_leaves_the_models_where_per_cycle_does(engine):
    # A tick that raises mid-burst: the models stop one cycle short of
    # the CPU, exactly as the per-cycle loop leaves them.
    program = build_executable(FAULTING_SRC, CompileOptions())
    states = {}
    for fast in (False, True):
        model, mb = doubler_design(extra_latency=3)
        _attach_interface_probes(model, mb)
        sim = CoSimulation(program, model, mb, fast_forward=fast,
                           engine=engine)
        lengths = _record_bursts(sim.cpu)
        with pytest.raises(BusFault):
            sim.run()
        states[fast] = sim.state_dict()
    assert states[True] == states[False]
    assert states[False]["models"][0]["cycle"] == \
        states[False]["cpu"]["cycle"] - 1
    assert max(lengths) > 1


@pytest.mark.parametrize("engine", ENGINES)
def test_burst_fault_on_the_last_cpu_keeps_the_global_clock(engine):
    # The same fault on the survivor of a 2-CPU topology: the global
    # clock, like the models, stops where the per-cycle loop leaves it.
    program = build_executable(FAULTING_SRC, CompileOptions())
    short = build_executable("int main(void) { return 0; }")
    runs = {}
    for fast in (False, True):
        model, mb = doubler_design(extra_latency=3)
        _attach_interface_probes(model, mb)
        nodes = [CPUNode(program=short),
                 CPUNode(program=program, model=model, mb_block=mb)]
        sim = MultiCoSimulation(nodes, TopologySpec("custom", 2),
                                fast_forward=fast, engine=engine)
        lengths = _record_bursts(sim.cpus[1])
        with pytest.raises(BusFault):
            sim.run()
        runs[fast] = (sim.cycle, sim.state_dict())
    assert runs[True] == runs[False]
    cycle, state = runs[False]
    assert state["cycle"] == cycle == state["models"][0]["cycle"]
    assert max(lengths) > 1


# ----------------------------------------------------------------------
# The idle contract is binary: IDLE_FOREVER is a fixed point, anything
# else is busy.  A finite horizon is stepped, never skipped and caught up.
# ----------------------------------------------------------------------
class Prescaler(SeqBlock):
    """User block with a finite idle horizon: an internal count ticks
    every cycle and output ``q`` advances only when it wraps.  It
    reports the cycles until ``q`` next changes and defines a
    ``fast_forward`` catch-up; the kernels must step it instead."""

    horizons: list[int] = []
    caught_up: list[int] = []

    def __init__(self, name: str, period: int = 8):
        super().__init__(name)
        self.period = period
        self.add_output("q", 8)
        self._count = 0
        self._q = 0

    def present(self) -> None:
        self.outputs["q"].value = self._q

    def clock(self) -> None:
        self._count = (self._count + 1) % self.period
        if self._count == 0:
            self._q = (self._q + 1) & 0xFF

    def reset(self) -> None:
        super().reset()
        self._count = self._q = 0

    def extra_state(self) -> dict:
        return {"count": self._count, "q": self._q}

    def load_extra_state(self, extra: dict) -> None:
        self._count, self._q = extra["count"], extra["q"]

    def idle_horizon(self) -> int:
        h = 0 if self.outputs["q"].value != self._q \
            else self.period - self._count
        Prescaler.horizons.append(h)
        return h

    def fast_forward(self, cycles: int) -> None:
        Prescaler.caught_up.append(cycles)
        total = self._count + cycles
        self._count = total % self.period
        self._q = (self._q + total // self.period) & 0xFF


def _prescaled_sim(engine: str, mode: str, period: int = 8) -> CoSimulation:
    program = build_executable(ECHO_SUM_SRC, CompileOptions())
    model, mb = doubler_design(extra_latency=1)
    _attach_interface_probes(model, mb)
    model.probe(model.add(Prescaler("pre", period)).o("q"))
    return CoSimulation(program, model, mb, engine=engine,
                        fast_forward=(mode != "per_cycle"),
                        verify_fast_forward=(mode == "verify"))


@pytest.mark.parametrize("engine", ENGINES)
def test_finite_idle_horizon_is_stepped_not_caught_up(monkeypatch, engine):
    monkeypatch.setattr(Prescaler, "horizons", [])
    monkeypatch.setattr(Prescaler, "caught_up", [])
    surfaces = {}
    for mode in ("per_cycle", "fast", "verify"):
        sim = _prescaled_sim(engine, mode)
        surfaces[mode] = _surface(sim, sim.run())
    assert surfaces["fast"] == surfaces["per_cycle"]
    assert surfaces["verify"] == surfaces["per_cycle"]
    assert surfaces["per_cycle"]["result"]["exit_code"] == 30
    assert any(0 < h < IDLE_FOREVER for h in Prescaler.horizons)
    assert Prescaler.caught_up == []


@needs_gcc
def test_finite_idle_horizon_matches_as_a_batched_lane(monkeypatch):
    monkeypatch.setattr(Prescaler, "horizons", [])
    monkeypatch.setattr(Prescaler, "caught_up", [])
    periods = (8, 3)
    batch = BatchedCoSimulation(
        [lambda p=p: _prescaled_sim("compiled", "fast", p) for p in periods])
    assert "pre" in batch.fallback_blocks
    results = batch.run()
    for lane, period in enumerate(periods):
        ref = _prescaled_sim("compiled", "fast", period)
        expected = ref.run()
        got = results[lane]
        assert not got.evicted and got.error is None
        assert dataclasses.replace(got.result, wall_seconds=0.0) == \
            dataclasses.replace(expected, wall_seconds=0.0), f"lane {lane}"
        model = batch.lane(lane).model
        assert model.cycle == ref.model.cycle
        assert [p.samples for p in model.probes] == \
            [p.samples for p in ref.model.probes], f"lane {lane}"
        assert model.block("pre").state_dict() == \
            ref.model.block("pre").state_dict()
    assert any(0 < h < IDLE_FOREVER for h in Prescaler.horizons)
    assert Prescaler.caught_up == []
