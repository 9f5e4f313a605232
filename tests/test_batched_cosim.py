"""Lockstep-vs-scalar equivalence for the batched co-simulation engine.

The contract under test: every lane of a :class:`BatchedCoSimulation`
— including lanes evicted to the scalar engine mid-run — produces the
*complete* conformance observable surface bit-identically to an
independent scalar run with the same budget.  Divergence is exercised
with per-lane cycle budgets (lanes freeze at different cycles), forced
evictions, and a genuine deadlock (watchdog eviction).

``REPRO_BATCH_SMOKE_SCENARIOS`` / ``REPRO_BATCH_SMOKE_WIDTH`` scale the
corpus sweep up for the CI batch-smoke job (25 scenarios at width 8)
without slowing the default tier-1 run.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.bus.fsl import FSLChannel
from repro.bus.opb import OPBBus
from repro.asm import assemble, link
from repro.conformance.oracle import _make_sim, _run, observe, observe_batched
from repro.conformance.scenario import (
    Scenario,
    ScenarioGenerator,
    build_program,
)
from repro.cosim.batch import BatchedCoSimulation, LaneResult, lane_factory
from repro.cosim.environment import CoSimDeadlock, CoSimulation
from repro.cosim.mb_block import MicroBlazeBlock
from repro.faults.campaign import build_design
from repro.isa.encoding import encode
from repro.isa.instructions import BY_MNEMONIC
from repro.iss.cpu import HaltReason
from repro.iss.memory import BusFault
from repro.mcc import build_executable
from repro.runapi import RunPolicy
from repro.sysgen.batched import BatchedModel, BatchUnsupported
from repro.sysgen.blocks import (
    Constant,
    Counter,
    FSLRead,
    FSLWrite,
    Logical,
    OPBRegisterBank,
    Slice,
)
from repro.sysgen.model import Model

N_SCENARIOS = int(os.environ.get("REPRO_BATCH_SMOKE_SCENARIOS", "4"))
WIDTH = int(os.environ.get("REPRO_BATCH_SMOKE_WIDTH", "8"))

#: staggered per-lane budget divisors — every lane freezes at its own
#: cycle, so the lane mask is exercised on every scenario
_DIVISORS = (1, 3, 7, 2, 5, 9, 4, 13, 6, 11, 8, 15)

OPB_BASE = 0x0001_0000


def _lane_budgets(scenario: Scenario, width: int) -> list[int]:
    return [max(2, scenario.max_cycles // _DIVISORS[i % len(_DIVISORS)])
            for i in range(width)]


def _cordic_factory(**params):
    return lane_factory(lambda: build_design("cordic", params))


# --------------------------------------------------------------------------
# conformance equivalence


@pytest.mark.parametrize("index", range(N_SCENARIOS))
def test_lockstep_matches_scalar_over_corpus(index):
    scenario = ScenarioGenerator(seed=0).scenario(index)
    budgets = _lane_budgets(scenario, WIDTH)
    evict = (1 % WIDTH,)
    observations = observe_batched(
        scenario, budgets, force_evict=evict, force_evict_cycle=50
    )
    assert any(o.mode == "batched_evicted" for o in observations)
    for lane, obs in enumerate(observations):
        ref = observe(
            dataclasses.replace(scenario, max_cycles=budgets[lane]),
            "per_cycle",
        )
        assert obs.comparable() == ref.comparable(), (
            f"lane {lane} (budget {budgets[lane]}, mode {obs.mode}) "
            f"diverged from the scalar engine on scenario {scenario.name}"
        )


@pytest.mark.parametrize("index", range(N_SCENARIOS))
def test_lockstep_matches_scalar_over_corpus_without_a_bus(index):
    # observe_batched attaches telemetry, so its FSL endpoints fall back
    # per lane; without a bus they run vectorized (in the C kernel when
    # gcc is present) and every lane must end in a scalar run's state.
    scenario = ScenarioGenerator(seed=0).scenario(index)
    budgets = _lane_budgets(scenario, WIDTH)
    program = build_program(scenario)

    def make() -> CoSimulation:
        return _make_sim(scenario, program, fast_forward=False, bus=False)[0]

    batch = BatchedCoSimulation([make] * WIDTH, force_evict=(1 % WIDTH,),
                                force_evict_cycle=50)
    assert batch.fallback_blocks == []
    results = batch.run(until=budgets)
    assert any(r.evicted for r in results)
    for lane, budget in enumerate(budgets):
        ref = make()
        _run(ref, budget)
        assert batch.lane(lane).state_dict() == ref.state_dict(), (
            f"lane {lane} (budget {budget}) diverged from the scalar "
            f"engine on scenario {scenario.name}")


def test_watchdog_eviction_reproduces_scalar_deadlock():
    path = Path(__file__).parent / "golden" / "s0-0026.json"
    scenario = Scenario.from_dict(json.loads(path.read_text())["scenario"])
    ref = observe(scenario, "per_cycle")
    assert ref.status == "deadlock", "corpus scenario no longer deadlocks"
    observations = observe_batched(scenario, [scenario.max_cycles] * 2)
    for obs in observations:
        # the lockstep watchdog cannot raise mid-vector; it must evict,
        # and the scalar replay must land on the identical deadlock
        assert obs.mode == "batched_evicted"
        assert obs.status == "deadlock"
        assert obs.comparable() == ref.comparable()


# --------------------------------------------------------------------------
# engine-level behaviour


def test_per_lane_budgets_and_forced_eviction():
    params = [dict(p=2, iters=8, ndata=6, seed=s) for s in (1, 2, 3, 4)]
    budgets = [2_000_000, 400, 2_000_000, 700]
    refs = []
    for prm, budget in zip(params, budgets):
        design = build_design("cordic", dict(prm))
        sim = CoSimulation(design.program, design.model, design.mb,
                           cpu_config=design.cpu_config)
        refs.append(sim.run(until=budget))

    batch = BatchedCoSimulation(
        [_cordic_factory(**prm) for prm in params],
        force_evict=[2], force_evict_cycle=100,
    )
    assert batch.fallback_blocks == []
    results = batch.run(until=budgets)

    assert [r.evicted for r in results] == [False, False, True, False]
    assert results[2].eviction_reason == "forced eviction"
    for res, ref in zip(results, refs):
        assert res.error is None
        got = res.result
        assert (got.exit_code, got.cycles, got.instructions,
                got.stall_cycles, got.halt_reason) == (
            ref.exit_code, ref.cycles, ref.instructions,
            ref.stall_cycles, ref.halt_reason)


def test_quiet_stretch_engages_and_stays_exact(monkeypatch):
    # p=2 CORDIC idles its pipeline while the CPU prepares each datum,
    # so the lanes' hardware catches up by fast-forwarding from a fixed
    # point; the budgets stop lanes inside and outside those stretches
    params = [dict(p=2, iters=8, ndata=6, seed=s) for s in (1, 2, 3, 4)]
    budgets = [2_000_000, 400, 1000, 700]

    def probed(prm):
        # one fallback-driven and one vectorized port: fast_forward
        # fills the samples of both while the hardware is skipped
        design = build_design("cordic", dict(prm))
        for block, port in (("fsl_out0", "data"), ("in_c0", "q")):
            design.model.probe(design.model.block(block).o(port))
        return design

    skipped = []
    fast_forward = BatchedModel.fast_forward

    def spy(self, cycles):
        skipped.append(cycles)
        return fast_forward(self, cycles)

    monkeypatch.setattr(BatchedModel, "fast_forward", spy)
    batch = BatchedCoSimulation(
        [lane_factory(lambda prm=prm: probed(prm)) for prm in params])
    results = batch.run(until=budgets)
    assert sum(c for c in skipped if c > 0) > 0, "idle hardware never skipped"

    for lane, (prm, budget) in enumerate(zip(params, budgets)):
        design = probed(prm)
        sim = CoSimulation(design.program, design.model, design.mb,
                           cpu_config=design.cpu_config)
        ref = sim.run(until=budget)
        got = results[lane]
        assert not got.evicted and got.error is None
        assert dataclasses.replace(got.result, wall_seconds=0.0) == \
            dataclasses.replace(ref, wall_seconds=0.0), f"lane {lane}"
        lane_model = batch.lane(lane).model
        assert lane_model.cycle == sim.model.cycle
        assert [p.samples for p in lane_model.probes] == \
            [p.samples for p in sim.model.probes], f"lane {lane} probes"


@pytest.mark.parametrize("ckernel", [True, False], ids=["ckernel", "numpy"])
def test_cpu_raising_in_a_quiet_stretch_evicts_only_its_lane(monkeypatch,
                                                            ckernel):
    # Lane 2's CPU raises from advance_horizon(), which each round asks
    # before the lane bursts or parks: that lane alone is evicted, and
    # the other lanes run on to their scalar results.
    from repro.sysgen.ckernel import DISABLE_ENV

    if not ckernel:
        monkeypatch.setenv(DISABLE_ENV, "1")
    params = [dict(p=2, iters=8, ndata=6, seed=s) for s in (1, 2, 3, 4)]
    batch = BatchedCoSimulation([_cordic_factory(**prm) for prm in params])
    victim = batch.sims[2].cpu
    horizon = victim.advance_horizon

    def failing_horizon():
        if victim.cycle >= 300:
            raise RuntimeError("corrupted pipeline")
        return horizon()

    victim.advance_horizon = failing_horizon
    batch.advance({lane: 2_000_000 for lane in range(4)})
    reason = "cpu raised RuntimeError: corrupted pipeline"
    assert batch.pending_evictions == {2: reason}
    assert 300 <= victim.cycle < 2_000

    results = batch.run(until=2_000_000)
    assert [r.evicted for r in results] == [False, False, True, False]
    assert results[2].eviction_reason == reason
    for lane, prm in enumerate(params):
        design = build_design("cordic", dict(prm))
        ref = CoSimulation(design.program, design.model, design.mb,
                           cpu_config=design.cpu_config).run()
        got = results[lane]
        assert got.error is None
        assert dataclasses.replace(got.result, wall_seconds=0.0) == \
            dataclasses.replace(ref, wall_seconds=0.0), f"lane {lane}"


def test_halting_store_to_opb_hardware_ends_the_quiet_stretch_exactly():
    # The exit store counts as hardware activity when OPB registers are
    # mapped, so the halting cycle ends a burst whose catch-up must step
    # the hardware for real; the halted lane must still stop there, not
    # step its hardware one cycle past the scalar run.
    source = f"""
    int main(void) {{
        int *cmd = (int *){OPB_BASE};
        int total = 0;
        for (int i = 1; i <= 4; i++) {{
            cmd[0] = i;
            total += i;
        }}
        return total;
    }}
    """
    program = build_executable(source)

    def factory():
        model = Model("opb_reg")
        bank = model.add(OPBRegisterBank("bank", n_command=1, n_status=1))
        model.connect(bank.o("cmd0"), bank.i("sts0"))
        model.probe(bank.o("cmd0"))
        bus = OPBBus()
        bus.attach(OPB_BASE, bank.opb_size, bank)
        sim = CoSimulation(program, model, MicroBlazeBlock(model))
        sim.cpu.mem.map_opb(bus, OPB_BASE, bank.opb_size)
        return sim

    ref = factory()
    expected = ref.run()
    batch = BatchedCoSimulation([factory, factory])
    for res in batch.run():
        assert not res.evicted and res.result.exit_code == 10
        assert res.result.cycles == expected.cycles
        model = batch.lane(res.lane).model
        assert model.cycle == ref.model.cycle
        assert model.probes[0].samples == ref.model.probes[0].samples


def _endpoint_factory(case: str, words: int):
    """A design whose FIFOs move while its port arrays do not.

    ``pop``: the CPU queues identical words while the reader is gated
    off, then opens the gate (a word on a second channel) and idles;
    the reader pops one identical word per edge.  ``drop``: the writer
    holds ``write`` high into a channel the program never drains, so
    every edge after it fills drops a word."""
    gate = "putfsl(1, 1);" if case == "pop" else ""
    source = f"""
    int main(void) {{
        for (int i = 0; i < {words}; i++) putfsl(5, 0);
        {gate}
        int s = 0;
        for (int i = 0; i < 300; i++) s += i;
        return s & 255;
    }}
    """
    program = build_executable(source)

    def build():
        model = Model("endpoints")
        mb = MicroBlazeBlock(model, fifo_depth=words if case == "pop" else 4)
        rd = mb.master_fsl(0)
        wr = mb.slave_fsl(0)
        probes = [rd.o("data"), rd.o("exists"), wr.o("full")]
        if case == "pop":
            opened = mb.master_fsl(1)
            read = model.add(Logical("read", width=1, op="and"))
            model.connect(rd.o("exists"), read.i("d0"))
            model.connect(opened.o("exists"), read.i("d1"))
            model.connect(read.o("out"), rd.i("read"))
            probes.append(opened.o("exists"))
        else:
            model.connect(rd.o("exists"), rd.i("read"))
            high = model.add(Constant("high", 1, width=1))
            model.connect(high.o("out"), wr.i("write"))
            word = model.add(Constant("word", 9))
            model.connect(word.o("out"), wr.i("data"))
        for port in probes:
            model.probe(port)
        return CoSimulation(program, model, mb)

    return build


@pytest.mark.parametrize("case", ["pop", "drop"])
def test_vector_endpoints_move_fifos_like_scalar_runs(case):
    # Neither case moves a port array while its FIFO moves, so the
    # lockstep fixed-point probe must see the transfers themselves.
    factories = [_endpoint_factory(case, 4), _endpoint_factory(case, 6)]
    batch = BatchedCoSimulation(factories)
    assert batch.fallback_blocks == []
    results = batch.run()
    for lane, make in enumerate(factories):
        ref = make()
        expected = ref.run()
        got = batch.lane(lane)
        assert not results[lane].evicted
        assert results[lane].result.cycles == expected.cycles
        assert got.model.block("fsl_in0").dropped == \
            ref.model.block("fsl_in0").dropped
        assert [c.state_dict() for c in got.mb_block.channels()] == \
            [c.state_dict() for c in ref.mb_block.channels()]
        assert [p.samples for p in got.model.probes] == \
            [p.samples for p in ref.model.probes], f"lane {lane} probes"
    if case == "drop":
        assert ref.model.block("fsl_in0").dropped > 0


def test_lane_view_reports_the_lockstep_hardware_state():
    params = [dict(p=2, iters=8, ndata=4, seed=s) for s in (1, 2)]
    batch = BatchedCoSimulation([_cordic_factory(**prm) for prm in params])
    batch.run()
    for lane, prm in enumerate(params):
        design = build_design("cordic", dict(prm))
        sim = CoSimulation(design.program, design.model, design.mb,
                           cpu_config=design.cpu_config)
        sim.run()
        assert batch.lane(lane).state_dict() == sim.state_dict()


#: one design per lane emitter family the template path must broadcast:
#: CORDIC (registers, FSL endpoints) and matmul (accumulators, FIFOs)
TEMPLATE_DESIGNS = [
    pytest.param("cordic", {"p": 2, "iters": 8, "ndata": 4}, id="cordic"),
    pytest.param("matmul", {"block": 2, "matn": 4}, id="matmul"),
]


def _scalar_at(sim: CoSimulation, cycle: int) -> dict:
    """``sim`` run on to absolute ``cycle`` (or its exit), then its
    state with the run-to-cycle park cleared, like a lockstep lane's."""
    sim.cpu.resume()
    sim.run(until=cycle - sim.cpu.cycle)
    sim.cpu.resume()
    return sim.state_dict()


@pytest.mark.parametrize("app, params", TEMPLATE_DESIGNS)
def test_template_lanes_match_model_lanes_and_scalar_runs(app, params):
    # Lanes built from one template own no model; each lane(i) builds
    # one and writes the lane's state into it.  Lane 1 is built early
    # and keeps running in the batch, lane 2 stops early, lane 0 is
    # built only at the end.
    design = build_design(app, dict(params))

    def scalar() -> CoSimulation:
        return CoSimulation(design.program, *design.fresh_hardware(),
                            cpu_config=design.cpu_config)

    built = []
    hardware = design.fresh_hardware

    def counted():
        built.append(1)
        return hardware()

    template = BatchedCoSimulation.from_template(
        design.program, counted, 3, cpu_config=design.cpu_config)
    models = BatchedCoSimulation([scalar] * 3)
    assert template.fallback_blocks == models.fallback_blocks == []
    assert len(built) == 1 and template.batched.models == [None] * 3
    refs = [scalar() for _ in range(3)]
    end = 2_000_000
    for cycle in (97, 400, 1_333, end):
        targets = {0: cycle, 1: cycle, 2: min(cycle, 400)}
        template.advance(targets)
        models.advance(targets)
        for lane in (1, 2) if cycle < end else (0, 1, 2):
            want = _scalar_at(refs[lane], targets[lane])
            assert models.lane(lane).state_dict() == want, (cycle, lane)
            assert template.lane(lane).state_dict() == want, (cycle, lane)
    assert refs[0].cpu.halt_reason is HaltReason.EXIT
    assert len(built) == 4
    assert all(template.batched.models)


def test_template_lanes_with_per_lane_blocks_build_every_model():
    # Telemetry on the lanes' channels sends the FSL endpoints back to
    # per-lane dispatch, which needs each lane's own blocks: every lane
    # model is built up front, and the lanes still end as scalar runs.
    from repro.telemetry import Telemetry, telemetry_scope

    design = build_design("cordic", {"p": 2, "iters": 8, "ndata": 4})
    shared = Telemetry()
    with telemetry_scope(shared):
        batch = BatchedCoSimulation.from_template(
            design.program, design.fresh_hardware, 2,
            cpu_config=design.cpu_config)
    assert sorted(batch.fallback_blocks) == ["fsl_in0", "fsl_out0"]
    assert all(sim.model is model for sim, model
               in zip(batch.sims, batch.batched.models))
    batch.advance({0: 2_000_000, 1: 2_000_000})
    with telemetry_scope(Telemetry()):
        ref = CoSimulation(design.program, *design.fresh_hardware(),
                           cpu_config=design.cpu_config)
    want = _scalar_at(ref, 2_000_000)
    counters = want.pop("telemetry")["registry"]["counters"]
    for lane in (0, 1):
        got = batch.lane(lane).state_dict()
        got.pop("telemetry")
        assert got == want, lane
    # both lanes' endpoints fired into the one shared bus
    both = shared.state_dict()["registry"]["counters"]
    for name in ("block.fires.fsl_in0", "block.fires.fsl_out0"):
        assert both[name] == 2 * counters[name] > 0, name


def test_template_lane_stuck_at_writes_no_shared_port():
    # A stuck_at on lane 0 pins lane 0's array only: the template's
    # port and lane 1's (array, model and all) stay a fault-free run's.
    from repro.faults import FaultPlan, FaultSpec
    from repro.faults.campaign import _LaneInjector, _lane_stop

    design = build_design("cordic", {"p": 2, "iters": 8, "ndata": 4})
    batch = BatchedCoSimulation.from_template(
        design.program, design.fresh_hardware, 2,
        cpu_config=design.cpu_config)
    port = batch.batched.template.block("in_c0").outputs["q"]
    before = port.value
    plan = FaultPlan([FaultSpec("stuck_at", 300, "in_c0:q", value=0x5A,
                                duration=100)], seed="stuck")
    injector = _LaneInjector(batch, 0, plan)
    forced = []
    while (stop := _lane_stop(batch, 0, injector, 350)) is not None:
        forced.append(dict(batch._forcings))
        batch.advance({0: stop, 1: stop})
    assert [sorted(f) for f in forced] == [[], [0]]
    assert port.value == before
    ref = CoSimulation(design.program, *design.fresh_hardware(),
                       cpu_config=design.cpu_config)
    assert batch.lane(1).state_dict() == _scalar_at(ref, 350)
    assert batch.lane(0).model.block("in_c0").outputs["q"] is not port
    assert port.value == before


# --------------------------------------------------------------------------
# lane bursts: shared code, and a CPU raising mid-burst


def _loopback_hardware():
    """A design that echoes every word the CPU puts on FSL 0 back to
    its get side."""
    model = Model("loopback")
    mb = MicroBlazeBlock(model)
    rd, wr = mb.master_fsl(0), mb.slave_fsl(0)
    model.connect(rd.o("exists"), rd.i("read"))
    model.connect(rd.o("exists"), wr.i("write"))
    model.connect(rd.o("data"), wr.i("data"))
    return model, mb


def _flip(sim: CoSimulation, addr: int, mask: int) -> None:
    mem = sim.cpu.mem
    mem.write_u32(addr, mem.read_u32(addr) ^ mask)


#: calls code in .data (``thunk`` adds 7 to r3) on every pass
SHARED_CODE_SOURCE = f"""
            .global _start
_start:     addik r5, r0, 8
            addik r6, r0, thunk
loop:       addik r3, r3, 1
            brald r15, r6
            or    r0, r0, r0
later:      addik r3, r3, 10
            put   r3, rfsl0
            get   r7, rfsl0
            add   r3, r3, r7
            addik r5, r5, -1
            bnei  r5, loop
            li    r12, 0xFFFF0000
            swi   r3, r12, 0
            .data
thunk:      .word {encode(BY_MNEMONIC["addik"], rd=3, ra=3, imm=7):#x}
            .word {encode(BY_MNEMONIC["rtsd"], ra=15, imm=8):#x}
            .word {encode(BY_MNEMONIC["or"], rd=0, ra=0, rb=0):#x}
"""


def test_lanes_share_code_only_where_their_text_is_the_programs():
    # Four lanes of one program in one batch: lane 0 runs it as linked,
    # lane 1 flips a text word before it first runs, lane 2 one that
    # has run, and lane 3 runs other code at the .data address.  Lanes
    # share decodes and translations of the program text only, and a
    # lane that writes the text, or fetches outside it, leaves them
    # before the write lands.
    program = link(assemble(SHARED_CODE_SOURCE))
    later, loop, thunk = (program.symbols[s]
                          for s in ("later", "loop", "thunk"))
    assert later < program.text_size <= thunk
    #: lane -> (cycle, address, xor mask)
    edits = {1: (0, later, 1 << 2), 2: (40, loop, 1 << 1),
             3: (0, thunk, 7 ^ 70)}
    budget = 5_000
    refs = []
    for lane in range(4):
        ref = CoSimulation(program, *_loopback_hardware())
        if lane in edits:
            cycle, addr, mask = edits[lane]
            ref.run(until=cycle)
            if lane == 2:
                assert loop in ref.cpu._code.decoded  # it has run
            ref.cpu.resume()
            _flip(ref, addr, mask)
        refs.append(_scalar_at(ref, budget))

    batch = BatchedCoSimulation.from_template(program, _loopback_hardware, 4)
    for lane in (1, 3):
        _flip(batch.sims[lane], *edits[lane][1:])
    batch.hw_touched()
    batch.advance({lane: 2 for lane in range(4)})
    # each lane joined a shared cache on its first fetch: lane 1 one of
    # its flipped text, lane 3 the program's (its edit is not text)
    codes = [sim.cpu._code for sim in batch.sims]
    assert not any(code.private for code in codes)
    assert codes[0] is codes[2] is codes[3] is not codes[1]
    batch.advance({lane: 40 for lane in range(4)})
    _flip(batch.sims[2], *edits[2][1:])
    batch.hw_touched()
    results = batch.run(until=budget)
    for lane, want in enumerate(refs):
        assert not results[lane].evicted
        assert batch.lane(lane).state_dict() == want, lane
    assert len({r.result.exit_code for r in results}) == 4
    # every lane left for a private copy at its first .data fetch
    codes = [sim.cpu._code for sim in batch.sims]
    assert all(code.private for code in codes)
    assert len({id(code) for code in codes}) == 4


#: lanes fault on a load through ``pointer`` when it points off BRAM
FAULTING_SOURCE = """
            .global _start
_start:     addik r5, r0, 4
loop:       put   r5, rfsl0
            get   r7, rfsl0
            add   r3, r3, r7
            lwi   r6, r0, pointer
            lw    r8, r6, r0
            add   r3, r3, r8
            addik r4, r4, 3
            addik r5, r5, -1
            bnei  r5, loop
            li    r12, 0xFFFF0000
            swi   r3, r12, 0
            .data
pointer:    .word 0
"""


@pytest.mark.parametrize("ckernel", [True, False], ids=["ckernel", "numpy"])
def test_a_cpu_raising_mid_burst_leaves_its_hardware_one_cycle_short(
        monkeypatch, ckernel):
    # Lane 1's load raises inside a burst, several cycles after the get
    # that coupled it: its hardware stops one cycle short of its CPU,
    # as a scalar run leaves them, and the other lanes run on.
    from repro.sysgen.ckernel import DISABLE_ENV

    if not ckernel:
        monkeypatch.setenv(DISABLE_ENV, "1")
    program = link(assemble(FAULTING_SOURCE))
    pointer = program.symbols["pointer"]
    targets = [pointer, 0x7FFF_FFF0, pointer, pointer]

    def aim(sim: CoSimulation, lane: int) -> CoSimulation:
        sim.cpu.mem.write_u32(pointer, targets[lane])
        return sim

    batch = BatchedCoSimulation.from_template(program, _loopback_hardware, 4)
    for lane, sim in enumerate(batch.sims):
        aim(sim, lane)
    batch.advance({lane: 2_000 for lane in range(4)})
    assert list(batch.pending_evictions) == [1]
    assert batch.pending_evictions[1].startswith("cpu raised BusFault: ")
    for lane in range(4):
        ref = aim(CoSimulation(program, *_loopback_hardware()), lane)
        if lane == 1:
            with pytest.raises(BusFault):
                ref.run()
            assert ref.model.cycle == ref.cpu.cycle - 1
            assert ref.cpu.stats.instructions > 4  # past the coupling
            want = ref.state_dict()
        else:
            want = _scalar_at(ref, 2_000)
        assert batch.lane(lane).state_dict() == want, lane


def test_lane_result_status_folding():
    ok = LaneResult(0, None, error=CoSimDeadlock("stuck"))
    assert ok.status == "deadlock"
    assert LaneResult(0, None, error=ValueError("x")).status == "error:ValueError"
    assert LaneResult(0, None).status == "exit"


def test_wall_timeout_records_per_lane_timeouts():
    batch = BatchedCoSimulation(
        [_cordic_factory(p=2, iters=8, ndata=6, seed=1)]
    )
    results = batch.run(until=2_000_000,
                        policy=RunPolicy(wall_timeout_s=0.0))
    assert results[0].status == "error:CoSimTimeout"
    assert "wall-clock budget" in str(results[0].error)


def test_structurally_different_lanes_rejected():
    with pytest.raises(BatchUnsupported, match="lane 1"):
        BatchedCoSimulation([
            _cordic_factory(p=1, iters=8, ndata=6, seed=1),
            _cordic_factory(p=2, iters=8, ndata=6, seed=1),
        ])


def test_extra_models_rejected():
    def factory():
        design = build_design("cordic", dict(p=1, iters=6, ndata=4, seed=1))
        return CoSimulation(design.program, design.model, design.mb,
                            cpu_config=design.cpu_config,
                            extra_models=[Model("extra")])

    with pytest.raises(BatchUnsupported, match="extra_models"):
        BatchedCoSimulation([factory])


def test_mismatched_budget_list_rejected():
    batch = BatchedCoSimulation(
        [_cordic_factory(p=1, iters=6, ndata=4, seed=1)]
    )
    with pytest.raises(ValueError, match="per-lane budgets"):
        batch.run(until=[100, 200])


def _loopback(depth: int) -> Model:
    """One channel behind both endpoints: the writer pushes a counter
    every cycle, the reader pops only while the counter's bit 1 is set,
    so the FIFO fills, drops and drains."""
    model = Model("loopback")
    channel = FSLChannel(depth=depth, name="loop")
    rd = model.add(FSLRead("rd"))
    wr = model.add(FSLWrite("wr"))
    rd.bind(channel)
    wr.bind(channel)
    cnt = model.add(Counter("cnt", width=8))
    bit = model.add(Slice("bit", msb=1, lsb=1))
    read = model.add(Logical("read", width=1, op="and"))
    model.connect(cnt.o("q"), bit.i("a"))
    model.connect(bit.o("out"), read.i("d0"))
    model.connect(rd.o("exists"), read.i("d1"))
    model.connect(read.o("out"), rd.i("read"))
    model.connect(cnt.o("q"), wr.i("data"))
    model.connect(model.add(Constant("high", 1, width=1)).o("out"),
                  wr.i("write"))
    for port in (rd.o("data"), rd.o("exists"), wr.o("full")):
        model.probe(port)
    return model


def test_endpoints_sharing_a_channel_run_per_lane():
    # Two lane tables cannot both hold one channel's row, so endpoints
    # that share a channel keep the clones' own present/clock.
    refs = [_loopback(depth) for depth in (2, 3)]
    for ref in refs:
        ref.step(40)
    batch = BatchedModel([_loopback(depth) for depth in (2, 3)])
    assert sorted(batch.fallback_blocks) == ["rd", "wr"]
    batch.step(40)
    for model, ref in zip(batch.models, refs):
        assert [p.samples for p in model.probes] == \
            [p.samples for p in ref.probes]
        assert model.block("rd").channel.state_dict() == \
            ref.block("rd").channel.state_dict()
        assert model.block("wr").dropped == ref.block("wr").dropped > 0
