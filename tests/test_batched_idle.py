"""The lockstep engine's idle rule is the scalar engine's.

Each step of a :class:`~repro.sysgen.batched.BatchedModel` leaves a
busy bit per lane, computed from the blocks' own ``busy_if`` checks.
Right after every ``step(1)`` of a hardware-only run, each active
lane's bit must equal what the scalar contract says of that lane's
written-back clone model, ``Model.idle_horizon() < IDLE_FOREVER``.
The FSL designs get seeded traffic on their channels between steps,
and lanes freeze and thaw mid-run.

A delay line must still let the co-simulation fast-forward idle lanes:
matmul spends most of its lane-cycles waiting for the CPU with its
delay lines at a fixed point.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from repro.apps.cordic.hardware import build_cordic_model
from repro.apps.matmul.hardware import build_matmul_model
from repro.cosim.batch import BatchedCoSimulation, lane_factory
from repro.cosim.environment import CoSimulation
from repro.cosim.mb_block import MicroBlazeBlock
from repro.faults.campaign import build_design
from repro.sysgen.batched import BatchedModel
from repro.sysgen.block import IDLE_FOREVER, SeqBlock
from repro.sysgen.blocks import Counter, Register
from repro.sysgen.blocks.fsl import FSLRead, FSLWrite
from repro.sysgen.blocks.gateway import GatewayIn
from repro.sysgen.model import Model
from tests.conftest import needs_gcc
from tests.folded import build_folded
from tests.test_batched import PARAMS
from tests.test_ckernel import TABLE_PARAMS, build_tables

CYCLES = 240
LANES = 4
#: (lane, freeze at batch cycle, thaw at batch cycle)
FREEZES = [(1, 30, 75), (3, 0, 12), (2, 150, 190)]


def _hardware(build, param):
    return lambda lane: build(param)[0]


def _gated(build):
    """``build``'s design with its free-running counter ``cnt`` gated
    by an FSL reader: the counter advances one step per word the
    traffic delivers, so between bursts the lane-table blocks drain
    into a fixed point (or stay busy, where a held input keeps them)."""
    def gated(**params):
        model = build(**params)
        rd = MicroBlazeBlock(model).master_fsl(0)
        model.connect(rd.o("exists"), rd.i("read"),
                      model.block("cnt").i("en"))
        return model
    return gated


def build_endpoints(lane: int = 0) -> Model:
    """FSL endpoints whose own rules alone decide: a reader draining
    its channel into the writer's data, and a writer whose ``write`` a
    gateway holds (the traffic toggles it)."""
    model = Model("endpoints")
    mb = MicroBlazeBlock(model, fifo_depth=4)
    rd, wr = mb.master_fsl(0), mb.slave_fsl(0)
    go = model.add(GatewayIn("go", width=1))
    model.connect(rd.o("exists"), rd.i("read"))
    model.connect(rd.o("data"), wr.i("data"))
    model.connect(go.o("out"), wr.i("write"))
    return model


class Latch(SeqBlock):
    """A user block that rewrites its output at the clock edge, after
    the register it feeds has clocked: the register's input moves
    although no vectorized state did."""

    def __init__(self, name: str):
        super().__init__(name)
        self.add_input("d")
        self.add_output("q", 8)

    def clock(self) -> None:
        self.outputs["q"].value = self.in_value("d") & 255

    def idle_horizon(self) -> int:
        settled = self.outputs["q"].value == self.in_value("d") & 255
        return IDLE_FOREVER if settled else 0


def build_latched(lane: int = 0) -> Model:
    """An FSL-gated counter seen through a :class:`Latch` by a
    register added (and clocked) before it."""
    model = Model("latched")
    rd = MicroBlazeBlock(model).master_fsl(0)
    cnt = model.add(Counter("cnt", width=8, step=lane + 1))
    reg = model.add(Register("reg", width=8))
    latch = model.add(Latch("latch"))
    model.connect(rd.o("exists"), rd.i("read"), cnt.i("en"))
    model.connect(cnt.o("q"), latch.i("d"))
    model.connect(latch.o("q"), reg.i("d"))
    return model


#: design -> (lane builder, whether its lanes reach a fixed point)
DESIGNS = {
    "cordic2": (_hardware(build_cordic_model, 2), True),
    "cordic4": (_hardware(build_cordic_model, 4), True),
    "cordic8": (_hardware(build_cordic_model, 8), True),
    "matmul2": (_hardware(build_matmul_model, 2), True),
    "matmul4": (_hardware(build_matmul_model, 4), True),
    "endpoints": (build_endpoints, True),
    "latched": (build_latched, True),
    "folded": (lambda lane: build_folded(**PARAMS[lane]), False),
    "folded-gated": (
        lambda lane: _gated(build_folded)(**PARAMS[lane]), True),
    "tables": (lambda lane: build_tables(**TABLE_PARAMS[lane]), False),
    "tables-gated": (
        lambda lane: _gated(build_tables)(**TABLE_PARAMS[lane]), True),
}


def _traffic(model, rng: random.Random, cycle: int) -> None:
    """Seeded inputs between steps: FSL words arrive in bursts (every
    other 40-cycle window), the CPU side drains results at random, so
    channels fill, empty and stay quiet for a while, and gateways flip
    now and then."""
    for block in model.blocks:
        if isinstance(block, FSLRead) and (cycle // 40) % 2 == 0 \
                and rng.random() < 0.3 and not block.channel.full:
            block.channel.push(rng.getrandbits(32), rng.random() < 0.2)
        elif isinstance(block, FSLWrite) and block.channel.exists \
                and rng.random() < 0.4:
            block.channel.pop()
        elif isinstance(block, GatewayIn) and rng.random() < 0.05:
            block.drive_raw(rng.getrandbits(1))


@needs_gcc
@pytest.mark.parametrize("engine", ["c"])
@pytest.mark.parametrize("design", list(DESIGNS))
def test_busy_bits_match_the_scalar_idle_horizon(engine, design):
    build, can_idle = DESIGNS[design]
    batch = BatchedModel([build(lane) for lane in range(LANES)])
    rngs = [random.Random(f"{design}/{lane}") for lane in range(LANES)]
    seen = set()
    for cycle in range(CYCLES):
        for lane, stop, go in FREEZES:
            if cycle == stop:
                batch.deactivate(lane)
            elif cycle == go:
                batch.activate(lane)
        for lane in batch.lanes:
            _traffic(batch.models[lane], rngs[lane], cycle)
        batch.step(1)
        for lane in batch.lanes:
            batch.write_back(lane)
            want = batch.models[lane].idle_horizon() < IDLE_FOREVER
            got = batch.idle_horizon([lane]) < IDLE_FOREVER
            assert got == want, (
                f"{design} lane {lane} after batch cycle {cycle + 1}: "
                f"busy {got}, scalar busy {want}")
            seen.add(want)
    # a free-running counter keeps a design busy; a design that can
    # idle must visit both answers, or the run shows nothing
    assert seen == ({True, False} if can_idle else {True})


@needs_gcc
def test_delay_lines_let_the_quiet_stretch_arm(monkeypatch):
    # matmul block 2 feeds its multiplier products through delay lines;
    # they sit at a fixed point while the CPU prepares the next block
    params = [dict(block=2, matn=8, seed=s) for s in range(8)]
    skipped = []
    fast_forward = BatchedModel.fast_forward

    def spy(self, cycles):
        skipped.append(cycles * len(self.lanes))
        return fast_forward(self, cycles)

    monkeypatch.setattr(BatchedModel, "fast_forward", spy)
    batch = BatchedCoSimulation([
        lane_factory(lambda prm=prm: build_design("matmul", dict(prm)))
        for prm in params])
    results = batch.run()
    lane_cycles = sum(r.result.cycles for r in results)
    assert sum(skipped) > lane_cycles // 2, (
        f"{sum(skipped)} of {lane_cycles} lane-cycles fast-forwarded")
    for lane, prm in enumerate(params):
        design = build_design("matmul", dict(prm))
        sim = CoSimulation(design.program, design.model, design.mb,
                           cpu_config=design.cpu_config)
        ref = sim.run()
        got = results[lane]
        assert not got.evicted and got.error is None
        assert (got.result.exit_code, got.result.cycles,
                got.result.instructions, got.result.stall_cycles) == (
            ref.exit_code, ref.cycles, ref.instructions, ref.stall_cycles)
        assert batch.lane(lane).state_dict() == sim.state_dict()
