"""One run-ahead rule for both drivers: a scalar ``CoSimulation.run()``
and a width-1 lane of a template batch take the same per-CPU steps
(bursts, parks and single ticks) and end in the same CPU state."""

import collections

import pytest

from repro.apps.cordic.design import CordicDesign
from repro.cosim import CoSimulation
from repro.cosim.batch import BatchedCoSimulation
from repro.iss.cpu import CPU
from repro.mcc import CompileOptions, build_executable
from tests.conftest import needs_gcc
from tests.test_cosim import doubler_design

PAIRS_SRC = """
int main(void) {
    int sum = 0;
    for (int i = 0; i < 40; i++) {
        putfsl(i, 0);
        sum += getfsl(0);
    }
    return sum & 0xff;
}
"""

#: never reads back: once both FIFOs fill, the CPU waits on a put while
#: the hardware rests, so it parks until the cycle budget
FLOOD_SRC = """
int main(void) {
    for (int i = 0; i < 40; i++) {
        putfsl(i, 0);
    }
    return 0;
}
"""


def _doubler(latency, source=PAIRS_SRC, fifo_depth=16, budget=None):
    program = build_executable(source, CompileOptions())

    def hardware():
        return doubler_design(fifo_depth=fifo_depth, extra_latency=latency)

    return program, hardware, None, budget


def _cordic():
    design = CordicDesign(p=4, ndata=8)
    return design.program, design.fresh_hardware, design.cpu_config, None


CASES = {
    "doubler-latency0": lambda: _doubler(0),
    "doubler-latency3": lambda: _doubler(3),
    "doubler-latency12": lambda: _doubler(12),
    "doubler-flood": lambda: _doubler(3, FLOOD_SRC, fifo_depth=4,
                                      budget=3_000),
    "cordic-p4": _cordic,
}


@pytest.fixture
def cpu_calls(monkeypatch):
    """Count every ``CPU.burst``, ``CPU.advance`` and ``CPU.tick`` call
    (a burst's own ticks included)."""
    counts = collections.Counter()
    for name in ("burst", "advance", "tick"):
        def counted(self, *args, _call=getattr(CPU, name), _name=name):
            counts[_name] += 1
            return _call(self, *args)
        monkeypatch.setattr(CPU, name, counted)
    return counts


@needs_gcc
@pytest.mark.parametrize("case", sorted(CASES))
def test_scalar_run_and_width1_lane_take_the_same_steps(case, cpu_calls):
    program, hardware, cpu_config, budget = CASES[case]()

    sim = CoSimulation(program, *hardware(), cpu_config=cpu_config)
    cpu_calls.clear()
    scalar = sim.run(until=budget)
    scalar_calls = dict(cpu_calls)

    batch = BatchedCoSimulation.from_template(
        program, hardware, 1, cpu_config=cpu_config)
    cpu_calls.clear()
    [lane] = batch.run(until=budget)
    lane_calls = dict(cpu_calls)

    assert not lane.evicted
    assert lane.result.exit_code == scalar.exit_code
    assert batch.sims[0].cpu.state_dict() == sim.cpu.state_dict()
    assert lane_calls == scalar_calls
