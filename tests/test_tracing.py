"""Tests for instruction and FSL transaction tracing."""

import pytest

from repro.apps.cordic.design import CordicDesign
from repro.cosim.environment import CoSimulation
from repro.cosim.multicpu import CPUNode, MultiCoSimulation
from repro.cosim.topology import TopologySpec
from repro.cosim.trace import FSLTrace
from repro.iss.run import make_cpu
from repro.iss.trace import InstructionTracer
from repro.mcc import build_executable

LOOP_SRC = """
int main(void) {
    int sum = 0;
    for (int i = 0; i < 10; i++) sum += i;
    return sum;
}
"""


class TestInstructionTracer:
    def test_records_entries(self):
        cpu = make_cpu(build_executable(LOOP_SRC))
        tracer = InstructionTracer(cpu).install()
        cpu.run()
        assert cpu.exit_code == 45
        assert len(tracer.entries) == cpu.stats.instructions
        assert tracer.entries[0].pc == 0  # _start
        assert "addik" in tracer.text(last=100)

    def test_limit_bounds_memory(self):
        cpu = make_cpu(build_executable(LOOP_SRC))
        tracer = InstructionTracer(cpu, limit=5).install()
        cpu.run()
        assert len(tracer.entries) == 5
        # the histogram still counts everything
        assert sum(tracer.pc_histogram.values()) == cpu.stats.instructions

    def test_hottest_finds_the_loop(self):
        cpu = make_cpu(build_executable(LOOP_SRC))
        tracer = InstructionTracer(cpu, limit=0).install()
        cpu.run()
        hottest_pc, count = tracer.hottest(1)[0]
        assert count >= 10  # executed once per loop iteration

    def test_double_install_rejected(self):
        cpu = make_cpu(build_executable(LOOP_SRC))
        InstructionTracer(cpu).install()
        with pytest.raises(RuntimeError):
            InstructionTracer(cpu).install()

    def test_uninstall(self):
        cpu = make_cpu(build_executable(LOOP_SRC))
        tracer = InstructionTracer(cpu).install()
        tracer.uninstall()
        cpu.run()
        assert tracer.entries == []


class TestFSLTrace:
    def make_traced_run(self):
        design = CordicDesign(p=2, iters=4, ndata=2)
        sim = CoSimulation(design.program, design.model, design.mb,
                           cpu_config=design.cpu_config)
        trace = FSLTrace(design.mb, clock=lambda: sim.cpu.cycle).install()
        result = sim.run()
        assert result.exit_code == 0
        return design, trace

    def test_transactions_recorded(self):
        design, trace = self.make_traced_run()
        # 2 passes x 2 data x 3 words + 2 control words pushed to HW
        to_hw = trace.for_channel("mb_out0")
        pushes = [t for t in to_hw if t.direction == "push"]
        assert len(pushes) == 2 * (2 * 3 + 1)
        controls = [t for t in pushes if t.control]
        assert len(controls) == 2  # one C0 per pass

    def test_push_pop_balance(self):
        _, trace = self.make_traced_run()
        for name in ("mb_out0", "mb_in0"):
            events = trace.for_channel(name)
            pushes = sum(1 for t in events if t.direction == "push")
            pops = sum(1 for t in events if t.direction == "pop")
            assert pushes == pops  # everything produced was consumed

    def test_occupancy_never_negative_or_over_depth(self):
        design, trace = self.make_traced_run()
        for name in ("mb_out0", "mb_in0"):
            for _cycle, depth in trace.occupancy_timeline(name):
                assert 0 <= depth <= design.fifo_depth

    def test_cycles_monotone(self):
        _, trace = self.make_traced_run()
        cycles = [t.cycle for t in trace.transactions]
        assert cycles == sorted(cycles)

    def test_text_rendering(self):
        _, trace = self.make_traced_run()
        text = trace.text(last=5)
        assert "mb_" in text

    def test_install_uses_public_channels_accessor(self):
        """FSLTrace subscribes to exactly the channels
        MicroBlazeBlock.channels() exposes — both directions, no
        private-dict reach-ins."""
        design = CordicDesign(p=2, iters=4, ndata=2)
        channels = design.mb.channels()
        assert {ch.name for ch in channels} == {"mb_out0", "mb_in0"}
        trace = FSLTrace(design.mb, clock=lambda: 0).install()
        for ch in channels:
            # install() attaches an event bus to every public channel
            assert ch.events is not None
            assert ch.events.subscriber_count >= 1
        assert set(design.mb.channel_occupancies()) == \
            {ch.name for ch in channels}
        assert trace.transactions == []

    def test_uninstall_stops_recording(self):
        design = CordicDesign(p=2, iters=4, ndata=2)
        sim = CoSimulation(design.program, design.model, design.mb,
                           cpu_config=design.cpu_config)
        trace = FSLTrace(design.mb, clock=lambda: sim.cpu.cycle).install()
        trace.uninstall()
        sim.run()
        assert trace.transactions == []


class TestFSLTraceStampsCycles:
    """An FSLTrace without telemetry puts its own bus on the channels;
    the default kernel must then stamp every transaction with the cycle
    the per-cycle loop stamps it with."""

    def test_single_cpu_matches_per_cycle(self):
        runs = {}
        for fast in (False, True):
            design = CordicDesign(p=2, iters=4, ndata=4)
            sim = CoSimulation(design.program, design.model, design.mb,
                               cpu_config=design.cpu_config,
                               fast_forward=fast)
            trace = FSLTrace(design.mb,
                             clock=lambda sim=sim: sim.cpu.cycle).install()
            assert sim.run().exit_code == 0
            runs[fast] = trace.transactions
        assert runs[True] == runs[False]
        assert any(t.channel == "mb_in0" for t in runs[False])

    def test_last_cpu_of_a_topology_matches_per_cycle(self):
        # cpu0 exits at once, so cpu1 runs alone with its hardware; the
        # trace reads the global clock.
        design = CordicDesign(p=2, iters=4, ndata=4)
        short = build_executable("int main(void) { return 0; }")
        runs = {}
        for fast in (False, True):
            nodes = [CPUNode(program=short)]
            model, mb = design.fresh_hardware()
            nodes.append(CPUNode(program=design.program,
                                 cpu_config=design.cpu_config,
                                 model=model, mb_block=mb))
            sim = MultiCoSimulation(nodes, TopologySpec("custom", 2),
                                    fast_forward=fast)
            trace = FSLTrace(sim, clock=lambda sim=sim: sim.cycle).install()
            assert sim.run().exit_code == 0
            runs[fast] = trace.transactions
        assert runs[True] == runs[False]
        assert any(t.channel == "mb_in0" for t in runs[False])
