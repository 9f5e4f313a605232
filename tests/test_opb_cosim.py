"""Co-simulation over the OPB: memory-mapped peripheral registers.

The paper supports attaching customized hardware over the IBM OPB in
addition to FSL; these tests exercise the full path: mini-C pointer
dereferences → CPU load/store → OPB bus transaction (with its higher
latency) → OPB register bank block inside the sysgen model.
"""

import pytest

from repro.bus.opb import OPBBus
from repro.cosim import CoSimulation, MicroBlazeBlock
from repro.iss.run import make_cpu
from repro.mcc import build_executable
from repro.sysgen import Model
from repro.sysgen.blocks import Accumulator, Add, OPBRegisterBank

OPB_BASE = 0x0001_0000


def build_opb_adder():
    """A peripheral computing cmd0 + cmd1 -> sts0, attached over OPB."""
    model = Model("opb_adder")
    bank = model.add(OPBRegisterBank("bank", n_command=2, n_status=1))
    adder = model.add(Add("sum", width=32))
    model.connect(bank.o("cmd0"), adder.i("a"))
    model.connect(bank.o("cmd1"), adder.i("b"))
    model.connect(adder.o("s"), bank.i("sts0"))
    bus = OPBBus()
    bus.attach(OPB_BASE, bank.opb_size, bank)
    return model, bank, bus


SOURCE = f"""
int main(void) {{
    int *cmd = (int *){OPB_BASE};
    int *sts = (int *)({OPB_BASE} + 8);
    int total = 0;
    for (int i = 1; i <= 4; i++) {{
        cmd[0] = i * 10;
        cmd[1] = i;
        /* wait a couple of bus transactions for the result register */
        int v = sts[0];
        v = sts[0];
        total += v;
    }}
    return total;   /* (10+1)+(20+2)+(30+3)+(40+4) = 110 */
}}
"""


class TestOPBRegisterBank:
    def test_slave_protocol(self):
        _, bank, _ = build_opb_adder()
        bank.opb_write(0, 7)
        bank.opb_write(4, 8)
        assert bank.opb_read(0) == 7
        assert bank.opb_read(4) == 8
        with pytest.raises(IndexError):
            bank.opb_write(8, 1)  # status register is read-only

    def test_model_sees_command_registers(self):
        model, bank, _ = build_opb_adder()
        bank.opb_write(0, 30)
        bank.opb_write(4, 12)
        model.step(2)
        assert bank.opb_read(8) == 42  # sts0 latched the adder output

    def test_wr_count_strobe(self):
        model, bank, _ = build_opb_adder()
        bank.opb_write(0, 1)
        bank.opb_write(4, 2)
        model.step()
        assert bank.out_value("wr_count") == 2

    def test_resources_nonzero(self):
        _, bank, _ = build_opb_adder()
        assert bank.resources().slices > 0


class TestOPBCoSimulation:
    def build_sim(self):
        model, bank, bus = build_opb_adder()
        mb = MicroBlazeBlock(model)  # no FSLs used; provides the ports
        program = build_executable(SOURCE)
        sim = CoSimulation(program, model, mb)
        sim.cpu.mem.map_opb(bus, OPB_BASE, bank.opb_size)
        return sim, bus

    def test_end_to_end(self):
        sim, _ = self.build_sim()
        result = sim.run()
        assert result.exit_code == 110

    def test_opb_latency_charged(self):
        sim, bus = self.build_sim()
        result = sim.run()
        # each OPB transaction costs READ/WRITE_LATENCY instead of the
        # 2-cycle LMB access; verify the bus saw the traffic
        assert bus.writes == 8   # 2 command writes x 4 iterations
        assert bus.reads == 8    # 2 status reads  x 4 iterations

    def test_opb_slower_than_lmb(self):
        """The same loop against plain BRAM completes in fewer cycles
        than against 3-cycle OPB registers."""
        sim, _ = self.build_sim()
        opb_cycles = sim.run().cycles

        lmb_src = SOURCE.replace(f"(int *){OPB_BASE}", "(int *)0x2000") \
                        .replace(f"(int *)({OPB_BASE} + 8)", "(int *)0x2000")
        program = build_executable(lmb_src)
        cpu = make_cpu(program, memory_size=0x4000)
        cpu.run()
        assert opb_cycles > cpu.cycle

    def test_window_validation(self):
        sim, bus = self.build_sim()
        with pytest.raises(ValueError):
            sim.cpu.mem.map_opb(bus, 0x10, 16)  # overlaps BRAM


POLL_SOURCE = f"""
int main(void) {{
    int *cmd = (int *){OPB_BASE};
    int *sts = (int *)({OPB_BASE} + 8);
    int polls = 0;
    for (int i = 1; i <= 3; i++) {{
        cmd[0] = i;                 /* the accumulator adds i per cycle */
        while (sts[0] < 50 * i * i) polls++;
        cmd[1] = polls;
    }}
    cmd[0] = 0;
    return polls;
}}
"""


class TestOPBPolling:
    """A load from a status register the hardware rewrites every cycle
    is as observable as a store: a run that lets the CPU read ahead of
    the hardware polls a different number of times."""

    def build_sim(self, **kwargs):
        model = Model("opb_accumulator")
        bank = model.add(OPBRegisterBank("bank", n_command=2, n_status=1))
        acc = model.add(Accumulator("acc", width=32))
        model.connect(bank.o("cmd0"), acc.i("d"))
        model.connect(acc.o("q"), bank.i("sts0"))
        bus = OPBBus()
        bus.attach(OPB_BASE, bank.opb_size, bank)
        sim = CoSimulation(build_executable(POLL_SOURCE), model,
                           MicroBlazeBlock(model), **kwargs)
        sim.cpu.mem.map_opb(bus, OPB_BASE, bank.opb_size)
        return sim, bank

    def test_polling_loop_agrees_with_per_cycle(self):
        runs = {}
        for mode, kwargs in (("per_cycle", {"fast_forward": False}),
                             ("default", {})):
            sim, bank = self.build_sim(**kwargs)
            result = sim.run()
            runs[mode] = (result.exit_code, result.cycles,
                          result.instructions, list(sim.cpu.regs),
                          bank.out_value("wr_count"), sim.state_dict())
        assert runs["per_cycle"][0] > 3  # the loop really polled
        assert runs["default"] == runs["per_cycle"]
