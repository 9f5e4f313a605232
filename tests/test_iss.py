"""Tests for the cycle-accurate instruction-set simulator."""

from types import SimpleNamespace

import pytest

from repro.asm import assemble, link
from repro.bus.fsl import FSLChannel
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.iss import BRAM, CPU, CPUConfig, CPUError, HaltReason
from repro.iss.run import make_cpu, run_to_completion


def asm_cpu(body: str, config: CPUConfig | None = None, mem: int = 4096) -> CPU:
    """Assemble a bare program (no crt0) and build a CPU for it."""
    source = ".global _start\n_start:\n" + body
    prog = link(assemble(source))
    bram = BRAM(mem)
    prog.load_into(bram)
    cpu = CPU(bram, config=config)
    return cpu


def run_instrs(cpu: CPU, n: int, max_cycles: int = 1000) -> None:
    """Tick until ``n`` instructions have issued."""
    for _ in range(max_cycles):
        if cpu.stats.instructions >= n and not cpu.busy:
            return
        cpu.tick()
    raise AssertionError("instruction budget not reached")


class TestArithmetic:
    def test_add_basic(self):
        cpu = asm_cpu(
            """
            addik r3, r0, 5
            addik r4, r0, 7
            add   r5, r3, r4
            """
        )
        run_instrs(cpu, 3)
        assert cpu.regs[5] == 12

    def test_r0_is_zero(self):
        cpu = asm_cpu("addik r0, r0, 99\n add r3, r0, r0")
        run_instrs(cpu, 2)
        assert cpu.regs[0] == 0
        assert cpu.regs[3] == 0

    def test_carry_chain(self):
        # 0xFFFFFFFF + 1 = 0 carry 1; addc picks up the carry.
        cpu = asm_cpu(
            """
            addik r3, r0, -1
            addik r4, r0, 1
            add   r5, r3, r4
            addc  r6, r0, r0
            """
        )
        run_instrs(cpu, 4)
        assert cpu.regs[5] == 0
        assert cpu.regs[6] == 1

    def test_addk_keeps_carry(self):
        cpu = asm_cpu(
            """
            addik r3, r0, -1
            add   r4, r3, r3      # sets carry
            addk  r5, r0, r0      # keeps carry
            addc  r6, r0, r0      # consumes carry -> 1
            """
        )
        run_instrs(cpu, 4)
        assert cpu.regs[6] == 1

    def test_rsub(self):
        cpu = asm_cpu(
            """
            addik r3, r0, 10
            addik r4, r0, 3
            rsubk r5, r4, r3      # r5 = r3 - r4 = 7
            """
        )
        run_instrs(cpu, 3)
        assert cpu.regs[5] == 7

    def test_cmp_signed(self):
        cpu = asm_cpu(
            """
            addik r3, r0, -5
            addik r4, r0, 3
            cmp   r5, r3, r4      # ra=-5 > rb=3 ? no -> MSB clear
            cmp   r6, r4, r3      # ra=3 > rb=-5 ? yes -> MSB set
            """
        )
        run_instrs(cpu, 4)
        assert cpu.regs[5] >> 31 == 0
        assert cpu.regs[6] >> 31 == 1

    def test_cmpu_unsigned(self):
        cpu = asm_cpu(
            """
            addik r3, r0, -1      # 0xFFFFFFFF unsigned max
            addik r4, r0, 1
            cmpu  r5, r3, r4      # 0xFFFFFFFF > 1 -> MSB set
            """
        )
        run_instrs(cpu, 3)
        assert cpu.regs[5] >> 31 == 1

    def test_mul(self):
        cpu = asm_cpu("addik r3, r0, 6\n addik r4, r0, 7\n mul r5, r3, r4")
        run_instrs(cpu, 3)
        assert cpu.regs[5] == 42

    def test_muli_negative(self):
        cpu = asm_cpu("addik r3, r0, -4\n muli r5, r3, 3")
        run_instrs(cpu, 2)
        assert cpu.regs[5] == (-12) & 0xFFFFFFFF

    def test_mul_requires_hw_multiplier(self):
        cfg = CPUConfig(use_hw_multiplier=False)
        cpu = asm_cpu("mul r3, r0, r0", config=cfg)
        with pytest.raises(CPUError):
            run_instrs(cpu, 1)

    def test_idiv(self):
        cfg = CPUConfig(use_hw_divider=True)
        cpu = asm_cpu(
            """
            addik r3, r0, 7       # divisor
            addik r4, r0, -23     # dividend
            idiv  r5, r3, r4      # r5 = r4 / r3 = -3 (trunc)
            """,
            config=cfg,
        )
        run_instrs(cpu, 3)
        assert cpu.regs[5] == (-3) & 0xFFFFFFFF

    def test_idiv_by_zero_gives_zero(self):
        cfg = CPUConfig(use_hw_divider=True)
        cpu = asm_cpu("addik r4, r0, 9\n idiv r5, r0, r4", config=cfg)
        run_instrs(cpu, 2)
        assert cpu.regs[5] == 0


class TestShiftsAndLogic:
    def test_barrel_shifts(self):
        cpu = asm_cpu(
            """
            addik r3, r0, -16
            bsrai r4, r3, 2       # arithmetic -> -4
            bsrli r5, r3, 28      # logical    -> 0xF
            bslli r6, r3, 1       # -32
            """
        )
        run_instrs(cpu, 4)
        assert cpu.regs[4] == (-4) & 0xFFFFFFFF
        assert cpu.regs[5] == 0xF
        assert cpu.regs[6] == (-32) & 0xFFFFFFFF

    def test_shift1_and_carry(self):
        cpu = asm_cpu(
            """
            addik r3, r0, 5
            srl   r4, r3          # 2, carry=1
            addc  r5, r0, r0      # r5 = 1
            """
        )
        run_instrs(cpu, 3)
        assert cpu.regs[4] == 2
        assert cpu.regs[5] == 1

    def test_sra_preserves_sign(self):
        cpu = asm_cpu("addik r3, r0, -8\n sra r4, r3")
        run_instrs(cpu, 2)
        assert cpu.regs[4] == (-4) & 0xFFFFFFFF

    def test_src_shifts_in_carry(self):
        cpu = asm_cpu(
            """
            addik r3, r0, -1
            add   r4, r3, r3      # carry out = 1
            addik r5, r0, 0
            src   r6, r5          # shifts carry into MSB
            """
        )
        run_instrs(cpu, 4)
        assert cpu.regs[6] == 0x80000000

    def test_logic_ops(self):
        cpu = asm_cpu(
            """
            addik r3, r0, 0xF0
            addik r4, r0, 0x3C
            and   r5, r3, r4
            or    r6, r3, r4
            xor   r7, r3, r4
            andn  r8, r3, r4
            """
        )
        run_instrs(cpu, 6)
        assert cpu.regs[5] == 0x30
        assert cpu.regs[6] == 0xFC
        assert cpu.regs[7] == 0xCC
        assert cpu.regs[8] == 0xC0

    def test_sext(self):
        cpu = asm_cpu(
            """
            addik r3, r0, 0x80
            sext8 r4, r3
            addik r5, r0, 0x7FFF
            sext16 r6, r5
            """
        )
        run_instrs(cpu, 4)
        assert cpu.regs[4] == 0xFFFFFF80
        assert cpu.regs[6] == 0x7FFF


class TestMemoryAndImm:
    def test_store_load(self):
        cpu = asm_cpu(
            """
            addik r3, r0, 1234
            swi   r3, r0, 0x100
            lwi   r4, r0, 0x100
            """
        )
        run_instrs(cpu, 3)
        assert cpu.regs[4] == 1234

    def test_byte_half_access(self):
        cpu = asm_cpu(
            """
            addik r3, r0, 0xAB
            sbi   r3, r0, 0x101
            lbui  r4, r0, 0x101
            addik r5, r0, 0x1234
            shi   r5, r0, 0x102
            lhui  r6, r0, 0x102
            """
        )
        run_instrs(cpu, 6)
        assert cpu.regs[4] == 0xAB
        assert cpu.regs[6] == 0x1234

    def test_reg_indexed_access(self):
        cpu = asm_cpu(
            """
            addik r3, r0, 0x200
            addik r4, r0, 4
            addik r5, r0, 77
            sw    r5, r3, r4
            lw    r6, r3, r4
            """
        )
        run_instrs(cpu, 5)
        assert cpu.regs[6] == 77

    def test_imm_prefix_forms_32bit(self):
        cpu = asm_cpu(
            """
            imm   0x1234
            addik r3, r0, 0x5678
            """
        )
        run_instrs(cpu, 2)
        assert cpu.regs[3] == 0x12345678

    def test_imm_applies_to_next_only(self):
        cpu = asm_cpu(
            """
            imm   0xFFFF
            addik r3, r0, 0
            addik r4, r0, 1
            """
        )
        run_instrs(cpu, 3)
        assert cpu.regs[3] == 0xFFFF0000
        assert cpu.regs[4] == 1


class TestBranches:
    def test_taken_conditional(self):
        cpu = asm_cpu(
            """
            addik r3, r0, 0
            beqi  r3, target
            addik r4, r0, 99      # skipped
target:     addik r5, r0, 1
            """
        )
        run_instrs(cpu, 3)
        assert cpu.regs[4] == 0
        assert cpu.regs[5] == 1

    def test_not_taken(self):
        cpu = asm_cpu(
            """
            addik r3, r0, 1
            beqi  r3, skip
            addik r4, r0, 42
skip:       nop
            """
        )
        run_instrs(cpu, 4)
        assert cpu.regs[4] == 42

    def test_delay_slot_executes(self):
        cpu = asm_cpu(
            """
            addik r3, r0, 1
            bneid r3, target
            addik r4, r0, 7       # delay slot: executes
            addik r4, r0, 99      # skipped
target:     nop
            """
        )
        run_instrs(cpu, 4)
        assert cpu.regs[4] == 7

    def test_call_and_return(self):
        cpu = asm_cpu(
            """
            brlid r15, func
            nop
            addik r4, r0, 21      # after return
done:       bri   0
func:       addik r3, r0, 10
            rtsd  r15, 8
            nop
            """
        )
        run_instrs(cpu, 7, max_cycles=100)
        assert cpu.regs[3] == 10
        assert cpu.regs[4] == 21

    def test_loop_counts(self):
        cpu = asm_cpu(
            """
            addik r3, r0, 5
            addik r4, r0, 0
loop:       addik r4, r4, 1
            addik r3, r3, -1
            bnei  r3, loop
            """
        )
        run_instrs(cpu, 2 + 3 * 5, max_cycles=200)
        assert cpu.regs[4] == 5

    def test_branch_in_delay_slot_rejected(self):
        cpu = asm_cpu(
            """
            brid  next
            bri   0
next:       nop
            """
        )
        with pytest.raises(CPUError):
            for _ in range(10):
                cpu.tick()


class TestTiming:
    def test_single_cycle_alu(self):
        cpu = asm_cpu("addik r3, r0, 1\n addik r4, r0, 2")
        cpu.tick()
        assert cpu.stats.instructions == 1
        cpu.tick()
        assert cpu.stats.instructions == 2

    def test_mul_takes_three_cycles(self):
        cpu = asm_cpu("mul r3, r0, r0\n addik r4, r0, 1")
        cpu.tick()
        assert cpu.stats.instructions == 1
        cpu.tick()
        cpu.tick()
        assert cpu.stats.instructions == 1  # still busy
        cpu.tick()
        assert cpu.stats.instructions == 2

    def test_load_takes_two_cycles(self):
        cpu = asm_cpu("lwi r3, r0, 0x100\n addik r4, r0, 1")
        cpu.tick()
        cpu.tick()
        assert cpu.stats.instructions == 1
        cpu.tick()
        assert cpu.stats.instructions == 2

    def test_taken_branch_three_cycles(self):
        cpu = asm_cpu("bri next\nnext: addik r3, r0, 1")
        cpu.tick()
        cpu.tick()
        cpu.tick()
        assert cpu.stats.instructions == 1
        cpu.tick()
        assert cpu.regs[3] == 1

    def test_delayed_branch_two_cycles_total(self):
        # brid (1 cycle) + delay-slot addik (1 cycle) = 2 cycles.
        cpu = asm_cpu(
            """
            brid  next
            addik r3, r0, 5
next:       addik r4, r0, 1
            """
        )
        cpu.tick()  # brid
        cpu.tick()  # delay slot
        assert cpu.regs[3] == 5
        assert cpu.stats.cycles == 2
        cpu.tick()
        assert cpu.regs[4] == 1


class TestFSL:
    def make_fsl_cpu(self, body, depth=16):
        cpu = asm_cpu(body)
        to_hw = FSLChannel(depth=depth, name="to_hw")
        from_hw = FSLChannel(depth=depth, name="from_hw")
        cpu.fsl.connect_output(0, to_hw)
        cpu.fsl.connect_input(0, from_hw)
        return cpu, to_hw, from_hw

    def test_put_pushes_word(self):
        cpu, to_hw, _ = self.make_fsl_cpu("addik r3, r0, 55\n put r3, rfsl0")
        run_instrs(cpu, 2)
        word = to_hw.pop()
        assert word.data == 55
        assert word.control is False

    def test_cput_sets_control(self):
        cpu, to_hw, _ = self.make_fsl_cpu("addik r3, r0, 9\n cput r3, rfsl0")
        run_instrs(cpu, 2)
        assert to_hw.pop().control is True

    def test_get_reads_word(self):
        cpu, _, from_hw = self.make_fsl_cpu("get r3, rfsl0")
        from_hw.push(1234)
        run_instrs(cpu, 1)
        assert cpu.regs[3] == 1234

    def test_blocking_get_stalls_until_data(self):
        cpu, _, from_hw = self.make_fsl_cpu("get r3, rfsl0\n addik r4, r0, 1")
        for _ in range(10):
            cpu.tick()
        assert cpu.regs[3] == 0  # still stalled
        assert cpu.stats.stall_cycles > 0
        from_hw.push(42)
        for _ in range(3):
            cpu.tick()
        assert cpu.regs[3] == 42

    def test_blocking_put_stalls_when_full(self):
        cpu, to_hw, _ = self.make_fsl_cpu(
            "addik r3, r0, 1\n put r3, rfsl0\n put r3, rfsl0\n addik r4, r0, 9",
            depth=1,
        )
        for _ in range(12):
            cpu.tick()
        assert cpu.regs[4] == 0  # second put blocked
        to_hw.pop()
        for _ in range(4):
            cpu.tick()
        assert cpu.regs[4] == 9

    def test_nonblocking_get_sets_carry_on_empty(self):
        cpu, _, _ = self.make_fsl_cpu(
            "nget r3, rfsl0\n addc r4, r0, r0"  # r4 = carry
        )
        run_instrs(cpu, 2)
        assert cpu.regs[4] == 1

    def test_nonblocking_get_clears_carry_on_success(self):
        cpu, _, from_hw = self.make_fsl_cpu("nget r3, rfsl0\n addc r4, r0, r0")
        from_hw.push(7)
        run_instrs(cpu, 2)
        assert cpu.regs[3] == 7
        assert cpu.regs[4] == 0

    def test_control_mismatch_sets_error(self):
        cpu, _, from_hw = self.make_fsl_cpu("get r3, rfsl0")
        from_hw.push(7, control=True)  # data get, control word arrives
        run_instrs(cpu, 1)
        assert cpu.fsl.error is True

    def test_fsl_takes_two_cycles_minimum(self):
        cpu, _, from_hw = self.make_fsl_cpu("get r3, rfsl0")
        from_hw.push(5)
        cpu.tick()
        assert cpu.regs[3] == 0
        cpu.tick()
        assert cpu.regs[3] == 5
        assert cpu.stats.cycles == 2


class TestHaltAndRun:
    def test_exit_device(self):
        source = """
            .global _start
_start:     addik r3, r0, 7
            li    r12, 0xFFFF0000
            swi   r3, r12, 0
        """
        prog = link(assemble(source))
        code, cpu = run_to_completion(prog)
        assert code == 7
        assert cpu.halt_reason is HaltReason.EXIT

    def test_max_cycles(self):
        prog = link(assemble(".global _start\n_start: bri 0"))
        cpu = make_cpu(prog)
        reason = cpu.run(max_cycles=50)
        assert reason is HaltReason.MAX_CYCLES

    def test_breakpoint(self):
        source = """
            .global _start
_start:     addik r3, r0, 1
stop_here:  addik r3, r3, 1
            bri   0
        """
        prog = link(assemble(source))
        cpu = make_cpu(prog)
        cpu.breakpoints.add(prog.symbols["stop_here"])
        cpu.run(max_cycles=100)
        assert cpu.halt_reason is HaltReason.BREAKPOINT
        assert cpu.regs[3] == 1
        cpu.resume()
        cpu.breakpoints.clear()
        cpu.run(max_cycles=10)
        assert cpu.regs[3] == 2

    def test_console_device(self):
        source = """
            .global _start
_start:     addik r3, r0, 'H'
            li    r12, 0xFFFF0004
            swi   r3, r12, 0
            addik r3, r0, 'i'
            swi   r3, r12, 0
            addik r3, r0, 0
            li    r12, 0xFFFF0000
            swi   r3, r12, 0
        """
        prog = link(assemble(source))
        code, cpu = run_to_completion(prog)
        assert code == 0
        assert cpu.mem.console.text == "Hi"

    def test_decode_cache_invalidation_on_store(self):
        # Self-modifying code inside one translated block: on the first
        # pass the block patches a word it has already run (A) and one
        # it has not reached yet (B); the second pass must run both
        # patched words.  Bursts run translated blocks, so this fails if
        # a store into decoded code does not drop them and leave the
        # running block at once.
        source = """
            .global _start
_start:     addik r5, r0, 2
loop:       addik r3, r3, 1          # A: +1, then +100
            lwi   r4, r0, patch_b
            swi   r4, r0, later
            lwi   r4, r0, patch_a
            swi   r4, r0, loop
later:      addik r3, r3, 10         # B: patched before it first runs
            addik r5, r5, -1
            bnei  r5, loop
            li    r12, 0xFFFF0000
            swi   r3, r12, 0
            .data
patch_a:    .word 0x30630064         # addik r3, r3, 100
patch_b:    .word 0x306303E8         # addik r3, r3, 1000
        """
        prog = link(assemble(source))
        code, cpu = run_to_completion(prog)
        assert code == 1 + 1000 + 100 + 1000
        reference = make_cpu(prog)
        while not reference.halted:
            reference.tick()
        assert cpu.state_dict() == reference.state_dict()

    def test_decode_cache_invalidation_on_fault_flip(self):
        # A bit flip injected into a code word of a block that has
        # already run translated: the remaining iterations must run the
        # flipped word (+3), as per-cycle execution does.
        source = """
            .global _start
_start:     addik r5, r0, 4
loop:       addik r3, r3, 1          # bit 1 of the immediate flips
            addik r5, r5, -1
            bnei  r5, loop
            li    r12, 0xFFFF0000
            swi   r3, r12, 0
        """
        prog = link(assemble(source))
        flip = FaultSpec("mem_flip", cycle=1,
                         index=prog.symbols["loop"] // 4, bit=1)
        two_passes = 1 + 2 * 5  # addik, then two 5-cycle iterations
        cpu = make_cpu(prog)
        cpu.run(max_cycles=two_passes)
        assert cpu.pc == prog.symbols["loop"] and cpu._code.blocks[cpu.pc]
        FaultInjector(SimpleNamespace(cpu=cpu), FaultPlan())._mem_flip(flip)
        cpu.resume()
        assert cpu.run() is HaltReason.EXIT
        assert cpu.exit_code == 1 + 1 + 3 + 3
        reference = make_cpu(prog)
        for _ in range(two_passes):
            reference.tick()
        FaultInjector(SimpleNamespace(cpu=reference),
                      FaultPlan())._mem_flip(flip)
        while not reference.halted:
            reference.tick()
        assert cpu.state_dict() == reference.state_dict()

    def test_simulated_time(self):
        prog = link(assemble(".global _start\n_start: bri 0"))
        cpu = make_cpu(prog)
        cpu.run(max_cycles=500)
        assert cpu.simulated_time_s() == pytest.approx(500 / 50e6)
