"""Translated basic blocks (``repro.iss.translate``) against the
per-cycle reference: bursts that run generated block functions must
leave the CPU exactly where the same number of ``tick()`` calls does —
after every burst, after a fault, and across self-modifying code."""

import random

import pytest

from repro.apps.cordic import CordicDesign
from repro.asm import assemble, link
from repro.cosim import CoSimulation, MicroBlazeBlock
from repro.cosim.checkpoint import checkpoint_to_dict, restore_from_dict
from repro.isa.encoding import encode
from repro.isa.instructions import BY_MNEMONIC, INSTRUCTION_SET
from repro.iss import BRAM, CPU, CPUConfig, CPUError, HaltReason
from repro.iss import translate
from repro.iss.memory import BusFault
from repro.iss.run import make_cpu
from repro.iss.timing import TimingModel
from repro.mcc import CompileOptions, build_executable
from repro.sysgen import Model
from repro.sysgen.blocks import Inverter, Logical, Shift


def _asm_cpu(body: str, config: CPUConfig | None = None) -> CPU:
    prog = link(assemble(".global _start\n_start:\n" + body))
    return make_cpu(prog, config=config, memory_size=4096)


def _raised_in_block(excinfo) -> bool:
    """Whether the exception passed through a generated block frame."""
    tb = excinfo.tb
    while tb is not None:
        if tb.tb_frame.f_code.co_filename.startswith("<mb32-block"):
            return True
        tb = tb.tb_next
    return False


# ----------------------------------------------------------------------
# Exceptions leave the CPU where _issue leaves it
# ----------------------------------------------------------------------
_PROLOGUE = """
            addik r3, r0, -1
            add   r5, r3, r3          # sets the carry
            swi   r3, r0, 0x800
            lwi   r7, r0, 0x800
"""

FAULT_CASES = {
    "unaligned_load": (_PROLOGUE + "lwi r6, r0, 0x802\n addik r8, r0, 1\n"
                       "bri 0", None, BusFault, True),
    "out_of_range_load": (_PROLOGUE + "lhui r6, r0, 0x7000\n"
                          "addik r8, r0, 1\n bri 0", None, BusFault, True),
    "unmapped_device_store": (_PROLOGUE + "li r12, 0xFFFF0100\n"
                              "sbi r3, r12, 0\n addik r8, r0, 1\n bri 0",
                              None, BusFault, True),
    "mul_without_multiplier": ("addik r3, r0, 6\n addik r4, r0, 7\n"
                               "mul r5, r3, r4\n bri 0",
                               CPUConfig(use_hw_multiplier=False), CPUError,
                               False),
    "undecodable_word": (_PROLOGUE + ".word 0xFFFFFFFF\n bri 0", None,
                         CPUError, False),
}


@pytest.mark.parametrize("case", sorted(FAULT_CASES))
def test_fault_leaves_the_state_tick_leaves(case):
    body, config, error, in_block = FAULT_CASES[case]
    cpu = _asm_cpu(body, config)
    with pytest.raises(error) as burst_exc:
        cpu.burst(1000)
    # translated instructions ran before the fault
    assert cpu._code.blocks.get(0) is not None
    assert _raised_in_block(burst_exc) == in_block
    reference = _asm_cpu(body, config)
    with pytest.raises(error) as tick_exc:
        for _ in range(1000):
            reference.tick()
    assert str(burst_exc.value) == str(tick_exc.value)
    assert cpu.state_dict() == reference.state_dict()


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


def _doubler():
    model = Model("doubler")
    mb = MicroBlazeBlock(model, fifo_depth=4)
    rd, wr = mb.master_fsl(0), mb.slave_fsl(0)
    shl = model.add(Shift("shl", width=32, amount=1, direction="left"))
    notfull = model.add(Inverter("notfull", width=1))
    strobe = model.add(Logical("strobe", width=1, op="and"))
    model.connect(wr.o("full"), notfull.i("a"))
    model.connect(rd.o("exists"), strobe.i("d0"))
    model.connect(notfull.o("out"), strobe.i("d1"))
    model.connect(rd.o("data"), shl.i("a"))
    model.connect(strobe.o("out"), rd.i("read"))
    model.connect(shl.o("s"), wr.i("data"))
    model.connect(strobe.o("out"), wr.i("write"))
    return model, mb


def test_cosim_fault_in_a_block_keeps_the_models_one_cycle_short():
    program = build_executable(FAULTING_SRC, CompileOptions())
    states = {}
    for fast in (False, True):
        model, mb = _doubler()
        sim = CoSimulation(program, model, mb, fast_forward=fast)
        with pytest.raises(BusFault) as excinfo:
            sim.run()
        assert _raised_in_block(excinfo) == fast
        states[fast] = sim.state_dict()
    assert states[True] == states[False]
    assert states[True]["models"][0]["cycle"] == \
        states[True]["cpu"]["cycle"] - 1


# ----------------------------------------------------------------------
# What turns translation off
# ----------------------------------------------------------------------
LOOP = """
            addik r5, r0, 20
loop:       addik r3, r3, 3
            addik r5, r5, -1
            bnei  r5, loop
            li    r12, 0xFFFF0000
            swi   r3, r12, 0
"""


def test_trace_hook_sees_every_instruction():
    cpu = _asm_cpu(LOOP)
    seen = []
    cpu.trace_hook = lambda pc, word: seen.append(pc)
    cpu.run()
    assert cpu.exit_code == 60
    assert len(seen) == cpu.stats.instructions
    assert not cpu._code.blocks


def test_no_translation_without_the_decode_cache():
    cpu = _asm_cpu(LOOP, CPUConfig(decode_cache=False))
    cpu.run()
    reference = _asm_cpu(LOOP)
    reference.run()
    assert not cpu._code.blocks and reference._code.blocks
    assert cpu.state_dict() == reference.state_dict()


# ----------------------------------------------------------------------
# The process-wide cache
# ----------------------------------------------------------------------
def test_shared_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(translate, "_shared", {})
    monkeypatch.setattr(translate, "SHARED_CACHE_LIMIT", 8)
    for value in range(3 * translate.SHARED_CACHE_LIMIT):
        cpu = _asm_cpu(f"addik r3, r0, {value}\n" + LOOP)
        cpu.run()
        assert cpu.exit_code == value + 60
        assert len(translate._shared) <= translate.SHARED_CACHE_LIMIT
    assert len(translate._shared) == translate.SHARED_CACHE_LIMIT


def test_shared_cache_serves_a_second_cpu():
    first = _asm_cpu(LOOP)
    first.run()
    second = _asm_cpu(LOOP)
    second.run()
    assert second._code.blocks[4][0] is first._code.blocks[4][0]
    assert second.state_dict() == first.state_dict()


# ----------------------------------------------------------------------
# One code cache per program text
# ----------------------------------------------------------------------
@pytest.fixture
def scans(monkeypatch) -> list[int]:
    """The pcs ``block_at`` scans from here on, with an empty map of
    shared code caches."""
    from repro.iss import cpu

    monkeypatch.setattr(cpu, "_shared_code", {})
    pcs: list[int] = []
    real = translate.block_at

    def counting(*args):
        pcs.append(args[1])
        return real(*args)

    monkeypatch.setattr(translate, "block_at", counting)
    return pcs


def _cordic_sim(design: CordicDesign) -> CoSimulation:
    return CoSimulation(design.program, *design.fresh_hardware())


def test_a_second_simulation_of_a_program_scans_no_block(scans):
    design = CordicDesign(p=4, iters=8, ndata=4)
    counts, states = [], []
    for _ in range(2):
        scans.clear()
        sim = _cordic_sim(design)
        sim.run()
        counts.append(len(scans))
        states.append(sim.state_dict())
    assert counts[0] > 0 and counts[1] == 0
    assert states[1] == states[0]


def test_reset_and_restore_rejoin_the_shared_cache(scans):
    # Rewriting a text word with its own value moves the CPU onto a
    # private copy; a reset or a checkpoint restore puts it back on the
    # program's shared cache at its next fetch.
    design = CordicDesign(p=4, iters=8, ndata=4)
    sim = _cordic_sim(design)
    sim.run(until=300)
    shared = sim.cpu._code
    assert not shared.private
    doc = checkpoint_to_dict(sim)
    finished = _cordic_sim(design)
    finished.run()

    def leave() -> None:
        mem = sim.cpu.mem
        mem.write_u32(0, mem.read_u32(0))
        assert sim.cpu._code.private

    leave()
    sim.reset()
    sim.run(until=300)
    assert sim.cpu._code is shared
    leave()
    restore_from_dict(sim, doc)
    sim.cpu.resume()
    sim.run()
    assert sim.cpu._code is shared
    assert sim.state_dict() == finished.state_dict()


#: sums the word ``pointer`` points at, 12 times
POINTER_LOOP = """
            .global _start
_start:     addik r5, r0, 12
loop:       lwi   r6, r0, pointer
            lw    r8, r6, r0
            add   r3, r3, r8
            addik r5, r5, -1
            bnei  r5, loop
            li    r12, 0xFFFF0000
            swi   r3, r12, 0
            .data
pointer:    .word 0
value:      .word 5
"""


class _Bus:
    """An OPB bus whose every word reads 7 in 3 cycles."""

    def __init__(self) -> None:
        self.reads: list[int] = []

    def read_u32(self, addr: int) -> tuple[int, int]:
        self.reads.append(addr)
        return 7, 3

    def write_u32(self, addr: int, value: int) -> int:
        return 3


def test_mapping_an_opb_window_leaves_the_shared_cache():
    # The loop's blocks were translated with loads inline while no OPB
    # window was mapped; once one is, a load through the window must
    # reach the bus and pay its latency, as per-cycle execution does.
    prog = link(assemble(POINTER_LOOP))
    pointer, value = prog.symbols["pointer"], prog.symbols["value"]
    window = 0x10000

    def run(config: CPUConfig | None) -> tuple[CPU, _Bus]:
        cpu = make_cpu(prog, config=config, memory_size=4096)
        cpu.mem.write_u32(pointer, value)
        cpu.run(max_cycles=40)
        if config is None:
            assert not cpu._code.private and cpu._code.blocks
        bus = _Bus()
        cpu.mem.map_opb(bus, window, 0x100)
        cpu.mem.write_u32(pointer, window)
        cpu.resume()
        assert cpu.run() is HaltReason.EXIT
        return cpu, bus

    cpu, bus = run(None)
    reference, reference_bus = run(CPUConfig(decode_cache=False))
    assert cpu._code.private
    assert bus.reads and bus.reads == reference_bus.reads
    assert cpu.state_dict() == reference.state_dict()


#: patches, in its first pass, a word it has run and one it has not
SELF_MODIFYING = """
            addik r5, r0, 2
loop:       addik r3, r3, 1
            lwi   r4, r0, patch_b
            swi   r4, r0, later
            lwi   r4, r0, patch_a
            swi   r4, r0, loop
later:      addik r3, r3, 10
            addik r5, r5, -1
            bnei  r5, loop
            li    r12, 0xFFFF0000
            swi   r3, r12, 0
            .data
patch_a:    .word 0x30630064
patch_b:    .word 0x306303E8
"""


def test_threads_sharing_code_stay_exact_and_the_map_bounded(monkeypatch):
    # Threads run CPUs of a self-modifying program (each leaves the
    # shared cache at its first store into the text) beside CPUs of
    # more programs than the map holds, under a short switch interval.
    # Every run must match per-cycle execution, and the map its bound.
    import sys
    import threading

    from repro.iss import cpu as cpu_module

    monkeypatch.setattr(cpu_module, "_shared_code", {})
    monkeypatch.setattr(cpu_module, "SHARED_CODE_LIMIT", 3)
    sources = [SELF_MODIFYING] + [f"addik r3, r0, {v}\n" + LOOP
                                  for v in range(6)]
    want = []
    for body in sources:
        reference = _asm_cpu(body, CPUConfig(decode_cache=False))
        reference.run()
        want.append(reference.state_dict())
    errors: list[str] = []

    def work(index: int) -> None:
        for round_ in range(16):
            which = 0 if (index + round_) % 2 else 1 + (index + round_) % 6
            cpu = _asm_cpu(sources[which])
            cpu.run()
            if cpu.state_dict() != want[which]:
                errors.append(f"thread {index} source {which}")
            if len(cpu_module._shared_code) > cpu_module.SHARED_CODE_LIMIT:
                errors.append("map over its bound")

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


# ----------------------------------------------------------------------
# Seeded differential check over random straight-line/branchy code
# ----------------------------------------------------------------------
_ALU = [s for s in INSTRUCTION_SET
        if s.kind in ("add", "rsub", "logic", "cmp", "shift1", "sext", "bs",
                      "mul", "idiv")]
_MEM = [s for s in INSTRUCTION_SET if s.kind in ("load", "store")]
_BCC = [s for s in INSTRUCTION_SET if s.kind == "bcc"]
_DATA = 0x1000


def _word(mnemonic, **fields):
    return encode(BY_MNEMONIC[mnemonic], **fields)


def _operands(rng, spec):
    fields = {}
    for op in spec.operands:
        if op == "rd":
            fields["rd"] = rng.randrange(13)
        elif op in ("ra", "rb"):
            fields[op] = rng.choice([0, 1, 2, 3, 4, 5, 6, 20])
        elif op == "imm":
            fields["imm"] = (rng.randrange(32) if spec.kind == "bs"
                             else rng.choice([0, 1, -1, 0x7FFF, -0x8000,
                                              rng.randrange(-99, 99)]))
    return fields


def _allowed(spec, config):
    return {"mul": config.use_hw_multiplier, "idiv": config.use_hw_divider,
            "bs": config.use_barrel_shifter}.get(spec.kind, True)


def _random_program(rng, length, config):
    """A loop over random code that runs three times, then exits; r1-r5
    start with random 32-bit values, r20 points at the data area.  A
    few instructions fault or need a unit the configuration lacks."""
    alu = [s for s in _ALU if _allowed(s, config)]

    def alu_word():
        spec = rng.choice(_ALU if rng.random() < 0.02 else alu)
        return encode(spec, **_operands(rng, spec))

    body = []
    while len(body) < length:
        r = rng.random()
        if r < 0.5:
            body.append(alu_word())
        elif r < 0.75:
            spec = rng.choice(_MEM)
            offset = rng.randrange(0x100) & -spec.props["size"]
            if rng.random() < 0.03:
                offset = rng.choice([1, 2, 0x3000])  # a fault
            elif rng.random() < 0.05:
                offset = -_DATA + 4 * rng.randrange(length)  # code
            rd = rng.randrange(13) if spec.kind == "load" else \
                rng.randrange(7)
            if spec.props["imm"]:
                body.append(encode(spec, rd=rd, ra=20, imm=offset))
            else:
                body.append(_word("addik", rd=6, ra=0, imm=offset))
                body.append(encode(spec, rd=rd, ra=20, rb=6))
        elif r < 0.82:
            body.append(_word("imm", imm=rng.randrange(0x10000)))
            body.append(alu_word())
        else:
            spec = rng.choice(_BCC)
            skip = 4 * rng.randrange(2, 5)
            if spec.props["imm"]:
                body.append(encode(spec, ra=rng.randrange(6), imm=skip))
            else:
                body.append(_word("addik", rd=6, ra=0, imm=skip + 4))
                body.append(encode(spec, ra=rng.randrange(6), rb=6))
            if spec.props["delayed"]:
                slot = rng.choice(alu + _MEM)
                body.append(encode(slot, **_operands(rng, slot)))
    prologue = [_word("imm", imm=0), _word("addik", rd=20, ra=0, imm=_DATA),
                _word("addik", rd=21, ra=0, imm=3)]
    for rd in range(1, 6):
        value = rng.getrandbits(32)
        prologue += [_word("imm", imm=value >> 16),
                     _word("addik", rd=rd, ra=0, imm=value & 0xFFFF)]
    back = -4 * (len(body) + 1)
    return (prologue + body
            + [_word("addik", rd=21, ra=21, imm=-1),
               _word("bnei", ra=21, imm=back),
               _word("imm", imm=0xFFFF), _word("addik", rd=12, ra=0, imm=0),
               _word("swi", rd=3, ra=12, imm=0), _word("bri", imm=0)])


def _random_cpu(words, config, data):
    bram = BRAM(8192)
    bram.load(0, b"".join(w.to_bytes(4, "big") for w in words))
    bram.load(_DATA, data)
    return CPU(bram, config=config)


@pytest.mark.parametrize("seed", range(60))
def test_random_programs_match_tick(seed):
    rng = random.Random(seed)
    config = CPUConfig(
        use_hw_multiplier=rng.random() < 0.8,
        use_hw_divider=rng.random() < 0.5,
        use_barrel_shifter=rng.random() < 0.8,
        timing=TimingModel(load=rng.randrange(1, 4),
                           branch_taken=rng.randrange(1, 4),
                           multiply=rng.randrange(1, 4)),
    )
    words = _random_program(rng, rng.randrange(5, 40), config)
    data = bytes(rng.randrange(256) for _ in range(0x200))
    cpu = _random_cpu(words, config, data)
    reference = _random_cpu(words, config, data)
    left = 2000
    while left > 0 and not cpu.halted:
        limit = min(left, rng.randrange(1, 60))
        try:
            n = cpu.burst(limit)
        except (BusFault, CPUError) as exc:
            with pytest.raises(type(exc)):
                for _ in range(limit):
                    reference.tick()
            break
        assert 0 < n <= limit
        for _ in range(n):
            reference.tick()
        assert cpu.state_dict() == reference.state_dict()
        left -= n
    assert cpu.state_dict() == reference.state_dict()
