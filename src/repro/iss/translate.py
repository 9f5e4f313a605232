"""Translated execution of MB32 basic blocks.

:meth:`CPU.burst <repro.iss.cpu.CPU.burst>` runs the processor alone
for many cycles per call, so dispatching every instruction through
:meth:`CPU._issue <repro.iss.cpu.CPU._issue>` (a chain over 17
instruction kinds) is the ISS's main cost there.  This module removes
that dispatch the way :mod:`repro.sysgen.compiled` removes per-block
dispatch from the hardware schedule: on the first entry to a pc it
generates one python function for the basic block there, and the burst
then runs the whole block in one call.

A block function updates registers, carry, ``cycle``, ``_busy``, ``pc``
and every ``stats`` counter in bulk, exactly as the same number of
:meth:`~repro.iss.cpu.CPU.tick` calls would (``tick``/``_issue`` remain
the reference).  The rules that keep it exact:

* **Extent.**  A block ends at an FSL instruction (its issue is the
  block's last act) or at a branch.  A taken delayed branch includes its
  slot; a delayed branch whose slot is not a plain ALU op is left to
  ``_issue``.  A block ends *before* a word that fails to decode, an
  instruction the configuration disallows (``_issue`` then raises as
  usual) and, when an OPB window is mapped, any load or store, so every
  block's latency is static (the window is read at translation, and
  mapping one drops the CPU's blocks).  A block never ends between an
  ``imm`` and its consumer.
* **Entry.**  The burst enters a block only from a clean state (not
  busy, no pending FSL, no ``imm`` latch, not in a delay slot) and only
  when the block's longest path fits the remaining burst budget, so
  every stop (watchdog, checkpoint, fault) lands on the same cycle as
  per-cycle execution.
* **Stores.**  After each store the block checks the exit device and
  the CPU's code generation (bumped when a store hits decoded code) and
  leaves at once if either changed.
* **Exceptions.**  A load or store that raises leaves the CPU exactly as
  ``_issue`` would: the block settles the cycle, counters, ``pc`` and
  carry of the faulting instruction from a static table, then re-raises.

Registers stay in ``cpu.regs``; they always hold unsigned 32-bit
values, which the generated expressions rely on (``r0`` reads fold to
0).  A CPU looks its blocks up in its code cache
(:class:`~repro.iss.cpu.SharedCode`), which every CPU running one
program text shares, so a block of a text is scanned once per process,
within the cache's range only (``block_at(..., end)``); its ``stop``
bounds the words a store must miss for the block to stay cached.
Functions take the CPU as an argument, so one translation also serves
different programs that hold the same words at the same address: a
bounded process-wide cache keyed by content (address, words, timing,
optional units, memory mode) keeps them, which matters when a process
runs a new program per job or per generated test.
"""

from __future__ import annotations

import threading
from collections import Counter

from repro.isa.decoder import DecodedInstr
from repro.iss.cpu import CPUError, HaltReason, _PendingFSL
from repro.iss.memory import AddressSpace, BRAM

_M32 = 0xFFFFFFFF

#: most instructions one block holds; straight-line code beyond it
#: continues in the next block
MAX_BLOCK_INSTRUCTIONS = 64

#: most translations the process-wide cache keeps (a few KB each); the
#: oldest are evicted first (long-lived workers see a new program per job)
SHARED_CACHE_LIMIT = 1024

#: kinds a delay slot may hold for its branch to be translated
_SLOT_KINDS = frozenset(
    ("add", "rsub", "logic", "cmp", "shift1", "sext", "bs", "mul", "idiv"))
_BRANCH_KINDS = frozenset(("bcc", "br", "rtsd"))

_shared: dict[tuple, tuple] = {}
_shared_lock = threading.Lock()


def block_at(cpu, pc: int, end: int) -> tuple | None:
    """The translation of the block at ``pc`` as ``(function, span,
    stop)``, ``span`` being the cycles of its longest path and the
    block's words lying in ``[pc, stop)``; ``None`` when the
    instruction at ``pc`` must issue through ``_issue``.  The block
    reads no word at or past ``end`` (a block shared by the CPUs
    running one program text must depend on that text alone)."""
    timing = cpu.config.timing
    mem = cpu.mem
    if (type(mem) is not AddressSpace or type(mem.bram) is not BRAM
            or min(vars(timing).values()) < 1):
        return None
    # loads and stores translate only while every access has a static
    # latency and BRAM addresses cannot reach a device
    inline_mem = (mem._opb is None
                  and mem.bram.size <= AddressSpace.DEVICE_BASE)
    body, slot = _scan(cpu, pc, inline_mem, min(end, mem.bram.size))
    if not body:
        return None
    cfg = cpu.config
    words = tuple(i.word for i in body)
    if slot is not None:
        words += (slot.word,)
    key = (pc, words, timing, cfg.use_hw_multiplier,
           cfg.use_barrel_shifter, cfg.use_hw_divider, inline_mem)
    block = _shared.get(key)
    if block is None:
        block = _compile(pc, body, slot, timing) + (pc + 4 * len(words),)
        with _shared_lock:
            while len(_shared) >= SHARED_CACHE_LIMIT:
                del _shared[next(iter(_shared))]
            _shared[key] = block
    return block


# ----------------------------------------------------------------------
# Block extent
# ----------------------------------------------------------------------
def _allowed(instr: DecodedInstr, cfg, inline_mem: bool) -> bool:
    kind = instr.spec.kind
    if kind == "mul":
        return cfg.use_hw_multiplier
    if kind == "bs":
        return cfg.use_barrel_shifter
    if kind == "idiv":
        return cfg.use_hw_divider
    if kind == "load" or kind == "store":
        return inline_mem
    return True


def _decoded(cpu, addr: int, end: int) -> DecodedInstr | None:
    """The decoded word at ``addr`` (through the CPU's decode cache),
    or ``None`` at or past ``end`` or when it does not decode."""
    if addr + 4 > end:
        return None
    try:
        return cpu._fetch(addr)
    except CPUError:
        return None


def _scan(cpu, pc: int, inline_mem: bool, end: int):
    """The block's instructions and, for a delayed branch, its slot;
    no word at or past ``end`` is read."""
    cfg = cpu.config
    body: list[DecodedInstr] = []
    addr = pc
    while len(body) < MAX_BLOCK_INSTRUCTIONS:
        instr = _decoded(cpu, addr, end)
        if instr is None or not _allowed(instr, cfg, inline_mem):
            break
        spec = instr.spec
        if spec.kind in _BRANCH_KINDS:
            if spec.kind == "rtsd" or spec.props.get("delayed"):
                slot = _decoded(cpu, addr + 4, end)
                if (slot is None or slot.spec.kind not in _SLOT_KINDS
                        or not _allowed(slot, cfg, inline_mem)):
                    break
                return body + [instr], slot
            return body + [instr], None
        body.append(instr)
        if spec.kind == "fsl":
            return body, None
        addr += 4
    while body and body[-1].spec.kind == "imm":
        body.pop()  # never split an imm from its consumer
    return body, None


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------
def _r(n: int) -> str:
    return f"regs[{n}]" if n else "0"


def _signed(expr: str) -> str:
    return f"({expr} - 0x100000000 if {expr} & 0x80000000 else {expr})"


class _Gen:
    """Emits one block function, tracking the static bookkeeping (issue
    offset, counts, mnemonic mix) of the path emitted so far."""

    def __init__(self, timing) -> None:
        self.timing = timing
        self.lines: list[str] = []
        self.tables: list[tuple] = []
        self.offset = 0  # cycles from entry to the next issue
        self.count = 0
        self.mnemonics: Counter = Counter()
        self.loads = 0
        self.stores = 0
        self.latch: int | None = None
        self.uses_carry = False
        self.span = 0

    # -- helpers ---------------------------------------------------------
    def put(self, line: str, indent: int = 1) -> None:
        self.lines.append("    " * indent + line)

    def table(self, row: tuple) -> str:
        self.tables.append(row)
        return f"_T{len(self.tables) - 1}"

    def row(self, ticks: int, last: int, taken: int = 0,
            not_taken: int = 0) -> tuple:
        """A :func:`_retire` row for the path emitted so far: ``ticks``
        cycles after entry, the last issue ``last`` cycles after it."""
        return (ticks, ticks - last, self.count,
                tuple(self.mnemonics.items()), self.loads, self.stores,
                taken, not_taken)

    def settle(self, pc: int, busy: int) -> str:
        """A :func:`_settle` table entry as of the issue of the
        instruction just counted."""
        issued = self.offset + 1
        return self.table((self.row(issued, issued), pc, busy))

    def issue(self, instr: DecodedInstr) -> int:
        """Count ``instr`` and return its effective immediate."""
        spec = instr.spec
        self.count += 1
        self.mnemonics[spec.mnemonic] += 1
        imm = 0
        if spec.fmt == "B":
            imm = instr.imm
            if self.latch is not None:
                imm = ((self.latch << 16) | (instr.imm & 0xFFFF)) & _M32
                imm = imm - 0x100000000 if imm & 0x80000000 else imm
        self.latch = (instr.imm & 0xFFFF) if spec.kind == "imm" else None
        return imm

    def finish(self, indent: int, ticks: int, last: int, pc: str,
               taken: int = 0, not_taken: int = 0) -> None:
        """A normal exit ``ticks`` cycles after entry, the last issue
        ``last`` cycles after entry.  ``ticks`` includes the last
        instruction's whole latency, so the pipeline is idle on exit."""
        self.span = max(self.span, ticks)
        if self.uses_carry:
            self.put("cpu.carry = c", indent)
        self.put(f"cpu.pc = {pc}", indent)
        row = self.table(self.row(ticks, last, taken, not_taken))
        self.put(f"return _retire(cpu, {row})", indent)

    # -- instructions ----------------------------------------------------
    def alu(self, instr: DecodedInstr, imm: int, indent: int = 1) -> None:
        """Plain register/immediate operations (the delay-slot kinds
        and ``imm``)."""
        put = self.put
        spec = instr.spec
        kind = spec.kind
        p = spec.props
        rd, a = instr.rd, _r(instr.ra)
        b = str(imm & _M32) if p.get("imm") else _r(instr.rb)
        if kind in ("add", "rsub"):
            cin = p.get("carry_in")
            if cin:
                self.uses_carry = True
            if kind == "add":
                total = f"{a} + {b}" + (" + c" if cin else "")
            else:
                total = f"{b} + (~{a} & 0xFFFFFFFF)" + (
                    " + c" if cin else " + 1")
            if p.get("keep_carry"):
                if rd and kind == "add" and not cin and "0" in (a, b):
                    # a move: both operands are already 32-bit values
                    put(f"regs[{rd}] = {b if a == '0' else a}", indent)
                elif rd:
                    put(f"regs[{rd}] = ({total}) & 0xFFFFFFFF", indent)
            else:
                self.uses_carry = True
                put(f"t = {total}", indent)
                if rd:
                    put(f"regs[{rd}] = t & 0xFFFFFFFF", indent)
                put("c = t >> 32", indent)
        elif kind == "logic":
            op = p["op"]
            if rd:
                expr = {"or": f"{a} | {b}", "and": f"{a} & {b}",
                        "xor": f"{a} ^ {b}",
                        "andn": f"{a} & (~{b} & 0xFFFFFFFF)"}[op]
                put(f"regs[{rd}] = {expr}", indent)
        elif kind == "cmp":
            if rd:
                b = _r(instr.rb)
                put(f"a = {a}", indent)
                put(f"b = {b}", indent)
                put("t = (b - a) & 0xFFFFFFFF", indent)
                gt = ("(a ^ 0x80000000) > (b ^ 0x80000000)"
                      if p["signed"] else "a > b")
                put(f"regs[{rd}] = t | 0x80000000 if {gt} "
                    "else t & 0x7FFFFFFF", indent)
        elif kind == "shift1":
            self.uses_carry = True
            op = p["op"]
            put(f"a = {a}", indent)
            if rd:
                expr = {"sra": "(a >> 1) | (a & 0x80000000)",
                        "src": "(a >> 1) | (c << 31)",
                        "srl": "a >> 1"}[op]
                put(f"regs[{rd}] = {expr}", indent)
            put("c = a & 1", indent)
        elif kind == "sext":
            if rd:
                bits = p["bits"]
                low, sign = (0xFF, 0x80) if bits == 8 else (0xFFFF, 0x8000)
                put(f"a = {a}", indent)
                put(f"regs[{rd}] = ((a & {low:#x}) | ({_M32 & ~low:#x} "
                    f"if a & {sign:#x} else 0)) & 0xFFFFFFFF", indent)
        elif kind == "bs":
            if rd:
                amount = (str(imm & 31) if p.get("imm")
                          else f"({_r(instr.rb)} & 31)")
                if p["dir"] == "left":
                    expr = f"({a} << {amount}) & 0xFFFFFFFF"
                elif p["arith"]:
                    put(f"a = {a}", indent)
                    expr = f"({_signed('a')} >> {amount}) & 0xFFFFFFFF"
                else:
                    expr = f"{a} >> {amount}"
                put(f"regs[{rd}] = {expr}", indent)
        elif kind == "mul":
            if rd:
                put(f"regs[{rd}] = ({a} * {b}) & 0xFFFFFFFF", indent)
        elif kind == "idiv":
            if rd:
                signed = p["signed"]
                ra, rb = _r(instr.ra), _r(instr.rb)
                put(f"a = {ra}", indent)
                put(f"b = {rb}", indent)
                put(f"den = {_signed('a') if signed else 'a'}", indent)
                put(f"num = {_signed('b') if signed else 'b'}", indent)
                put("if den == 0:", indent)
                put(f"regs[{rd}] = 0", indent + 1)
                put("else:", indent)
                put("q = abs(num) // abs(den)", indent + 1)
                put("if (num < 0) != (den < 0):", indent + 1)
                put("q = -q", indent + 2)
                put(f"regs[{rd}] = q & 0xFFFFFFFF", indent + 1)
        elif kind != "imm":  # pragma: no cover - guarded by _scan
            raise AssertionError(f"untranslatable kind {kind!r}")

    def memory(self, addr: int, instr: DecodedInstr, imm: int) -> None:
        put = self.put
        spec = instr.spec
        p = spec.props
        size = p["size"]
        base = _r(instr.ra)
        off = str(imm) if p.get("imm") else _r(instr.rb)
        put(f"a = {base}" if off == "0"
            else f"a = ({base} + {off}) & 0xFFFFFFFF")
        inline = {1: "a < n", 2: "a < n and not a & 1",
                  4: "a < n and not a & 3"}[size]
        rd = instr.rd
        fault = self.settle(addr, 0)
        carry = "c" if self.uses_carry else "None"
        if spec.kind == "load":
            slow = f"_load(cpu, mem.read_u{size * 8}, a, {fault}, {carry})"
            if rd:
                fast = {1: "mb[a]", 2: "(mb[a] << 8) | mb[a + 1]",
                        4: "int.from_bytes(mb[a:a + 4], 'big')"}[size]
                put(f"regs[{rd}] = {fast} if {inline} else {slow}")
            else:
                put(f"if not ({inline}):")
                put(slow, 2)
            self.loads += 1
            return
        value = _r(rd)
        put(f"if {inline}:")
        put({1: f"mb[a] = {value} & 0xFF",
             2: f"mb[a:a + 2] = ({value} & 0xFFFF).to_bytes(2, 'big')",
             4: f"mb[a:a + 4] = ({value} & 0xFFFFFFFF).to_bytes(4, 'big')",
             }[size], 2)
        put("if hook is not None:", 2)
        put("hook(a)", 3)
        put("else:")
        put(f"_store(cpu, mem.write_u{size * 8}, a, {value}, {fault}, "
            f"{carry})", 2)
        self.stores += 1
        leave = self.settle((addr + 4) & _M32, self.timing.store - 1)
        put("if exit_device.exit_code is not None or cpu._code_gen != gen:")
        put(f"return _leave(cpu, {leave}, {carry})", 2)

    def branch(self, addr: int, instr: DecodedInstr, imm: int,
               slot: DecodedInstr | None) -> None:
        put = self.put
        timing = self.timing
        spec = instr.spec
        kind = spec.kind
        p = spec.props
        delayed = kind == "rtsd" or bool(p.get("delayed"))
        issue_at = self.offset
        if kind == "rtsd":
            put(f"tgt = ({_r(instr.ra)} + {imm}) & 0xFFFFFFFF")
            target = "tgt"
        elif p.get("imm"):
            target = str(imm & _M32 if p.get("absolute")
                         else (addr + imm) & _M32)
        else:
            off = _signed(_r(instr.rb))
            put(f"tgt = {off} & 0xFFFFFFFF" if p.get("absolute")
                else f"tgt = ({addr} + {off}) & 0xFFFFFFFF")
            target = "tgt"
        indent = 1
        if kind == "bcc":
            x = _r(instr.ra)
            cond = {"eq": f"{x} == 0", "ne": f"{x} != 0",
                    "lt": f"{x} & 0x80000000",
                    "le": f"{x} == 0 or {x} & 0x80000000",
                    "gt": f"0 < {x} < 0x80000000",
                    "ge": f"{x} < 0x80000000"}[p["cond"]]
            # not taken: the branch alone
            put(f"if not ({cond}):")
            ticks = issue_at + timing.branch_not_taken
            self.finish(2, ticks, issue_at + 1, str((addr + 4) & _M32),
                        not_taken=1)
        elif p.get("link") and instr.rd:
            put(f"regs[{instr.rd}] = {addr}")
        taken = timing.taken_cost(delayed)
        if slot is None:
            self.finish(indent, issue_at + taken, issue_at + 1, target,
                        taken=1)
            return
        # the delay slot issues once the branch's own cost is paid
        self.offset = issue_at + taken
        self.alu(slot, self.issue(slot), indent)
        slot_cost = timing.base_cost(slot)
        self.finish(indent, self.offset + slot_cost, self.offset + 1,
                    target, taken=1)

    def fsl(self, addr: int, instr: DecodedInstr) -> None:
        p = instr.spec.props
        self.put(f"cpu._pending = _PendingFSL({bool(p['put'])}, "
                 f"{instr.fsl_id}, {bool(p['control'])}, "
                 f"{bool(p['blocking'])}, {instr.rd}, {_r(instr.ra)})")
        self.put(f"cpu._pending_next_pc = {(addr + 4) & _M32}")
        self.finish(1, self.offset + 1, self.offset + 1, str(addr))


def _compile(pc: int, body: list[DecodedInstr], slot, timing) -> tuple:
    gen = _Gen(timing)
    addr = pc
    last = len(body) - 1
    for index, instr in enumerate(body):
        kind = instr.spec.kind
        imm = gen.issue(instr)
        if kind in _BRANCH_KINDS:
            gen.branch(addr, instr, imm, slot)
            break
        if kind == "fsl":
            gen.fsl(addr, instr)
            break
        if kind == "load" or kind == "store":
            gen.memory(addr, instr, imm)
        else:
            gen.alu(instr, imm)
        cost = timing.base_cost(instr)
        if index == last:
            gen.finish(1, gen.offset + cost, gen.offset + 1,
                       str((addr + 4) & _M32))
        gen.offset += cost
        addr += 4
    head = ["def _block(cpu):"]
    if any("regs[" in line for line in gen.lines):
        head.append("    regs = cpu.regs")
    if gen.uses_carry:
        head.append("    c = cpu.carry")
    if gen.loads or gen.stores:
        head += ["    mem = cpu.mem", "    mb = mem.bram._mem", "    n = len(mb)"]
    if gen.stores:
        head += ["    hook = mem.write_hook",
                 "    exit_device = mem.exit_device",
                 "    gen = cpu._code_gen"]
    source = "\n".join(head + gen.lines) + "\n"
    ns = {"_PendingFSL": _PendingFSL, "_retire": _retire, "_load": _load,
          "_store": _store, "_leave": _leave}
    for i, row in enumerate(gen.tables):
        ns[f"_T{i}"] = row
    exec(compile(source, f"<mb32-block {pc:#x}>", "exec"), ns)  # noqa: S102
    return ns["_block"], gen.span


# ----------------------------------------------------------------------
# Out-of-line exits
# ----------------------------------------------------------------------
def _retire(cpu, row: tuple) -> int:
    """Bulk bookkeeping of one block path (see ``_Gen.row``); returns
    the ticks it covers."""
    ticks, back, count, mnemonics, loads, stores, taken, not_taken = row
    cycle = cpu.cycle + ticks
    cpu.cycle = cycle
    stats = cpu.stats
    stats.cycles += ticks
    stats.instructions += count
    stats.last_retire_cycle = cycle - back
    by_mnemonic = stats.by_mnemonic
    for mnemonic, n in mnemonics:
        by_mnemonic[mnemonic] += n
    if loads:
        stats.loads += loads
    if stores:
        stats.stores += stores
    if taken:
        stats.branches_taken += 1
    elif not_taken:
        stats.branches_not_taken += 1
    return ticks


def _settle(cpu, entry: tuple, carry: int | None) -> int:
    """Leave the CPU as of one instruction's issue: ``entry`` is a
    :func:`_retire` row plus that point's pc and busy cycles."""
    row, pc, busy = entry
    if carry is not None:
        cpu.carry = carry
    cpu.pc = pc
    cpu._busy = busy
    return _retire(cpu, row)


def _load(cpu, read, addr: int, fault: tuple, carry: int | None) -> int:
    """A load off the inline BRAM path (devices, faults)."""
    try:
        return read(addr)
    except BaseException:
        _settle(cpu, fault, carry)
        raise


def _store(cpu, write, addr: int, value: int, fault: tuple,
           carry: int | None) -> None:
    """A store off the inline BRAM path (devices, faults)."""
    try:
        write(addr, value)
    except BaseException:
        _settle(cpu, fault, carry)
        raise


def _leave(cpu, entry: tuple, carry: int | None) -> int:
    """Leave after a store that reached the exit device or decoded
    code: settle, then halt as ``_issue`` does on an exit store."""
    ticks = _settle(cpu, entry, carry)
    code = cpu.mem.exit_device.exit_code
    if code is not None:
        cpu.exit_code = code
        cpu.halted = True
        cpu.halt_reason = HaltReason.EXIT
    return ticks
