"""MB32 cycle-accurate CPU core.

The CPU advances one clock cycle per :meth:`CPU.tick`.  A multi-cycle
instruction occupies the pipeline for its full latency; blocking FSL
accesses stall the processor cycle-by-cycle until the FIFO can serve
them, exactly as Section III-B of the paper describes ("blocking read
or write will stall the MicroBlaze processor until the read or write
can occur").

Architectural notes
-------------------
* ``r0`` reads as zero; writes to it are discarded.
* The carry flag models MSR[C]; ``addk``-style instructions keep it.
* The ``imm`` prefix latches the upper 16 immediate bits for exactly
  the next instruction.
* Delay-slot branches execute the following instruction before the
  transfer; putting a branch or ``imm``-consumer hazard in a delay slot
  is rejected (undefined on real hardware).
* Register writebacks are applied on the first cycle of an instruction
  while the cost is charged over its full latency.  Only FSL and MMIO
  effects are externally observable, and FSL transfers are applied on
  their architecturally correct cycle (the instruction's second cycle),
  so co-simulation interleaving remains cycle-accurate at the interface
  level — the abstraction the paper defines as "high-level
  cycle-accurate".

Execution paths
---------------
:meth:`CPU.tick` (one cycle, dispatching each issue through
:meth:`CPU._issue`) is the reference.  :meth:`CPU.burst`, which
:meth:`CPU.run`, the co-simulation kernel and the lanes of a batched
co-simulation use to run the CPU alone between hardware couplings,
runs whole basic blocks as generated python
functions (:mod:`repro.iss.translate`) and falls back to ``tick`` for
everything a block cannot express exactly: pending FSL transfers,
``imm``-latched or delay-slot states, a block longer than the remaining
budget, breakpoints, a ``trace_hook`` or an event bus.  Translation is
part of the decode cache (it relies on the cache's write hook to drop
blocks a store overwrites), so ``CPUConfig(decode_cache=False)`` turns
both off.  The per-cycle loop, runs with an event bus or
``verify_fast_forward`` and gdb keep stepping through ``tick``.  CPUs
running one program text (a batch's lanes) may share their decodes and
translations of it (:class:`SharedCode`).
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from typing import Callable

from repro.isa.decoder import DecodedInstr, decode
from repro.iss.fsl import FSLPorts
from repro.iss.memory import AddressSpace, BRAM
from repro.iss.statistics import CPUStats
from repro.iss.timing import TimingModel
from repro.telemetry.events import (
    CPU_TRACK,
    RETIRE,
    STALL_BEGIN,
    STALL_END,
    TelemetryEvent,
)

_M32 = 0xFFFFFFFF
_SIGN = 0x80000000

#: Sentinel returned by :meth:`CPU.advance_horizon` when the processor
#: is blocked on an FSL access that cannot complete until the other
#: endpoint acts — it can be bulk-advanced for as long as the FIFOs
#: stay frozen.
ADVANCE_FOREVER = 1 << 62

#: instruction kinds that access memory, and so any OPB-mapped registers
_MEMORY_KINDS = frozenset(("load", "store"))

#: ``_blocks`` marker for a pc not looked at yet
_UNTRANSLATED = object()


class SharedCode:
    """Decoded words and translated blocks of one program text, shared
    by the CPUs that run it (the lanes of a batch).

    Every entry is a function of the memory words in ``[0, text_end)``
    and of the CPUs' configuration alone, so it may only be shared by
    CPUs whose memory held the same words there when they joined
    (:meth:`CPU.share_code`) and that have not written that range
    since: a CPU that does drops out and keeps private caches from then
    on.  Fetches outside the range never use the shared maps.
    """

    __slots__ = ("text_end", "decoded", "blocks")

    def __init__(self, text_end: int):
        self.text_end = text_end
        self.decoded: dict[int, DecodedInstr] = {}
        self.blocks: dict[int, tuple | None] = {}


def _s32(v: int) -> int:
    """Interpret a u32 as signed."""
    return v - 0x100000000 if v & _SIGN else v


class CPUError(RuntimeError):
    """Raised on architectural violations (bad delay slot, missing
    optional hardware, decode failures)."""


class HaltReason(enum.Enum):
    EXIT = "exit"  # program stored to the exit device
    BREAKPOINT = "breakpoint"
    MAX_CYCLES = "max_cycles"


@dataclass(frozen=True)
class CPUConfig:
    """Soft-processor configuration knobs.

    These model the MicroBlaze configurability the paper's design-space
    exploration ranges over: optional hardware multiplier, divider and
    barrel shifter, and the FSL link count.
    """

    use_hw_multiplier: bool = True
    use_hw_divider: bool = False
    use_barrel_shifter: bool = True
    decode_cache: bool = True
    timing: TimingModel = field(default_factory=TimingModel)
    frequency_hz: float = 50e6  # the paper's 50 MHz configuration


@dataclass
class _PendingFSL:
    put: bool
    channel: int
    control: bool
    blocking: bool
    rd: int
    value: int  # value to put (put side)


class CPU:
    """The MB32 processor model."""

    def __init__(
        self,
        memory: AddressSpace | BRAM,
        config: CPUConfig | None = None,
        fsl: FSLPorts | None = None,
    ):
        if isinstance(memory, BRAM):
            memory = AddressSpace(memory)
        self.mem = memory
        self.config = config or CPUConfig()
        self.fsl = fsl or FSLPorts()
        self.regs = [0] * 32
        self.pc = 0
        self.carry = 0
        self.imm_latch: int | None = None
        self.cycle = 0
        self.halted = False
        self.halt_reason: HaltReason | None = None
        self.exit_code: int | None = None
        self.stats = CPUStats()
        self.breakpoints: set[int] = set()
        self._busy = 0
        self._pending: _PendingFSL | None = None
        self._pending_next_pc = 0
        self._delay_target: int | None = None
        self._in_delay_slot = False
        self._decode_cache: dict[int, DecodedInstr] = {}
        #: translated blocks by pc (None: issue through _issue), part of
        #: the decode cache; see :mod:`repro.iss.translate`
        self._blocks: dict[int, tuple | None] | None = (
            {} if self.config.decode_cache else None)
        #: bumped when a store hits decoded code, so a running block
        #: can tell that the words after the store may have changed
        self._code_gen = 0
        #: the decodes and translations this CPU shares with others
        #: running the same text, behind its own (see share_code)
        self._shared: SharedCode | None = None
        #: optional callback (pc, instruction word) on every issue
        self.trace_hook = None
        #: optional :class:`~repro.telemetry.events.EventBus`; when set,
        #: the CPU emits retire and stall begin/end events
        self.events = None
        #: telemetry track retire events land on — multi-CPU simulations
        #: rename this per processor (``cpu0``, ``cpu1``, …) so exported
        #: traces keep one timeline per core
        self.track = CPU_TRACK
        self._stall_since: int | None = None
        if self.config.decode_cache:
            self.mem.write_hook = self._invalidator()

    # ------------------------------------------------------------------
    # Public control
    # ------------------------------------------------------------------
    def reset(self, pc: int = 0) -> None:
        self.regs = [0] * 32
        self.pc = pc
        self.carry = 0
        self.imm_latch = None
        self.cycle = 0
        self.halted = False
        self.halt_reason = None
        self.exit_code = None
        self._busy = 0
        self._pending = None
        self._pending_next_pc = 0
        self._delay_target = None
        self._in_delay_slot = False
        self._stall_since = None
        self._clear_caches()
        self.stats.reset()
        self.fsl.error = False  # MSR[FSL] from a previous run must not leak
        self.mem.reset_devices()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Full architectural + microarchitectural state, JSON-safe.

        Wiring (breakpoints, hooks, event bus) and caches (the decode
        cache) are excluded: they are re-created by construction or
        rebuilt on demand and do not affect observable behaviour.
        """
        pend = self._pending
        return {
            "regs": list(self.regs),
            "pc": self.pc,
            "carry": self.carry,
            "imm_latch": self.imm_latch,
            "cycle": self.cycle,
            "halted": self.halted,
            "halt_reason": self.halt_reason.value if self.halt_reason else None,
            "exit_code": self.exit_code,
            "busy": self._busy,
            "pending": None if pend is None else {
                "put": pend.put,
                "channel": pend.channel,
                "control": pend.control,
                "blocking": pend.blocking,
                "rd": pend.rd,
                "value": pend.value,
            },
            "pending_next_pc": self._pending_next_pc,
            "delay_target": self._delay_target,
            "in_delay_slot": self._in_delay_slot,
            "stall_since": self._stall_since,
            "stats": self.stats.state_dict(),
            "fsl": self.fsl.state_dict(),
            "mem": self.mem.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        self.regs[:] = state["regs"]
        self.pc = state["pc"]
        self.carry = state["carry"]
        self.imm_latch = state["imm_latch"]
        self.cycle = state["cycle"]
        self.halted = state["halted"]
        self.halt_reason = (
            HaltReason(state["halt_reason"]) if state["halt_reason"] else None
        )
        self.exit_code = state["exit_code"]
        self._busy = state["busy"]
        pend = state["pending"]
        self._pending = None if pend is None else _PendingFSL(**pend)
        self._pending_next_pc = state["pending_next_pc"]
        self._delay_target = state["delay_target"]
        self._in_delay_slot = state["in_delay_slot"]
        self._stall_since = state["stall_since"]
        self.stats.load_state(state["stats"])
        self.fsl.load_state(state["fsl"])
        self.mem.load_state(state["mem"])
        self._clear_caches()

    def tick(self) -> None:
        """Advance the processor by exactly one clock cycle."""
        if self.halted:
            return
        self.cycle += 1
        self.stats.cycles += 1
        if self._busy > 0:
            self._busy -= 1
            return
        if self._pending is not None:
            self._complete_fsl()
            return
        if self.breakpoints and self.pc in self.breakpoints and not self._in_delay_slot:
            self.cycle -= 1
            self.stats.cycles -= 1
            self.halted = True
            self.halt_reason = HaltReason.BREAKPOINT
            return
        self._issue()

    def run(self, max_cycles: int = 10_000_000) -> HaltReason:
        """Run until halt (or ``max_cycles``).  This is the fast path
        used for software-only simulation (Table II): back-to-back
        bursts, each opening with the tick of a pending FSL transfer."""
        left = max_cycles
        while left > 0 and not self.halted:
            left -= self.burst(left)
        if not self.halted:
            self.halted = True
            self.halt_reason = HaltReason.MAX_CYCLES
        assert self.halt_reason is not None
        return self.halt_reason

    def resume(self) -> None:
        """Clear a breakpoint/max-cycles halt so execution can continue."""
        if self.halt_reason in (HaltReason.BREAKPOINT, HaltReason.MAX_CYCLES):
            self.halted = False
            self.halt_reason = None

    # ------------------------------------------------------------------
    # Bursts (the CPU alone between hardware couplings)
    # ------------------------------------------------------------------
    def couples(self, memory: bool = False) -> bool:
        """Whether the next :meth:`tick` may touch the hardware: it
        completes a pending FSL transfer or, with ``memory``, issues a
        load or store (or an instruction not yet in the decode cache,
        whose kind is unknown until fetched)."""
        if self._busy:
            return False
        if self._pending is not None:
            return True
        if not memory:
            return False
        instr = self._decode_cache.get(self.pc)
        if instr is None and self._shared is not None:
            instr = self._shared.decoded.get(self.pc)
        return instr is None or instr.spec.kind in _MEMORY_KINDS

    def burst(self, limit: int, memory: bool = False) -> int:
        """Run alone for up to ``limit`` cycles; return the cycles run.

        The first tick is unconditional: it may complete a pending FSL
        transfer or (with ``memory``) issue a load or store, so the
        caller must have brought the hardware up to date first.  After
        it, the burst stops before any tick that :meth:`couples`, when
        the CPU halts, or at ``limit``.  Instruction latency is retired
        in bulk.  Equivalent to that many :meth:`tick` calls; a
        breakpoint halt counts as one, as it does for a per-cycle loop.

        With the decode cache on, the burst runs whole basic blocks as
        translated functions (:mod:`repro.iss.translate`) whenever the
        CPU is in a clean state and the block's longest path fits the
        remaining budget; everything else, and any run with breakpoints,
        a ``trace_hook`` or an event bus, goes through :meth:`tick`,
        which stays the reference.  A block in the text of a
        :class:`SharedCode` (:meth:`share_code`) is translated once for
        every CPU sharing it.

        Callers: :meth:`run` back to back, and the run-ahead rule
        (:func:`repro.cosim.environment.run_ahead`) that the scalar
        co-simulation kernel and every lane of a batched co-simulation
        share: it bursts a CPU that can run, then catches its hardware
        up, to one cycle short of the CPU when a tick raises (the tick
        has counted its cycle).
        """
        ticks = 0
        stats = self.stats
        blocks = self._blocks
        if self.breakpoints or self.trace_hook is not None \
                or self.events is not None:
            blocks = None
        while ticks < limit and not self.halted:
            busy = self._busy
            if busy:
                if busy > limit - ticks:
                    busy = limit - ticks
                self._busy -= busy
                self.cycle += busy
                stats.cycles += busy
                ticks += busy
                continue
            if ticks and self.couples(memory):
                break
            if (blocks is not None and self._pending is None
                    and self.imm_latch is None and not self._in_delay_slot):
                pc = self.pc
                block = blocks.get(pc, _UNTRANSLATED)
                if block is _UNTRANSLATED:
                    block = blocks[pc] = self._translate(pc)
                if block is not None and block[1] <= limit - ticks:
                    ticks += block[0](self)
                    continue
            self.tick()
            ticks += 1
        return ticks

    # ------------------------------------------------------------------
    # Fast-forward (bulk cycle retirement)
    # ------------------------------------------------------------------
    def advance_horizon(self) -> int:
        """Cycles :meth:`advance` may retire in bulk right now, assuming
        the FSL FIFOs do not change in the meantime.

        Positive while the pipeline is occupied by a multi-cycle
        instruction (the remaining latency) or blocked on an FSL access
        that cannot currently complete (:data:`ADVANCE_FOREVER`).  Zero
        whenever the next cycle would issue an instruction — issuing has
        externally visible effects, so it must go through :meth:`tick`.
        """
        if self.halted:
            return 0
        if self._busy > 0:
            return self._busy
        pend = self._pending
        if pend is not None and pend.blocking:
            if pend.put:
                if self.fsl.output_full(pend.channel):
                    return ADVANCE_FOREVER
            elif not self.fsl.input_exists(pend.channel):
                return ADVANCE_FOREVER
        return 0

    def advance(self, n: int) -> None:
        """Retire ``n`` stall/busy cycles in one step.

        Equivalent to ``n`` consecutive :meth:`tick` calls under the
        caller-guaranteed precondition ``n <= advance_horizon()`` (and
        unchanged FIFOs): ``cycle``, ``stats.cycles``,
        ``stats.stall_cycles`` and the per-channel reject counters all
        end up exactly as a per-cycle run would leave them.
        """
        if n <= 0 or self.halted:
            return
        if self._busy > 0:
            if n > self._busy:
                raise CPUError(
                    f"advance({n}) exceeds remaining instruction latency "
                    f"({self._busy})"
                )
            self._busy -= n
            self.cycle += n
            self.stats.cycles += n
            return
        pend = self._pending
        if pend is not None and pend.blocking:
            # Mirror per-cycle retries: each skipped cycle would have
            # attempted the transfer and been rejected by the FIFO.
            if pend.put:
                channel = self.fsl._output(pend.channel)
                if channel.can_push():
                    raise CPUError(
                        "advance() while the blocked FSL put could complete"
                    )
                channel.push_rejects += n
            else:
                channel = self.fsl._input(pend.channel)
                if channel.can_pop():
                    raise CPUError(
                        "advance() while the blocked FSL get could complete"
                    )
                channel.pop_rejects += n
            if self.events is not None and self._stall_since is None:
                # First skipped cycle = the cycle the first per-cycle
                # retry would have run at, so event timelines match
                # across execution modes.
                self._emit_stall_begin(pend, self.cycle + 1)
            self.cycle += n
            self.stats.cycles += n
            self.stats.stall_cycles += n
            return
        raise CPUError("advance() called while the CPU is ready to issue")

    @property
    def busy(self) -> bool:
        """True while the current instruction still occupies the pipe."""
        return self._busy > 0 or self._pending is not None

    def simulated_time_s(self) -> float:
        """Simulated wall time at the configured clock frequency."""
        return self.cycle / self.config.frequency_hz

    # ------------------------------------------------------------------
    # Fetch / decode
    # ------------------------------------------------------------------
    def _invalidator(self) -> Callable[[int], None]:
        """The memory's write hook: drop a stored-to word's decode, and
        leave the shared maps on a store into their text.  It holds the
        CPU weakly, so a CPU is freed as soon as it is dropped rather
        than at the next full garbage collection."""
        decoded, blocks, ref = self._decode_cache, self._blocks, \
            weakref.ref(self)
        text_end = self._shared.text_end if self._shared is not None else 0

        def invalidate(addr: int) -> None:
            if addr < text_end:
                cpu = ref()
                if cpu is not None:
                    cpu._unshare(addr)
            elif decoded.pop(addr & ~3, None) is not None and blocks:
                blocks.clear()
                cpu = ref()
                if cpu is not None:
                    cpu._code_gen += 1

        return invalidate

    def _clear_caches(self) -> None:
        self._decode_cache.clear()
        if self._blocks is not None:
            self._blocks.clear()
        if self._shared is not None:
            # the memory was reloaded or restored: its text need not be
            # the shared one any more
            self._unshare()

    def share_code(self, shared: SharedCode) -> None:
        """Look up decodes and translated blocks of ``shared``'s text
        range in ``shared`` (filling it on a miss) behind this CPU's own
        caches.  The caller guarantees that this CPU's memory holds the
        text the other sharers joined with; a store into the range ends
        the sharing for this CPU before the next fetch.  No-op with the
        decode cache off."""
        if self._blocks is None:
            return
        self._shared = shared
        self.mem.write_hook = self._invalidator()

    def _unshare(self, addr: int | None = None) -> None:
        """Leave the shared maps for private caches, on a store at
        ``addr`` into their text: the private caches take a copy of
        every shared entry the stored-to word is not part of, and the
        code generation is bumped, so a running block leaves after the
        store.  Without ``addr`` (the memory was reloaded) they start
        empty."""
        shared = self._shared
        self._shared = None
        decoded, blocks = self._decode_cache, self._blocks
        decoded.clear()
        blocks.clear()
        if addr is not None:
            word = addr & ~3
            decoded.update(shared.decoded)
            decoded.pop(word, None)
            for pc, block in shared.blocks.items():
                if block is not None and not pc <= word < block[2]:
                    blocks[pc] = block
        self._code_gen += 1
        self.mem.write_hook = self._invalidator()

    def _fetch(self, pc: int) -> DecodedInstr:
        shared = None
        if self.config.decode_cache:
            cached = self._decode_cache.get(pc)
            if cached is not None:
                return cached
            shared = self._shared
            if shared is not None:
                if pc + 4 > shared.text_end:
                    shared = None
                else:
                    cached = shared.decoded.get(pc)
                    if cached is not None:
                        self._decode_cache[pc] = cached
                        return cached
        try:
            word = self.mem.read_u32(pc)
            instr = decode(word)
        except Exception as exc:
            raise CPUError(f"fetch/decode failed at pc={pc:#010x}: {exc}") from exc
        if self.config.decode_cache:
            self._decode_cache[pc] = instr
            if shared is not None:
                shared.decoded[pc] = instr
        return instr

    def _translate(self, pc: int) -> tuple | None:
        """The translated block at ``pc`` (see
        :func:`repro.iss.translate.block_at`), from the shared maps when
        ``pc`` lies in the shared text; such a block is scanned within
        that text only."""
        # imported here: the translator builds on this module
        from repro.iss.translate import block_at

        shared = self._shared
        if shared is None or pc + 4 > shared.text_end:
            return block_at(self, pc)
        block = shared.blocks.get(pc, _UNTRANSLATED)
        if block is _UNTRANSLATED:
            block = shared.blocks[pc] = block_at(self, pc, shared.text_end)
        return block

    # ------------------------------------------------------------------
    # Execute
    # ------------------------------------------------------------------
    def _issue(self) -> None:
        instr = self._fetch(self.pc)
        spec = instr.spec
        kind = spec.kind
        self.stats.instructions += 1
        self.stats.last_retire_cycle = self.cycle
        self.stats.by_mnemonic[spec.mnemonic] += 1
        if self.trace_hook is not None:
            self.trace_hook(self.pc, instr.word)
        if self.events is not None:
            self.events.emit(TelemetryEvent(
                RETIRE, self.cycle, self.track, self.pc, instr.word,
                spec.mnemonic,
            ))

        # Effective immediate (imm prefix aware).
        if spec.fmt == "B":
            if self.imm_latch is not None:
                imm = (self.imm_latch << 16) | (instr.imm & 0xFFFF)
                imm = _s32(imm & _M32)
            else:
                imm = instr.imm
        else:
            imm = 0
        if kind != "imm":
            self.imm_latch = None

        cost = self.config.timing.base_cost(instr)
        next_pc = (self.pc + 4) & _M32
        regs = self.regs
        p = spec.props

        if kind == "add" or kind == "rsub":
            a = regs[instr.ra]
            b = (imm & _M32) if p.get("imm") else regs[instr.rb]
            if kind == "add":
                total = a + b + (self.carry if p.get("carry_in") else 0)
            else:
                total = b + ((~a) & _M32) + (
                    self.carry if p.get("carry_in") else 1
                )
            if instr.rd:
                regs[instr.rd] = total & _M32
            if not p.get("keep_carry"):
                self.carry = 1 if total > _M32 else 0

        elif kind == "logic":
            a = regs[instr.ra]
            b = (imm & _M32) if p.get("imm") else regs[instr.rb]
            op = p["op"]
            if op == "or":
                res = a | b
            elif op == "and":
                res = a & b
            elif op == "xor":
                res = a ^ b
            else:  # andn
                res = a & (~b & _M32)
            if instr.rd:
                regs[instr.rd] = res

        elif kind == "load":
            base = regs[instr.ra]
            off = imm if p.get("imm") else regs[instr.rb]
            addr = (base + off) & _M32
            size = p["size"]
            if size == 1:
                val = self.mem.read_u8(addr)
            elif size == 2:
                val = self.mem.read_u16(addr)
            else:
                val = self.mem.read_u32(addr)
            if instr.rd:
                regs[instr.rd] = val
            self.stats.loads += 1
            if self.mem.extra_latency:
                cost += self.mem.extra_latency  # OPB transaction cycles
                self.mem.extra_latency = 0

        elif kind == "store":
            base = regs[instr.ra]
            off = imm if p.get("imm") else regs[instr.rb]
            addr = (base + off) & _M32
            size = p["size"]
            val = regs[instr.rd]
            if size == 1:
                self.mem.write_u8(addr, val)
            elif size == 2:
                self.mem.write_u16(addr, val)
            else:
                self.mem.write_u32(addr, val)
            self.stats.stores += 1
            if self.mem.extra_latency:
                cost += self.mem.extra_latency  # OPB transaction cycles
                self.mem.extra_latency = 0
            if self.mem.exit_device.exit_code is not None:
                self.exit_code = self.mem.exit_device.exit_code
                self.halted = True
                self.halt_reason = HaltReason.EXIT

        elif kind == "bcc":
            a = _s32(regs[instr.ra])
            cond = p["cond"]
            taken = (
                (cond == "eq" and a == 0)
                or (cond == "ne" and a != 0)
                or (cond == "lt" and a < 0)
                or (cond == "le" and a <= 0)
                or (cond == "gt" and a > 0)
                or (cond == "ge" and a >= 0)
            )
            if taken:
                off = imm if p.get("imm") else _s32(regs[instr.rb])
                target = (self.pc + off) & _M32
                self._take_branch(target, bool(p.get("delayed")))
                self.stats.branches_taken += 1
                cost = self.config.timing.taken_cost(bool(p.get("delayed")))
                self._busy = cost - 1
                return
            self.stats.branches_not_taken += 1

        elif kind == "br":
            off = imm if p.get("imm") else _s32(regs[instr.rb])
            target = (off & _M32) if p.get("absolute") else (self.pc + off) & _M32
            if p.get("link") and instr.rd:
                regs[instr.rd] = self.pc
            self._take_branch(target, bool(p.get("delayed")))
            self.stats.branches_taken += 1
            cost = self.config.timing.taken_cost(bool(p.get("delayed")))
            self._busy = cost - 1
            return

        elif kind == "rtsd":
            target = (regs[instr.ra] + imm) & _M32
            self._take_branch(target, delayed=True)
            self.stats.branches_taken += 1
            cost = self.config.timing.taken_cost(True)
            self._busy = cost - 1
            return

        elif kind == "mul":
            if not self.config.use_hw_multiplier:
                raise CPUError(
                    "mul executed but the processor is configured without "
                    "a hardware multiplier"
                )
            a = regs[instr.ra]
            b = (imm & _M32) if p.get("imm") else regs[instr.rb]
            if instr.rd:
                regs[instr.rd] = (a * b) & _M32

        elif kind == "bs":
            if not self.config.use_barrel_shifter:
                raise CPUError(
                    "barrel shift executed but the processor is configured "
                    "without a barrel shifter"
                )
            a = regs[instr.ra]
            amount = (imm if p.get("imm") else regs[instr.rb]) & 31
            if p["dir"] == "left":
                res = (a << amount) & _M32
            elif p["arith"]:
                res = (_s32(a) >> amount) & _M32
            else:
                res = a >> amount
            if instr.rd:
                regs[instr.rd] = res

        elif kind == "shift1":
            a = regs[instr.ra]
            op = p["op"]
            out_carry = a & 1
            if op == "sra":
                res = (a >> 1) | (a & _SIGN)
            elif op == "src":
                res = (a >> 1) | (self.carry << 31)
            else:  # srl
                res = a >> 1
            if instr.rd:
                regs[instr.rd] = res
            self.carry = out_carry

        elif kind == "sext":
            a = regs[instr.ra]
            if p["bits"] == 8:
                res = (a & 0xFF) | (_M32 & ~0xFF if a & 0x80 else 0)
            else:
                res = (a & 0xFFFF) | (_M32 & ~0xFFFF if a & 0x8000 else 0)
            if instr.rd:
                regs[instr.rd] = res & _M32

        elif kind == "cmp":
            a = regs[instr.ra]
            b = regs[instr.rb]
            res = (b + ((~a) & _M32) + 1) & _M32
            gt = _s32(a) > _s32(b) if p["signed"] else a > b
            res = (res | _SIGN) if gt else (res & ~_SIGN)
            if instr.rd:
                regs[instr.rd] = res

        elif kind == "imm":
            self.imm_latch = instr.imm & 0xFFFF

        elif kind == "idiv":
            if not self.config.use_hw_divider:
                raise CPUError(
                    "idiv executed but the processor is configured without "
                    "a hardware divider"
                )
            den = _s32(regs[instr.ra]) if p["signed"] else regs[instr.ra]
            num = _s32(regs[instr.rb]) if p["signed"] else regs[instr.rb]
            if den == 0:
                res = 0
            else:
                q = abs(num) // abs(den)
                if (num < 0) != (den < 0):
                    q = -q
                res = q & _M32
            if instr.rd:
                regs[instr.rd] = res

        elif kind == "fsl":
            # Issue cycle now; the transfer happens on the next cycle.
            self._pending = _PendingFSL(
                put=bool(p["put"]),
                channel=instr.fsl_id,
                control=bool(p["control"]),
                blocking=bool(p["blocking"]),
                rd=instr.rd,
                value=regs[instr.ra],
            )
            self._pending_next_pc = next_pc
            return  # pc advances when the transfer completes

        else:  # pragma: no cover - all kinds handled
            raise CPUError(f"unimplemented instruction kind {kind!r}")

        self._busy = cost - 1
        self._commit_pc(next_pc)

    # ------------------------------------------------------------------
    def _take_branch(self, target: int, delayed: bool) -> None:
        if self._in_delay_slot:
            raise CPUError(
                f"branch at pc={self.pc:#010x} inside a delay slot"
            )
        if delayed:
            self._delay_target = target
            self._in_delay_slot = True
            self.pc = (self.pc + 4) & _M32  # execute the slot next
        else:
            self.pc = target

    def _commit_pc(self, next_pc: int) -> None:
        if self._in_delay_slot and self._delay_target is not None:
            # The just-committed instruction was the delay slot.
            self.pc = self._delay_target
            self._delay_target = None
            self._in_delay_slot = False
        else:
            self.pc = next_pc

    def _complete_fsl(self) -> None:
        pend = self._pending
        assert pend is not None
        if pend.put:
            pushed = self.fsl.put(pend.channel, pend.value, pend.control)
            if pushed:
                self.stats.fsl_puts += 1
                if not pend.blocking:
                    self.carry = 0
            elif pend.blocking:
                self.stats.stall_cycles += 1
                if self.events is not None and self._stall_since is None:
                    self._emit_stall_begin(pend, self.cycle)
                return  # keep stalling; retry next cycle
            else:
                self.carry = 1  # non-blocking put failed: data dropped
        else:
            ok, value = self.fsl.get(pend.channel, pend.control)
            if ok:
                if pend.rd:
                    self.regs[pend.rd] = value  # type: ignore[assignment]
                if not pend.blocking:
                    self.carry = 0
                self.stats.fsl_gets += 1
            elif pend.blocking:
                self.stats.stall_cycles += 1
                if self.events is not None and self._stall_since is None:
                    self._emit_stall_begin(pend, self.cycle)
                return  # keep stalling; retry next cycle
            else:
                self.carry = 1  # non-blocking read failed
        if self._stall_since is not None:
            self._emit_stall_end(pend)
        self._pending = None
        self._commit_pc(self._pending_next_pc)

    # -- stall event helpers (only reached with a bus attached) --------
    def _stall_channel_name(self, pend: _PendingFSL) -> str:
        channel = (
            self.fsl._output(pend.channel) if pend.put
            else self.fsl._input(pend.channel)
        )
        return channel.name

    def _emit_stall_begin(self, pend: _PendingFSL, first_cycle: int) -> None:
        self._stall_since = first_cycle
        self.events.emit(TelemetryEvent(
            STALL_BEGIN, first_cycle, self._stall_channel_name(pend),
            text=self.track,
        ))

    def _emit_stall_end(self, pend: _PendingFSL) -> None:
        if self.events is not None:
            self.events.emit(TelemetryEvent(
                STALL_END, self.cycle, self._stall_channel_name(pend),
                aux=self.cycle - self._stall_since, text=self.track,
            ))
        self._stall_since = None
