"""MB32 instruction specifications.

Each instruction is described declaratively by an :class:`InstrSpec`:
its mnemonic, binary format, opcode, the *semantic class* (``kind``)
dispatched on by the ISS, the assembler operand signature, fixed field
constraints used by the decoder to discriminate instructions sharing an
opcode, and semantic properties (``props``).

Formats (32-bit words, big-endian bit numbering as in the MicroBlaze
manual, bit 0 = MSB):

* **Type A** ``opcode(6) | rd(5) | ra(5) | rb(5) | func(11)``
* **Type B** ``opcode(6) | rd(5) | ra(5) | imm(16)``

Opcode assignments follow the MicroBlaze ISA where applicable.  The FSL
access family uses an MB32-specific type-A layout: ``func`` bit 10 set
for ``put``-side transfers, bit 9 for non-blocking, bit 8 for control
transfers, and ``func[3:0]`` holding the FSL channel number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

FORMAT_A = "A"
FORMAT_B = "B"

# Condition codes carried in the rd field of conditional branches.
CONDITIONS = ("eq", "ne", "lt", "le", "gt", "ge")

# FSL func-field flag bits.
FSL_PUT_BIT = 1 << 10
FSL_NONBLOCK_BIT = 1 << 9
FSL_CONTROL_BIT = 1 << 8
FSL_ID_MASK = 0xF


@dataclass(frozen=True)
class InstrSpec:
    """Declarative description of one MB32 instruction."""

    mnemonic: str
    fmt: str
    opcode: int
    kind: str
    operands: tuple[str, ...]
    #: decoder constraints: (field, mask, value) — a word matches when
    #: ``(field_value & mask) == value`` for every entry.
    fixed: tuple[tuple[str, int, int], ...] = ()
    props: Mapping[str, object] = field(default_factory=lambda: MappingProxyType({}))


def _p(**kw) -> Mapping[str, object]:
    return MappingProxyType(dict(kw))


def _arith(mn, op, opcode, *, carry_in=False, keep_carry=False, imm=False):
    return InstrSpec(
        mnemonic=mn,
        fmt=FORMAT_B if imm else FORMAT_A,
        opcode=opcode,
        kind=op,
        operands=("rd", "ra", "imm") if imm else ("rd", "ra", "rb"),
        fixed=() if imm else (("func", 0x7FF, 0),),
        props=_p(carry_in=carry_in, keep_carry=keep_carry, imm=imm),
    )


def _logic(mn, op, opcode, *, imm=False):
    return InstrSpec(
        mnemonic=mn,
        fmt=FORMAT_B if imm else FORMAT_A,
        opcode=opcode,
        kind="logic",
        operands=("rd", "ra", "imm") if imm else ("rd", "ra", "rb"),
        fixed=() if imm else (("func", 0x7FF, 0),),
        props=_p(op=op, imm=imm),
    )


def _shift1(mn, op, func):
    return InstrSpec(
        mnemonic=mn,
        fmt=FORMAT_A,
        opcode=0x24,
        kind="shift1",
        operands=("rd", "ra"),
        fixed=(("func", 0x7FF, func),),
        props=_p(op=op),
    )


def _bs(mn, direction, arith, funcbits):
    return InstrSpec(
        mnemonic=mn,
        fmt=FORMAT_A,
        opcode=0x11,
        kind="bs",
        operands=("rd", "ra", "rb"),
        fixed=(("func", 0x600, funcbits),),
        props=_p(dir=direction, arith=arith, imm=False),
    )


def _bsi(mn, direction, arith, immbits):
    return InstrSpec(
        mnemonic=mn,
        fmt=FORMAT_B,
        opcode=0x19,
        kind="bs",
        operands=("rd", "ra", "imm"),
        fixed=(("imm", 0x600, immbits),),
        props=_p(dir=direction, arith=arith, imm=True),
    )


def _br(mn, *, delayed, link, absolute, imm, ra_code):
    ops: tuple[str, ...]
    if link:
        ops = ("rd", "imm") if imm else ("rd", "rb")
    else:
        ops = ("imm",) if imm else ("rb",)
    fixed = (("ra", 0x1F, ra_code),) + ((("rd", 0x1F, 0),) if not link else ())
    return InstrSpec(
        mnemonic=mn,
        fmt=FORMAT_B if imm else FORMAT_A,
        opcode=0x2E if imm else 0x26,
        kind="br",
        operands=ops,
        fixed=fixed,
        props=_p(delayed=delayed, link=link, absolute=absolute, imm=imm, cond=None),
    )


def _bcc(mn, cond, *, delayed, imm):
    code = CONDITIONS.index(cond) | (0x10 if delayed else 0)
    return InstrSpec(
        mnemonic=mn,
        fmt=FORMAT_B if imm else FORMAT_A,
        opcode=0x2F if imm else 0x27,
        kind="bcc",
        operands=("ra", "imm") if imm else ("ra", "rb"),
        fixed=(("rd", 0x1F, code),),
        props=_p(cond=cond, delayed=delayed, imm=imm),
    )


def _mem(mn, kind, size, opcode, *, imm):
    return InstrSpec(
        mnemonic=mn,
        fmt=FORMAT_B if imm else FORMAT_A,
        opcode=opcode,
        kind=kind,
        operands=("rd", "ra", "imm") if imm else ("rd", "ra", "rb"),
        fixed=() if imm else (("func", 0x7FF, 0),),
        props=_p(size=size, imm=imm),
    )


def _fsl(mn, *, put, blocking, control):
    funcval = (
        (FSL_PUT_BIT if put else 0)
        | (0 if blocking else FSL_NONBLOCK_BIT)
        | (FSL_CONTROL_BIT if control else 0)
    )
    mask = FSL_PUT_BIT | FSL_NONBLOCK_BIT | FSL_CONTROL_BIT
    return InstrSpec(
        mnemonic=mn,
        fmt=FORMAT_A,
        opcode=0x1B,
        kind="fsl",
        operands=("ra", "fsl") if put else ("rd", "fsl"),
        fixed=(("func", mask, funcval),),
        props=_p(put=put, blocking=blocking, control=control),
    )


INSTRUCTION_SET: tuple[InstrSpec, ...] = (
    # ---- integer add/sub family -------------------------------------
    _arith("add", "add", 0x00),
    _arith("rsub", "rsub", 0x01),
    _arith("addc", "add", 0x02, carry_in=True),
    _arith("rsubc", "rsub", 0x03, carry_in=True),
    _arith("addk", "add", 0x04, keep_carry=True),
    _arith("rsubk", "rsub", 0x05, keep_carry=True),
    _arith("addkc", "add", 0x06, carry_in=True, keep_carry=True),
    _arith("rsubkc", "rsub", 0x07, carry_in=True, keep_carry=True),
    InstrSpec("cmp", FORMAT_A, 0x05, "cmp", ("rd", "ra", "rb"),
              fixed=(("func", 0x7FF, 0x001),), props=_p(signed=True)),
    InstrSpec("cmpu", FORMAT_A, 0x05, "cmp", ("rd", "ra", "rb"),
              fixed=(("func", 0x7FF, 0x003),), props=_p(signed=False)),
    _arith("addi", "add", 0x08, imm=True),
    _arith("rsubi", "rsub", 0x09, imm=True),
    _arith("addic", "add", 0x0A, carry_in=True, imm=True),
    _arith("rsubic", "rsub", 0x0B, carry_in=True, imm=True),
    _arith("addik", "add", 0x0C, keep_carry=True, imm=True),
    _arith("rsubik", "rsub", 0x0D, keep_carry=True, imm=True),
    _arith("addikc", "add", 0x0E, carry_in=True, keep_carry=True, imm=True),
    _arith("rsubikc", "rsub", 0x0F, carry_in=True, keep_carry=True, imm=True),
    # ---- multiply / divide ------------------------------------------
    InstrSpec("mul", FORMAT_A, 0x10, "mul", ("rd", "ra", "rb"),
              fixed=(("func", 0x7FF, 0),), props=_p(imm=False)),
    InstrSpec("muli", FORMAT_B, 0x18, "mul", ("rd", "ra", "imm"),
              props=_p(imm=True)),
    InstrSpec("idiv", FORMAT_A, 0x12, "idiv", ("rd", "ra", "rb"),
              fixed=(("func", 0x7FF, 0x000),), props=_p(signed=True)),
    InstrSpec("idivu", FORMAT_A, 0x12, "idiv", ("rd", "ra", "rb"),
              fixed=(("func", 0x7FF, 0x002),), props=_p(signed=False)),
    # ---- barrel shifts ----------------------------------------------
    _bs("bsrl", "right", False, 0x000),
    _bs("bsra", "right", True, 0x200),
    _bs("bsll", "left", False, 0x400),
    _bsi("bsrli", "right", False, 0x000),
    _bsi("bsrai", "right", True, 0x200),
    _bsi("bslli", "left", False, 0x400),
    # ---- bitwise logic ----------------------------------------------
    _logic("or", "or", 0x20),
    _logic("and", "and", 0x21),
    _logic("xor", "xor", 0x22),
    _logic("andn", "andn", 0x23),
    _logic("ori", "or", 0x28, imm=True),
    _logic("andi", "and", 0x29, imm=True),
    _logic("xori", "xor", 0x2A, imm=True),
    _logic("andni", "andn", 0x2B, imm=True),
    # ---- single-bit shifts / sign extension (opcode 0x24) ----------
    _shift1("sra", "sra", 0x001),
    _shift1("src", "src", 0x021),
    _shift1("srl", "srl", 0x041),
    InstrSpec("sext8", FORMAT_A, 0x24, "sext", ("rd", "ra"),
              fixed=(("func", 0x7FF, 0x060),), props=_p(bits=8)),
    InstrSpec("sext16", FORMAT_A, 0x24, "sext", ("rd", "ra"),
              fixed=(("func", 0x7FF, 0x061),), props=_p(bits=16)),
    # ---- unconditional branches -------------------------------------
    _br("br", delayed=False, link=False, absolute=False, imm=False, ra_code=0x00),
    _br("brd", delayed=True, link=False, absolute=False, imm=False, ra_code=0x10),
    _br("brld", delayed=True, link=True, absolute=False, imm=False, ra_code=0x14),
    _br("bra", delayed=False, link=False, absolute=True, imm=False, ra_code=0x08),
    _br("brad", delayed=True, link=False, absolute=True, imm=False, ra_code=0x18),
    _br("brald", delayed=True, link=True, absolute=True, imm=False, ra_code=0x1C),
    _br("bri", delayed=False, link=False, absolute=False, imm=True, ra_code=0x00),
    _br("brid", delayed=True, link=False, absolute=False, imm=True, ra_code=0x10),
    _br("brlid", delayed=True, link=True, absolute=False, imm=True, ra_code=0x14),
    _br("brai", delayed=False, link=False, absolute=True, imm=True, ra_code=0x08),
    _br("braid", delayed=True, link=False, absolute=True, imm=True, ra_code=0x18),
    _br("bralid", delayed=True, link=True, absolute=True, imm=True, ra_code=0x1C),
    # ---- conditional branches (compare ra against zero) -------------
    *[_bcc(f"b{c}", c, delayed=False, imm=False) for c in CONDITIONS],
    *[_bcc(f"b{c}d", c, delayed=True, imm=False) for c in CONDITIONS],
    *[_bcc(f"b{c}i", c, delayed=False, imm=True) for c in CONDITIONS],
    *[_bcc(f"b{c}id", c, delayed=True, imm=True) for c in CONDITIONS],
    # ---- return from subroutine -------------------------------------
    InstrSpec("rtsd", FORMAT_B, 0x2D, "rtsd", ("ra", "imm"),
              fixed=(("rd", 0x1F, 0x10),), props=_p(delayed=True)),
    # ---- IMM prefix --------------------------------------------------
    InstrSpec("imm", FORMAT_B, 0x2C, "imm", ("imm",)),
    # ---- loads / stores ----------------------------------------------
    _mem("lbu", "load", 1, 0x30, imm=False),
    _mem("lhu", "load", 2, 0x31, imm=False),
    _mem("lw", "load", 4, 0x32, imm=False),
    _mem("sb", "store", 1, 0x34, imm=False),
    _mem("sh", "store", 2, 0x35, imm=False),
    _mem("sw", "store", 4, 0x36, imm=False),
    _mem("lbui", "load", 1, 0x38, imm=True),
    _mem("lhui", "load", 2, 0x39, imm=True),
    _mem("lwi", "load", 4, 0x3A, imm=True),
    _mem("sbi", "store", 1, 0x3C, imm=True),
    _mem("shi", "store", 2, 0x3D, imm=True),
    _mem("swi", "store", 4, 0x3E, imm=True),
    # ---- FSL access family -------------------------------------------
    _fsl("get", put=False, blocking=True, control=False),
    _fsl("nget", put=False, blocking=False, control=False),
    _fsl("cget", put=False, blocking=True, control=True),
    _fsl("ncget", put=False, blocking=False, control=True),
    _fsl("put", put=True, blocking=True, control=False),
    _fsl("nput", put=True, blocking=False, control=False),
    _fsl("cput", put=True, blocking=True, control=True),
    _fsl("ncput", put=True, blocking=False, control=True),
)

BY_MNEMONIC: dict[str, InstrSpec] = {s.mnemonic: s for s in INSTRUCTION_SET}

if len(BY_MNEMONIC) != len(INSTRUCTION_SET):  # pragma: no cover - sanity
    raise AssertionError("duplicate mnemonics in INSTRUCTION_SET")
