"""MB32 instruction decoder.

``decode`` maps a 32-bit word to a :class:`DecodedInstr`.  Instructions
sharing an opcode are discriminated by the ``fixed`` field constraints
on their specs (exact ``func`` values, condition codes in ``rd``,
branch-variant bits in ``ra``, …).  Candidates for each opcode are
ordered most-constrained first so that, e.g., ``cmp`` (opcode 0x05,
func 0x001) wins over ``rsubk`` (opcode 0x05, func 0x000) only when the
func bits actually match.

A decode depends on the word alone and :class:`DecodedInstr` is frozen,
so ``decode`` keeps each decoded word in a bounded process-wide memo:
every fresh CPU (a campaign builds dozens per batch) then decodes its
program once per distinct word, not once per pc it reaches.  Words that
fail to decode are not kept; they raise on every call.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.isa.instructions import (
    FORMAT_A,
    FSL_ID_MASK,
    INSTRUCTION_SET,
    InstrSpec,
)


class DecodeError(ValueError):
    """Raised when a word does not correspond to any MB32 instruction."""


@dataclass(frozen=True)
class DecodedInstr:
    """A decoded instruction with extracted fields.

    ``imm`` is the sign-extended 16-bit immediate for type-B
    instructions (before any ``imm``-prefix extension, which is applied
    by the CPU at execute time).
    """

    spec: InstrSpec
    rd: int
    ra: int
    rb: int
    imm: int
    word: int

    @property
    def mnemonic(self) -> str:
        return self.spec.mnemonic

    @property
    def fsl_id(self) -> int:
        """FSL channel for FSL instructions (func/imm low bits)."""
        if self.spec.fmt == FORMAT_A:
            return self.word & FSL_ID_MASK
        return self.imm & FSL_ID_MASK

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        for op in self.spec.operands:
            if op == "rd":
                parts.append(f"r{self.rd}")
            elif op == "ra":
                parts.append(f"r{self.ra}")
            elif op == "rb":
                parts.append(f"r{self.rb}")
            elif op == "imm":
                parts.append(str(self.imm))
            elif op == "fsl":
                parts.append(f"rfsl{self.fsl_id}")
        return f"{self.mnemonic} " + ", ".join(parts) if parts else self.mnemonic


def _field_values(word: int) -> dict[str, int]:
    imm = word & 0xFFFF
    return {
        "rd": (word >> 21) & 0x1F,
        "ra": (word >> 16) & 0x1F,
        "rb": (word >> 11) & 0x1F,
        "func": word & 0x7FF,
        "imm": imm,
    }


def _matches(spec: InstrSpec, fields: dict[str, int]) -> bool:
    return all((fields[name] & mask) == value for name, mask, value in spec.fixed)


# Candidates per opcode, most-constrained first so exact-func specs win.
_BY_OPCODE: dict[int, list[InstrSpec]] = {}
for _spec in INSTRUCTION_SET:
    _BY_OPCODE.setdefault(_spec.opcode, []).append(_spec)
for _lst in _BY_OPCODE.values():
    _lst.sort(key=lambda s: -len(s.fixed))


#: most decoded words the process-wide memo keeps; the oldest are
#: evicted first (a program has at most a few thousand distinct words)
DECODE_CACHE_LIMIT = 8192

_memo: dict[int, DecodedInstr] = {}
_memo_lock = threading.Lock()


def decode(word: int) -> DecodedInstr:
    """Decode the 32-bit instruction ``word`` (memoised by word)."""
    instr = _memo.get(word)
    if instr is None:
        instr = _decode(word)
        with _memo_lock:
            while len(_memo) >= DECODE_CACHE_LIMIT:
                del _memo[next(iter(_memo))]
            _memo[word] = instr
    return instr


def _decode(word: int) -> DecodedInstr:
    opcode = (word >> 26) & 0x3F
    candidates = _BY_OPCODE.get(opcode)
    if not candidates:
        raise DecodeError(f"unknown opcode 0x{opcode:02x} in word 0x{word:08x}")
    fields = _field_values(word)
    for spec in candidates:
        if _matches(spec, fields):
            imm = fields["imm"]
            if imm & 0x8000:
                imm -= 0x10000
            return DecodedInstr(
                spec=spec,
                rd=fields["rd"],
                ra=fields["ra"],
                rb=fields["rb"],
                imm=imm,
                word=word,
            )
    raise DecodeError(f"unrecognized instruction word 0x{word:08x}")
