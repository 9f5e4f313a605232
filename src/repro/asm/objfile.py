"""Relocatable object format for the MB32 toolchain.

An :class:`ObjectModule` is the assembler's output: named sections with
raw bytes, section-relative symbols, and fixups to patch once the
linker assigns section base addresses.  It plays the role of the
``.elf`` files in the paper's flow (minus the container format).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.asm.expr import Expr


class FixupKind(enum.Enum):
    #: 32-bit absolute value stored as a data word.
    ABS32 = "abs32"
    #: 16-bit immediate in a type-B instruction (absolute value,
    #: must fit in [-0x8000, 0xFFFF]).
    SIMM16 = "simm16"
    #: ``imm``-prefix pair: patch the ``imm`` word at ``offset`` with
    #: the high half and the instruction at ``offset+4`` with the low
    #: half of a 32-bit value.
    IMM32 = "imm32"
    #: PC-relative 16-bit branch displacement (target − instruction
    #: address), must fit in signed 16 bits.
    PCREL16 = "pcrel16"


@dataclass
class Fixup:
    section: str
    offset: int
    kind: FixupKind
    expr: Expr
    line: int = 0  # source line, for diagnostics


@dataclass
class Symbol:
    name: str
    section: str  # '.text', '.data', '.bss' or '*abs*'
    offset: int
    is_global: bool = False


@dataclass
class SectionData:
    """One section's contents within a module."""

    name: str
    data: bytearray = field(default_factory=bytearray)
    #: for .bss: size only, data stays empty
    bss_size: int = 0
    align: int = 4

    @property
    def size(self) -> int:
        return self.bss_size if self.name == ".bss" else len(self.data)


@dataclass
class ObjectModule:
    """Assembler output for one translation unit."""

    name: str
    sections: dict[str, SectionData] = field(default_factory=dict)
    symbols: dict[str, Symbol] = field(default_factory=dict)
    fixups: list[Fixup] = field(default_factory=list)

    def section(self, name: str) -> SectionData:
        if name not in self.sections:
            self.sections[name] = SectionData(name)
        return self.sections[name]

    def define(self, name: str, section: str, offset: int, *, line: int = 0) -> None:
        if name in self.symbols:
            raise ValueError(f"duplicate symbol {name!r} (line {line})")
        self.symbols[name] = Symbol(name, section, offset)
