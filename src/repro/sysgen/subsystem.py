"""Hierarchical subsystems.

System Generator designs are hierarchical: blocks live in nested
subsystems that the resource estimator reports per level.  A
:class:`Subsystem` namespaces the blocks added through it
(``parent/child/block``) and rolls up their resources, without changing
the flat simulation semantics of the underlying :class:`Model`.
"""

from __future__ import annotations

from repro.resources.types import Resources
from repro.sysgen.block import Block
from repro.sysgen.model import Model, ModelError


class Subsystem:
    """A named grouping of blocks inside a model."""

    SEP = "/"

    def __init__(self, model: Model, name: str,
                 parent: "Subsystem | None" = None):
        if self.SEP in name:
            raise ModelError(f"subsystem name may not contain {self.SEP!r}")
        self.model = model
        self.parent = parent
        self.name = name
        self.blocks: list[Block] = []
        self.children: list["Subsystem"] = []

    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        if self.parent is None:
            return self.name
        return f"{self.parent.path}{self.SEP}{self.name}"

    def add(self, block: Block) -> Block:
        """Add ``block`` to the model under this subsystem's namespace."""
        block.rename(f"{self.path}{self.SEP}{block.name}")
        self.model.add(block)
        self.blocks.append(block)
        return block

    def subsystem(self, name: str) -> "Subsystem":
        child = Subsystem(self.model, name, parent=self)
        self.children.append(child)
        return child

    def block(self, name: str) -> Block:
        """Find a block by its name relative to this subsystem."""
        full = f"{self.path}{self.SEP}{name}"
        return self.model.block(full)

    # ------------------------------------------------------------------
    def all_blocks(self) -> list[Block]:
        out = list(self.blocks)
        for child in self.children:
            out.extend(child.all_blocks())
        return out

    def resources(self) -> Resources:
        """Rolled-up estimate for this subsystem and its children."""
        total = Resources()
        for block in self.all_blocks():
            total = total + block.resources()
        return total

    def report(self, indent: int = 0) -> str:
        """Per-level resource breakdown, like SysGen's estimator tree."""
        pad = "  " * indent
        lines = [f"{pad}{self.name}: {self.resources()}"]
        for child in self.children:
            lines.append(child.report(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Subsystem {self.path!r}: {len(self.all_blocks())} blocks>"
