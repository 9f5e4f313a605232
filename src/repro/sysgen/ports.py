"""Ports and wires for the sysgen block graph.

An :class:`OutputPort` owns the signal value; an :class:`InputPort`
reads through its connected output (single-driver rule).  Values are
raw integers (two's-complement bit patterns interpreted by each block's
declared width) or booleans for control signals — the arithmetic-level
representation that makes this simulator fast.  A port's ``owner`` is
the name of its block, not the block, so a model holds no reference
cycle.
"""

from __future__ import annotations


class PortError(RuntimeError):
    """Connection or access error on a port."""


class OutputPort:
    __slots__ = ("owner", "name", "value", "width")

    def __init__(self, owner: str, name: str, width: int = 32):
        self.owner = owner
        self.name = name
        self.width = width
        self.value: int = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<out {self.owner}.{self.name}={self.value}>"


class InputPort:
    __slots__ = ("owner", "name", "source", "default")

    def __init__(self, owner: str, name: str, default: int = 0):
        self.owner = owner
        self.name = name
        self.source: OutputPort | None = None
        self.default = default

    @property
    def value(self) -> int:
        return self.source.value if self.source is not None else self.default

    @property
    def connected(self) -> bool:
        return self.source is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        src = f"{self.source.owner}.{self.source.name}" if self.source else "-"
        return f"<in {self.owner}.{self.name} <- {src}>"


class PortRef:
    """A (block, port-name) reference used in ``Model.connect`` calls."""

    __slots__ = ("port",)

    def __init__(self, port: "InputPort | OutputPort"):
        self.port = port

    @property
    def is_input(self) -> bool:
        return isinstance(self.port, InputPort)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return repr(self.port)
