"""Hardware/software partition descriptions.

The paper's motivation is exploring "various partitions of the
applications on hardware and software" and "various configurations of
the soft processor".  A :class:`DesignPoint` names one candidate: which
portion runs as software, which as a customized peripheral, with which
parameters (number of CORDIC PEs, matrix block size, processor
options).  The design-space sweep (:mod:`repro.cosim.sweep`)
instantiates and evaluates them.
"""

from __future__ import annotations

import enum
import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

from repro.cosim.environment import CoSimResult
from repro.resources.estimator import DesignEstimate


class PartitionKind(enum.Enum):
    SOFTWARE_ONLY = "software"
    HW_ACCELERATED = "hw-accelerated"


class DesignInstance(Protocol):
    """What a built design point must offer to the sweep engine."""

    def run(self) -> CoSimResult:
        """Co-simulate the application; returns timing results."""
        ...

    def estimate(self) -> DesignEstimate:
        """Rapid resource estimation (Section III-C)."""
        ...


@dataclass
class DesignPoint:
    """One candidate partition/configuration."""

    name: str
    kind: PartitionKind
    build: Callable[[], DesignInstance]
    params: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extras = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.name} ({self.kind.value}{', ' + extras if extras else ''})"


@dataclass
class DesignSpec:
    """A picklable, JSON-able description of one design point.

    Unlike :class:`DesignPoint`, whose ``build`` is an arbitrary
    closure, a spec names its factory by dotted path
    (``"package.module:callable"``), so sweep worker processes can
    rebuild the instance locally and ``mb32-dse`` spec files can
    round-trip through JSON.  ``params`` are passed as keyword
    arguments to the factory; a ``cpu_config`` entry given as a plain
    dict is promoted to a :class:`~repro.iss.cpu.CPUConfig`.
    """

    name: str
    factory: str
    params: dict[str, Any] = field(default_factory=dict)
    kind: PartitionKind | None = None

    def resolve(self) -> Callable[..., DesignInstance]:
        """Import and return the factory callable."""
        modname, sep, attr = self.factory.partition(":")
        if not sep or not attr:
            raise ValueError(
                f"design spec {self.name!r}: factory must be "
                f"'module.path:callable', got {self.factory!r}"
            )
        obj: Any = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, part)
        return obj

    def build(self) -> DesignInstance:
        params = dict(self.params)
        cpu_config = params.get("cpu_config")
        if isinstance(cpu_config, dict):
            from repro.iss.cpu import CPUConfig

            params["cpu_config"] = CPUConfig(**cpu_config)
        return self.resolve()(**params)

    # -- spec-file round trip ------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "factory": self.factory,
            "params": dict(self.params),
        }
        if self.kind is not None:
            out["kind"] = self.kind.value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DesignSpec":
        kind = data.get("kind")
        return cls(
            name=data["name"],
            factory=data["factory"],
            params=dict(data.get("params", {})),
            kind=PartitionKind(kind) if kind is not None else None,
        )

    def __str__(self) -> str:
        extras = ", ".join(f"{k}={v}" for k, v in self.params.items())
        kind = self.kind.value if self.kind is not None else "spec"
        return f"{self.name} ({kind}{', ' + extras if extras else ''})"
