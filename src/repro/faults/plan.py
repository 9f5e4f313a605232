"""Seeded fault plans.

A :class:`FaultSpec` pins one fault to an exact simulation cycle and
target — a register or memory bit flip, an FSL FIFO word corruption,
drop or duplication, or a stuck-at output on a hardware block.  A
:class:`FaultPlan` is the complete fault load of ONE simulation run;
campaigns (:mod:`repro.faults.campaign`) generate many plans from a
master seed, so every trial is reproducible from
``(seed, trial index)`` alone and plans round-trip through JSON for
worker processes and reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

#: everything the injector knows how to break in a single-CPU design
FAULT_KINDS = (
    "reg_flip",      # flip one bit of a general-purpose register
    "mem_flip",      # flip one bit of a BRAM word (code or data)
    "fifo_corrupt",  # flip one bit of a word queued in an FSL FIFO
    "fifo_drop",     # silently lose the word at the head of a FIFO
    "fifo_dup",      # duplicate a queued FIFO word
    "stuck_at",      # force a hardware block output for N cycles
)

#: additional kinds for K-CPU topologies (inter-CPU link and node
#: faults); kept out of :data:`FAULT_KINDS` so existing single-CPU
#: campaign seeds keep drawing byte-identical plans
MULTI_FAULT_KINDS = FAULT_KINDS + (
    "link_drop",     # an inter-CPU FSL link loses queued words
    "node_stall",    # one CPU's clock gates off for N cycles
)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``target`` names an FSL channel (FIFO kinds) or a ``block:port``
    pair (``stuck_at``); register/memory kinds derive their site from
    ``index`` alone.  ``index``/``bit`` are reduced modulo the valid
    range at injection time, so a spec is never invalid — at worst it
    lands on an empty FIFO and is recorded as not applied.
    """

    kind: str
    cycle: int
    target: str = ""
    index: int = 0
    bit: int = 0
    value: int = 0
    duration: int = 1

    def __post_init__(self) -> None:
        if self.kind not in MULTI_FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.cycle < 1:
            raise ValueError("fault cycle must be >= 1")

    def describe(self) -> str:
        # node-targeted kinds carry the CPU node name in ``target`` on
        # multi-CPU plans ("" = the single CPU)
        at = f" on {self.target}" if self.target else ""
        site = {
            "reg_flip": lambda: f"r{1 + self.index % 31} "
                                f"bit {self.bit % 32}{at}",
            "mem_flip": lambda: f"word {self.index} bit {self.bit % 32}{at}",
            "fifo_corrupt": lambda: f"{self.target}[{self.index}] "
                                    f"bit {self.bit % 32}",
            "fifo_drop": lambda: f"{self.target} head",
            "fifo_dup": lambda: f"{self.target}[{self.index}]",
            "stuck_at": lambda: f"{self.target}={self.value:#x} "
                                f"for {self.duration} cycles",
            "link_drop": lambda: f"{self.target} loses "
                                 f"{max(1, self.duration)} word(s)",
            "node_stall": lambda: f"{self.target} gated for "
                                  f"{self.duration} cycles",
        }[self.kind]()
        return f"{self.kind} {site} @cycle {self.cycle}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "cycle": self.cycle,
            "target": self.target,
            "index": self.index,
            "bit": self.bit,
            "value": self.value,
            "duration": self.duration,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FaultSpec":
        return cls(**d)


@dataclass
class FaultPlan:
    """Every fault injected into one run, plus the seed that made it."""

    faults: list[FaultSpec] = field(default_factory=list)
    seed: str = ""

    @property
    def first_cycle(self) -> int:
        return min((f.cycle for f in self.faults), default=1)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": [f.to_dict() for f in self.faults],
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FaultPlan":
        return cls(
            faults=[FaultSpec.from_dict(f) for f in d.get("faults", [])],
            seed=d.get("seed", ""),
        )


def generate_plan(
    seed: str,
    *,
    max_cycle: int,
    mem_words: int,
    channels: tuple[str, ...] = (),
    ports: tuple[str, ...] = (),
    cpus: tuple[str, ...] = (),
    kinds: tuple[str, ...] = FAULT_KINDS,
    n_faults: int = 1,
) -> FaultPlan:
    """Draw a reproducible plan from ``seed``.

    ``max_cycle`` bounds injection cycles (use the fault-free baseline
    cycle count so faults land while the program is actually running);
    ``channels``/``ports`` are the available FIFO and ``block:port``
    targets — kinds with no target available are silently excluded.
    ``cpus`` names the processors of a K-CPU design: node-targeted
    kinds (``node_stall``, plus ``reg_flip``/``mem_flip`` site
    selection) draw from it; leave empty for single-CPU designs — the
    draw sequence is then bit-compatible with pre-multi plans.
    """
    usable = tuple(
        k for k in kinds
        if not (k.startswith("fifo") and not channels)
        and not (k == "link_drop" and not channels)
        and not (k == "node_stall" and not cpus)
        and not (k == "mem_flip" and mem_words < 1)
        and not (k == "stuck_at" and not ports)
    )
    if not usable:
        raise ValueError("no injectable fault kinds for this design")
    rng = random.Random(f"mb32-fault/{seed}")
    faults = []
    node_kinds = ("node_stall", "reg_flip", "mem_flip")
    for _ in range(n_faults):
        kind = rng.choice(usable)
        spec = FaultSpec(
            kind=kind,
            cycle=rng.randrange(1, max(2, max_cycle)),
            target=(
                rng.choice(channels)
                if kind.startswith("fifo") or kind == "link_drop"
                else rng.choice(ports) if kind == "stuck_at"
                else rng.choice(cpus) if cpus and kind in node_kinds
                else ""
            ),
            index=(
                rng.randrange(max(1, mem_words)) if kind == "mem_flip"
                else rng.randrange(64)
            ),
            bit=rng.randrange(32),
            value=rng.getrandbits(32),
            duration=(
                rng.randrange(1, 33) if kind == "stuck_at"
                else rng.randrange(8, 129) if kind == "node_stall"
                else rng.randrange(1, 4) if kind == "link_drop"
                else 1
            ),
        )
        faults.append(spec)
    faults.sort(key=lambda f: (f.cycle, f.kind))
    return FaultPlan(faults=faults, seed=seed)
