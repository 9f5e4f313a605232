"""Design-space exploration over partitions and configurations.

This automates what the paper's user does by hand with the
co-simulation environment: evaluate each candidate partition both for
*performance* (cycle count from co-simulation) and *cost* (rapid
resource estimation), then pick the best point under resource
constraints — e.g. "fastest CORDIC configuration using at most 1000
slices".

The evaluation engine itself lives in :mod:`repro.cosim.sweep`, which
fans design points out over a worker pool with per-point timeouts,
bounded retry and an on-disk result cache; this module holds the
result record and the ranking applied to its reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cosim.environment import CoSimResult
from repro.cosim.partition import DesignPoint, DesignSpec
from repro.resources.estimator import DesignEstimate
from repro.runapi import RunOutcome

#: structured per-point statuses reported by the sweep engine — a
#: failing point becomes data instead of a sweep-killing exception.
STATUS_OK = "ok"
STATUS_SELF_CHECK = "self-check-failed"
STATUS_DEADLOCK = "deadlock"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"


@dataclass
class DSEResult(RunOutcome):
    """Evaluation of one design point.

    ``result``/``estimate`` are ``None`` unless the point evaluated to
    completion; ``status`` is one of the ``STATUS_*`` strings and
    ``error`` carries the diagnostic for non-``ok`` points.  This is a
    :class:`~repro.runapi.RunOutcome`: ``status`` / ``error`` /
    ``cycles`` and the ``to_dict()`` key core are shared with
    :class:`~repro.cosim.environment.CoSimResult` and the fault
    campaign's :class:`~repro.faults.campaign.TrialOutcome`.
    """

    point: DesignPoint | DesignSpec
    result: CoSimResult | None
    estimate: DesignEstimate | None
    status: str = STATUS_OK
    error: str | None = None
    cache_hit: bool = False
    fingerprint: str | None = None
    attempts: int = 1
    #: per-point telemetry snapshot (plain dict) when the sweep ran
    #: with telemetry enabled; None otherwise (including cache hits,
    #: which skip the instrumented run)
    metrics: dict[str, Any] | None = None
    #: seconds of seeded jittered exponential backoff the engine waited
    #: before each retry of this point (one entry per retry; empty when
    #: the first attempt stood or backoff is disabled)
    backoff_s: list[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def cycles(self) -> int | None:
        return self.result.cycles if self.result is not None else None

    @property
    def slices(self) -> int | None:
        return self.estimate.total.slices if self.estimate is not None else None

    @property
    def execution_us(self) -> float | None:
        if self.result is None:
            return None
        return self.result.simulated_microseconds

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (the per-point record of ``mb32-dse``)."""
        out: dict[str, Any] = {
            "name": self.point.name,
            "kind": self.point.kind.value if self.point.kind else None,
            "params": dict(self.point.params),
            "status": self.status,
            "error": self.error,
            "cycles": self.cycles,
            "cache_hit": self.cache_hit,
            "fingerprint": self.fingerprint,
            "attempts": self.attempts,
            "backoff_s": list(self.backoff_s),
        }
        if self.result is not None:
            out.update(
                cycles=self.result.cycles,
                instructions=self.result.instructions,
                stall_cycles=self.result.stall_cycles,
                simulated_us=self.result.simulated_microseconds,
                wall_seconds=self.result.wall_seconds,
                halt_reason=(
                    self.result.halt_reason.value
                    if self.result.halt_reason is not None
                    else None
                ),
            )
        if self.estimate is not None:
            total = self.estimate.total
            out.update(
                slices=total.slices, brams=total.brams, mult18=total.mult18
            )
        if self.metrics is not None:
            out["metrics"] = self.metrics
        return out


def feasible(
    r: DSEResult,
    max_slices: int | None = None,
    max_brams: int | None = None,
    max_mult18: int | None = None,
) -> bool:
    """Did the point evaluate successfully within the resource budget?"""
    if not r.ok or r.estimate is None:
        return False
    total = r.estimate.total
    if max_slices is not None and total.slices > max_slices:
        return False
    if max_brams is not None and total.brams > max_brams:
        return False
    if max_mult18 is not None and total.mult18 > max_mult18:
        return False
    return True


def rank(
    results: list[DSEResult],
    max_slices: int | None = None,
    max_brams: int | None = None,
    max_mult18: int | None = None,
) -> list[DSEResult]:
    """Sort results fastest-feasible-first.

    Points violating the resource constraints still appear (so reports
    can show them) but sort after all feasible points; failed points
    sort last of all.
    """
    return sorted(
        results,
        key=lambda r: (
            not r.ok,
            not feasible(r, max_slices, max_brams, max_mult18),
            r.cycles if r.cycles is not None else float("inf"),
        ),
    )


def best(results: list[DSEResult]) -> DSEResult:
    """First (fastest feasible) result — raises on empty input."""
    if not results:
        raise ValueError("no design points evaluated")
    return results[0]
