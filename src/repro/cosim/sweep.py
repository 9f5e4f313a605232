"""Parallel, fault-tolerant design-space sweep engine.

The paper's whole point is making design-space iteration fast; this
module evaluates many candidate partitions at once instead of one by
one.  Design points travel to persistent worker processes
(:class:`~repro.runapi.pool.Worker`) as picklable
:class:`~repro.cosim.partition.DesignSpec` records (workers ``build()``
the instance locally), and every point comes back with a structured
status — ``ok`` / ``self-check-failed`` / ``deadlock`` / ``timeout`` /
``error`` — so one pathological point can never kill a sweep:
:class:`~repro.cosim.environment.CoSimDeadlock` is captured as data,
not an exception.

Fault tolerance and speed come from five mechanisms:

* **worker pool** — up to ``workers`` persistent processes, started
  once per sweep, each evaluating one point at a time in the same
  process (as ``workers=0`` does); a crashed or hung worker is reaped,
  its point reported, and a replacement started while work remains,
* **per-point timeout** — inside the worker, the
  :func:`~repro.cosim.environment.run_timeout` hook bounds the
  co-simulation's wall clock; the parent hard-kills workers that
  overrun the budget plus a grace period,
* **bounded retry** — ``timeout``/``error`` points (the environmental
  failures) are re-queued up to ``retries`` extra times, optionally
  behind a seeded jittered exponential backoff whose schedule is
  recorded on the :class:`~repro.cosim.dse.DSEResult`,
* **on-disk result cache** — results are keyed by a deterministic
  design-point fingerprint (program image hash + CPU configuration +
  model parameters), so re-sweeps only pay for new points; entries
  live in the durable result cache the job farm uses too
  (:class:`~repro.runapi.durable.ResultCache`),
* **resume journal** — with ``journal=`` every completed point is
  appended to a JSON-lines file as it lands; a killed sweep restarted
  with ``resume=True`` replays the journal and only evaluates the
  points that never finished.

A ``progress`` callback receives a :class:`SweepProgress` snapshot
(points done, cache hits, worker utilization, aggregate cycles/sec)
after every completed point — the hook the ``mb32-dse`` CLI uses for
its live status line.

The per-point outcome contract lives here once and is shared by every
engine that evaluates points — the batched sweep, fault campaigns and
the job farm: :func:`point_payload` builds the payload,
:func:`_run_and_classify` maps a run to its status, and
:func:`_evaluate_with_retries` is the sequential retry loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from collections import deque
from dataclasses import asdict, dataclass
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Iterable

from repro.runapi.durable import ResultCache, SealedJournal
from repro.cosim.dse import (
    DSEResult,
    STATUS_DEADLOCK,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SELF_CHECK,
    STATUS_TIMEOUT,
    best,
    rank,
)
from repro.cosim.environment import (
    CoSimDeadlock,
    CoSimResult,
    CoSimTimeout,
    run_timeout,
)
from repro.cosim.partition import DesignPoint, DesignSpec
from repro.iss.cpu import HaltReason
from repro.runapi.backoff import retry_backoff_delay
from repro.runapi.engine import engine_scope
from repro.runapi.fingerprint import design_fingerprint
from repro.runapi.pool import Worker
from repro.resources.estimator import DesignEstimate
from repro.resources.types import Resources
from repro.telemetry import Telemetry, telemetry_scope

#: statuses worth another attempt: crashes and timeouts can be
#: environmental, while deadlocks and self-check failures are
#: deterministic properties of the design point.
RETRIABLE = frozenset({STATUS_TIMEOUT, STATUS_ERROR})

#: extra wall-clock slack the parent grants a worker beyond the
#: per-point timeout before hard-killing it — covers program build time
#: and the bounded latency of the in-run timeout check.
KILL_GRACE_S = 10.0


# ----------------------------------------------------------------------
# The on-disk result cache
# ----------------------------------------------------------------------
def _result_to_dict(result: CoSimResult) -> dict[str, Any]:
    d = asdict(result)
    d["halt_reason"] = (
        result.halt_reason.value if result.halt_reason is not None else None
    )
    return d


def _result_from_dict(d: dict[str, Any]) -> CoSimResult:
    halt = d.get("halt_reason")
    return CoSimResult(
        exit_code=d["exit_code"],
        cycles=d["cycles"],
        instructions=d["instructions"],
        stall_cycles=d["stall_cycles"],
        wall_seconds=d["wall_seconds"],
        simulated_seconds=d["simulated_seconds"],
        halt_reason=HaltReason(halt) if halt is not None else None,
    )


def _estimate_to_dict(estimate: DesignEstimate) -> dict[str, Any]:
    return {
        "processor": asdict(estimate.processor),
        "lmb_controllers": asdict(estimate.lmb_controllers),
        "fsl_links": asdict(estimate.fsl_links),
        "peripheral": asdict(estimate.peripheral),
        "program_brams": estimate.program_brams,
    }


def _estimate_from_dict(d: dict[str, Any]) -> DesignEstimate:
    return DesignEstimate(
        processor=Resources(**d["processor"]),
        lmb_controllers=Resources(**d["lmb_controllers"]),
        fsl_links=Resources(**d["fsl_links"]),
        peripheral=Resources(**d["peripheral"]),
        program_brams=d["program_brams"],
    )


def cache_lookup(
    cache: ResultCache, fingerprint: str
) -> tuple[CoSimResult, DesignEstimate] | None:
    """The cached result and estimate of a design point, or None on a
    miss (the durable cache quarantines damaged entries as misses; an
    entry that is not a sweep record misses too)."""
    blob = cache.get(fingerprint)
    if blob is None:
        return None
    try:
        data = json.loads(blob)
        return (
            _result_from_dict(data["result"]),
            _estimate_from_dict(data["estimate"]),
        )
    except (ValueError, KeyError, TypeError):
        return None


def cache_store(cache: ResultCache | None, payload: dict[str, Any]) -> None:
    """Cache a successful point's result and estimate under its
    fingerprint, as one ``{result, estimate}`` JSON entry.  Failures
    are never cached: they should re-evaluate."""
    if cache is None or payload["status"] != STATUS_OK:
        return
    cache.put(
        payload["fingerprint"],
        json.dumps(
            {
                "result": _result_to_dict(payload["result"]),
                "estimate": _estimate_to_dict(payload["estimate"]),
            }
        ).encode(),
    )


# ----------------------------------------------------------------------
# The resume journal
# ----------------------------------------------------------------------
def sweep_spec_id(points: list[DesignPoint | DesignSpec]) -> str:
    """Deterministic identity of a sweep *specification* — the ordered
    list of point names, factories and parameters.  A journal written
    for one spec refuses to resume a different one."""
    h = hashlib.sha256()
    for point in points:
        h.update(point.name.encode())
        kind = getattr(point.kind, "value", None)
        h.update(str(kind).encode())
        h.update((getattr(point, "factory", "") or "").encode())
        h.update(
            json.dumps(point.params, sort_keys=True, default=repr).encode()
        )
    return h.hexdigest()


def _payload_to_jsonable(payload: dict[str, Any]) -> dict[str, Any]:
    """Flatten an evaluation payload to plain JSON for the journal."""
    return {
        "status": payload["status"],
        "error": payload["error"],
        "fingerprint": payload["fingerprint"],
        "cache_hit": payload["cache_hit"],
        "metrics": payload.get("metrics"),
        "result": (
            _result_to_dict(payload["result"])
            if payload["result"] is not None
            else None
        ),
        "estimate": (
            _estimate_to_dict(payload["estimate"])
            if payload["estimate"] is not None
            else None
        ),
    }


def _payload_from_jsonable(d: dict[str, Any]) -> dict[str, Any]:
    return {
        "status": d["status"],
        "error": d["error"],
        "fingerprint": d["fingerprint"],
        "cache_hit": d["cache_hit"],
        "metrics": d.get("metrics"),
        "result": (
            _result_from_dict(d["result"]) if d["result"] is not None
            else None
        ),
        "estimate": (
            _estimate_from_dict(d["estimate"]) if d["estimate"] is not None
            else None
        ),
    }


class SweepJournal(SealedJournal):
    """JSON-lines journal of completed sweep points.

    A :class:`~repro.runapi.durable.SealedJournal` whose header binds
    the file to a sweep spec (:func:`sweep_spec_id`); every further
    line is one completed point (index, attempts, backoff schedule,
    full payload), flushed as it lands so a killed sweep loses at most
    the in-flight points.  Replay keeps the intact prefix — a line torn
    by a crash mid-append never replays as a completed point, and
    reopening cuts it off.  Journals written before sealing (no digest)
    still load.
    """

    FORMAT = "mb32-dse-journal"
    VERSION = 1

    def __init__(self, path: str | os.PathLike):
        super().__init__(path)
        self._spec: tuple[str, int] = ("", 0)

    def header(self) -> dict[str, Any]:
        spec_id, total = self._spec
        return {
            "format": self.FORMAT,
            "version": self.VERSION,
            "spec_id": spec_id,
            "points": total,
        }

    def check_header(self, record: dict[str, Any]) -> None:
        if (
            record.get("format") != self.FORMAT
            or record.get("version") != self.VERSION
        ):
            raise ValueError(
                f"{self.path} is not an mb32-dse resume journal"
            )
        if record.get("spec_id") != self._spec[0]:
            raise ValueError(
                f"journal {self.path} belongs to a different "
                f"sweep spec — cannot resume"
            )

    def load(self, spec_id: str, total: int) -> dict[int, dict[str, Any]]:
        """Replayable entries from an existing journal, keyed by point
        index.  Raises ``ValueError`` if the file is not a journal or
        belongs to a different sweep spec."""
        self._spec = (spec_id, total)
        entries: dict[int, dict[str, Any]] = {}
        for rec in self.replay():
            index = rec.get("index")
            if isinstance(index, int) and 0 <= index < total:
                entries[index] = rec
        return entries

    def open(self, spec_id: str, total: int) -> None:  # type: ignore[override]
        """Open for appending, writing the header on a fresh file."""
        self._spec = (spec_id, total)
        super().open()

    def record(
        self,
        index: int,
        attempts: int,
        backoff_s: list[float],
        payload: dict[str, Any],
    ) -> None:
        self.append(
            {
                "index": index,
                "attempts": attempts,
                "backoff_s": list(backoff_s),
                "payload": _payload_to_jsonable(payload),
            }
        )


# ----------------------------------------------------------------------
# Per-point evaluation (shared by workers and the in-process path)
# ----------------------------------------------------------------------
def point_payload(**fields: Any) -> dict[str, Any]:
    """A per-point evaluation payload: ``error`` with nothing attached,
    overridden by ``fields``.  Every evaluator and every pool-side
    failure builds its payload here."""
    payload: dict[str, Any] = {
        "status": STATUS_ERROR,
        "error": None,
        "result": None,
        "estimate": None,
        "fingerprint": None,
        "cache_hit": False,
        "metrics": None,
    }
    payload.update(fields)
    return payload


def _evaluate(
    point: DesignPoint | DesignSpec,
    cache_dir: str | None,
    timeout_s: float | None,
    telemetry: bool = False,
) -> dict[str, Any]:
    """Build, fingerprint, consult the cache, run, classify.

    Returns a picklable payload dict; every failure mode maps to a
    status string instead of an exception.  With ``telemetry=True``,
    the run is wrapped in a :func:`~repro.telemetry.telemetry_scope`
    and the payload carries the plain-dict metric snapshot (cache hits
    skip the run, so they carry none).
    """
    try:
        instance = point.build()
    except Exception as exc:
        return point_payload(
            error=f"build failed: {type(exc).__name__}: {exc}"
        )

    fingerprint = design_fingerprint(point, instance)
    cache = ResultCache(cache_dir) if cache_dir else None
    if cache is not None:
        hit = cache_lookup(cache, fingerprint)
        if hit is not None:
            result, estimate = hit
            return point_payload(
                status=STATUS_OK, result=result, estimate=estimate,
                fingerprint=fingerprint, cache_hit=True,
            )

    payload = point_payload(fingerprint=fingerprint)
    _run_and_classify(instance, payload, timeout_s, telemetry)
    cache_store(cache, payload)
    return payload


def _run_and_classify(
    instance,
    payload: dict[str, Any],
    timeout_s: float | None = None,
    telemetry: bool = False,
    run: Callable[[], CoSimResult] | None = None,
) -> None:
    """Run a built design instance and classify the outcome in place.

    ``run`` (default ``instance.run``) ends the way ``instance.run()``
    does: a :class:`CoSimResult`, or the exception the run raised.  The
    ladder maps exceptions to ``timeout`` / ``deadlock`` /
    ``self-check-failed`` (a golden-model ``AssertionError``) /
    ``error``, then applies the exit-code and resource-estimation tail.
    The batched sweep replays its lanes through the same ladder, so
    every engine produces identical statuses and diagnostics.
    """
    tel = Telemetry() if telemetry else None
    try:
        with contextlib.ExitStack() as stack:
            if timeout_s is not None:
                stack.enter_context(run_timeout(timeout_s))
            if tel is not None:
                stack.enter_context(telemetry_scope(tel))
            result = (run or instance.run)()
    except CoSimTimeout as exc:
        payload.update(status=STATUS_TIMEOUT, error=str(exc))
        return
    except CoSimDeadlock as exc:
        payload.update(status=STATUS_DEADLOCK, error=str(exc))
        return
    except AssertionError as exc:
        # VerificationError (a golden-model mismatch) derives from
        # AssertionError — the design ran but produced wrong answers.
        payload.update(
            status=STATUS_SELF_CHECK,
            error=f"{type(exc).__name__}: {exc}",
        )
        return
    except Exception as exc:
        payload.update(
            status=STATUS_ERROR, error=f"{type(exc).__name__}: {exc}"
        )
        return

    if tel is not None:
        payload["metrics"] = tel.snapshot(result)
    if result.exit_code is None:
        payload.update(
            status=STATUS_TIMEOUT,
            error="did not terminate within max_cycles",
            result=result,
        )
        return
    if result.exit_code != 0:
        payload.update(
            status=STATUS_SELF_CHECK,
            error=f"failed self-check (exit code {result.exit_code})",
            result=result,
        )
        return

    try:
        estimate = instance.estimate()
    except Exception as exc:
        payload.update(
            status=STATUS_ERROR,
            error=f"resource estimation failed: {type(exc).__name__}: {exc}",
            result=result,
        )
        return

    payload.update(status=STATUS_OK, result=result, estimate=estimate)


def _evaluate_with_retries(
    point: DesignPoint | DesignSpec,
    *,
    cache_dir: str | None = None,
    timeout_s: float | None = None,
    telemetry: bool = False,
    retries: int = 0,
    retry_backoff_s: float = 0.0,
    backoff_seed: int = 0,
    engine: str = "auto",
    evaluate: Callable[..., dict[str, Any]] = _evaluate,
) -> tuple[dict[str, Any], int, list[float]]:
    """Evaluate one point in this process, re-running ``timeout`` /
    ``error`` outcomes up to ``retries`` extra times behind the seeded
    backoff; returns ``(payload, attempts, backoff schedule)``.  The
    loop of ``sweep(workers=0)`` and of every farm job unit."""
    attempts = 0
    backoffs: list[float] = []
    while True:
        attempts += 1
        with engine_scope(engine):
            payload = evaluate(point, cache_dir, timeout_s, telemetry)
        if payload["status"] not in RETRIABLE or attempts > retries:
            return payload, attempts, backoffs
        delay = retry_backoff_delay(
            retry_backoff_s, point.name, attempts, backoff_seed
        )
        backoffs.append(delay)
        if delay > 0:
            time.sleep(delay)


# ----------------------------------------------------------------------
# Progress reporting
# ----------------------------------------------------------------------
@dataclass
class SweepProgress:
    """Snapshot handed to the ``progress`` callback after each point."""

    total: int
    done: int
    cache_hits: int
    active_workers: int
    wall_seconds: float
    cycles_done: int
    last: DSEResult | None = None

    @property
    def cycles_per_second(self) -> float:
        """Aggregate simulated cycles per wall second across the sweep."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.cycles_done / self.wall_seconds


# ----------------------------------------------------------------------
# The sweep report
# ----------------------------------------------------------------------
@dataclass
class SweepReport:
    """Outcome of one sweep.

    ``results`` keeps the input point order (deterministic regardless
    of worker count); use :meth:`ranked` for fastest-feasible-first.
    """

    results: list[DSEResult]
    wall_seconds: float
    workers: int

    @property
    def ok(self) -> list[DSEResult]:
        return [r for r in self.results if r.ok]

    @property
    def failed(self) -> list[DSEResult]:
        return [r for r in self.results if not r.ok]

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cache_hit)

    def ranked(
        self,
        max_slices: int | None = None,
        max_brams: int | None = None,
        max_mult18: int | None = None,
    ) -> list[DSEResult]:
        return rank(self.results, max_slices, max_brams, max_mult18)

    def best(self, **constraints) -> DSEResult:
        return best(self.ranked(**constraints))

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form — the payload of the ``mb32-dse`` report."""
        return {
            "wall_seconds": self.wall_seconds,
            "workers": self.workers,
            "points": len(self.results),
            "ok": len(self.ok),
            "failed": len(self.failed),
            "cache_hits": self.cache_hits,
            "results": [r.to_dict() for r in self.results],
        }


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
def _to_dse_result(
    point, payload, attempts: int, backoff_s: list[float] | None = None
) -> DSEResult:
    return DSEResult(
        point=point,
        result=payload["result"],
        estimate=payload["estimate"],
        status=payload["status"],
        error=payload["error"],
        cache_hit=payload["cache_hit"],
        fingerprint=payload["fingerprint"],
        attempts=attempts,
        metrics=payload.get("metrics"),
        backoff_s=list(backoff_s) if backoff_s else [],
    )


def sweep(
    points: Iterable[DesignPoint | DesignSpec],
    *,
    workers: int = 0,
    timeout_s: float | None = None,
    retries: int = 0,
    retry_backoff_s: float = 0.0,
    backoff_seed: int = 0,
    cache_dir: str | os.PathLike | None = None,
    journal: str | os.PathLike | None = None,
    resume: bool = False,
    progress: Callable[[SweepProgress], None] | None = None,
    kill_grace_s: float = KILL_GRACE_S,
    telemetry: bool = False,
    evaluate: Callable[..., dict[str, Any]] | None = None,
    engine: str = "auto",
) -> SweepReport:
    """Evaluate every design point; never raises for a failing point.

    Parameters
    ----------
    points:
        :class:`DesignSpec` records (required for ``workers > 0``) or
        :class:`DesignPoint` closures (in-process evaluation only).
    workers:
        ``0`` evaluates in-process, sequentially; ``N > 0`` fans points
        out over up to ``N`` persistent worker processes.
    timeout_s:
        Per-point wall-clock budget (``None`` = unlimited).  Enforced
        inside the co-simulation loop via
        :func:`repro.cosim.environment.run_timeout`; parallel workers
        that overrun it by more than ``kill_grace_s`` are hard-killed.
    retries:
        Extra attempts granted to ``timeout``/``error`` points.
    retry_backoff_s:
        Base delay of the seeded jittered exponential backoff slept
        before each retry (``0.0`` retries immediately).  The schedule
        is deterministic per (``backoff_seed``, point name, attempt)
        and recorded on ``DSEResult.backoff_s``.
    cache_dir:
        Directory for the on-disk result cache; ``None`` disables
        caching.
    journal:
        Path of a JSON-lines resume journal; every completed point is
        appended (and flushed) as it lands.  Without ``resume`` an
        existing journal is overwritten.
    resume:
        Replay completed points from ``journal`` instead of
        re-evaluating them; only the points missing from the journal
        run.  Raises ``ValueError`` if the journal belongs to a
        different sweep spec.
    progress:
        Callback receiving a :class:`SweepProgress` after each
        completed point.
    telemetry:
        Run every point inside a :func:`~repro.telemetry.telemetry_scope`
        and attach its metric snapshot (a plain dict) to the
        :class:`DSEResult` — works in workers too, since the scope is
        entered worker-side.
    evaluate:
        Replacement for the per-point evaluation function (same
        signature and payload contract as the internal default).  Must
        be a picklable module-level function for ``workers > 0``.  This
        is how the fault-injection campaign runner reuses the pool.
    engine:
        Hardware execution engine every point is evaluated under
        (``"auto" | "compiled" | "interpreter"``), applied as the
        ambient :func:`~repro.runapi.engine_scope` around each
        evaluation — in-process and worker-side alike.  For the
        lockstep vector engine, use :func:`sweep_batched`.
    """
    points = list(points)
    total = len(points)
    cache_path = str(cache_dir) if cache_dir is not None else None
    evaluate_fn = evaluate if evaluate is not None else _evaluate
    start = time.perf_counter()
    results: list[DSEResult | None] = [None] * total
    attempts = [0] * total
    backoffs: list[list[float]] = [[] for _ in range(total)]
    state = {"done": 0, "cache_hits": 0, "cycles": 0}

    journal_obj: SweepJournal | None = None
    replayed: dict[int, dict[str, Any]] = {}
    if journal is not None:
        spec_id = sweep_spec_id(points)
        journal_obj = SweepJournal(journal)
        if resume:
            replayed = journal_obj.load(spec_id, total)
        else:
            journal_obj.path.unlink(missing_ok=True)
        journal_obj.open(spec_id, total)

    def record(
        index: int,
        payload: dict[str, Any],
        active: int,
        journal_write: bool = True,
    ) -> None:
        result = _to_dse_result(
            points[index], payload, attempts[index], backoffs[index]
        )
        results[index] = result
        state["done"] += 1
        if result.cache_hit:
            state["cache_hits"] += 1
        if result.result is not None:
            state["cycles"] += result.result.cycles
        if journal_obj is not None and journal_write:
            journal_obj.record(
                index, attempts[index], backoffs[index], payload
            )
        if progress is not None:
            progress(
                SweepProgress(
                    total=total,
                    done=state["done"],
                    cache_hits=state["cache_hits"],
                    active_workers=active,
                    wall_seconds=time.perf_counter() - start,
                    cycles_done=state["cycles"],
                    last=result,
                )
            )

    for index in sorted(replayed):
        entry = replayed[index]
        attempts[index] = int(entry.get("attempts", 1))
        backoffs[index] = [float(d) for d in entry.get("backoff_s", [])]
        record(index, _payload_from_jsonable(entry["payload"]),
               active=0, journal_write=False)

    remaining = [i for i in range(total) if results[i] is None]
    try:
        if workers <= 0:
            for index in remaining:
                payload, attempts[index], backoffs[index] = (
                    _evaluate_with_retries(
                        points[index],
                        cache_dir=cache_path,
                        timeout_s=timeout_s,
                        telemetry=telemetry,
                        retries=retries,
                        retry_backoff_s=retry_backoff_s,
                        backoff_seed=backoff_seed,
                        engine=engine,
                        evaluate=evaluate_fn,
                    )
                )
                record(index, payload, active=0)
        elif remaining:
            for point in points:
                if not isinstance(point, DesignSpec):
                    raise TypeError(
                        f"parallel sweeps need picklable DesignSpec points; "
                        f"{point.name!r} is a {type(point).__name__} "
                        f"(closure-built) — evaluate it with workers=0 or "
                        f"describe it as a DesignSpec"
                    )
            _run_parallel(
                points, remaining, workers, attempts, backoffs, record,
                timeout_s=timeout_s,
                kill_grace_s=kill_grace_s,
                retries=retries,
                retry_backoff_s=retry_backoff_s,
                backoff_seed=backoff_seed,
                cache_dir=cache_path,
                telemetry=telemetry,
                engine=engine,
                evaluate=evaluate_fn,
            )
    finally:
        if journal_obj is not None:
            journal_obj.close()

    return SweepReport(
        results=list(results),  # type: ignore[arg-type]
        wall_seconds=time.perf_counter() - start,
        workers=max(workers, 0),
    )


def _run_parallel(
    points: list[DesignSpec],
    pending: list[int],
    workers: int,
    attempts: list[int],
    backoffs: list[list[float]],
    record: Callable[..., None],
    *,
    timeout_s: float | None,
    kill_grace_s: float,
    retries: int,
    retry_backoff_s: float,
    backoff_seed: int,
    **evaluate_options: Any,
) -> None:
    """Drive up to ``workers`` persistent worker processes over the
    ``pending`` point indices.

    Each attempt is one ``_evaluate_with_retries(..., retries=0)`` call
    on an idle worker; retry, backoff, the hard deadline
    (``timeout_s + kill_grace_s`` after the send) and recording stay
    here.  A worker killed at its deadline or found dead is replaced
    while work remains.
    """
    queue: deque[int] = deque(pending)
    # index -> earliest perf_counter() time it may be (re-)launched
    ready_at: dict[int, float] = {}
    idle = [Worker() for _ in range(min(workers, len(queue)))]
    pool = list(idle)
    # worker -> (point index, hard deadline or None)
    busy: dict[Worker, tuple[int, float | None]] = {}

    def finish(worker: Worker, payload: dict[str, Any], alive: bool) -> None:
        index, _ = busy.pop(worker)
        if alive:
            idle.append(worker)
        else:
            worker.kill()
            pool.remove(worker)
        if payload["status"] in RETRIABLE and attempts[index] <= retries:
            delay = retry_backoff_delay(
                retry_backoff_s, points[index].name,
                attempts[index], backoff_seed,
            )
            backoffs[index].append(delay)
            if delay > 0:
                ready_at[index] = time.perf_counter() + delay
            queue.append(index)
        else:
            record(index, payload, active=len(busy))
        if not alive and queue:
            replacement = Worker()
            pool.append(replacement)
            idle.append(replacement)

    try:
        while queue or busy:
            while queue and idle:
                now = time.perf_counter()
                index = next(
                    (i for i in queue if ready_at.get(i, 0.0) <= now), None
                )
                if index is None:
                    break  # all queued points are backing off
                queue.remove(index)
                ready_at.pop(index, None)
                attempts[index] += 1
                worker = idle.pop()
                worker.send(
                    _evaluate_with_retries, points[index],
                    timeout_s=timeout_s, retries=0, **evaluate_options,
                )
                busy[worker] = (
                    index,
                    None if timeout_s is None
                    else now + timeout_s + kill_grace_s,
                )

            if busy:
                by_conn = {w.conn: w for w in busy}
                ready = _conn_wait(list(by_conn), timeout=0.05)
            else:
                time.sleep(0.01)  # only backing-off points remain
                ready = []
            for conn in ready:
                worker = by_conn[conn]
                reply = worker.recv()
                if reply["ok"]:
                    finish(worker, reply["value"][0], alive=True)
                elif reply.get("dead"):
                    finish(worker, point_payload(error=reply["error"]),
                           alive=False)
                else:
                    finish(worker, point_payload(
                        error=f"worker failed: {reply['error']}"
                    ), alive=True)

            now = time.perf_counter()
            for worker, (_, deadline) in list(busy.items()):
                if deadline is not None and now >= deadline:
                    finish(worker, point_payload(
                        status=STATUS_TIMEOUT,
                        error=f"worker killed after exceeding the "
                              f"{timeout_s}s point budget "
                              f"(+{kill_grace_s}s grace)",
                    ), alive=False)
        for worker in pool:
            worker.exit()
    finally:
        for worker in pool:
            worker.kill()


# ----------------------------------------------------------------------
# Synthetic design points (engine calibration / overlap measurement)
# ----------------------------------------------------------------------
class SyntheticDesign:
    """A wait-bound design point: ``run()`` sleeps for ``seconds`` and
    reports ``cycles`` simulated cycles.

    Used to calibrate scheduler overhead and measure worker overlap
    independently of host core count — a sleeping point occupies a
    worker slot without competing for CPU, so N workers give ~N×
    overlap even on a single core.
    """

    def __init__(self, seconds: float = 0.1, cycles: int = 50_000):
        self.seconds = seconds
        self.cycles = cycles

    def run(self) -> CoSimResult:
        time.sleep(self.seconds)
        return CoSimResult(
            exit_code=0,
            cycles=self.cycles,
            instructions=self.cycles,
            stall_cycles=0,
            wall_seconds=self.seconds,
            simulated_seconds=self.cycles / 50e6,
            halt_reason=HaltReason.EXIT,
        )

    def estimate(self) -> DesignEstimate:
        from repro.resources.estimator import estimate_design

        return estimate_design()


def synthetic_specs(n: int, seconds: float = 0.1) -> list[DesignSpec]:
    """``n`` wait-bound points for overlap measurement."""
    return [
        DesignSpec(
            name=f"synthetic-{i}",
            factory="repro.cosim.sweep:SyntheticDesign",
            params={"seconds": seconds, "cycles": 50_000 + i},
        )
        for i in range(n)
    ]
