"""Design-space sweeps on the lockstep vector engine.

:func:`sweep_batched` is the batched sibling of
:func:`repro.cosim.sweep.sweep`: it evaluates the same design points
and returns the same :class:`~repro.cosim.sweep.SweepReport`, but
points whose hardware is structurally identical (same
:func:`~repro.sysgen.batched.lockstep_signature` — the blocks, ports,
wiring and probes, not the value-like parameters) are simulated
together as lanes of one :class:`~repro.cosim.batch.BatchedCoSimulation`
instead of one by one.  Programs may differ per lane, so e.g. a CORDIC
sweep over datasets, iteration counts or compiler options batches even
though every point compiles its own executable.

Everything the vector engine cannot express falls back to the scalar
per-point evaluator with identical classification: software-only
points (no hardware model), points whose signature matches no other
point (a single lane gains nothing), structurally incompatible groups
(:class:`~repro.sysgen.batched.BatchUnsupported`), and lanes the
engine evicts mid-flight (replayed from cycle 0 on the scalar engine —
determinism makes the replay bit-identical).  Post-run acceptance runs
through the design's ``check(cpu, result)`` hook when it has one — the
exact tail of its ``run()`` — and every lane is classified by the
scalar sweep's own ladder (:func:`~repro.cosim.sweep._run_and_classify`),
so verdicts and diagnostic text match the scalar sweep byte for byte.

The report differs from a ``workers=0`` scalar sweep only in
wall-clock fields (``wall_seconds`` and per-result timing, which are
not conformance observables) — the equivalence test in
``tests/test_batched_cosim.py`` locks this down.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Iterable

from repro.cosim.batch import BatchedCoSimulation, LaneResult, lane_factory
from repro.cosim.dse import DSEResult, STATUS_OK
from repro.cosim.environment import CoSimResult, CoSimulation
from repro.cosim.partition import DesignPoint, DesignSpec
from repro.cosim.sweep import (
    SweepProgress,
    SweepReport,
    _run_and_classify,
    _to_dse_result,
    cache_lookup,
    cache_store,
    point_payload,
)
from repro.runapi import RunPolicy
from repro.runapi.durable import ResultCache
from repro.runapi.engine import engine_scope
from repro.runapi.fingerprint import design_fingerprint
from repro.sysgen.batched import lockstep_signature

DEFAULT_BATCH_WIDTH = 32


def _lane_run(lane_result: LaneResult, instance, cpu) -> CoSimResult:
    """End one lane the way ``instance.run()`` ends a scalar run: raise
    the lane's run error, else apply the design's post-run ``check``
    (when it has one) and return the result."""
    if lane_result.error is not None:
        raise lane_result.error
    check = getattr(instance, "check", None)
    if check is not None:
        check(cpu, lane_result.result)
    return lane_result.result


def sweep_batched(
    points: Iterable[DesignPoint | DesignSpec],
    *,
    batch_width: int = DEFAULT_BATCH_WIDTH,
    timeout_s: float | None = None,
    cache_dir: str | None = None,
    progress: Callable[[SweepProgress], None] | None = None,
) -> SweepReport:
    """Evaluate every design point, batching compatible hardware.

    Parameters
    ----------
    points:
        The same :class:`DesignSpec` / :class:`DesignPoint` records
        :func:`~repro.cosim.sweep.sweep` takes.
    batch_width:
        Maximum lanes per vector batch; a compatibility group larger
        than this is split into consecutive chunks.
    timeout_s:
        Wall-clock budget applied to each *batch* (and to each scalar
        fallback point) via :class:`~repro.runapi.RunPolicy` — lanes
        still running when it expires report ``timeout``.  Unlike the
        scalar sweep's per-point budget this is shared by the whole
        chunk, so timeouts are coarser under batching (wall-clock
        outcomes are environmental either way).
    cache_dir:
        Same on-disk result cache as the scalar sweep — entries are
        interchangeable between the two engines.
    progress:
        Callback receiving a :class:`SweepProgress` after each
        completed point.

    Everything else (retries, journals, telemetry, worker pools) is a
    scalar-sweep feature: run those sweeps through
    :func:`~repro.cosim.sweep.sweep`.
    """
    if batch_width < 1:
        raise ValueError("batch_width must be >= 1")
    points = list(points)
    total = len(points)
    start = time.perf_counter()
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    payloads: list[dict[str, Any] | None] = [None] * total
    instances: list[Any] = [None] * total
    state = {"done": 0, "cache_hits": 0, "cycles": 0}
    results: list[DSEResult | None] = [None] * total

    def record(index: int) -> None:
        result = _to_dse_result(points[index], payloads[index], attempts=1)
        results[index] = result
        state["done"] += 1
        if result.cache_hit:
            state["cache_hits"] += 1
        if result.result is not None:
            state["cycles"] += result.result.cycles
        if progress is not None:
            progress(
                SweepProgress(
                    total=total,
                    done=state["done"],
                    cache_hits=state["cache_hits"],
                    active_workers=0,
                    wall_seconds=time.perf_counter() - start,
                    cycles_done=state["cycles"],
                    last=result,
                )
            )

    # --- build, fingerprint, consult the cache, group ----------------
    scalar: list[int] = []
    groups: dict[Any, list[int]] = {}
    for index, point in enumerate(points):
        payload = point_payload()
        payloads[index] = payload
        try:
            instance = point.build()
        except Exception as exc:  # noqa: BLE001 - classified, not raised
            payload["error"] = f"build failed: {type(exc).__name__}: {exc}"
            record(index)
            continue
        instances[index] = instance
        fingerprint = design_fingerprint(point, instance)
        payload["fingerprint"] = fingerprint
        if cache is not None:
            hit = cache_lookup(cache, fingerprint)
            if hit is not None:
                result, estimate = hit
                payload.update(
                    status=STATUS_OK, result=result, estimate=estimate,
                    cache_hit=True,
                )
                record(index)
                continue
        model = getattr(instance, "model", None)
        if model is None:
            scalar.append(index)  # software-only partition
            continue
        try:
            signature = lockstep_signature(model)
        except Exception:  # noqa: BLE001 - unbatchable structure
            scalar.append(index)
            continue
        groups.setdefault(signature, []).append(index)

    # a lone lane gains nothing from the vector engine
    for signature, members in list(groups.items()):
        if len(members) < 2:
            scalar.extend(members)
            del groups[signature]

    # --- run each compatibility group in lockstep chunks -------------
    policy = RunPolicy(wall_timeout_s=timeout_s)
    for members in groups.values():
        for lo in range(0, len(members), batch_width):
            chunk = members[lo:lo + batch_width]
            try:
                with engine_scope("interpreter"):
                    sims = [
                        CoSimulation(
                            instances[i].program,
                            instances[i].model,
                            instances[i].mb,
                            cpu_config=instances[i].cpu_config,
                        )
                        for i in chunk
                    ]
                batch = BatchedCoSimulation(
                    [lane_factory(points[i].build) for i in chunk],
                    sims=sims,
                )
            except Exception:  # noqa: BLE001 - scalar engine reproduces it
                for i in chunk:  # unpin the lane models for the scalar run
                    instances[i].model.set_engine("auto")
                scalar.extend(chunk)
                continue
            lane_results = batch.run(policy=policy)
            for lane, index in enumerate(chunk):
                payload = payloads[index]
                _run_and_classify(
                    instances[index], payload,
                    run=functools.partial(
                        _lane_run, lane_results[lane], instances[index],
                        batch.lane(lane).cpu,
                    ),
                )
                cache_store(cache, payload)
                record(index)

    # --- scalar fallbacks --------------------------------------------
    for index in sorted(scalar):
        payload = payloads[index]
        _run_and_classify(instances[index], payload, timeout_s)
        cache_store(cache, payload)
        record(index)

    return SweepReport(
        results=list(results),  # type: ignore[arg-type]
        wall_seconds=time.perf_counter() - start,
        workers=0,
    )
