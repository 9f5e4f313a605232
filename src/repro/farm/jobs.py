"""Worker-side job execution: every farm job kind in one place.

:func:`execute` is the one function the gateway sends to its pool
workers (:class:`~repro.runapi.pool.Worker`); it polls the worker's
preempt flag through :func:`~repro.runapi.pool.preempt_requested`.
Each executor returns one of:

* ``{"outcome": "done", "result": <doc>, "cycles": n}`` — the job
  finished; ``result`` is the JSON document the gateway serializes
  (deterministically — equal work gives equal bytes) and caches,
* ``{"outcome": "preempted", "state": <doc>, "cycles": n}`` — a
  cycle-granular job (``scenario`` / ``multi_scenario``) observed the
  preempt flag; ``state`` is a :mod:`repro.cosim.checkpoint` document
  the gateway hands to the *next* worker, which restores it into a
  freshly built simulation — the PR-5 bit-identical resume, now across
  process (and in principle machine) boundaries,
* ``{"outcome": "preempted", "records": [...], "remaining": [...],
  "cycles": n}`` — a sharded job (``sweep`` / ``campaign``) was
  preempted at a unit boundary; completed unit records travel back
  (the journal form of migration) and the remaining indices are
  re-dispatched elsewhere.

The executors deliberately reuse the existing engines rather than
reimplementing them: ``simulate``, ``sweep`` and ``campaign`` units run
through the sweep engine's own evaluate-retry-backoff loop (same
classification, same ``run_timeout`` budget enforcement, same journal
record shape); ``campaign`` units evaluate with the fault campaign's
per-trial evaluator and turn each payload into a trial record with the
campaign's own step, so they are the exact records the local runner
emits.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.cosim.checkpoint import checkpoint_to_dict, restore_from_dict
from repro.cosim.environment import CoSimDeadlock
from repro.cosim.partition import DesignSpec
from repro.cosim.sweep import _evaluate_with_retries, _payload_to_jsonable
from repro.faults.inject import run_state
from repro.iss.cpu import HaltReason
from repro.runapi.pool import preempt_requested

#: cycles between preempt-flag checks inside a scenario run — small
#: enough that a preempt lands within microseconds of simulated work,
#: large enough that the slice loop adds no measurable overhead.
PREEMPT_SLICE = 4_096

ShouldPreempt = Callable[[], bool]


class JobError(RuntimeError):
    """A malformed or unexecutable job payload (maps to job state
    ``failed``, never to a worker crash)."""


# ----------------------------------------------------------------------
# scenario / multi_scenario: cycle-granular, checkpoint-preemptible
# ----------------------------------------------------------------------
def _scenario_family(kind: str):
    """What separates the single-CPU and K-CPU scenario kinds:
    ``(scenario class, generator class, default max_cycles, sim
    builder, capture function)``."""
    if kind == "scenario":
        from repro.conformance.oracle import _capture, _make_sim
        from repro.conformance.scenario import (
            Scenario,
            ScenarioGenerator,
            build_program,
        )

        def build(scenario, fast_forward):
            program = build_program(scenario)
            return _make_sim(scenario, program, fast_forward=fast_forward)

        return Scenario, ScenarioGenerator, 60_000, build, _capture

    from repro.conformance.multicpu import (
        MultiScenario,
        MultiScenarioGenerator,
        build_multi_sim,
        build_programs,
    )
    from repro.conformance.oracle import _capture_multi

    def build_multi(scenario, fast_forward):
        programs = build_programs(scenario)
        return build_multi_sim(scenario, programs, fast_forward=fast_forward)

    return (MultiScenario, MultiScenarioGenerator, 120_000, build_multi,
            _capture_multi)


def _run_preemptible(
    sim,
    *,
    max_cycles: int,
    should_preempt: ShouldPreempt,
    preempt_slice: int,
) -> tuple[str, str] | None:
    """Drive ``sim`` to its budget in preempt-checkable slices.

    Returns ``(status, error)`` when the run reached a terminal state,
    or ``None`` when the preempt flag was observed (the caller
    checkpoints).  Slicing is invisible to the observable surface: the
    deadlock watchdog checks on absolute cycle multiples and every
    restore is bit-identical, so N slices ≡ one uninterrupted run
    (``tests/test_farm_migrate.py`` enforces this end to end).
    """
    state = run_state(sim)
    slices_done = 0
    while True:
        remaining = max_cycles - state.cycle
        if remaining <= 0:
            return "max_cycles", ""
        if slices_done > 0 and should_preempt():
            # like the shard executors' ``pos > 0`` guard: a stint
            # always advances at least one slice, so a preempt storm
            # cannot livelock a job
            return None
        step = min(preempt_slice, remaining)
        try:
            result = sim.run(until=step)
        except CoSimDeadlock as exc:
            return "deadlock", str(exc)
        except Exception as exc:  # any crash is an observable
            return f"error:{type(exc).__name__}", str(exc)
        if result.halt_reason is HaltReason.MAX_CYCLES:
            if state.cycle >= max_cycles:
                return "max_cycles", ""
            state.resume()  # clear the slice-budget halt and continue
            slices_done += 1
            continue
        return "exit", ""


def run_scenario_job(
    kind: str,
    payload: dict[str, Any],
    resume_state: dict[str, Any] | None,
    should_preempt: ShouldPreempt,
    preempt_slice: int = PREEMPT_SLICE,
) -> dict[str, Any]:
    """Execute one single-CPU (``kind="scenario"``) or K-CPU
    (``"multi_scenario"``) conformance scenario, checkpointably."""
    scenario_cls, generator_cls, default_max_cycles, build, capture = (
        _scenario_family(kind))
    if "scenario" in payload:
        scenario = scenario_cls.from_dict(payload["scenario"])
    elif "seed" in payload and "index" in payload:
        gen = generator_cls(
            seed=int(payload["seed"]),
            max_cycles=int(payload.get("max_cycles", default_max_cycles)),
        )
        scenario = gen.scenario(int(payload["index"]))
    else:
        raise JobError(
            f'{kind} payload needs {{"scenario": {{...}}}} or '
            f'{{"seed": S, "index": I}}'
        )
    sim, _trace = build(scenario, bool(payload.get("fast_forward", True)))
    state = run_state(sim)
    if resume_state is not None:
        restore_from_dict(sim, resume_state)
        state.resume()  # clear the halt at the preemption point
    start_cycle = state.cycle
    finished = _run_preemptible(
        sim,
        max_cycles=scenario.max_cycles,
        should_preempt=should_preempt,
        preempt_slice=preempt_slice,
    )
    stint = state.cycle - start_cycle
    if finished is None:
        return {
            "outcome": "preempted",
            "state": checkpoint_to_dict(sim, label=scenario.name),
            "cycles": stint,
        }
    status, error = finished
    # trace=None: the FSL transaction log is a tracer, not simulation
    # state, so it cannot migrate — captured uniformly as empty to keep
    # fresh and migrated runs byte-identical.
    obs = capture(sim, "farm", status, error, None)
    return {
        "outcome": "done",
        "result": {
            "family": kind,
            "name": scenario.name,
            "observation": obs.comparable(),
        },
        "cycles": stint,
    }


# ----------------------------------------------------------------------
# simulate: one design point through the sweep evaluator
# ----------------------------------------------------------------------
def _spec_from_payload(data: dict[str, Any], default_name: str) -> DesignSpec:
    if "factory" not in data:
        raise JobError('design payload is missing "factory"')
    return DesignSpec(
        name=str(data.get("name", default_name)),
        factory=data["factory"],
        params=dict(data.get("params", {})),
    )


def _retry_options(payload: dict[str, Any]) -> dict[str, Any]:
    """The retry policy a job payload asks for, as
    :func:`~repro.cosim.sweep._evaluate_with_retries` keywords."""
    return {
        "timeout_s": payload.get("timeout_s"),
        "retries": int(payload.get("retries", 0)),
        "retry_backoff_s": float(payload.get("retry_backoff_s", 0.0)),
        "backoff_seed": int(payload.get("backoff_seed", 0)),
    }


def run_simulate_job(payload: dict[str, Any]) -> dict[str, Any]:
    """Evaluate one design point (build + run + classify + estimate)."""
    spec = _spec_from_payload(
        payload.get("design", payload), default_name="farm-design"
    )
    result, attempts, backoffs = _evaluate_with_retries(
        spec,
        engine=str(payload.get("engine", "auto")),
        **_retry_options(payload),
    )
    doc = _payload_to_jsonable(result)
    cycles = (doc.get("result") or {}).get("cycles") or 0
    return {
        "outcome": "done",
        "result": {
            "family": "simulate",
            "name": spec.name,
            "attempts": attempts,
            "backoff_s": backoffs,
            **doc,
        },
        "cycles": int(cycles),
    }


# ----------------------------------------------------------------------
# sweep shards: units preempt/migrate at point boundaries
# ----------------------------------------------------------------------
def run_sweep_shard(
    payload: dict[str, Any],
    units: list[int],
    should_preempt: ShouldPreempt,
) -> dict[str, Any]:
    """Evaluate the sweep points at indices ``units``.

    Each completed unit becomes a journal-shaped record (the
    :class:`~repro.cosim.sweep.SweepJournal` line layout); a preempt
    observed between units returns the completed records plus the
    untouched indices for re-dispatch.
    """
    points = payload.get("points")
    if not isinstance(points, list) or not points:
        raise JobError('sweep payload needs a non-empty "points" array')
    records: list[dict[str, Any]] = []
    cycles = 0
    for pos, index in enumerate(units):
        if should_preempt() and pos > 0:
            return {
                "outcome": "preempted",
                "records": records,
                "remaining": list(units[pos:]),
                "cycles": cycles,
            }
        spec = _spec_from_payload(points[index], f"point-{index}")
        result, attempts, backoffs = _evaluate_with_retries(
            spec,
            engine=str(payload.get("engine", "auto")),
            **_retry_options(payload),
        )
        doc = _payload_to_jsonable(result)
        cycles += (doc.get("result") or {}).get("cycles") or 0
        records.append(
            {
                "index": index,
                "attempts": attempts,
                "backoff_s": backoffs,
                "payload": doc,
            }
        )
    return {"outcome": "done", "records": records, "cycles": cycles}


# ----------------------------------------------------------------------
# campaign shards: trials preempt/migrate at trial boundaries
# ----------------------------------------------------------------------
def campaign_config_from_dict(data: dict[str, Any]):
    """Rebuild a :class:`~repro.faults.campaign.CampaignConfig` from
    its ``to_dict()`` form (the wire form of a campaign job)."""
    from repro.faults.campaign import CampaignConfig

    data = dict(data)
    if "kinds" in data:
        data["kinds"] = tuple(data["kinds"])
    return CampaignConfig(**data)


def run_campaign_shard(
    payload: dict[str, Any],
    units: list[int],
    should_preempt: ShouldPreempt,
) -> dict[str, Any]:
    """Run the campaign trials at indices ``units``.

    The shard takes the design's fault-free reference from its process
    (built and baselined there on first use; deterministic, so every
    shard agrees on ``baseline_cycles``) and evaluates each
    trial through the campaign's own evaluator, producing the exact
    per-trial records :func:`repro.faults.campaign.run_campaign`
    emits — the gateway merge is therefore byte-identical to a local
    scalar campaign.
    """
    from repro.faults.campaign import (
        _campaign_reference,
        _evaluate_trial,
        _trial_from_evaluation,
        campaign_specs,
    )

    if "config" not in payload:
        raise JobError('campaign payload needs a "config" object')
    config = campaign_config_from_dict(payload["config"])
    reference = _campaign_reference(config)
    specs = campaign_specs(config, reference)
    records: list[dict[str, Any]] = []
    cycles = 0
    for pos, index in enumerate(units):
        if should_preempt() and pos > 0:
            return {
                "outcome": "preempted",
                "records": records,
                "remaining": list(units[pos:]),
                "baseline_cycles": reference.baseline_cycles,
                "cycles": cycles,
            }
        # engine stays "auto": the trial evaluator applies config.engine
        result, _attempts, _backoffs = _evaluate_with_retries(
            specs[index], evaluate=_evaluate_trial,
            **_retry_options(payload),
        )
        trial = _trial_from_evaluation(
            specs[index], result["status"], result["metrics"],
            result["error"],
        )
        trial["trial"] = index
        cycles += trial.get("cycles") or 0
        records.append({"index": index, "trial": trial})
    return {
        "outcome": "done",
        "records": records,
        "baseline_cycles": reference.baseline_cycles,
        "cycles": cycles,
    }


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def execute(
    kind: str,
    payload: dict[str, Any],
    *,
    units: list[int] | None = None,
    resume_state: dict[str, Any] | None = None,
    should_preempt: ShouldPreempt = preempt_requested,
    preempt_slice: int = PREEMPT_SLICE,
) -> dict[str, Any]:
    """Run one farm task: the function the gateway sends to its pool
    workers.  ``should_preempt`` defaults to the serving worker's
    preempt flag."""
    if kind in ("scenario", "multi_scenario"):
        return run_scenario_job(
            kind, payload, resume_state, should_preempt, preempt_slice
        )
    if kind == "simulate":
        return run_simulate_job(payload)
    if kind == "sweep":
        return run_sweep_shard(payload, units or [], should_preempt)
    if kind == "campaign":
        return run_campaign_shard(payload, units or [], should_preempt)
    raise JobError(f"unknown job kind {kind!r}")
