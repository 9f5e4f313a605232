"""Seeded fault-injection campaigns with rollback recovery.

A campaign answers the robustness question the paper's board-level
flow cannot: *what happens to this hardware/software partition when a
single-event upset lands mid-run?*  It fault-free-baselines a design,
derives N :class:`~repro.faults.plan.FaultPlan` trials of
``faults_per_trial`` faults each from a master seed, runs every trial
to a classified outcome —

``masked``
    the program finished with exit 0 and the golden-model check passed,
``sdc``
    exit 0 but wrong answers (silent data corruption),
``detected``
    a nonzero exit or a tripped architectural invariant,
``hang``
    the progress watchdog fired or the cycle budget ran out,
``crash``
    the simulation raised (e.g. a bus fault from a corrupted pointer),
``recovered``
    any of the above, converted to a clean finish by rolling back to
    the pre-fault checkpoint and re-running,

— and aggregates them into a deterministic report: same seed and
configuration give a byte-identical JSON document, sequentially, on
any number of workers or on the lockstep vector engine, because trials
are pure functions of their parameters and the report carries no
wall-clock fields.

Trial fan-out reuses the DSE sweep engine
(:func:`repro.cosim.sweep.sweep` with a custom ``evaluate``), so
campaigns inherit its worker pool, per-trial timeouts, retry/backoff
and resume journal for free; ``run_campaign(batch_width=N)`` instead
runs N trials at a time as lanes of one
:class:`~repro.cosim.batch.BatchedCoSimulation`.  Both paths drive
every plan through the one :class:`~repro.faults.inject.FaultInjector`
cursor.  Every per-trial record — a classified trial, an early exit, a
lockstep lane's hang, or the ``crash`` record of a trial whose
evaluation died — is built by :func:`_trial_record` (a finished run's
through :func:`_end_record`), and :func:`_trial_from_evaluation` is
the one step from a sweep-engine payload to a record (shared with the
job farm's campaign shards).

What no fault seed changes is built once per process and design, as
the design's fault-free reference (:func:`_reference`): the program,
the baseline, the injectable targets, the fault-free tail run and the
lanes' hardware template.  Every campaign path and every trial starts
from it.
"""

from __future__ import annotations

import copy
import functools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.cosim.checkpoint import checkpoint_to_dict, restore_from_dict
from repro.cosim.dse import STATUS_OK, DSEResult
from repro.cosim.environment import CoSimDeadlock, CoSimulation
from repro.cosim.partition import DesignSpec
from repro.cosim.sweep import SweepProgress, point_payload, sweep
from repro.faults.detect import check_invariants
from repro.faults.inject import (
    FaultInjector,
    MultiFaultInjector,
    run_state,
)
from repro.faults.plan import (
    FAULT_KINDS,
    MULTI_FAULT_KINDS,
    FaultPlan,
    generate_plan,
)
from repro.iss.cpu import HaltReason
from repro.runapi import RunOutcome
from repro.runapi.backoff import retry_backoff_delay
from repro.runapi.engine import (
    SCALAR_ENGINES,
    EngineError,
    engine_scope,
    resolve_engine,
)
from repro.telemetry.events import COSIM_TRACK, ROLLBACK, TelemetryEvent

OUTCOME_MASKED = "masked"
OUTCOME_SDC = "sdc"
OUTCOME_DETECTED = "detected"
OUTCOME_HANG = "hang"
OUTCOME_CRASH = "crash"
OUTCOME_RECOVERED = "recovered"

ALL_OUTCOMES = (
    OUTCOME_MASKED, OUTCOME_SDC, OUTCOME_DETECTED,
    OUTCOME_HANG, OUTCOME_CRASH, OUTCOME_RECOVERED,
)

#: outcomes that trigger rollback recovery (everything but masked)
RECOVERABLE = frozenset(
    {OUTCOME_SDC, OUTCOME_DETECTED, OUTCOME_HANG, OUTCOME_CRASH}
)


@dataclass
class CampaignConfig:
    """Everything that determines a campaign, and nothing else.

    Two configs with equal fields produce byte-identical reports;
    ``to_dict`` is embedded in the report for provenance.
    """

    app: str        # "cordic" | "matmul" | "cordic-pipe" | "mesh"
    design: dict[str, Any] = field(default_factory=dict)
    trials: int = 100
    seed: int = 2005
    recovery: str = "none"         # "none" | "rollback"
    max_retries: int = 2
    backoff_s: float = 0.0         # recorded, never slept (see run_trial)
    deadlock_window: int = 2_048
    max_cycles: int = 2_000_000
    kinds: tuple[str, ...] = FAULT_KINDS
    faults_per_trial: int = 1
    engine: str = "auto"           # scalar engine for each trial

    def __post_init__(self) -> None:
        if self.app not in ("cordic", "matmul", "cordic-pipe", "mesh"):
            raise ValueError(f"unknown campaign app {self.app!r}")
        if (self.app in ("cordic-pipe", "mesh")
                and self.kinds == FAULT_KINDS):
            # the K-CPU apps default to the full kind pool, link and
            # node faults included
            self.kinds = MULTI_FAULT_KINDS
        if self.recovery not in ("none", "rollback"):
            raise ValueError(f"unknown recovery policy {self.recovery!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.engine not in ("auto", *SCALAR_ENGINES):
            raise EngineError(
                f"campaign engine must be auto/compiled/interpreter, not "
                f"{self.engine!r}; batched campaigns go through "
                f"run_campaign(batch_width=...) / mb32-faultsim --batch"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "app": self.app,
            "design": dict(self.design),
            "trials": self.trials,
            "seed": self.seed,
            "recovery": self.recovery,
            "max_retries": self.max_retries,
            "backoff_s": self.backoff_s,
            "deadlock_window": self.deadlock_window,
            "max_cycles": self.max_cycles,
            "kinds": list(self.kinds),
            "faults_per_trial": self.faults_per_trial,
            "engine": self.engine,
        }


def build_design(app: str, design_params: dict[str, Any]):
    """Instantiate the application design a campaign targets.

    Only hardware-accelerated partitions are injectable (the software-
    only path has no co-simulation to perturb), so ``p``/``block`` must
    be >= 1.
    """
    if app == "cordic":
        from repro.apps.cordic.design import CordicDesign

        design = CordicDesign(**design_params)
        if design.p == 0:
            raise ValueError("fault campaigns need a hardware partition "
                             "(CORDIC p >= 1)")
        return design
    if app == "cordic-pipe":
        from repro.apps.cordic.pipeline import CordicPipelineDesign

        return CordicPipelineDesign(**design_params)
    if app == "mesh":
        from repro.apps.meshflow import MeshFlowDesign

        return MeshFlowDesign(**design_params)
    from repro.apps.matmul.design import MatmulDesign

    design = MatmulDesign(**design_params)
    if design.block == 0:
        raise ValueError("fault campaigns need a hardware partition "
                         "(matmul block >= 1)")
    return design


def _make_sim(design, deadlock_window: int):
    if getattr(design, "is_multi", False):
        return design.build_sim(deadlock_window=deadlock_window)
    return CoSimulation(
        design.program,
        design.model,
        design.mb,
        cpu_config=design.cpu_config,
        deadlock_window=deadlock_window,
    )


def _finish_and_classify(
    sim: CoSimulation,
    design,
    run: Callable[[], None],
) -> tuple[str, str]:
    """Execute ``run`` and classify what the simulation ended as."""
    try:
        run()
    except CoSimDeadlock as exc:
        return OUTCOME_HANG, f"watchdog: {exc}"
    except Exception as exc:  # a corrupted run may fault anywhere
        return OUTCOME_CRASH, f"{type(exc).__name__}: {exc}"
    return _classify_state(sim, design)


def _classify_state(sim, design) -> tuple[str, str]:
    """Classify an already-finished simulation (the non-raising half of
    :func:`_finish_and_classify`; the batched path shares it so lockstep
    lanes land on exactly the scalar classification)."""
    if run_state(sim).exit_code is None:
        return OUTCOME_HANG, "cycle budget exhausted without exit"
    anomalies = check_invariants(sim)
    if anomalies:
        return OUTCOME_DETECTED, "; ".join(anomalies)
    try:
        # a K-CPU design's verify reads the sink node's BRAM
        design._verify(run_state(sim))
    except AssertionError as exc:
        return OUTCOME_SDC, str(exc)
    return OUTCOME_MASKED, ""


def _trial_record(
    plan: dict[str, Any],
    outcome: str,
    detail: str,
    *,
    original_outcome: str | None = None,
    injected: Sequence[dict[str, Any]] = (),
    rollbacks: int = 0,
    backoff_s: Sequence[float] = (),
    checkpoint_cycle: int | None = None,
    cycles: int | None = None,
    exit_code: int | None = None,
) -> dict[str, Any]:
    """One per-trial record of the campaign report (``plan`` is the
    trial's :meth:`FaultPlan.to_dict`).  The defaults describe a trial
    that never reached its fault: nothing injected, no checkpoint, no
    rollback — with no cycles either, the ``crash`` record of a trial
    whose evaluation itself died."""
    return {
        "seed": plan["seed"],
        "plan": plan,
        "injected": list(injected),
        "rollbacks": rollbacks,
        "backoff_s": list(backoff_s),
        "checkpoint_cycle": checkpoint_cycle,
        "outcome": outcome,
        "original_outcome": original_outcome or outcome,
        "detail": detail,
        "cycles": cycles,
        "exit_code": exit_code,
    }


def _end_record(
    plan: FaultPlan,
    state,
    outcome: str,
    detail: str,
    *,
    checkpoint_cycle: int | None = None,
    injected: Sequence[dict[str, Any]] = (),
    **recovery: Any,
) -> dict[str, Any]:
    """The record of a trial whose run ended, read off its run-state
    facade ``state``.  Without a ``checkpoint_cycle`` the program ended
    before its first fault (nothing landed, rollback never reached);
    otherwise it is the classified record of the faulted run, with
    ``recovery`` carrying :func:`run_trial`'s rollback fields."""
    if checkpoint_cycle is None:
        detail = detail or "program ended before the fault cycle"
        injected = ()
    return _trial_record(
        plan.to_dict(), outcome, detail, injected=injected,
        checkpoint_cycle=checkpoint_cycle, cycles=state.cycle,
        exit_code=state.exit_code, **recovery,
    )


def run_trial(
    app: str,
    design_params: dict[str, Any],
    plan: dict[str, Any],
    *,
    recovery: str = "none",
    max_retries: int = 2,
    backoff_s: float = 0.0,
    deadlock_window: int = 2_048,
    max_cycles: int = 2_000_000,
    engine: str = "auto",
) -> dict[str, Any]:
    """One seeded injection: run, classify, optionally roll back.

    The pre-fault checkpoint is taken in memory immediately before the
    first scheduled fault; rollback restores it, clears the halt and
    re-runs **without re-injecting** (an SEU is transient), so a
    deterministic simulation recovers in one retry.  The retry backoff
    schedule is computed with the sweep engine's seeded jitter and
    *recorded*, never slept — campaign reports must not depend on wall
    time.

    The program comes from the design's fault-free reference
    (:func:`_reference`), built once per process; the trial runs it on
    new hardware.  The build is deterministic, so the record is the one
    a fresh build would give.

    Returns a plain JSON-safe dict — the per-trial record of the
    campaign report.
    """
    fault_plan = FaultPlan.from_dict(plan)
    reference = _reference(app, design_params, engine, deadlock_window,
                           max_cycles)
    with engine_scope(engine):
        design = reference.fresh_design()
        sim = _make_sim(design, deadlock_window)
    multi = hasattr(sim, "topology")
    cpu = run_state(sim)

    sim.run(until=min(fault_plan.first_cycle, max_cycles))
    if cpu.halted and cpu.halt_reason is not HaltReason.MAX_CYCLES:
        # The program finished before the fault cycle — nothing landed.
        outcome, detail = _finish_and_classify(sim, design, lambda: None)
        return _end_record(fault_plan, cpu, outcome, detail)

    checkpoint = checkpoint_to_dict(sim, label=f"pre-fault {fault_plan.seed}")

    injector_cls = MultiFaultInjector if multi else FaultInjector
    injector = injector_cls(sim, fault_plan)
    outcome, detail = _finish_and_classify(
        sim, design, lambda: injector.run(max_cycles)
    )
    original = (outcome, detail)
    rollbacks = 0

    if recovery == "rollback" and outcome in RECOVERABLE:
        for rollbacks in range(1, max_retries + 1):
            restore_from_dict(sim, checkpoint)
            cpu.resume()
            if sim.telemetry is not None:
                sim.telemetry.bus.emit(
                    TelemetryEvent(
                        ROLLBACK, checkpoint["cycle"], COSIM_TRACK,
                        value=rollbacks,
                    )
                )
            retried = _finish_and_classify(
                sim, design,
                lambda: sim.run(until=max_cycles - checkpoint["cycle"]),
            )
            if retried[0] == OUTCOME_MASKED:
                break
        if rollbacks:
            outcome, detail = _after_rollback(original, retried, rollbacks)

    return _end_record(
        fault_plan, cpu, outcome, detail,
        checkpoint_cycle=checkpoint["cycle"],
        injected=injector.log,
        original_outcome=original[0],
        rollbacks=rollbacks,
        backoff_s=_backoff_schedule(backoff_s, fault_plan.seed, rollbacks),
    )


def _after_rollback(original: tuple[str, str], retried: tuple[str, str],
                    rollbacks: int) -> tuple[str, str]:
    """The ``(outcome, detail)`` a trial reports after ``rollbacks``
    re-runs from its checkpoint, the last of which classified as
    ``retried``; ``original`` is the faulted run's classification."""
    outcome, detail = retried
    if outcome == OUTCOME_MASKED:
        return (OUTCOME_RECOVERED,
                f"recovered after {rollbacks} rollback(s) from {original[0]}")
    return outcome, detail if outcome != original[0] else original[1]


def _backoff_schedule(backoff_s: float, seed: str,
                      rollbacks: int) -> list[float]:
    """The retry delays of ``rollbacks`` rollbacks: seeded jitter,
    recorded and never slept."""
    return [retry_backoff_delay(backoff_s, f"trial/{seed}", attempt)
            for attempt in range(1, rollbacks + 1)]


# ----------------------------------------------------------------------
# Sweep-engine adapter
# ----------------------------------------------------------------------
def _evaluate_trial(
    point: DesignSpec,
    cache_dir: str | None = None,
    timeout_s: float | None = None,
    telemetry: bool = False,
) -> dict[str, Any]:
    """Sweep-engine ``evaluate`` hook: one trial per design point.

    The trial record travels in the payload's ``metrics`` slot; trials
    are never cached (``cache_dir`` is ignored) and a healthy trial is
    always ``STATUS_OK`` regardless of its fault outcome — outcomes
    are campaign data, not evaluation failures.
    """
    del cache_dir, timeout_s, telemetry
    params = point.params
    try:
        trial = run_trial(
            params["app"],
            params["design"],
            params["plan"],
            recovery=params["recovery"],
            max_retries=params["max_retries"],
            backoff_s=params["backoff_s"],
            deadlock_window=params["deadlock_window"],
            max_cycles=params["max_cycles"],
            engine=params.get("engine", "auto"),
        )
    except Exception as exc:
        return point_payload(
            error=f"trial failed: {type(exc).__name__}: {exc}"
        )
    return point_payload(status=STATUS_OK, metrics=trial)


def _trial_from_evaluation(
    spec: DesignSpec,
    status: str,
    metrics: dict[str, Any] | None,
    error: str | None,
) -> dict[str, Any]:
    """The report record of one trial from its evaluation outcome: the
    trial's own record, or a ``crash`` record when the evaluation
    itself died (trial raised, worker crash, ...)."""
    if status == STATUS_OK and metrics is not None:
        return dict(metrics)
    return _trial_record(
        spec.params["plan"], OUTCOME_CRASH,
        error or "trial evaluation failed",
    )


# ----------------------------------------------------------------------
# The campaign report
# ----------------------------------------------------------------------
@dataclass
class TrialOutcome(RunOutcome):
    """:class:`~repro.runapi.RunOutcome` view of one per-trial record.

    The campaign report keeps trials as plain dicts (byte-stable JSON);
    this wrapper gives them the shared ``status`` / ``error`` /
    ``cycles`` surface: a ``masked`` trial is ``status == "ok"``, any
    other classification becomes the status with the detail as the
    error.  ``to_dict()`` layers the core keys over the full record.
    """

    record: dict[str, Any]

    @property
    def outcome(self) -> str:
        return self.record["outcome"]

    @property
    def status(self) -> str:
        return "ok" if self.outcome == OUTCOME_MASKED else self.outcome

    @property
    def error(self) -> str | None:
        return self.record.get("detail") or None

    @property
    def cycles(self) -> int | None:
        return self.record.get("cycles")

    def extra_dict(self) -> dict[str, Any]:
        return dict(self.record)


@dataclass
class CampaignReport:
    """Outcome of one campaign: config echo, baseline, every trial."""

    config: CampaignConfig
    baseline_cycles: int
    trials: list[dict[str, Any]]
    workers: int = 0

    @property
    def outcomes(self) -> list[TrialOutcome]:
        """The trials as :class:`~repro.runapi.RunOutcome` records."""
        return [TrialOutcome(t) for t in self.trials]

    @property
    def counts(self) -> dict[str, int]:
        counts = {outcome: 0 for outcome in ALL_OUTCOMES}
        for trial in self.trials:
            counts[trial["outcome"]] = counts.get(trial["outcome"], 0) + 1
        return counts

    def to_dict(self) -> dict[str, Any]:
        """Deterministic JSON form — deliberately no wall-clock fields,
        so equal (config, seed) gives a byte-identical document."""
        return {
            "format": "mb32-faultsim-report",
            "version": 1,
            "config": self.config.to_dict(),
            "baseline_cycles": self.baseline_cycles,
            "counts": self.counts,
            "trials": self.trials,
        }

    def to_markdown(self) -> str:
        counts = self.counts
        total = len(self.trials)
        lines = [
            f"# Fault campaign: {self.config.app} "
            f"({self.config.trials} trials, seed {self.config.seed}, "
            f"recovery={self.config.recovery})",
            "",
            f"Fault-free baseline: {self.baseline_cycles} cycles.",
            "",
            "| outcome | trials | share |",
            "|---|---:|---:|",
        ]
        for outcome in ALL_OUTCOMES:
            n = counts[outcome]
            share = f"{100.0 * n / total:.1f}%" if total else "-"
            lines.append(f"| {outcome} | {n} | {share} |")
        detected = sum(
            counts[o] for o in
            (OUTCOME_DETECTED, OUTCOME_HANG, OUTCOME_CRASH,
             OUTCOME_RECOVERED)
        )
        lines += [
            "",
            f"Silent data corruption: {counts[OUTCOME_SDC]}/{total}; "
            f"detected or recovered: {detected}/{total}.",
            "",
        ]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The fault-free reference of a design
# ----------------------------------------------------------------------
#: most fault-free references a process keeps; the oldest are evicted
#: first.  One holds a built design, and once used its hardware
#: template and fault-free tail run: well under a megabyte for CORDIC
#: P=8.
REFERENCE_CACHE_LIMIT = 8

_references: dict[tuple, "_Reference"] = {}
_references_lock = threading.Lock()


class _Reference:
    """What every campaign of one design shares, whatever its fault
    seed: the built design, its fault-free baseline and injectable
    targets, and, built on first use, the fault-free tail run to
    ``max_cycles`` and the hardware template of the lockstep lanes.

    Nothing here is stepped after it is built: a trial runs the
    design's program on new hardware (:meth:`fresh_design`), and the
    template is only ever compiled into a batch."""

    def __init__(self, app: str, design_params: dict[str, Any],
                 engine: str, deadlock_window: int, max_cycles: int):
        self.engine = engine
        self.deadlock_window = deadlock_window
        self.max_cycles = max_cycles
        with engine_scope(engine):
            design = build_design(app, design_params)
            # also validates the fault-free partition
            self.baseline_cycles = design.run().cycles
            sim = _make_sim(design, deadlock_window)
        self.design = design
        self.channels = tuple(c.name for c in sim.all_channels())
        if hasattr(sim, "topology"):  # K-CPU design
            self.cpus = tuple(node.name for node in sim.nodes)
            self.mem_words = max(
                1, max(len(p.image) for p in design.programs) // 4)
        else:
            self.cpus = ()
            self.mem_words = max(1, len(design.program.image) // 4)
        self.ports = tuple(
            f"{block.name}:{port}"
            for model in sim._models
            for block in model.blocks
            for port in block.outputs
        )

    def fresh_design(self):
        """The design with hardware no run has touched: a copy with
        fresh hardware (a K-CPU design builds its hardware per
        simulation, so it is its own)."""
        design = self.design
        if getattr(design, "is_multi", False):
            return design
        clone = copy.copy(design)
        clone.model, clone.mb = design.fresh_hardware()
        return clone

    @functools.cached_property
    def template(self):
        """The ``(model, hub)`` every lockstep batch of the design is
        laid out from (compiled by each batch, never stepped)."""
        return self.design.fresh_hardware()

    @functools.cached_property
    def tail(self) -> tuple[Any, tuple[str, str]]:
        """The fault-free run to ``max_cycles`` on the reference's
        engine and watchdog: the end state (run-state facade) and
        classification of every rollback re-run of the design's
        campaigns."""
        with engine_scope(self.engine):
            design = self.fresh_design()
            sim = _make_sim(design, self.deadlock_window)
        verdict = _finish_and_classify(
            sim, design, lambda: sim.run(until=self.max_cycles))
        return run_state(sim), verdict


def _reference(app: str, design_params: dict[str, Any], engine: str,
               deadlock_window: int, max_cycles: int) -> _Reference:
    """The process's fault-free reference of a design, built on first
    use.  It is keyed on the app, the canonical JSON of the design
    parameters, the engine ``engine`` resolves to inside the ambient
    :func:`~repro.runapi.engine_scope`, the watchdog window and the
    cycle budget.  A design whose build or baseline fails raises on
    every call: nothing is stored for it."""
    with engine_scope(engine):
        engine = resolve_engine()
    key = (app, json.dumps(design_params, sort_keys=True), engine,
           deadlock_window, max_cycles)
    reference = _references.get(key)
    if reference is None:
        reference = _Reference(app, design_params, engine, deadlock_window,
                               max_cycles)
        with _references_lock:
            while len(_references) >= REFERENCE_CACHE_LIMIT:
                del _references[next(iter(_references))]
            _references[key] = reference
    return reference


def _campaign_reference(config: CampaignConfig) -> _Reference:
    """:func:`_reference` of ``config``'s design."""
    return _reference(config.app, config.design, config.engine,
                      config.deadlock_window, config.max_cycles)


def campaign_specs(config: CampaignConfig,
                   reference: _Reference) -> list[DesignSpec]:
    """One picklable spec per trial, each carrying its full plan drawn
    over ``reference``'s baseline and targets."""
    specs = []
    for i in range(config.trials):
        plan = generate_plan(
            f"{config.seed}/{i}",
            max_cycle=max(2, reference.baseline_cycles - 1),
            mem_words=reference.mem_words,
            channels=reference.channels,
            ports=reference.ports,
            cpus=reference.cpus,
            kinds=config.kinds,
            n_faults=config.faults_per_trial,
        )
        specs.append(
            DesignSpec(
                name=f"{config.app}-trial-{i:05d}",
                factory="repro.faults.campaign:run_trial",
                params={
                    "app": config.app,
                    "design": dict(config.design),
                    "plan": plan.to_dict(),
                    "recovery": config.recovery,
                    "max_retries": config.max_retries,
                    "backoff_s": config.backoff_s,
                    "deadlock_window": config.deadlock_window,
                    "max_cycles": config.max_cycles,
                    "engine": config.engine,
                },
            )
        )
    return specs


def run_campaign(
    config: CampaignConfig,
    *,
    workers: int = 0,
    timeout_s: float | None = None,
    retries: int = 0,
    journal: str | None = None,
    resume: bool = False,
    progress: Callable[[SweepProgress], None] | None = None,
    batch_width: int | None = None,
) -> CampaignReport:
    """Baseline the design, then run every seeded trial.

    ``workers``/``timeout_s``/``retries``/``journal``/``resume`` are
    forwarded to the sweep engine; retries only re-run trials whose
    *evaluation* failed (worker crash), never reclassify outcomes.

    ``batch_width=N`` runs the trials through the lockstep vector
    engine instead: N at a time on one
    :class:`~repro.cosim.batch.BatchedCoSimulation` laid out from one
    hardware template, with unvectorizable trials evicted to the scalar
    engine.  The report is identical to the scalar one (same
    classification, same per-trial records); the sweep-engine options
    do not apply.

    The seed-independent work is done once per process and design (see
    :func:`_reference`): the program build, the fault-free baseline and
    target list, the fault-free tail run that rollback records end on,
    and the lanes' hardware template.  A later campaign of the same
    design, with any seed, starts from them, and every scalar trial
    runs the reference's program instead of compiling its own.
    """
    if batch_width is not None:
        if batch_width < 1:
            raise ValueError("batch_width must be >= 1")
        if journal is not None or resume:
            raise ValueError(
                "batched campaigns do not support --journal/--resume; "
                "drop --batch or run the journal on the scalar engine"
            )
    reference = _campaign_reference(config)
    specs = campaign_specs(config, reference)

    if batch_width is None:
        report = sweep(
            specs,
            workers=workers,
            timeout_s=timeout_s,
            retries=retries,
            journal=journal,
            resume=resume,
            progress=progress,
            evaluate=_evaluate_trial,
        )
        trials = [
            _trial_from_evaluation(spec, r.status, r.metrics, r.error)
            for spec, r in zip(specs, report.results)
        ]
    else:
        workers = 0  # the lockstep engine runs in this process
        trials = _run_batched(config, reference, specs, batch_width,
                              progress)
    for i, trial in enumerate(trials):
        trial["trial"] = i

    return CampaignReport(
        config=config,
        baseline_cycles=reference.baseline_cycles,
        trials=trials,
        workers=max(workers, 0),
    )


# ----------------------------------------------------------------------
# The batched (lockstep vector) campaign path
# ----------------------------------------------------------------------
def _scalar_trial(spec: DesignSpec) -> dict[str, Any]:
    """Replay one trial on the scalar engine, producing exactly the
    record the sweep path would — the crash record included when the
    trial evaluation itself raises."""
    payload = _evaluate_trial(spec)
    return _trial_from_evaluation(
        spec, payload["status"], payload["metrics"], payload["error"]
    )


class _LaneInjector(FaultInjector):
    """The injector of lane ``lane`` of a lockstep batch: its
    ``stuck_at`` opens the window without a step (the lockstep driver
    advances the lane) and pins the port in the lane's array through
    :meth:`~repro.cosim.batch.BatchedCoSimulation.force_port`.  It
    writes no port object: in a template batch the only ones are the
    template's, which every lane reads."""

    def __init__(self, batch, lane: int, plan: FaultPlan):
        super().__init__(batch.sims[lane], plan)
        self._batch, self._lane = batch, lane

    def _stuck_at(self, spec, until_cycle: int) -> tuple[bool, str]:
        block_name, _, port_name = spec.target.partition(":")
        if not any(block.name == block_name and port_name in block.outputs
                   for block in self._batch.batched.template.blocks):
            return False, f"no output port {spec.target!r}"
        opened = self._open_window(spec, until_cycle, None)
        self._batch.force_port(self._lane, block_name, port_name,
                               spec.value, self.window.end)
        return opened


def _lane_stop(batch, lane: int, injector: FaultInjector,
               until_cycle: int) -> int | None:
    """Apply one lane's due faults (a :class:`_LaneInjector` pins its
    ``stuck_at`` ports on the lockstep engine); the lane's next target
    cycle, or ``None`` once its plan is finished or the lane is
    evicted."""
    from repro.sysgen.batched import BatchUnsupported

    while True:
        try:
            due = injector.apply_due(until_cycle)
        except BatchUnsupported as exc:  # a port the schedule lacks
            batch.pending_evictions[lane] = str(exc)
            return None
        if any(spec.kind != "stuck_at" for spec in due):
            # reg/mem/FIFO faults mutate only this lane's CPU and
            # channel objects — the vector arrays stay coherent, but
            # quiescence evidence is stale now
            batch.hw_touched()
        stop = injector.next_stop(until_cycle)
        if stop is None or stop > injector.state.cycle:
            return stop


def _run_trial_batch(
    config: CampaignConfig, specs: list[DesignSpec], reference: _Reference,
) -> list[dict[str, Any]]:
    """Run up to ``batch_width`` trials of one campaign in lockstep.

    Every lane starts from cycle 0 on the reference's program and
    hardware template (a lane owns only its CPU, memory and FSL
    channels).  Each lane's
    :class:`~repro.faults.inject.FaultInjector` cursor applies its
    faults to the lane's own CPU/FIFO objects and names the lane's next
    stop; ``stuck_at`` windows are pinned through the engine's
    per-cycle forcing.  Every pending lane advances to its own next
    stop, so its CPU bursts run whole blocks up to it rather than up to
    the nearest stop of any lane.

    A lane is classified in lane wherever its record can be derived
    exactly.  A watchdog trip outside a ``stuck_at`` window fires at the
    scalar watchdog's absolute boundary with the same state, so its
    exact diagnostic is synthesized.  Under ``recovery="rollback"`` a
    recoverable lane keeps its own faulted classification, and a lane
    whose CPU raised past its checkpoint is the ``crash`` the scalar
    run reports.  Every rollback re-run restores the fault-free state
    at the checkpoint and re-runs without faults, so its end is the
    design's fault-free run to ``max_cycles``: the reference's ``tail``,
    run once per process, gives that run's end state and
    classification.

    What the lane cannot give is replayed by a full scalar
    :func:`run_trial`, which determinism makes bit-identical: crashes
    of the shared vector step, watchdog trips and CPU crashes inside an
    open ``stuck_at`` window, forced ports the vector schedule does not
    track, and a CPU crash the record must end on (no rollback re-run).
    Lanes run to their end in the batch, the last few included: on
    campaign-shaped batches those few cost less there than replays.
    """
    from repro.cosim.batch import CPU_RAISED, BatchedCoSimulation

    n = len(specs)
    records: list[dict[str, Any] | None] = [None] * n
    plans = [FaultPlan.from_dict(s.params["plan"]) for s in specs]
    # run_trial's pre-fault checkpoint cycle; also the early/late pivot
    firsts = [min(plan.first_cycle, config.max_cycles) for plan in plans]
    rollback = config.recovery == "rollback" and config.max_retries > 0
    design = reference.design

    # --- build the lanes and the lockstep engine ---------------------
    try:
        batch = BatchedCoSimulation.from_template(
            design.program, design.fresh_hardware, n,
            template=reference.template, cpu_config=design.cpu_config,
            deadlock_window=config.deadlock_window)
    except Exception:  # noqa: BLE001 - scalar replays reproduce it
        return [_scalar_trial(spec) for spec in specs]

    # --- drive every lane through its fault plan ---------------------
    injectors = [_LaneInjector(batch, li, plan)
                 for li, plan in enumerate(plans)]
    while True:
        stops: dict[int, int] = {}
        for li, injector in enumerate(injectors):
            if li not in batch.pending_evictions:
                stop = _lane_stop(batch, li, injector, config.max_cycles)
                if stop is not None:
                    stops[li] = stop
        if not stops:
            break
        batch.advance(stops)

    # --- classify ----------------------------------------------------
    for li, injector in enumerate(injectors):
        lane_sim = batch.sims[li]
        cpu = lane_sim.cpu
        # stopped at or before run_trial's checkpoint: no fault landed
        prefix = cpu.cycle <= firsts[li]
        evicted = batch.pending_evictions.get(li)
        # None: the lane cannot be classified in lane (see above) and
        # the scalar replay reproduces the event and its diagnostics
        outcome = None
        if evicted is None:
            early = cpu.halted and \
                cpu.halt_reason is not HaltReason.MAX_CYCLES and prefix
            if not cpu.halted:
                cpu.halted = True
                cpu.halt_reason = HaltReason.MAX_CYCLES
            try:
                outcome, detail = _classify_state(lane_sim, design)
            except Exception:  # noqa: BLE001 - replayed below
                pass
        elif evicted == "deadlock watchdog" and injector.window is None:
            # Same absolute boundary, same retire history, no forcing
            # in flight: the lane's own scalar watchdog message is the
            # exact diagnostic, so no replay is needed.
            msg = lane_sim._deadlock_message(config.deadlock_window)
            if prefix:
                # scalar run_trial raises during the fault-free prefix
                # — the sweep wrapper's crash-filler record
                records[li] = _trial_record(
                    plans[li].to_dict(), OUTCOME_CRASH,
                    f"trial failed: CoSimDeadlock: {msg}",
                )
                continue
            outcome, detail, early = OUTCOME_HANG, f"watchdog: {msg}", False
        elif (rollback and evicted.startswith(CPU_RAISED)
              and injector.window is None and injector.log):
            # raised after its first fault landed (the faulted run's
            # crash), with no window left open to log: the rollback
            # re-runs decide where the record ends
            outcome, detail = OUTCOME_CRASH, evicted[len(CPU_RAISED):]
            early = False
        if outcome is None:
            records[li] = _scalar_trial(specs[li])
        elif not early and rollback and outcome in RECOVERABLE:
            records[li] = _rollback_record(
                config, plans[li], (outcome, detail), injector.log,
                firsts[li], *reference.tail)
        else:
            records[li] = _end_record(
                plans[li], cpu, outcome, detail,
                checkpoint_cycle=None if early else firsts[li],
                injected=injector.log,
            )
    return records


def _rollback_record(
    config: CampaignConfig,
    plan: FaultPlan,
    original: tuple[str, str],
    injected: Sequence[dict[str, Any]],
    checkpoint_cycle: int,
    tail_state,
    retried: tuple[str, str],
) -> dict[str, Any]:
    """:func:`run_trial`'s record of a recoverable trial whose faulted
    run classified as ``original``: every re-run from its checkpoint
    ends as the fault-free tail (``tail_state``, classified
    ``retried``), so one rollback recovers it or all ``max_retries``
    fail alike."""
    rollbacks = 1 if retried[0] == OUTCOME_MASKED else config.max_retries
    outcome, detail = _after_rollback(original, retried, rollbacks)
    return _end_record(
        plan, tail_state, outcome, detail,
        checkpoint_cycle=checkpoint_cycle,
        injected=injected,
        original_outcome=original[0],
        rollbacks=rollbacks,
        backoff_s=_backoff_schedule(config.backoff_s, plan.seed, rollbacks),
    )


def _run_batched(
    config: CampaignConfig,
    reference: _Reference,
    specs: list[DesignSpec],
    batch_width: int,
    progress: Callable[[SweepProgress], None] | None,
) -> list[dict[str, Any]]:
    """The ``run_campaign(batch_width=...)`` trial executor: one
    lockstep vector run per ``batch_width`` trials instead of
    ``batch_width`` full scalar simulations.

    K-CPU designs have no lockstep vector engine (lanes would need a
    whole topology each); their trials replay on the scalar path one by
    one, on the reference's program builds.  Determinism keeps the
    records equal to the sweep path's."""
    multi = getattr(reference.design, "is_multi", False)
    start = time.perf_counter()
    trials: list[dict[str, Any]] = []
    cycles_done = 0
    for lo in range(0, len(specs), batch_width):
        chunk = specs[lo:lo + batch_width]
        if multi:
            records = [_scalar_trial(spec) for spec in chunk]
        else:
            records = _run_trial_batch(config, chunk, reference)
        for spec, record in zip(chunk, records):
            trials.append(record)
            cycles_done += record.get("cycles") or 0
            if progress is not None:
                progress(SweepProgress(
                    total=len(specs),
                    done=len(trials),
                    cache_hits=0,
                    active_workers=1,
                    wall_seconds=time.perf_counter() - start,
                    cycles_done=cycles_done,
                    last=DSEResult(
                        point=spec, result=None, estimate=None,
                        status=STATUS_OK, metrics=record,
                    ),
                ))
    return trials
