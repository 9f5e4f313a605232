"""Multi-mode oracle runner.

Runs one :class:`~repro.conformance.scenario.Scenario` under every
execution path the engine offers and diffs the *complete* observable
surface against the per-cycle reference loop.  The oracle is purely
differential: it never predicts what a random design computes — a
deadlock, a dropped word or a control-bit mismatch is a perfectly valid
outcome as long as every mode reports exactly the same one.

Execution modes
---------------
``per_cycle``     the reference loop (``fast_forward=False``)
``fast_forward``  the default kernel (``fast_forward=True``) with no
                  telemetry bus, so a lone running CPU takes the burst
                  path and runs translated basic blocks
                  (:mod:`repro.iss.translate`); the FSL trace and the
                  metrics snapshot need a bus and are not diffed in
                  this mode
``verify``        per-cycle with every would-be skip and every cycle a
                  burst would run alone cross-checked
                  (``verify_fast_forward=True``)
``reset_rerun``   fast-forward with a bus attached (so lockstep): run
                  once, :meth:`~repro.cosim.CoSimulation.reset`, run
                  again — the second run must match a fresh one
``subprocess``    the scenario rebuilt and run on a pool worker
                  (:class:`~repro.runapi.pool.Worker`), the process
                  the design-space sweep engine and the farm run on,
                  fast-forward with a bus attached

Observable surface
------------------
exit code, halt reason, absolute cycle / instruction / stall counts,
deadlock point (the cycle the watchdog fired at), MSR carry and the
sticky FSL error flag, final pc, the whole register file, console
output, an sha256 digest of data memory, per-channel FIFO statistics
and final occupancies, dropped-write counters, per-probe sample-trace
digests, the FSL transaction log digest, per-model cycle counters and
the telemetry invariant snapshot (per-channel stall/occupancy metrics
plus the full CPU statistics record — everything the metrics pipeline
claims is execution-mode-independent).  Every mode but ``fast_forward``
is diffed on the whole surface (see :func:`divergence`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.asm.linker import Program
from repro.conformance.multicpu import (
    MultiScenario,
    build_multi_sim,
    build_programs,
)
from repro.conformance.scenario import (
    Scenario,
    build_model,
    build_program,
    scenario_from_dict,
)
from repro.cosim.environment import CoSimulation, outcome
from repro.cosim.trace import FSLTrace
from repro.iss.cpu import HaltReason
from repro.runapi.engine import engine_scope
from repro.runapi.pool import Worker
from repro.telemetry import Telemetry

ALL_MODES = ("per_cycle", "fast_forward", "verify", "reset_rerun",
             "subprocess")
REFERENCE_MODE = "per_cycle"

#: wall-clock guard for one subprocess observation (a scenario runs in
#: milliseconds; this only bounds a hung worker).
SUBPROCESS_TIMEOUT_S = 120.0


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class Observation:
    """Everything observable about one scenario execution."""

    mode: str
    status: str = "exit"  # exit | max_cycles | deadlock | error:<Type>
    error: str = ""
    exit_code: int | None = None
    halt_reason: str = ""
    cycles: int = 0
    instructions: int = 0
    stall_cycles: int = 0
    carry: int = 0
    fsl_error: bool = False
    pc: int = 0
    regs: list = field(default_factory=list)
    console: str = ""
    mem_digest: str = ""
    channels: dict = field(default_factory=dict)
    dropped: dict = field(default_factory=dict)
    probes: dict = field(default_factory=dict)
    trace_digest: str = ""
    trace_count: int = 0
    model_cycle: int = 0
    metrics: dict = field(default_factory=dict)
    #: per-CPU detail for multi-CPU scenarios (node name -> surface);
    #: empty for single-CPU observations and pre-multi golden files
    cpus: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "status": self.status,
            "error": self.error,
            "exit_code": self.exit_code,
            "halt_reason": self.halt_reason,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "stall_cycles": self.stall_cycles,
            "carry": self.carry,
            "fsl_error": self.fsl_error,
            "pc": self.pc,
            "regs": list(self.regs),
            "console": self.console,
            "mem_digest": self.mem_digest,
            "channels": self.channels,
            "dropped": self.dropped,
            "probes": self.probes,
            "trace_digest": self.trace_digest,
            "trace_count": self.trace_count,
            "model_cycle": self.model_cycle,
            "metrics": self.metrics,
            "cpus": self.cpus,
        }

    def comparable(self) -> dict:
        """The surface that must be bit-identical across modes (the
        ``mode`` label itself, and the error *text* — which embeds
        occupancy dicts formatted per-mode — are excluded; error *type*
        is part of ``status`` and is compared)."""
        data = self.to_dict()
        del data["mode"]
        del data["error"]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Observation":
        return cls(**data)


def _channel_surface(channels) -> dict:
    """Per-channel FIFO statistics, keyed by channel name."""
    return {
        ch.name: {
            "total_pushed": ch.total_pushed,
            "total_popped": ch.total_popped,
            "push_rejects": ch.push_rejects,
            "pop_rejects": ch.pop_rejects,
            "max_occupancy": ch.max_occupancy,
            "occupancy": ch.occupancy,
        }
        for ch in channels
    }


def _probe_surface(samples: list) -> dict:
    return {
        "len": len(samples),
        "last": samples[-1] if samples else None,
        "digest": _digest(",".join(map(str, samples))),
    }


def _trace_surface(trace: FSLTrace | None) -> tuple[str, int]:
    if trace is None:
        return "", 0
    payload = ";".join(
        f"{t.cycle}:{t.channel}:{t.direction}:{t.data}:{int(t.control)}"
        for t in trace.transactions)
    return _digest(payload), len(trace.transactions)


def _capture(sim: CoSimulation, mode: str, status: str, error: str,
             trace: FSLTrace | None) -> Observation:
    cpu = sim.cpu
    channels = _channel_surface(sim.mb_block.channels())
    dropped = {blk.name: blk.dropped
               for blk in sim.mb_block.write_blocks.values()}
    probes = {probe.name: _probe_surface(probe.samples)
              for probe in sim.model.probes}
    trace_digest, trace_count = _trace_surface(trace)
    halt = cpu.halt_reason
    return Observation(
        mode=mode,
        status=status,
        error=error,
        exit_code=cpu.exit_code,
        halt_reason=halt.name if isinstance(halt, HaltReason) else str(halt or ""),
        cycles=cpu.cycle,
        instructions=cpu.stats.instructions,
        stall_cycles=cpu.stats.stall_cycles,
        carry=cpu.carry,
        fsl_error=sim.mb_block.fsl_ports.error,
        pc=cpu.pc,
        regs=list(cpu.regs),
        console=cpu.mem.console.text,
        mem_digest=hashlib.sha256(cpu.mem.bram.dump()).hexdigest(),
        channels=channels,
        dropped=dropped,
        probes=probes,
        trace_digest=trace_digest,
        trace_count=trace_count,
        model_cycle=sim.model.cycle,
        metrics=(sim.telemetry.invariant_snapshot()
                 if sim.telemetry is not None else {}),
    )


def _capture_multi(sim, mode: str, status: str, error: str,
                   trace: FSLTrace | None) -> Observation:
    """Capture a K-CPU simulation: aggregates at the top level (so the
    single-CPU diffing machinery applies untouched), per-CPU detail in
    ``Observation.cpus``."""
    channels = _channel_surface(sim.all_channels())
    dropped = {}
    probes = {}
    per_cpu = {}
    for node in sim.nodes:
        if node.mb_block is not None:
            for blk in node.mb_block.write_blocks.values():
                dropped[blk.name] = blk.dropped
        if node.model is not None:
            for probe in node.model.probes:
                probes[f"{node.name}.{probe.name}"] = \
                    _probe_surface(probe.samples)
        cpu = node.cpu
        halt = cpu.halt_reason
        per_cpu[node.name] = {
            "exit_code": cpu.exit_code,
            "halt_reason": (halt.name if isinstance(halt, HaltReason)
                            else str(halt or "")),
            "cycles": cpu.cycle,
            "instructions": cpu.stats.instructions,
            "stall_cycles": cpu.stats.stall_cycles,
            "carry": cpu.carry,
            "fsl_error": cpu.fsl.error,
            "pc": cpu.pc,
            "regs": list(cpu.regs),
            "console": cpu.mem.console.text,
            "mem_digest": hashlib.sha256(cpu.mem.bram.dump()).hexdigest(),
            "model_cycle": node.model.cycle if node.model is not None else 0,
        }
    trace_digest, trace_count = _trace_surface(trace)
    halt = sim.halt_reason
    return Observation(
        mode=mode,
        status=status,
        error=error,
        exit_code=sim.exit_code,
        halt_reason=(halt.name if isinstance(halt, HaltReason)
                     else str(halt or "")),
        cycles=sim.cycle,
        instructions=sum(c["instructions"] for c in per_cpu.values()),
        stall_cycles=sum(c["stall_cycles"] for c in per_cpu.values()),
        fsl_error=any(c["fsl_error"] for c in per_cpu.values()),
        channels=channels,
        dropped=dropped,
        probes=probes,
        trace_digest=trace_digest,
        trace_count=trace_count,
        metrics=(sim.telemetry.invariant_snapshot()
                 if sim.telemetry is not None else {}),
        cpus=per_cpu,
    )


def _make_sim(scenario: Scenario, program: Program, *,
              fast_forward: bool, verify: bool = False,
              bus: bool = True) -> tuple[CoSimulation, FSLTrace | None]:
    model, mb = build_model(scenario)
    # telemetry attaches at construction so the FSLTrace installed
    # below subscribes to the same event bus instead of a private one
    sim = CoSimulation(program, model, mb,
                       cpu_config=scenario.cpu_config(),
                       fast_forward=fast_forward,
                       verify_fast_forward=verify,
                       telemetry=Telemetry() if bus else None)
    if not bus:
        return sim, None
    trace = FSLTrace(mb, clock=lambda: sim.cpu.cycle).install()
    return sim, trace


def _run(sim: CoSimulation, max_cycles: int) -> tuple[str, str]:
    """Run to completion; fold the outcome into a (status, error) pair."""
    try:
        result = sim.run(until=max_cycles)
    except Exception as exc:  # noqa: BLE001 - any crash is an observable
        return outcome(None, exc)
    return outcome(result, None)


def observe(scenario: Scenario | MultiScenario, mode: str,
            program: Program | list[Program] | None = None,
            engine: str = "auto") -> Observation:
    """Execute ``scenario`` under ``mode`` and capture the full surface.

    Accepts both families: a single-CPU :class:`Scenario` (``program``
    is one :class:`Program`) or a :class:`MultiScenario` (``program``
    is the node-ordered program list).  ``engine`` selects the hardware
    execution engine (``"auto" | "compiled" | "interpreter"``) for the
    run, threaded to the simulation via
    :func:`~repro.runapi.engine_scope` — so the oracle can diff engines
    as well as loop modes.
    """
    if mode not in ALL_MODES:
        raise ValueError(f"unknown execution mode {mode!r}; "
                         f"choose from {', '.join(ALL_MODES)}")
    if mode == "subprocess":
        return _observe_subprocess(scenario, engine)
    return _observe_here(scenario, mode, program, engine)


def _observe_here(scenario: Scenario | MultiScenario, mode: str,
                  program: Program | list[Program] | None,
                  engine: str) -> Observation:
    """Run ``scenario`` under ``mode`` in this process; a pool worker
    runs ``subprocess`` mode here as fast-forward with a bus."""
    multi = isinstance(scenario, MultiScenario)
    # without a bus a lone running CPU takes bursts (see the mode table)
    bus = mode != "fast_forward"
    if program is None:
        program = (build_programs(scenario) if multi
                   else build_program(scenario))

    def make(*, fast_forward, verify=False):
        if multi:
            return build_multi_sim(scenario, program,
                                   fast_forward=fast_forward, verify=verify,
                                   bus=bus)
        return _make_sim(scenario, program,
                         fast_forward=fast_forward, verify=verify, bus=bus)

    with engine_scope(engine):
        if mode == "per_cycle":
            sim, trace = make(fast_forward=False)
        elif mode in ("fast_forward", "subprocess"):
            sim, trace = make(fast_forward=True)
        elif mode == "verify":
            sim, trace = make(fast_forward=True, verify=True)
        else:  # reset_rerun
            sim, trace = make(fast_forward=True)
            _run(sim, scenario.max_cycles)  # first run: outcome discarded
            sim.reset()
            trace.transactions.clear()

    status, error = _run(sim, scenario.max_cycles)
    capture = _capture_multi if multi else _capture
    return capture(sim, mode, status, error, trace)


def observe_batched(
    scenario: Scenario,
    lane_max_cycles: list[int],
    *,
    force_evict: tuple[int, ...] = (),
    force_evict_cycle: int = 64,
    engine: str = "auto",
    program: Program | None = None,
) -> list[Observation]:
    """Execute N lanes of ``scenario`` under the lockstep vector engine
    and capture each lane's full observable surface.

    Every lane runs the same scenario; ``lane_max_cycles`` gives each
    its own cycle budget, so lanes freeze (lane-mask) at different
    cycles — the divergence axis of the lockstep-vs-scalar equivalence
    suite.  ``force_evict`` lists lanes to kick onto the scalar engine
    mid-run, proving the eviction path reproduces the scalar surface
    bit-for-bit.  Each returned :class:`Observation` must satisfy
    ``obs.comparable() == observe(scenario_with_that_budget,
    "per_cycle").comparable()``.
    """
    from repro.cosim.batch import BatchedCoSimulation

    if isinstance(scenario, MultiScenario):
        raise ValueError(
            "observe_batched drives single-CPU lanes; multi-CPU scenarios "
            "group by MultiCoSimulation.lockstep_signature() and replay on "
            "the scalar engines")
    if program is None:
        program = build_program(scenario)
    traces: dict[int, FSLTrace] = {}

    def factory() -> CoSimulation:
        sim, trace = _make_sim(scenario, program, fast_forward=False)
        traces[id(sim)] = trace
        return sim

    with engine_scope(engine):
        batch = BatchedCoSimulation(
            [factory] * len(lane_max_cycles),
            force_evict=force_evict,
            force_evict_cycle=force_evict_cycle,
        )
        lane_results = batch.run(until=list(lane_max_cycles))

    observations = []
    for lane, lr in enumerate(lane_results):
        sim = batch.lane(lane)
        mode = "batched_evicted" if lr.evicted else "batched"
        observations.append(
            _capture(sim, mode, lr.status, lr.error_text, traces[id(sim)])
        )
    return observations


# --------------------------------------------------------------------------
# subprocess mode — one observation on a pool worker


def _observe_in_worker(scenario_dict: dict, engine: str) -> dict:
    return _observe_here(scenario_from_dict(scenario_dict), "subprocess",
                         None, engine).to_dict()


def _observe_subprocess(scenario: Scenario,
                        engine: str = "auto") -> Observation:
    worker = Worker()
    try:
        worker.send(_observe_in_worker, scenario.to_dict(), engine)
        if not worker.conn.poll(SUBPROCESS_TIMEOUT_S):
            return Observation(mode="subprocess", status="error:WorkerTimeout",
                               error=f"no result in {SUBPROCESS_TIMEOUT_S}s")
        reply = worker.recv()
        if reply.get("dead"):
            return Observation(mode="subprocess", status="error:WorkerDied",
                               error=reply["error"])
        if not reply["ok"]:
            return Observation(mode="subprocess", status="error:WorkerError",
                               error=reply["error"])
        worker.exit()
        return Observation.from_dict(reply["value"])
    finally:
        worker.kill()


# --------------------------------------------------------------------------
# diffing


def first_divergence(a: dict, b: dict, path: str = ""):
    """First leaf where two observation dicts differ, in sorted key
    order — returns ``(dotted.path, value_a, value_b)`` or ``None``."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a:
                return (sub, "<missing>", b[key])
            if key not in b:
                return (sub, a[key], "<missing>")
            hit = first_divergence(a[key], b[key], sub)
            if hit is not None:
                return hit
        return None
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        for i in range(max(len(a), len(b))):
            sub = f"{path}[{i}]"
            if i >= len(a):
                return (sub, "<missing>", b[i])
            if i >= len(b):
                return (sub, a[i], "<missing>")
            hit = first_divergence(a[i], b[i], sub)
            if hit is not None:
                return hit
        return None
    if a != b:
        return (path, a, b)
    return None


def divergence(reference: Observation, obs: Observation):
    """:func:`first_divergence` of ``obs`` from ``reference`` over
    the surface ``obs``'s mode observes: a ``fast_forward`` observation
    runs without a bus, so its FSL trace and metrics are not diffed."""
    ref, got = reference.comparable(), obs.comparable()
    if obs.mode == "fast_forward":
        for key in ("trace_digest", "trace_count", "metrics"):
            del ref[key], got[key]
    return first_divergence(ref, got)


@dataclass
class ScenarioVerdict:
    """Outcome of checking one scenario across modes."""

    scenario: Scenario
    reference: Observation | None = None
    observations: dict = field(default_factory=dict)  # mode -> Observation
    divergences: dict = field(default_factory=dict)   # mode -> diff dict
    build_error: str = ""
    shrunk: Scenario | None = None

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.build_error

    def to_dict(self) -> dict:
        out = {
            "name": self.scenario.name,
            "seed": self.scenario.seed,
            "ok": self.ok,
            "status": self.reference.status if self.reference else "build-error",
            "cycles": self.reference.cycles if self.reference else 0,
            "modes": sorted(self.observations),
            "divergences": self.divergences,
        }
        if self.build_error:
            out["build_error"] = self.build_error
        if self.shrunk is not None:
            out["shrunk"] = self.shrunk.to_dict()
        return out


def check_scenario(scenario: Scenario,
                   modes: tuple[str, ...] = ALL_MODES,
                   engine: str = "auto") -> ScenarioVerdict:
    """Run ``scenario`` under every mode and diff against the reference.

    The reference mode is always run (and always first), whether or not
    it appears in ``modes``.  ``engine`` is forwarded to every
    :func:`observe` call.
    """
    verdict = ScenarioVerdict(scenario=scenario)
    try:
        if isinstance(scenario, MultiScenario):
            program = build_programs(scenario)
        else:
            program = build_program(scenario)
    except Exception as exc:  # noqa: BLE001 - a generator bug, not a diff
        verdict.build_error = f"{type(exc).__name__}: {exc}"
        return verdict

    reference = observe(scenario, REFERENCE_MODE, program, engine)
    verdict.reference = reference
    verdict.observations[REFERENCE_MODE] = reference

    for mode in modes:
        if mode == REFERENCE_MODE:
            continue
        obs = observe(scenario, mode, program, engine)
        verdict.observations[mode] = obs
        hit = divergence(reference, obs)
        if hit is not None:
            path, ref_value, obs_value = hit
            verdict.divergences[mode] = {
                "path": path,
                "reference": ref_value,
                "observed": obs_value,
            }
    return verdict


@dataclass
class ConformanceReport:
    """Aggregate result of a conformance run (CLI / CI artifact)."""

    seed: int
    modes: tuple[str, ...]
    verdicts: list = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.verdicts)

    @property
    def failed(self) -> list:
        return [v for v in self.verdicts if not v.ok]

    @property
    def ok(self) -> bool:
        return not self.failed

    def status_counts(self) -> dict:
        counts: dict[str, int] = {}
        for verdict in self.verdicts:
            status = (verdict.reference.status if verdict.reference
                      else "build-error")
            counts[status] = counts.get(status, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict:
        return {
            "kind": "mb32-conformance",
            "seed": self.seed,
            "modes": list(self.modes),
            "total": self.total,
            "ok": self.ok,
            "status_counts": self.status_counts(),
            "scenarios": [v.to_dict() for v in self.verdicts],
        }
