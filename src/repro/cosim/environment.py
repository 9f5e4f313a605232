"""The co-simulation engine.

One lock-step run kernel advances a list of processors and a list of
hardware models together, one clock cycle at a time, exactly as the
paper's environment does under its single-frequency constraint ("the
operating frequencies of the processor, the two LMB interface
controllers and the customized hardware peripherals are set at
50 MHz").  ``CoSimulation`` is its K=1 case: one CPU coupled to one
hardware model (plus optional extra models) over FSL channels;
:class:`~repro.cosim.multicpu.MultiCoSimulation` is its K-CPU case.
Both share every piece of run policy — fast-forward, the watchdog, the
wall-clock budget, verify mode, ``RunPolicy`` resolution, reset and
result building — and differ only in how their clock is read, their
result type and the text of their deadlock/timeout messages.

Per cycle:

1. every running CPU ticks (may push/pop FSL words, or stall on a
   blocking access),
2. every hardware model steps (FSLRead/FSLWrite blocks see the FIFO
   state and produce/consume words at the clock edge).

Fast-forward kernel
-------------------
Cycle accuracy only has to be *observed* at interface events (FSL
transfers, MMIO, instruction issue); in between, both worlds evolve
trivially.  When every running CPU is occupying a multi-cycle
instruction or is blocked on an FSL access, and every hardware model
reports quiescence (:meth:`~repro.sysgen.model.Model.idle_horizon`),
:meth:`CoSimulation.run` advances all clocks by the minimum of
``cpu.advance_horizon()`` and ``model.idle_horizon()`` in one step
instead of N ``tick()``/``step()`` round-trips.  Likewise, while the
hardware side is quiescent, per-cycle CPU execution skips the (then
no-op) ``model.step()``.  All counters, probe samples and FSL
interleavings stay bit-identical with a per-cycle run; pass
``fast_forward=False`` to force the classic loop, or
``verify_fast_forward=True`` to cross-check every skip against
per-cycle execution (debug mode).

Phase profiling
---------------
An enabled :class:`~repro.telemetry.profile.PhaseTimer` times this same
loop: for the length of ``run()`` it wraps the loop's callees on the
simulation's own CPU and model instances (``tick`` → CPU step,
``step`` → block step, the horizon queries and bulk advances →
fast-forward scan).  With phases off the loop reads no clock per cycle.

Hardware execution engine
-------------------------
``CoSimulation.__init__`` compiles every hardware model once; from
then on each ``model.step()`` dispatches into the model's *compiled
schedule* — one generated python function per design (see
:mod:`repro.sysgen.compiled` and TUTORIAL §11) — rather than per-block
interpreter calls.  Observables are bit-identical either way; pass
``engine="interpreter"`` (or wrap the construction in
``repro.runapi.engine_scope("interpreter")``) to force the classic
interpreter when A/B-debugging an ``emit()`` hook.
``engine="batched"`` is rejected here: the lockstep vector engine runs
N whole simulations at once via
:class:`repro.cosim.batch.BatchedCoSimulation`.

Wall-clock time is recorded so the benchmark harness can reproduce the
paper's Table I/II simulation-time comparisons.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

from repro.asm.linker import Program
from repro.bus.fsl import FSLChannel
from repro.cosim.mb_block import MicroBlazeBlock
from repro.iss.cpu import ADVANCE_FOREVER, CPU, CPUConfig, HaltReason
from repro.iss.run import make_cpu, reload_cpu
from repro.runapi import RunOutcome, RunPolicy
from repro.runapi.engine import (
    ENGINES,
    SCALAR_ENGINES,
    EngineError,
    current_engine,
)
from repro.sysgen.model import Model
from repro.telemetry import Telemetry, current_telemetry
from repro.telemetry.events import (
    COSIM_TRACK,
    DEADLOCK,
    FAST_FORWARD,
    TelemetryEvent,
)


class CoSimDeadlock(RuntimeError):
    """The processor made no progress for a long interval — the classic
    FSL deadlock (e.g. software keeps writing while the peripheral's
    output FIFO is full and nobody drains it).  The paper avoids this
    by sizing data sets "so that the results generated by the set of
    data would not overflow the FIFOs of the data output FSLs"; the
    co-simulator detects the mistake instead of spinning forever."""


class FastForwardError(RuntimeError):
    """A fast-forwarded window was not actually quiescent — raised only
    in ``verify_fast_forward`` mode, pointing at a block whose
    ``idle_horizon`` over-promised."""


class CoSimTimeout(RuntimeError):
    """A run exceeded its wall-clock budget (see :func:`run_timeout` /
    ``RunPolicy(wall_timeout_s=...)``).  The sweep engine records this
    as a per-point ``timeout`` status instead of letting one
    pathological design point stall a whole sweep."""


#: process-wide default wall-clock budget applied to every
#: :meth:`CoSimulation.run` whose policy gives no ``wall_timeout_s`` —
#: set via the :func:`run_timeout` context manager.
_default_wall_timeout: float | None = None


@contextlib.contextmanager
def run_timeout(seconds: float | None):
    """Apply a wall-clock budget to every ``CoSimulation.run()`` inside
    the ``with`` block.

    This is the hook the design-space sweep engine uses to bound a
    design point whose co-simulation runs away: the budget is checked
    at the same bounded-latency points as deadlock detection (at most
    every :attr:`CoSimulation.DEADLOCK_WINDOW` cycles), and exceeding
    it raises :class:`CoSimTimeout`.  ``None`` removes any outer budget
    for the duration of the block.
    """
    global _default_wall_timeout
    prev = _default_wall_timeout
    _default_wall_timeout = seconds
    try:
        yield
    finally:
        _default_wall_timeout = prev


# ----------------------------------------------------------------------
# Watchdog arithmetic, shared with the batched engine
# ----------------------------------------------------------------------
def check_window(window: int) -> int:
    """Validate a deadlock-watchdog window."""
    if window < 1:
        raise ValueError("deadlock_window must be >= 1")
    return window


def next_boundary(cycle: int, window: int) -> int:
    """The first watchdog boundary after absolute ``cycle``.

    Boundaries land on *absolute* multiples of the window, so a
    checkpoint-restored continuation checks at exactly the cycles an
    uninterrupted run would — deadlock detection (and the fast-forward
    skip boundaries it caps) is restore-transparent.
    """
    return cycle + window - cycle % window


def no_progress(boundary: int, window: int, last_retire: int) -> bool:
    """Watchdog tripwire at absolute cycle ``boundary`` (a multiple of
    ``window``): nothing retired in the last full window.
    ``boundary >= 2 * window`` preserves the historical grace of never
    tripping the very first boundary of a fresh simulation."""
    return boundary >= 2 * window and last_retire <= boundary - window


@dataclass
class CoSimResult(RunOutcome):
    """Outcome of one co-simulation run.

    All counts are deltas over the run itself, so a second ``run()`` on
    the same :class:`CoSimulation` (with or without ``reset()``) pairs
    its own cycles with its own wall time.

    A run that *raises* (deadlock, timeout) produces no result, so the
    :class:`~repro.runapi.RunOutcome` status here only distinguishes a
    clean exit, a nonzero exit, and an exhausted cycle budget.
    """

    exit_code: int | None
    cycles: int
    instructions: int
    stall_cycles: int
    wall_seconds: float
    simulated_seconds: float
    halt_reason: HaltReason | None

    @property
    def status(self) -> str:
        if self.exit_code == 0:
            return "ok"
        if self.exit_code is not None:
            return "exit"
        if self.halt_reason is HaltReason.MAX_CYCLES:
            return "max-cycles"
        return (self.halt_reason.name.lower() if self.halt_reason
                else "unknown")

    @property
    def error(self) -> str | None:
        if self.exit_code == 0:
            return None
        if self.exit_code is not None:
            return f"exit code {self.exit_code}"
        if self.halt_reason is HaltReason.MAX_CYCLES:
            return "cycle budget exhausted without exit"
        return None

    def extra_dict(self) -> dict:
        return {
            "exit_code": self.exit_code,
            "instructions": self.instructions,
            "stall_cycles": self.stall_cycles,
            "wall_seconds": self.wall_seconds,
            "simulated_seconds": self.simulated_seconds,
            "halt_reason": (self.halt_reason.name
                            if self.halt_reason is not None else None),
            "cycles_per_wall_second": self.cycles_per_wall_second,
        }

    @property
    def cycles_per_wall_second(self) -> float:
        """Simulation speed — the metric of the paper's Table II."""
        return self.cycles / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def simulated_microseconds(self) -> float:
        """Application execution time — the metric of Figures 5 and 7."""
        return self.simulated_seconds * 1e6


class LockstepKernel:
    """The one lock-step run loop over a list of CPUs and a list of
    hardware models (see the module docstring).

    A subclass calls :meth:`_resolve_engine`, builds its CPUs, calls
    :meth:`_init_kernel`, and supplies only what really differs:

    * ``_read_clock()`` — the global clock a run starts from;
    * ``_attach_telemetry(telemetry)`` — which clock event timestamps
      read;
    * ``_result(per_cpu, cycles, wall)`` — its result type;
    * ``_timeout_message(budget, cycles)`` and
      ``_deadlock_message(window)`` — its exception texts;
    * ``all_channels()`` — every FSL FIFO it owns.
    """

    #: cycles without a single retired instruction before declaring
    #: deadlock.  FIFO-depth-bounded waits resolve within tens of
    #: cycles, so this leaves orders of magnitude of slack.
    DEADLOCK_WINDOW = 16_384

    #: the ``engine="batched"`` rejection text
    _BATCHED_HINT = ""

    def _resolve_engine(self, engine: str) -> None:
        if engine not in ENGINES:
            raise EngineError(
                f"unknown engine {engine!r}; expected one of "
                f"{', '.join(ENGINES)}"
            )
        if engine == "auto":
            # An ambient "batched" request is advisory: harnesses that
            # can batch honor it, a scalar construction stays "auto".
            ambient = current_engine()
            if ambient in SCALAR_ENGINES:
                engine = ambient
        if engine == "batched":
            raise EngineError(self._BATCHED_HINT)
        self.engine_request = engine

    def _init_kernel(
        self,
        programs: list[Program],
        cpus: list[CPU],
        models: list[Model],
        *,
        fast_forward: bool,
        verify_fast_forward: bool,
        deadlock_window: int | None,
        telemetry: Telemetry | None,
    ) -> None:
        self._programs = programs
        self.cpus = cpus
        self._models = models
        self.fast_forward = fast_forward
        self.verify_fast_forward = verify_fast_forward
        for model in models:
            if self.engine_request in SCALAR_ENGINES:
                model.set_engine(self.engine_request)
            model.compile()
        # CPU stores reach hardware state directly only through
        # OPB-mapped register banks; when none exist, stores cannot
        # disturb a quiescent model and need not invalidate idleness.
        self._stores_touch_hw = any(
            hasattr(block, "opb_write")
            for m in models
            for block in m.blocks
        )
        if deadlock_window is not None:
            # Instance attribute shadows the class-level default.
            self.DEADLOCK_WINDOW = check_window(deadlock_window)
        #: the global clock the run loop advances (see _read_clock)
        self._cycle = 0
        self.telemetry = telemetry if telemetry is not None \
            else current_telemetry()
        if self.telemetry is not None:
            self._attach_telemetry(self.telemetry)

    def channel_occupancies(self) -> dict[str, int]:
        """Current FIFO occupancy per channel, keyed by channel name."""
        return {ch.name: ch.occupancy for ch in self.all_channels()}

    # -- the run loop ---------------------------------------------------
    def _run(self, until: int | None, policy: RunPolicy | None):
        """Resolve ``policy`` against the configured defaults (for this
        call only) and run the loop, phase-timed when an enabled
        :class:`~repro.telemetry.profile.PhaseTimer` is attached."""
        if policy is None:
            policy = RunPolicy()
        fast = (self.fast_forward if policy.fast_forward is None
                else policy.fast_forward)
        verify = (self.verify_fast_forward
                  if policy.verify_fast_forward is None
                  else policy.verify_fast_forward)
        window = (self.DEADLOCK_WINDOW if policy.deadlock_window is None
                  else check_window(policy.deadlock_window))
        wall_timeout_s = policy.wall_timeout_s
        if wall_timeout_s is None:
            wall_timeout_s = _default_wall_timeout
        args = (policy.budget(until), wall_timeout_s, fast or verify,
                verify, window)
        phases = self.telemetry.phases if self.telemetry is not None \
            else None
        if phases is not None and phases.enabled:
            with phases.timing(self.cpus, self._models):
                return self._loop(*args)
        return self._loop(*args)

    def _loop(self, max_cycles: int, wall_timeout_s: float | None,
              fast: bool, verify: bool, window: int):
        events = self.telemetry.bus if self.telemetry is not None else None
        cpus = self.cpus
        models = self._models
        stores_touch_hw = self._stores_touch_hw

        start = time.perf_counter()
        deadline = None if wall_timeout_s is None else start + wall_timeout_s
        cycles = 0
        cycle0 = self._cycle = self._read_clock()
        next_check = next_boundary(cycle0, window) - cycle0
        baseline = [
            (cpu.cycle, cpu.stats.instructions, cpu.stats.stall_cycles)
            for cpu in cpus
        ]
        active = [cpu for cpu in cpus if not cpu.halted]

        # Cached hardware quiescence: once every model is at a fixed
        # point it stays there until a CPU completes an FSL transfer
        # (or an OPB store lands), so the O(blocks) idle_horizon walk
        # runs once per busy/blocked episode, not once per cycle.
        # ``activity`` snapshots that CPU activity when the cache arms.
        hw_idle = False
        activity = 0

        while active and cycles < max_cycles:
            if fast:
                if hw_idle:
                    hw_horizon = ADVANCE_FOREVER
                else:
                    # IDLE_FOREVER and ADVANCE_FOREVER share a value, so
                    # one min covers both finite and unbounded horizons.
                    hw_horizon = ADVANCE_FOREVER
                    for m in models:
                        h = m.idle_horizon()
                        if h < hw_horizon:
                            hw_horizon = h
                    if hw_horizon >= ADVANCE_FOREVER:
                        hw_idle = True
                        activity = _hw_activity(cpus, stores_touch_hw)
                if hw_horizon > 0:
                    skip = min(hw_horizon, next_check - cycles,
                               max_cycles - cycles)
                    for cpu in active:
                        h = cpu.advance_horizon()
                        if h < skip:
                            skip = h
                    if skip > 0:
                        if verify:
                            self._skip_checked(skip, active)
                        else:
                            for cpu in active:
                                cpu.advance(skip)
                            for m in models:
                                m.fast_forward(skip)
                        cycles += skip
                        self._cycle += skip
                        if events is not None:
                            # Condensed stand-in for the skipped window
                            # so exported traces stay cycle-faithful.
                            events.emit(TelemetryEvent(
                                FAST_FORWARD, self._cycle, COSIM_TRACK, skip
                            ))
                        if cycles >= next_check:
                            self._watchdog(cycles, window, active, deadline,
                                           wall_timeout_s)
                            next_check = cycles + window
                        continue
            halted = False
            for cpu in active:
                cpu.tick()
                if cpu.halted:
                    halted = True
            if hw_idle and _hw_activity(cpus, stores_touch_hw) != activity:
                hw_idle = False
            if hw_idle and not verify:
                # The models are frozen: advancing their clocks is all
                # a step() would do.
                for m in models:
                    m.fast_forward(1)
            else:
                for m in models:
                    m.step()
            cycles += 1
            self._cycle += 1
            if halted:
                active = [cpu for cpu in active if not cpu.halted]
            if cycles >= next_check:
                self._watchdog(cycles, window, active, deadline,
                               wall_timeout_s)
                next_check = cycles + window

        return self._finish(start, baseline, self._cycle - cycle0)

    def _watchdog(self, cycles: int, window: int, active: list[CPU],
                  deadline: float | None, budget: float | None) -> None:
        """The bounded-cadence checks at a watchdog boundary: the wall
        budget, then progress of the running CPUs (their local clocks
        equal the global clock, so the comparison is exact)."""
        if deadline is not None and time.perf_counter() >= deadline:
            raise CoSimTimeout(self._timeout_message(budget, cycles))
        if active and no_progress(
            self._cycle, window,
            max(cpu.stats.last_retire_cycle for cpu in active),
        ):
            if self.telemetry is not None:
                self.telemetry.bus.emit(TelemetryEvent(
                    DEADLOCK, self._cycle, COSIM_TRACK, self.cpus[0].pc
                ))
            raise CoSimDeadlock(self._deadlock_message(window))

    def _skip_checked(self, skip: int, active: list[CPU]) -> None:
        """verify_fast_forward mode: execute a would-be skipped window
        per-cycle and prove it was quiescent — no CPU issued and no
        model moved."""
        models = self._models
        instr_before = [cpu.stats.instructions for cpu in active]
        snapshot = [
            (
                m,
                [(p, len(p.samples), p.port.value) for p in m.probes],
                [
                    (b, {k: o.value for k, o in b.outputs.items()})
                    for b in m.blocks
                ],
            )
            for m in models
        ]
        for _ in range(skip):
            for cpu in active:
                cpu.tick()
            for m in models:
                m.step()
        for cpu, before in zip(active, instr_before):
            if cpu.stats.instructions != before:
                raise FastForwardError(
                    f"{cpu.track}: an instruction retired inside a "
                    f"{skip}-cycle fast-forward window"
                )
        for m, probes, blocks in snapshot:
            for probe, n0, value in probes:
                tail = probe.samples[n0:]
                if len(tail) != skip or any(s != value for s in tail):
                    raise FastForwardError(
                        f"probe {probe.name!r} changed during a "
                        f"fast-forward window of model {m.name!r}"
                    )
            for block, outs in blocks:
                now = {k: o.value for k, o in block.outputs.items()}
                if now != outs:
                    raise FastForwardError(
                        f"block {block.name!r} outputs changed during a "
                        f"fast-forward window "
                        f"(idle_horizon over-promised): {outs} -> {now}"
                    )

    def _finish(self, start: float, baseline: list[tuple[int, int, int]],
                cycles: int):
        wall = time.perf_counter() - start
        per_cpu = []
        for cpu, (cycle0, instr0, stall0) in zip(self.cpus, baseline):
            if not cpu.halted:
                cpu.halted = True
                cpu.halt_reason = HaltReason.MAX_CYCLES
            run_cycles = cpu.cycle - cycle0
            per_cpu.append(CoSimResult(
                exit_code=cpu.exit_code,
                cycles=run_cycles,
                instructions=cpu.stats.instructions - instr0,
                stall_cycles=cpu.stats.stall_cycles - stall0,
                wall_seconds=wall,
                simulated_seconds=run_cycles / cpu.config.frequency_hz,
                halt_reason=cpu.halt_reason,
            ))
        return self._result(per_cpu, cycles, wall)

    # -- reuse ------------------------------------------------------------
    def reset(self) -> None:
        """Return the whole system to its freshly constructed state:
        per-CPU architectural reset (each clears its own sticky
        ``fsl.error``) with BRAM zeroed and the program image reloaded,
        every model reset, every FIFO and its statistics cleared — a
        re-run must be byte-identical to a fresh simulation's."""
        self._cycle = 0
        for cpu, program in zip(self.cpus, self._programs):
            reload_cpu(cpu, program)
        for m in self._models:
            m.reset()
        for channel in self.all_channels():
            channel.reset(reset_stats=True)
        if self.telemetry is not None:
            # A re-run must report only its own events/metrics, exactly
            # like a fresh simulation would.
            self.telemetry.reset()


def _hw_activity(cpus: list[CPU], stores_touch_hw: bool) -> int:
    """Monotonic count of CPU activity that can reach the hardware:
    FSL transfers, plus stores when OPB-mapped registers exist."""
    total = 0
    for cpu in cpus:
        stats = cpu.stats
        total += stats.fsl_puts + stats.fsl_gets
        if stores_touch_hw:
            total += stats.stores
    return total


class CoSimulation(LockstepKernel):
    """Couples one CPU with one hardware model over FSL channels."""

    _BATCHED_HINT = (
        "engine='batched' runs N whole simulations in lockstep; "
        "construct a repro.cosim.batch.BatchedCoSimulation (or "
        "pass --batch to mb32-dse / mb32-faultsim) instead"
    )

    def __init__(
        self,
        program: Program,
        model: Model,
        mb_block: MicroBlazeBlock,
        cpu_config: CPUConfig | None = None,
        memory_size: int | None = None,
        extra_models: list[Model] | None = None,
        fast_forward: bool = True,
        verify_fast_forward: bool = False,
        telemetry: Telemetry | None = None,
        deadlock_window: int | None = None,
        engine: str = "auto",
    ):
        """``extra_models`` are additional hardware models stepped in
        lock-step with the primary one — e.g. peripherals built as
        separate designs whose FSL channels were connected to spare
        channels of the same processor.

        ``fast_forward`` enables the bulk time-advance kernel (see the
        module docstring); ``verify_fast_forward`` keeps per-cycle
        execution but asserts, window by window, that every skip the
        kernel *would* take is quiescent — slower than both plain
        modes, meant for debugging idle_horizon implementations.

        ``telemetry`` attaches a :class:`~repro.telemetry.Telemetry`
        instance to the CPU, FSL channels and interface blocks; when
        omitted, the ambient :func:`repro.telemetry.telemetry_scope`
        instance (if any) is used.  Without either, every telemetry
        hook stays on its no-op fast path.

        ``deadlock_window`` overrides :attr:`DEADLOCK_WINDOW` for this
        instance — the progress watchdog: cycles without a retired
        instruction before :class:`CoSimDeadlock`.  Fault-injection
        campaigns tighten it to detect hangs quickly.

        ``engine`` selects the hardware execution engine for every
        attached model: ``"compiled"`` / ``"interpreter"`` pin it,
        ``"auto"`` (default) honors an enclosing
        :func:`repro.runapi.engine_scope`, else compiles;
        ``"batched"`` is rejected (see the module docstring)."""
        self.program = program
        self.model = model
        self.mb_block = mb_block
        self.extra_models = list(extra_models or [])
        self._resolve_engine(engine)
        self.cpu: CPU = make_cpu(
            program,
            config=cpu_config,
            fsl=mb_block.fsl_ports,
            memory_size=memory_size,
        )
        self._init_kernel(
            [program], [self.cpu], [model, *self.extra_models],
            fast_forward=fast_forward,
            verify_fast_forward=verify_fast_forward,
            deadlock_window=deadlock_window,
            telemetry=telemetry,
        )

    def _attach_telemetry(self, telemetry: Telemetry) -> None:
        telemetry.attach_cpu(self.cpu)
        clock = lambda: self.cpu.cycle  # noqa: E731
        for channel in self.mb_block.channels():
            telemetry.attach_channel(channel, clock)
        for m in self._models:
            for block in m.blocks:
                telemetry.attach_block(block, clock)

    def _read_clock(self) -> int:
        # K=1: the global clock is the CPU's own cycle counter.
        return self.cpu.cycle

    def all_channels(self) -> tuple[FSLChannel, ...]:
        """Every FSL FIFO of the simulation (the interface block's)."""
        return self.mb_block.channels()

    # ------------------------------------------------------------------
    def step(self, cycles: int = 1) -> None:
        """Advance both worlds ``cycles`` clock cycles, one at a time.

        This is the per-cycle reference path (also the granularity the
        fast-forward kernel must be indistinguishable from); ``run()``
        layers the event-horizon skipping on top of it.
        """
        cpu = self.cpu
        models = self._models
        for _ in range(cycles):
            cpu.tick()
            for m in models:
                m.step()

    def run(
        self,
        until: int | None = None,
        *,
        policy: RunPolicy | None = None,
    ) -> CoSimResult:
        """Run until the software exits (or the cycle budget).

        ``until`` is the cycle budget for this call (default 50M, the
        historical ceiling); ``policy`` is a
        :class:`~repro.runapi.RunPolicy` whose non-``None`` fields
        override the simulation's configured wall-clock budget,
        fast-forward mode and watchdog window for this call only.

        Raises :class:`CoSimDeadlock` when the processor is blocked on
        FSL with no progress for :attr:`DEADLOCK_WINDOW` cycles, and
        :class:`CoSimTimeout` when the wall-clock budget (policy, or
        the ambient :func:`run_timeout` budget) is exceeded; both are
        checked at the same :attr:`DEADLOCK_WINDOW`-bounded cadence.
        """
        return self._run(until, policy)

    def _result(self, per_cpu: list[CoSimResult], cycles: int,
                wall: float) -> CoSimResult:
        return per_cpu[0]

    def _timeout_message(self, budget: float, cycles: int) -> str:
        return (
            f"co-simulation exceeded its {budget:.3f}s wall-clock budget "
            f"after {cycles} cycles at pc={self.cpu.pc:#010x}"
        )

    def _deadlock_message(self, window: int) -> str:
        return (
            f"no instruction retired in {window} cycles at "
            f"pc={self.cpu.pc:#010x}; FSL occupancies: "
            f"{self.channel_occupancies()}"
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Complete simulation state, JSON-safe.

        Covers everything a restored run's observable surface depends
        on: the CPU (registers, pipeline, memory, devices, statistics),
        every hardware model (block state, probe samples, clocks), the
        FSL FIFOs and their statistics, and the telemetry metric
        registry when one is attached.  Loop-local fast-forward
        bookkeeping (``hw_idle``, the next watchdog check) is
        recomputed by :meth:`run` and needs no serialization.
        """
        state = {
            "cpu": self.cpu.state_dict(),
            "models": [m.state_dict() for m in self._models],
            "channels": self.mb_block.state_dict(),
        }
        if self.telemetry is not None:
            state["telemetry"] = self.telemetry.state_dict()
        return state

    def load_state(self, state: dict) -> None:
        if len(state["models"]) != len(self._models):
            raise ValueError(
                f"checkpoint has {len(state['models'])} models, "
                f"simulation has {len(self._models)}"
            )
        self.cpu.load_state(state["cpu"])
        for model, payload in zip(self._models, state["models"]):
            model.load_state(payload)
        self.mb_block.load_state(state["channels"])
        if self.telemetry is not None and "telemetry" in state:
            self.telemetry.load_state(state["telemetry"])
