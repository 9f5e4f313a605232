"""Lockstep batched co-simulation: N variants of one design at once.

A :class:`BatchedCoSimulation` couples N scalar CPUs (one per lane,
each with its own program image, FSL channels and telemetry) with ONE
:class:`~repro.sysgen.batched.BatchedModel` that steps the hardware of
all N lanes as ``(N,)`` numpy arrays.  Per cycle: every running lane's
CPU ticks, then the vector model advances one clock for the running
lanes.  The FSL interface blocks are vectorized like the rest of the
design: each lane's channel keeps its state in its row of the
endpoint's lane table, so the lane's CPU and the vector step move one
FIFO, and blocking semantics and drop counters are bit-identical to N
independent scalar runs.  A lane with telemetry on its endpoints or
channels runs those endpoints per lane, so its events are too.

A lane owns its CPU, memory and FSL channels, and a model only if it
brings one: a sweep's lanes do (they may differ in value-like
parameters), while the N lanes of
:meth:`~BatchedCoSimulation.from_template` (a fault campaign) share the
template's schedule and get a model on request.
:meth:`BatchedCoSimulation.lane` writes a lane's vector state into its
model — built then, if the lane has none — before handing it out.

Divergence is handled by lane masking: a lane that halts, reaches its
cycle budget or pauses at a per-lane target freezes (its state arrays,
probes and ports keep the exact values of its final executed cycle)
while the other lanes keep vectoring.  Frozen lanes can thaw again —
that is how segmented drivers (fault-injection campaigns) advance each
lane to its own next event.

Per-cycle output pinning (``stuck_at`` faults) stays in lockstep via
:meth:`BatchedCoSimulation.force_port`.

Idle hardware
-------------
The engine has the scalar engine's idle rule: the hardware is skipped
only at a fixed point, never for a finite countdown.  Each step leaves
a busy bit per lane, computed from the blocks' own ``busy_if`` checks
(:meth:`~repro.sysgen.batched.BatchedModel.idle_horizon`, which also
asks the per-lane fallback blocks).  When no running lane is busy, a
*quiet stretch* begins: the CPUs tick alone and the vector clock
catches up in one :meth:`~repro.sysgen.batched.BatchedModel.fast_forward`
as soon as any CPU's FSL (or, with OPB-mapped registers, store)
activity reaches the hardware, which is then stepped through that very
cycle.  A running lane's forced port, a lane that was not running when
the stretch was armed, or :meth:`BatchedCoSimulation.hw_touched` ends
the stretch too; a lane's forcing goes when the lane halts or is
evicted.  Nothing else rewrites a port array during a stretch (only a
step, a poke or ``reset`` do), so the arrays the fallback blocks drive
need no watch of their own.

Lane eviction
-------------
Some events cannot be vectorized faithfully: a watchdog trip while a
forcing is active (the scalar engine checks no boundaries inside a
``stuck_at`` window), a crash inside the shared vector step, a raising
CPU, or a forced port the vector schedule does not track.  Each is
attributed as narrowly as it can be: a CPU that raises — from
``tick()``, or from ``advance_horizon()``/``advance()`` inside a quiet
stretch — evicts its own lane alone (reason ``cpu raised T: msg``, the
scalar crash's text), while a raising vector step or fast-forward
evicts every running lane.  :meth:`BatchedCoSimulation.run` *restarts*
an evicted lane *from cycle 0 on the scalar engine* by calling its
factory again — simulations here are deterministic, so the replay
reproduces the lane bit-for-bit and then produces the canonical scalar
outcome.  The equivalence suite forces evictions to prove this.  A
segmented driver reads :attr:`BatchedCoSimulation.pending_evictions`
itself: the batched fault campaign classifies a ``cpu raised`` lane in
lane when the record can be derived exactly, and replays the rest.

Wire-up
-------
``mb32-dse --batch[=WIDTH]`` routes design sweeps through
:func:`repro.cosim.sweep_batched.sweep_batched`; ``mb32-faultsim
--batch[=WIDTH]`` routes SEU campaigns through
``repro.faults.campaign.run_campaign(batch_width=...)``; both build on
this class.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.cosim.environment import (
    CoSimDeadlock,
    CoSimResult,
    CoSimTimeout,
    CoSimulation,
    check_window,
    hw_activity,
    next_boundary,
    no_progress,
)
from repro.cosim.mb_block import MicroBlazeBlock
from repro.iss.cpu import ADVANCE_FOREVER, HaltReason
from repro.runapi import RunPolicy
from repro.sysgen.block import IDLE_FOREVER
from repro.runapi.engine import engine_scope
from repro.sysgen.batched import BatchedModel, BatchUnsupported
from repro.sysgen.model import Model


#: eviction-reason prefix of a lane whose CPU raised; the rest of the
#: reason is ``T: msg``, the exception's type name and text
CPU_RAISED = "cpu raised "


@dataclass
class LaneResult:
    """Outcome of one lane, folded the way the conformance oracle folds
    a scalar run: a normal finish carries the :class:`CoSimResult`, a
    raising finish (deadlock, timeout, crash) carries the exception."""

    lane: int
    result: CoSimResult | None
    error: Exception | None = None
    evicted: bool = False
    eviction_reason: str | None = None

    @property
    def status(self) -> str:
        if self.error is not None:
            if isinstance(self.error, CoSimDeadlock):
                return "deadlock"
            return f"error:{type(self.error).__name__}"
        if self.result is not None and \
                self.result.halt_reason is HaltReason.MAX_CYCLES:
            return "max_cycles"
        return "exit"

    @property
    def error_text(self) -> str:
        return str(self.error) if self.error is not None else ""


class _LaneState:
    """Per-lane bookkeeping of the lockstep loop (absolute cycles)."""

    __slots__ = ("cycle0", "instr0", "stall0", "window", "next_check",
                 "target", "evict_at", "done")

    def __init__(self, cpu, window: int):
        self.cycle0 = cpu.cycle
        self.instr0 = cpu.stats.instructions
        self.stall0 = cpu.stats.stall_cycles
        self.window = window
        # absolute-aligned watchdog boundaries, exactly as the scalar
        # run loop computes them — restore- and segment-transparent
        self.next_check = next_boundary(cpu.cycle, window)
        self.target = cpu.cycle
        self.evict_at: int | None = None
        self.done = False


class BatchedCoSimulation:
    """N co-simulations of one design advancing in lockstep.

    ``factories`` are zero-argument callables, each returning a fresh
    :class:`~repro.cosim.environment.CoSimulation` for its lane.  They
    are called once at construction (under an ambient
    ``engine_scope("interpreter")`` so no per-lane scalar codegen is
    wasted — the lane models become interpreter-pinned clones of the
    one vector schedule) and called again, under the default scalar
    engine, whenever a lane is evicted.  ``sims`` gives the lanes
    already built instead (a segmented driver that owns eviction), and
    ``batched`` their lockstep model if it is built too.  Lanes may
    differ in value-like parameters but must be structurally identical
    (:func:`~repro.sysgen.batched.lockstep_signature`) and must not use
    ``extra_models`` — otherwise :class:`BatchUnsupported`.

    ``force_evict`` lists lanes to evict unconditionally once they have
    run ``force_evict_cycle`` cycles — a debug/CI knob proving the
    eviction path is bit-exact.
    """

    def __init__(
        self,
        factories: list[Callable[[], CoSimulation]] | None = None,
        *,
        sims: list[CoSimulation] | None = None,
        batched: BatchedModel | None = None,
        force_evict: Iterable[int] = (),
        force_evict_cycle: int = 64,
    ):
        if sims is None and factories:
            with engine_scope("interpreter"):
                sims = [factory() for factory in factories]
        if not sims:
            raise BatchUnsupported("batched co-simulation needs >= 1 lane")
        for lane, sim in enumerate(sims):
            if sim.extra_models:
                raise BatchUnsupported(
                    f"lane {lane} uses extra_models; the lockstep engine "
                    "batches single-model designs only"
                )
        if batched is None:
            batched = BatchedModel([sim.model for sim in sims])
        self.sims = list(sims)
        self.n = len(self.sims)
        self.factories = list(factories) if factories else [None] * self.n
        self.batched = batched
        self._force_evict = set(force_evict)
        if force_evict_cycle < 1:
            raise ValueError("force_evict_cycle must be >= 1")
        self._force_evict_cycle = force_evict_cycle
        self._st = [
            _LaneState(sim.cpu, sim.DEADLOCK_WINDOW) for sim in self.sims
        ]
        for lane in self._force_evict:
            st = self._st[lane]
            st.evict_at = st.cycle0 + force_evict_cycle
        #: lane -> eviction reason, filled by :meth:`advance`; the
        #: caller (run() or a segmented driver) decides what to do.
        self.pending_evictions: dict[int, str] = {}
        self._timeouts: dict[int, Exception] = {}
        self._budgets: list[int] = [0] * self.n
        self._policy = RunPolicy()
        #: lane -> (port-store index, value, until-cycle): per-cycle
        #: output pinning, the lockstep form of ``stuck_at``
        self._forcings: dict[int, tuple[int, int, int]] = {}
        # -- vectorized fast-forward state (see advance) --
        #: stores reach the hardware (and count as activity) only when
        #: the design has OPB-mapped registers
        self._stores_matter = any(
            hasattr(block, "opb_write") for block in batched.template.blocks)
        self._quiet = False
        #: the lanes running when the quiet stretch was armed
        self._quiet_lanes: frozenset[int] = frozenset()
        self._hw_sig = -1

    @classmethod
    def from_template(
        cls,
        program,
        hardware: Callable[[], tuple[Model, MicroBlazeBlock]],
        n: int,
        *,
        template: tuple[Model, MicroBlazeBlock] | None = None,
        cpu_config=None,
        deadlock_window: int | None = None,
    ) -> "BatchedCoSimulation":
        """N lanes of one design running ``program``.

        ``hardware()`` returns a new ``(model, hub)`` pair of the design
        (e.g. a design's ``fresh_hardware``); ``template`` (default: one
        ``hardware()`` call) is compiled once, never stepped, and may
        serve several batches in turn.  Each lane owns its CPU and a
        copy of the hub's channels (:meth:`MicroBlazeBlock.channel_copy`);
        a lane's own model — a ``hardware()`` call with its endpoints on
        the lane's channels — is built by :meth:`lane`, or for every
        lane when blocks run per lane.  An evicted lane replays on new
        hardware."""
        if n < 1:
            raise BatchUnsupported("batched co-simulation needs >= 1 lane")
        model, hub = template if template is not None else hardware()
        with engine_scope("interpreter"):
            sims = [CoSimulation(program, None, hub.channel_copy(),
                                 cpu_config=cpu_config,
                                 deadlock_window=deadlock_window)
                    for _ in range(n)]
        hubs = [sim.mb_block for sim in sims]

        def lane_model(lane: int) -> Model:
            lane_hw, fresh_hub = hardware()
            hubs[lane].bind_endpoints(fresh_hub)
            return lane_hw

        def factory() -> CoSimulation:
            return CoSimulation(program, *hardware(), cpu_config=cpu_config,
                                deadlock_window=deadlock_window)

        # a lane's channel set: endpoint block name -> the lane's channel
        channels = [
            {**{b.name: lane.to_hw_channel(c)
                for c, b in hub.read_blocks.items()},
             **{b.name: lane.from_hw_channel(c)
                for c, b in hub.write_blocks.items()}}
            for lane in hubs]
        batched = BatchedModel([model], channels, lane_model)
        for sim, built in zip(sims, batched.models):
            if built is not None:  # blocks run per lane: all are built
                sim.set_model(built)
        return cls([factory] * n, sims=sims, batched=batched)

    # ------------------------------------------------------------------
    @property
    def fallback_blocks(self) -> list[str]:
        """Blocks dispatched per lane instead of vectorized."""
        return self.batched.fallback_blocks

    def lane(self, lane: int) -> CoSimulation:
        """The per-lane simulation view — a real scalar
        :class:`CoSimulation` (after eviction: the replacement one), so
        capture/diagnosis code written for scalar runs works unchanged.
        A lane still in the batch first gets its hardware state written
        back from the vector arrays
        (:meth:`~repro.sysgen.batched.BatchedModel.write_back`), into
        its own model — built now if a template batch has none for it
        yet.  The lane may keep running in the batch afterwards.
        """
        sim = self.sims[lane]
        if sim.model is None:
            sim.set_model(self.batched.lane_model(lane))
        if sim.model is self.batched.models[lane]:
            self.batched.write_back(lane)
        return sim

    # ------------------------------------------------------------------
    # The lockstep advance kernel
    # ------------------------------------------------------------------
    def advance(self, targets: dict[int, int],
                deadline: float | None = None,
                wall_timeout_s: float | None = None) -> None:
        """Advance each keyed lane to absolute cycle ``targets[lane]``.

        A lane stops early when its CPU halts, its watchdog boundary
        shows no progress (queued in :attr:`pending_evictions`), or its
        forced-eviction cycle arrives.  Lanes not in ``targets`` (and
        already-done / eviction-pending lanes) stay frozen.  All
        running lanes advance one clock per iteration — true lockstep.
        Segmented drivers (the batched fault campaign) call this
        repeatedly with per-lane event cycles; :meth:`run` calls it
        once with the final budgets.
        """
        batched = self.batched
        stores_touch_hw = self._stores_matter
        running: list[int] = []
        for lane, target in targets.items():
            st = self._st[lane]
            if st.done or lane in self.pending_evictions:
                continue
            st.target = target
            cpu = self.sims[lane].cpu
            if not cpu.halted and cpu.cycle < target:
                running.append(lane)
        running.sort()
        for lane in range(self.n):
            if lane in running:
                batched.activate(lane)
            else:
                batched.deactivate(lane)
        if not self._quiet_lanes.issuperset(running):
            # a lane not running when the evidence was armed has its
            # own hardware state: the fixed point is not proven for it
            self._quiet = False

        while running:
            cpus = [self.sims[lane].cpu for lane in running]
            stride = min(
                min(st.target, st.next_check,
                    st.evict_at if st.evict_at is not None else st.target)
                - cpu.cycle
                for st, cpu in (
                    (self._st[lane], self.sims[lane].cpu) for lane in running
                )
            )
            stride = max(stride, 1)
            forced = any(lane in self._forcings for lane in running)
            try:
                done = 0
                stop = False
                while done < stride and not stop:
                    if self._quiet and not forced:
                        # --- quiet stretch: the vector hardware sits at a
                        # fixed point, so while no CPU activity reaches
                        # it, tick CPUs per cycle — bulk-advancing stalled
                        # windows — and advance the idle vector clock in
                        # a single fast_forward at the end.
                        ff = 0
                        while done < stride and not stop:
                            horizon = ADVANCE_FOREVER
                            for lane, cpu in zip(running, cpus):
                                try:
                                    h = cpu.advance_horizon()
                                except Exception as exc:  # noqa: BLE001
                                    stop = self._cpu_raised(lane, exc)
                                    continue
                                if h < horizon:
                                    horizon = h
                            if stop:
                                break
                            if horizon > 0:
                                k = min(horizon, stride - done)
                                for lane, cpu in zip(running, cpus):
                                    try:
                                        cpu.advance(k)
                                    except Exception as exc:  # noqa: BLE001
                                        stop = self._cpu_raised(lane, exc)
                                done += k
                                ff += k
                                continue
                            stop = self._tick(running, cpus)
                            done += 1
                            if hw_activity(cpus, stores_touch_hw) \
                                    != self._hw_sig:
                                # this cycle's activity reaches the
                                # hardware: flush the idle window, then
                                # really simulate this cycle
                                self._quiet = False
                                break
                            ff += 1
                        batched.fast_forward(ff)
                        if self._quiet:
                            continue
                    else:
                        if forced:
                            forced = self._apply_forcings(running)
                        stop = self._tick(running, cpus)
                        done += 1
                    batched.step(1)
                    if not forced and batched.idle_horizon(running) \
                            >= IDLE_FOREVER:
                        # the step left every running lane at a fixed
                        # point: the quiet stretch begins
                        self._quiet = True
                        self._quiet_lanes = frozenset(running)
                        self._hw_sig = hw_activity(cpus, stores_touch_hw)
            except Exception as exc:  # noqa: BLE001 - shared-step crash
                # A crash inside the shared vector step cannot be
                # attributed to one lane (a raising CPU is, and was
                # evicted alone above): evict every running lane and
                # let the scalar replays produce per-lane outcomes.
                reason = f"vector step raised {type(exc).__name__}: {exc}"
                for lane in running:
                    self._stop_lane(lane, reason)
                return

            if deadline is not None and time.perf_counter() >= deadline:
                for lane in running:
                    sim = self.sims[lane]
                    cycles = sim.cpu.cycle - self._st[lane].cycle0
                    self._st[lane].done = True
                    self._timeouts[lane] = CoSimTimeout(
                        sim._timeout_message(wall_timeout_s, cycles))
                    batched.deactivate(lane)
                return

            still: list[int] = []
            for lane in running:
                st = self._st[lane]
                cpu = self.sims[lane].cpu
                if lane in self.pending_evictions:
                    continue
                if cpu.halted:
                    self._stop_lane(lane)
                    continue
                if st.evict_at is not None and cpu.cycle >= st.evict_at:
                    self._stop_lane(lane, "forced eviction")
                    st.evict_at = None
                    continue
                if cpu.cycle >= st.next_check:
                    if no_progress(cpu.cycle, st.window,
                                   cpu.stats.last_retire_cycle):
                        self._stop_lane(lane, "deadlock watchdog")
                        continue
                    st.next_check = cpu.cycle + st.window
                if cpu.cycle >= st.target:
                    batched.deactivate(lane)
                    continue
                still.append(lane)
            running = still

    def _stop_lane(self, lane: int, reason: str | None = None) -> None:
        """Take a lane out of the vector step for good: its CPU halted
        or, with a ``reason``, it is queued for eviction (the first
        reason stands).  Its forcing, if any, goes with it."""
        if reason is not None:
            self.pending_evictions.setdefault(lane, reason)
        self._forcings.pop(lane, None)
        self.batched.deactivate(lane)

    # ------------------------------------------------------------------
    # Vectorized fast-forward support
    # ------------------------------------------------------------------
    def _tick(self, running: list[int], cpus: list) -> bool:
        """Tick every running CPU one cycle.  True when any CPU halted
        or raised, which ends the current stride."""
        stop = False
        for lane, cpu in zip(running, cpus):
            try:
                cpu.tick()
            except Exception as exc:  # noqa: BLE001
                stop = self._cpu_raised(lane, exc)
            stop |= cpu.halted
        return stop

    def _cpu_raised(self, lane: int, exc: Exception) -> bool:
        """A lane's CPU raised: queue that lane alone for eviction as
        ``cpu raised T: msg`` (the lockstep CPU holds the scalar CPU's
        state every cycle, so the text is the scalar crash's) and take
        it out of the vector step.  True: the stride ends."""
        self._stop_lane(lane, f"{CPU_RAISED}{type(exc).__name__}: {exc}")
        return True

    # ------------------------------------------------------------------
    # Per-cycle output forcing (lockstep ``stuck_at``)
    # ------------------------------------------------------------------
    def force_port(self, lane: int, block_name: str, port_name: str,
                   value: int, until_cycle: int) -> None:
        """Pin one lane's ``block.port`` output to ``value`` before
        every lockstep cycle whose pre-step cycle is ``<= until_cycle``
        — the lockstep form of a :class:`~repro.faults.inject.FaultInjector`
        ``stuck_at`` window ending at ``until_cycle``: forced when it
        opens and after every step inside it, so the port still holds
        the value entering the end cycle's step.
        Raises :class:`~repro.sysgen.batched.BatchUnsupported` when the
        port is not tracked by the vector schedule; the caller evicts.
        """
        idx = self.batched.port_index(block_name, port_name)
        forced = value & 0xFFFFFFFF
        self._forcings[lane] = (idx, forced, until_cycle)
        self.batched.poke_slot(idx, lane, forced)
        self._quiet = False

    def hw_touched(self) -> None:
        """Invalidate the quiescence evidence after out-of-band state
        mutation (fault injection writing memory, channels or ports
        behind the engine's back)."""
        self._quiet = False
        self._hw_sig = -1

    def _apply_forcings(self, running: list[int]) -> bool:
        """Re-pin the running lanes' forced ports for the coming cycle;
        True while any running lane still has a forcing.  An entry
        expires one cycle after its window — the scalar loop's final
        post-step force leaves the port pinned entering the end cycle's
        step, and only producer writes after that overwrite it."""
        forced = False
        for lane in running:
            entry = self._forcings.get(lane)
            if entry is None:
                continue
            idx, value, until = entry
            if self.sims[lane].cpu.cycle > until:
                del self._forcings[lane]
                continue
            self.batched.poke_slot(idx, lane, value)
            forced = True
        return forced

    # ------------------------------------------------------------------
    def run(
        self,
        until: int | list[int] | None = None,
        *,
        policy: RunPolicy | None = None,
    ) -> list[LaneResult]:
        """Run every lane to software exit or its cycle budget.

        ``until`` is one budget for all lanes or a per-lane list (the
        per-lane variant is a divergence axis of the equivalence suite).
        ``policy.deadlock_window`` overrides every lane's watchdog;
        ``policy.wall_timeout_s`` bounds the whole batch — exceeding it
        records a :class:`CoSimTimeout` on each unfinished lane.

        One-shot: lanes end done or evicted; call-site drivers needing
        segmented advance use :meth:`advance` directly.
        """
        if policy is None:
            policy = RunPolicy()
        if isinstance(until, list):
            if len(until) != self.n:
                raise ValueError(
                    f"per-lane budgets: expected {self.n}, got {len(until)}"
                )
            budgets = [policy.budget(u) for u in until]
        else:
            budgets = [policy.budget(until)] * self.n
        if policy.deadlock_window is not None:
            window = check_window(policy.deadlock_window)
            for lane, st in enumerate(self._st):
                st.window = window
                st.next_check = next_boundary(self.sims[lane].cpu.cycle,
                                              window)
        self._budgets = budgets
        self._policy = policy

        start = time.perf_counter()
        deadline = (start + policy.wall_timeout_s
                    if policy.wall_timeout_s is not None else None)
        targets = {
            lane: self._st[lane].cycle0 + budgets[lane]
            for lane in range(self.n)
        }
        self.advance(targets, deadline, policy.wall_timeout_s)

        results: list[LaneResult] = []
        for lane in range(self.n):
            if lane in self.pending_evictions:
                results.append(self._evict(lane))
            elif lane in self._timeouts:
                results.append(LaneResult(
                    lane, None, error=self._timeouts[lane]
                ))
            else:
                results.append(LaneResult(
                    lane, self._finish_lane(lane, start)
                ))
        return results

    def _finish_lane(self, lane: int, start: float) -> CoSimResult:
        st = self._st[lane]
        st.done = True
        cpu = self.sims[lane].cpu
        if not cpu.halted:
            cpu.halted = True
            cpu.halt_reason = HaltReason.MAX_CYCLES
        run_cycles = cpu.cycle - st.cycle0
        stats = cpu.stats
        return CoSimResult(
            exit_code=cpu.exit_code,
            cycles=run_cycles,
            instructions=stats.instructions - st.instr0,
            stall_cycles=stats.stall_cycles - st.stall0,
            # wall time is shared by the whole batch; per-lane wall is
            # reported as elapsed-at-finish and is not a conformance
            # observable
            wall_seconds=time.perf_counter() - start,
            simulated_seconds=run_cycles / cpu.config.frequency_hz,
            halt_reason=cpu.halt_reason,
        )

    # ------------------------------------------------------------------
    def _evict(self, lane: int) -> LaneResult:
        """Restart an evicted lane from cycle 0 on the scalar engine.

        Deterministic simulations make the replay bit-identical up to
        the eviction point, after which the scalar engine produces the
        canonical outcome (including raising
        :class:`~repro.cosim.environment.CoSimDeadlock` with its exact
        diagnostic text at exactly the cycle the watchdog fired)."""
        reason = self.pending_evictions.pop(lane)
        st = self._st[lane]
        st.done = True
        sim = self.factories[lane]()
        self.sims[lane] = sim
        try:
            result = sim.run(until=self._budgets[lane], policy=self._policy)
        except Exception as exc:  # noqa: BLE001 - outcome, not engine bug
            return LaneResult(lane, None, error=exc, evicted=True,
                              eviction_reason=reason)
        return LaneResult(lane, result, evicted=True, eviction_reason=reason)


# --------------------------------------------------------------------------
def lane_factory(build: Callable[[], Any]) -> Callable[[], CoSimulation]:
    """Adapt a design-instance builder (anything exposing ``program``,
    ``model``, ``mb`` and ``cpu_config``) into a lane factory."""

    def factory() -> CoSimulation:
        design = build()
        return CoSimulation(
            design.program, design.model, design.mb,
            cpu_config=design.cpu_config,
        )

    return factory
