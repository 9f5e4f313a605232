"""Lockstep batched co-simulation: N variants of one design at once.

A :class:`BatchedCoSimulation` couples N scalar CPUs (one per lane,
each with its own program image, FSL channels and telemetry) with ONE
:class:`~repro.sysgen.batched.BatchedModel` that steps all N hardware
models as ``(N,)`` numpy arrays.  Per cycle: every running lane's CPU
ticks, then the vector model advances one clock for the running lanes.
The FSL interface blocks dispatch per lane onto the real channel
objects, so blocking semantics, drop counters and telemetry events are
bit-identical to N independent scalar runs.

Divergence is handled by lane masking: a lane that halts, reaches its
cycle budget or pauses at a per-lane target freezes (its state arrays,
probes and ports keep the exact values of its final executed cycle)
while the other lanes keep vectoring.  Frozen lanes can thaw again —
that is how segmented drivers (fault-injection campaigns) advance each
lane to its own next event.

Divergence the mask cannot express is handled in two further tiers.
Per-cycle output pinning (``stuck_at`` faults) stays in lockstep via
:meth:`BatchedCoSimulation.force_port`, and stall windows where every
running CPU is blocked and the vector hardware is observably at a
fixed point are bulk-skipped (:meth:`BatchedCoSimulation._maybe_skip`)
— the lockstep twin of the scalar engine's fast-forward.

Lane eviction
-------------
Some events cannot be vectorized faithfully: a watchdog trip while a
forcing is active (the scalar engine checks no boundaries inside a
``stuck_at`` window), a crash inside the shared vector step, a raising
CPU, or a forced port the vector schedule does not track.  An evicted
lane is *restarted
from cycle 0 on the scalar engine* by calling its factory again —
simulations here are deterministic, so the replay reproduces the lane
bit-for-bit and then produces the canonical scalar outcome.  The
equivalence suite forces evictions to prove this.

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
    next_boundary,
    no_progress,
)
from repro.iss.cpu import HaltReason
from repro.runapi import RunPolicy
from repro.sysgen.block import IDLE_FOREVER
from repro.runapi.engine import engine_scope
from repro.sysgen.batched import BatchedModel, BatchUnsupported


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
    """N structurally identical co-simulations advancing in lockstep.

    ``factories`` are zero-argument callables, each returning a fresh
    :class:`~repro.cosim.environment.CoSimulation` for its lane.  They
    are called once at construction (under an ambient
    ``engine_scope("interpreter")`` so no per-lane scalar codegen is
    wasted — the lane models become interpreter-pinned clones of the
    one vector schedule) and called again, under the default scalar
    engine, whenever a lane is evicted.

    The lane models must be structurally identical (same blocks, ports,
    wiring and probes; value-like parameters may differ) and must not
    use ``extra_models`` — otherwise :class:`BatchUnsupported`.

    ``force_evict`` lists lanes to evict unconditionally once they have
    run ``force_evict_cycle`` cycles — a debug/CI knob proving the
    eviction path is bit-exact.  ``rebuilt_hook(lane, sim)`` is invoked
    after an eviction rebuilds a lane's scalar simulation, so harnesses
    can re-attach observers (e.g. an FSL trace) to the fresh object.
    """

    def __init__(
        self,
        factories: list[Callable[[], CoSimulation]] | None = None,
        *,
        sims: list[CoSimulation] | None = None,
        force_evict: Iterable[int] = (),
        force_evict_cycle: int = 64,
        rebuilt_hook: Callable[[int, CoSimulation], None] | None = None,
    ):
        if sims is not None:
            # pre-built (possibly checkpoint-restored) lanes from a
            # segmented driver such as the batched fault campaign; the
            # driver owns eviction, so factories are optional
            self.sims = list(sims)
            self.factories = list(factories) if factories else \
                [None] * len(self.sims)
            if not self.sims:
                raise BatchUnsupported(
                    "batched co-simulation needs >= 1 lane")
        else:
            if not factories:
                raise BatchUnsupported(
                    "batched co-simulation needs >= 1 lane")
            self.factories = list(factories)
            with engine_scope("interpreter"):
                self.sims = [factory() for factory in self.factories]
        self.rebuilt_hook = rebuilt_hook
        for lane, sim in enumerate(self.sims):
            if sim.extra_models:
                raise BatchUnsupported(
                    f"lane {lane} uses extra_models; the lockstep engine "
                    "batches single-model designs only"
                )
        self.batched = BatchedModel([sim.model for sim in self.sims])
        self.n = len(self.sims)
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
        #: lane -> eviction reason, filled by :meth:`_advance`; the
        #: caller (run() or a segmented driver) decides what to do.
        self.pending_evictions: dict[int, str] = {}
        self._timeouts: dict[int, Exception] = {}
        self._budgets: list[int] = [0] * self.n
        self._policy = RunPolicy()
        #: lane -> (port-store index, clone port, value, until-cycle):
        #: per-cycle output pinning, the lockstep form of ``stuck_at``
        self._forcings: dict[int, tuple[int, Any, int, int]] = {}
        # -- vectorized fast-forward state (see advance/_signature) --
        self._stores_matter = any(
            sim._stores_touch_hw for sim in self.sims)
        self._quiet = False
        self._hw_sig = -1
        self._probe_wait = 0
        self._probe_backoff = 1
        self._probe_image = None
        self._fb_watch: list | None = None
        #: lane -> lane CPU signature at freeze: lanes individually
        #: paused at their own hardware fixed point while their CPUs
        #: compute (see advance)
        self._frozen: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Per-lane freeze: the lockstep twin of the scalar engine's
    # per-run fast-forward, but per lane — a lane whose slice of the
    # vector state sat unchanged through a probe step with its fallback
    # blocks idle forever is masked out of the step until its own CPU's
    # FSL/store activity resumes, then caught up with frozen probe
    # samples.
    # ------------------------------------------------------------------
    def _lane_sig(self, cpu) -> int:
        stats = cpu.stats
        sig = stats.fsl_puts + stats.fsl_gets
        if self._stores_matter:
            sig += stats.stores
        return sig

    def _thaw(self, lane: int, activate: bool = True) -> None:
        """Flush a frozen lane's lag (probes + clone cycle counter) up
        to the vector clock and optionally rejoin it to the stepping
        set."""
        self._frozen.pop(lane)
        batched = self.batched
        batched.fast_forward_lane(
            lane, batched.cycle - batched.models[lane].cycle)
        if activate:
            batched.activate(lane)

    def _thaw_all(self, activate: bool = False) -> None:
        for lane in list(self._frozen):
            self._thaw(lane, activate)

    # ------------------------------------------------------------------
    @property
    def fallback_blocks(self) -> list[str]:
        """Blocks dispatched per lane instead of vectorized."""
        return self.batched.fallback_blocks

    def lane(self, lane: int) -> CoSimulation:
        """The per-lane simulation view — a real scalar
        :class:`CoSimulation` (after eviction: the replacement one), so
        capture/diagnosis code written for scalar runs works unchanged.
        """
        return self.sims[lane]

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
            crashed = False
            try:
                done = 0
                halted = False
                while done < stride:
                    if self._quiet and not self._forcings:
                        # --- CPU-only stretch: the vector hardware has
                        # been observed at a fixed point (see the probe
                        # below), so while no CPU activity reaches it,
                        # tick CPUs per cycle — bulk-advancing stalled
                        # windows — and advance the frozen vector clock
                        # in a single fast_forward at the end.  The
                        # lockstep twin of the scalar engine's hw_idle
                        # cycles and fast-forward skips.
                        if self._fb_watch is not None and \
                                not batched.fallback_outputs_unchanged(
                                    self._fb_watch):
                            self._quiet = False
                            self._fb_watch = None
                            continue
                        ff = 0
                        while done < stride:
                            horizon = min(
                                cpu.advance_horizon() for cpu in cpus)
                            if horizon > 0:
                                k = min(horizon, stride - done)
                                for cpu in cpus:
                                    cpu.advance(k)
                                done += k
                                ff += k
                                continue
                            halted = False
                            for lane, cpu in zip(running, cpus):
                                try:
                                    cpu.tick()
                                except Exception as exc:  # noqa: BLE001
                                    self.pending_evictions[lane] = (
                                        f"cpu raised "
                                        f"{type(exc).__name__}: {exc}"
                                    )
                                    batched.deactivate(lane)
                                    crashed = True
                            sig = self._signature(cpus)
                            if sig != self._hw_sig:
                                # this cycle's activity reaches the
                                # hardware: flush the frozen window,
                                # then really simulate this cycle
                                self._quiet = False
                                self._fb_watch = None
                                self._probe_wait = 0
                                batched.fast_forward(ff)
                                ff = 0
                                batched.step(1)
                                done += 1
                                break
                            for cpu in cpus:
                                halted |= cpu.halted
                            done += 1
                            ff += 1
                            if halted or crashed:
                                break
                        batched.fast_forward(ff)
                        if halted or crashed:
                            break
                        continue
                    probing = (
                        not self._quiet
                        and not self._forcings
                        and self._probe_wait <= 0
                    )
                    if probing:
                        self._probe_image = batched.state_image()
                    elif not self._quiet:
                        self._probe_wait -= 1
                    if self._forcings:
                        self._apply_forcings(running)
                    halted = False
                    for lane, cpu in zip(running, cpus):
                        try:
                            cpu.tick()
                        except Exception as exc:  # noqa: BLE001
                            # attributable: this lane's CPU raised — its
                            # scalar replay reproduces the crash exactly
                            self.pending_evictions[lane] = (
                                f"cpu raised {type(exc).__name__}: {exc}"
                            )
                            batched.deactivate(lane)
                            if lane in self._frozen:
                                del self._frozen[lane]
                            crashed = True
                        halted |= cpu.halted
                    if self._frozen:
                        # a frozen lane's CPU activity is about to reach
                        # its hardware: catch the lane up and step it
                        # through this very cycle, like the scalar
                        # engine's fast-forward flush
                        for lane, cpu in zip(running, cpus):
                            if lane in self._frozen and \
                                    self._lane_sig(cpu) != \
                                    self._frozen[lane]:
                                self._thaw(lane)
                    batched.step(1)
                    done += 1
                    if probing:
                        # arm quiescence only on direct evidence: the
                        # step changed nothing AND every per-lane
                        # fallback block is at an unbounded fixed point
                        changed = batched.changed_lanes(self._probe_image)
                        if not changed.any() \
                                and batched.fallback_idle_horizon(running) \
                                >= IDLE_FOREVER:
                            self._thaw_all(activate=True)
                            self._quiet = True
                            self._probe_backoff = 1
                            self._hw_sig = self._signature(cpus)
                            self._fb_watch = batched.fallback_outputs_image()
                        else:
                            # per-lane freeze: the same evidence, lane
                            # by lane — an unchanged slice plus idle
                            # fallback blocks pauses that lane alone
                            froze = False
                            for lane in running:
                                if lane in self._frozen \
                                        or lane in self._forcings \
                                        or changed[lane]:
                                    continue
                                if batched.fallback_idle_horizon([lane]) \
                                        < IDLE_FOREVER:
                                    continue
                                self._frozen[lane] = self._lane_sig(
                                    self.sims[lane].cpu)
                                batched.deactivate(lane)
                                froze = True
                            if froze:
                                # lanes are reaching their idle points:
                                # probe sooner to catch the rest
                                self._probe_backoff = max(
                                    1, self._probe_backoff // 4)
                            else:
                                self._probe_backoff = min(
                                    self._probe_backoff * 2, 512)
                            self._probe_wait = self._probe_backoff
                        self._probe_image = None
                    if halted or crashed:
                        break
            except Exception as exc:  # noqa: BLE001 - shared-step crash
                # A crash inside the shared vector step cannot be
                # attributed to one lane: evict every running lane and
                # let the scalar replays produce per-lane outcomes.
                reason = f"vector step raised {type(exc).__name__}: {exc}"
                self._frozen.clear()  # evicted lanes replay from scratch
                for lane in running:
                    if lane not in self.pending_evictions:
                        self.pending_evictions[lane] = reason
                    batched.deactivate(lane)
                return

            if deadline is not None and time.perf_counter() >= deadline:
                self._thaw_all(activate=False)
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
                    self._frozen.pop(lane, None)  # replayed from scratch
                    continue
                if cpu.halted:
                    if lane in self._frozen:
                        self._thaw(lane, activate=False)
                    batched.deactivate(lane)
                    continue
                if st.evict_at is not None and cpu.cycle >= st.evict_at:
                    self.pending_evictions[lane] = "forced eviction"
                    st.evict_at = None
                    self._frozen.pop(lane, None)
                    batched.deactivate(lane)
                    continue
                if cpu.cycle >= st.next_check:
                    if no_progress(cpu.cycle, st.window,
                                   cpu.stats.last_retire_cycle):
                        self.pending_evictions[lane] = "deadlock watchdog"
                        if lane in self._frozen:
                            self._thaw(lane, activate=False)
                        batched.deactivate(lane)
                        continue
                    st.next_check = cpu.cycle + st.window
                if cpu.cycle >= st.target:
                    if lane in self._frozen:
                        self._thaw(lane, activate=False)
                    batched.deactivate(lane)
                    continue
                still.append(lane)
            running = still

    # ------------------------------------------------------------------
    # Vectorized fast-forward support
    # ------------------------------------------------------------------
    def _signature(self, cpus: list) -> int:
        """Monotonic count of CPU activity that can reach the hardware.

        While this is unchanged and ``_quiet`` is armed (a probe step
        observed the vector state at an exact fixed point with every
        per-lane fallback block idle), nothing can perturb the models:
        determinism turns the one observed no-op step into a standing
        guarantee, so cycles are spent on the CPUs alone and the vector
        clock catches up via :meth:`BatchedModel.fast_forward`.  Stores
        count only when some lane has OPB-mapped hardware registers —
        the same refinement the scalar engine's quiescence cache makes.
        """
        sig = 0
        if self._stores_matter:
            for cpu in cpus:
                stats = cpu.stats
                sig += stats.fsl_puts + stats.fsl_gets + stats.stores
        else:
            for cpu in cpus:
                stats = cpu.stats
                sig += stats.fsl_puts + stats.fsl_gets
        return sig

    # ------------------------------------------------------------------
    # Per-cycle output forcing (lockstep ``stuck_at``)
    # ------------------------------------------------------------------
    def force_port(self, lane: int, block_name: str, port_name: str,
                   value: int, until_cycle: int) -> None:
        """Pin one lane's ``block.port`` output to ``value`` before
        every lockstep cycle whose pre-step cycle is ``<= until_cycle``
        — exactly the scalar injector's force/step/re-force loop,
        including its trailing post-window force at the end cycle.
        Raises :class:`~repro.sysgen.batched.BatchUnsupported` when the
        port is not tracked by the vector schedule; the caller evicts.
        """
        idx, clone = self.batched.force_handle(block_name, port_name, lane)
        forced = value & 0xFFFFFFFF
        self._forcings[lane] = (idx, clone, forced, until_cycle)
        self.batched.poke_slot(idx, lane, forced)
        clone.value = forced
        self._quiet = False
        self._fb_watch = None

    def clear_forcing(self, lane: int) -> None:
        """Drop a lane's forcing (lane finished, halted or evicted)."""
        self._forcings.pop(lane, None)

    def hw_touched(self) -> None:
        """Invalidate the quiescence evidence after out-of-band state
        mutation (fault injection writing memory, channels or ports
        behind the engine's back)."""
        self._quiet = False
        self._hw_sig = -1
        self._probe_wait = 0
        self._probe_backoff = 1
        self._probe_image = None
        self._fb_watch = None
        self._thaw_all()

    def _apply_forcings(self, running: list[int]) -> None:
        """Re-pin forced ports for the coming cycle.  An entry expires
        one cycle after its window — the scalar loop's final post-step
        force leaves the port pinned entering the end cycle's step, and
        only producer writes after that overwrite it."""
        rs = set(running)
        expired = []
        for lane, (idx, clone, value, until) in self._forcings.items():
            if lane not in rs:
                continue
            if self.sims[lane].cpu.cycle > until:
                expired.append(lane)
                continue
            self.batched.poke_slot(idx, lane, value)
            clone.value = value
        for lane in expired:
            del self._forcings[lane]

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
        segmented advance use :meth:`_advance` directly.
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
        if self.rebuilt_hook is not None:
            self.rebuilt_hook(lane, sim)
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
