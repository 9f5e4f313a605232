"""Lockstep batched co-simulation: N variants of one design at once.

A :class:`BatchedCoSimulation` couples N scalar CPUs (one per lane,
each with its own program image, FSL channels and telemetry) with ONE
:class:`~repro.sysgen.batched.BatchedModel` that steps the hardware of
all N lanes as ``(N,)`` numpy arrays.  A lane's CPU and its hardware
lane see each other only through FSL transfers (and, with OPB-mapped
registers, loads and stores), so each lane's CPU runs ahead alone
between those couplings and its hardware lane catches up (see *Lane
bursts* below).  The FSL interface blocks are vectorized like the rest
of the design: each lane's channel keeps its state in its row of the
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

Lane bursts
-----------
:meth:`BatchedCoSimulation.advance` runs in rounds, and every lane is
at one cycle (CPU and hardware lane alike) at the start and end of
each.  First each running lane's CPU takes one step of the run-ahead
rule (:func:`~repro.cosim.environment.run_ahead`; the rule, its resting
test and its raise contract are stated in :mod:`repro.cosim.environment`)
up to its target, watchdog boundary or forced-eviction cycle, or for
one cycle when the lane has an open forcing or an event bus on its CPU,
channels or endpoints, so forced ports are re-pinned before every step
and events reach their bus in cycle order.  Then the vector hardware
catches every lane up: the lanes still behind step together, ``k``
cycles per call with ``k`` doubling from one, leaving the vector step
as they arrive, and fast-forward together once all of them rest.  A
lane's resting evidence is the busy bit its last step left
(:meth:`~repro.sysgen.batched.BatchedModel.idle_lanes`, from the
blocks' own ``busy_if`` checks and the fallback blocks); a forced port
and :meth:`BatchedCoSimulation.hw_touched` (fault injection behind the
engine's back) make it stale too.  A lane's forcing goes when the lane
halts or is evicted.

A lane's CPU is built like any scalar one, so it shares its decodes
and translations with every CPU of the process that runs the same
program text (see *Code cache* in :mod:`repro.iss.cpu`): the batches of
a campaign, and of every later campaign of the design, decode and
translate each pc of the text once.

Lane eviction
-------------
Some events cannot be vectorized faithfully: a watchdog trip while a
forcing is active (the scalar engine checks no boundaries inside a
``stuck_at`` window), a crash inside the shared vector step, a raising
CPU, or a forced port the vector schedule does not track.  Each is
attributed as narrowly as it can be: a CPU that raises — mid-burst,
or from ``advance_horizon()``/``advance()`` — evicts its own lane alone
(reason ``cpu raised T: msg``, the scalar crash's text), its hardware
one cycle short of it as the scalar run loop leaves a raising burst,
while a raising vector step or fast-forward evicts every running lane.
:meth:`BatchedCoSimulation.run` *restarts* an evicted lane *from cycle
0 on the scalar engine* by calling its
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
    CoSimResult,
    CoSimTimeout,
    CoSimulation,
    CPURun,
    check_window,
    hw_activity,
    next_boundary,
    no_progress,
    outcome,
    run_ahead,
)
from repro.cosim.mb_block import MicroBlazeBlock
from repro.runapi import RunPolicy
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
        return outcome(self.result, self.error)[0]

    @property
    def error_text(self) -> str:
        return outcome(self.result, self.error)[1]


class _LaneState(CPURun):
    """A lane's run record plus its bookkeeping in the lockstep loop
    (absolute cycles)."""

    __slots__ = ("window", "next_check", "target", "evict_at", "done",
                 "seen")

    def __init__(self, cpu, window: int):
        super().__init__(cpu)
        self.window = window
        # absolute-aligned watchdog boundaries, exactly as the scalar
        # run loop computes them — restore- and segment-transparent
        self.next_check = next_boundary(cpu.cycle, window)
        self.target = cpu.cycle
        self.evict_at: int | None = None
        self.done = False
        #: the resting test's ``seen``: the lane's activity when its
        #: hardware last stepped; -1 before that, or once disturbed
        self.seen = -1


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
        #: stores reach the hardware (and count as activity) only when
        #: the design has OPB-mapped registers
        self._stores_matter = any(
            hasattr(block, "opb_write") for block in batched.template.blocks)

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
        already-done / eviction-pending lanes) stay frozen.  The lanes
        advance in rounds (see the module docstring): each CPU runs
        ahead to its next coupling, then the vector hardware catches
        every lane up to its CPU, so every lane is at one cycle again
        when this returns.  Segmented drivers (the batched fault
        campaign) call this repeatedly with per-lane event cycles;
        :meth:`run` calls it once with the final budgets.
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
        # the vector step runs only the lanes catching up (_catch_up)
        for lane in batched.lanes:
            batched.deactivate(lane)
        bus = self._bus_lanes(running)

        while running:
            lags = self._run_cpus(running, bus)
            try:
                self._catch_up(lags)
            except Exception as exc:  # noqa: BLE001 - shared-step crash
                # A crash inside the shared vector step cannot be
                # attributed to one lane (a raising CPU is, and was
                # evicted alone): evict every running lane and let the
                # scalar replays produce per-lane outcomes.
                reason = f"vector step raised {type(exc).__name__}: {exc}"
                for lane in running:
                    self._stop_lane(lane, reason)
                for lane in batched.lanes:
                    batched.deactivate(lane)
                return

            if deadline is not None and time.perf_counter() >= deadline:
                for lane in running:
                    sim = self.sims[lane]
                    cycles = sim.cpu.cycle - self._st[lane].cycle0
                    self._st[lane].done = True
                    self._timeouts[lane] = CoSimTimeout(
                        sim._timeout_message(wall_timeout_s, cycles))
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
                if cpu.cycle < st.target:
                    still.append(lane)
            running = still

    def _bus_lanes(self, lanes: list[int]) -> set[int]:
        """The lanes whose CPU, channels or endpoint blocks carry an
        event bus: they run one cycle per round, so every event is
        emitted in cycle order and stamped with the cycle it happens in
        (block and channel events read the CPU's clock)."""
        out = set()
        for lane in lanes:
            sim = self.sims[lane]
            if (sim.cpu.events is not None
                    or any(ch.events is not None for ch in sim.all_channels())
                    or (sim.model is not None and any(
                        getattr(b, "events", None) is not None
                        for b in sim.model.blocks))):
                out.add(lane)
        return out

    def _run_cpus(self, running: list[int],
                  bus: set[int]) -> dict[int, int]:
        """One round's CPU half (see *Lane bursts*): return the cycles
        each lane's hardware must catch up.  A CPU that raises is
        evicted alone."""
        memory = self._stores_matter
        lags: dict[int, int] = {}
        idle: set[int] | None = None

        # both callbacks answer for the lane the loop below is at
        def resting() -> bool:
            nonlocal idle
            if idle is None:
                idle = set(self._resting_lanes(running, {
                    other: self._activity(other) for other in running}))
            return lane in idle

        def catch_up(n: int) -> None:
            lags[lane] = n

        for lane in running:
            st = self._st[lane]
            cpu = st.cpu
            one = lane in bus
            if lane in self._forcings:
                one |= self._apply_forcing(lane, cpu.cycle)
            limit = 1 if one else min(
                st.target, st.next_check,
                st.target if st.evict_at is None else st.evict_at,
            ) - cpu.cycle
            try:
                run_ahead(cpu, limit, memory, resting, catch_up)
            except Exception as exc:  # noqa: BLE001
                self._cpu_raised(lane, exc)
        return lags

    def _activity(self, lane: int) -> int:
        """Lane ``lane``'s CPU activity that reaches its hardware
        (:func:`hw_activity`)."""
        return hw_activity((self.sims[lane].cpu,), self._stores_matter)

    def _resting_lanes(self, lanes: list[int],
                       acts: dict[int, int]) -> list[int]:
        """The lanes of ``lanes`` whose hardware rests, given each
        lane's current activity ``acts[lane]``."""
        st = self._st
        return self.batched.idle_lanes(
            [lane for lane in lanes if st[lane].seen == acts[lane]])

    def _catch_up(self, lags: dict[int, int]) -> None:
        """One round's hardware half (see *Lane bursts*): advance each
        lane's hardware ``lags[lane]`` cycles."""
        batched = self.batched
        st = self._st
        pending = {lane: k for lane, k in lags.items() if k > 0}
        # the CPUs wait: their activity is fixed for the whole catch-up
        acts = {lane: self._activity(lane) for lane in pending}
        for lane in pending:
            batched.activate(lane)
        chunk = 1
        while pending:
            lanes = batched.lanes
            k = min(pending.values())
            if len(self._resting_lanes(lanes, acts)) == len(lanes):
                batched.fast_forward(k)
            else:
                k = min(k, chunk)
                chunk *= 2
                batched.step(k)
                for lane in lanes:
                    st[lane].seen = acts[lane]
            for lane in lanes:
                left = pending[lane] - k
                if left:
                    pending[lane] = left
                else:
                    del pending[lane]
                    batched.deactivate(lane)

    def _stop_lane(self, lane: int, reason: str | None = None) -> None:
        """Stop a lane for good: its CPU halted or, with a ``reason``,
        it is queued for eviction (the first reason stands).  Its
        forcing, if any, goes with it."""
        if reason is not None:
            self.pending_evictions.setdefault(lane, reason)
        self._forcings.pop(lane, None)

    def _cpu_raised(self, lane: int, exc: Exception) -> None:
        """A lane's CPU raised: queue that lane alone for eviction as
        ``cpu raised T: msg`` (the lane's CPU holds the scalar CPU's
        state, so the text is the scalar crash's)."""
        self._stop_lane(lane, f"{CPU_RAISED}{type(exc).__name__}: {exc}")

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
        self._st[lane].seen = -1

    def hw_touched(self) -> None:
        """Invalidate the quiescence evidence after out-of-band state
        mutation (fault injection writing memory, channels or ports
        behind the engine's back): every lane's hardware steps before
        it may fast-forward again."""
        for st in self._st:
            st.seen = -1

    def _apply_forcing(self, lane: int, cycle: int) -> bool:
        """Re-pin ``lane``'s forced port for the cycle after ``cycle``;
        False once its forcing has expired.  An entry expires one cycle
        after its window — the scalar loop's final post-step force
        leaves the port pinned entering the end cycle's step, and only
        producer writes after that overwrite it."""
        idx, value, until = self._forcings[lane]
        if cycle > until:
            del self._forcings[lane]
            return False
        self.batched.poke_slot(idx, lane, value)
        self._st[lane].seen = -1
        return True

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
                st = self._st[lane]
                st.done = True
                # the batch shares one wall clock: a lane reports the
                # time elapsed when it finished, not a conformance
                # observable
                results.append(LaneResult(
                    lane, st.result(time.perf_counter() - start)))
        return results

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
