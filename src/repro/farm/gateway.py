"""The asyncio farm gateway.

One process, one event loop, N worker processes (the persistent
:class:`~repro.runapi.pool.Worker` the sweep engine also runs on).
The gateway owns four cooperating pieces:

* the **HTTP front** — a hand-rolled asyncio HTTP/1.1 server
  (:mod:`repro.farm.httpio`) multiplexing thousands of concurrent
  keep-alive client sessions over ``/v1/...`` endpoints,
* the **job table** — every submission becomes a :class:`Job` keyed by
  its content fingerprint; duplicates of an in-flight job coalesce
  onto it (one execution, N waiters, byte-identical bytes for all) and
  results land in the content-addressed :class:`~repro.farm.cache
  .FarmCache`, so a re-submission after completion is answered from
  disk in microseconds without touching a worker,
* the **dispatcher** — jobs become :class:`Task` units (whole job, or
  point/trial shards for sweeps and campaigns) pulled by idle workers;
  a preempt request sets the worker's shared event, the worker yields
  a checkpoint (or its completed-unit journal) and the task re-queues
  **excluding that worker** — checkpoint migration.  A worker that
  dies mid-task is detected by pipe EOF; a replacement worker is
  spawned and the task re-dispatches, until it has lost
  :data:`MAX_WORKERS_LOST` workers and fails its job,
* the **meters** — queue depth, busy workers, cache hit/coalesce/shed
  counters, simulated cycles and per-job latency live in a
  :class:`~repro.telemetry.metrics.MetricsRegistry`; per-tenant usage
  is tallied next to it.  ``GET /v1/status`` serves both, and
  ``max_queue`` turns the queue-depth gauge into load shedding (503).

Endpoints
---------
=============================  =======================================
``POST /v1/jobs``              submit (``?wait=1`` to block for the
                               result, ``&timeout_s=`` to bound it)
``GET  /v1/jobs/<id>``         status (+ result once done)
``GET  /v1/jobs/<id>/result``  the raw result document bytes
``POST /v1/jobs/<id>/preempt`` checkpoint + migrate a running job
``GET  /v1/status``            farm status, metrics, tenants
``GET  /v1/healthz``           liveness
``POST /v1/drain``             finish everything, then shut down
=============================  =======================================
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.farm import httpio
from repro.farm.cache import FarmCache
from repro.farm.jobs import PREEMPT_SLICE, _spec_from_payload, execute
from repro.farm.wal import (
    EV_DONE,
    EV_FAILED,
    EV_PROGRESS,
    EV_SUBMIT,
    EV_UNITS,
    GatewayJournal,
)
from repro.farm.protocol import (
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    STATE_RUNNING,
    JobSpec,
    ProtocolError,
    job_fingerprint,
)
from repro.runapi.pool import CMD_EXIT, Worker
from repro.telemetry.metrics import MetricsRegistry

#: per-job latency histogram buckets (milliseconds)
LATENCY_BOUNDS_MS = (1, 5, 10, 50, 250, 1_000, 5_000, 30_000)

#: sharded job kinds (unit-boundary migration); everything else is a
#: single task (cycle-boundary checkpoint migration where supported)
SHARDED_KINDS = ("sweep", "campaign")

#: a task whose worker died this many times fails its job with the
#: pool's death message instead of re-queuing forever
MAX_WORKERS_LOST = 3


@dataclass
class Task:
    """One dispatchable unit of work (a whole job, or one shard)."""

    id: int
    job: "Job"
    units: list[int] | None = None
    resume_state: dict[str, Any] | None = None
    exclude_worker: int | None = None
    workers_lost: int = 0


@dataclass
class Job:
    """Gateway-side record of one deduplicated job."""

    id: str
    spec: JobSpec
    fingerprint: str
    state: str = STATE_QUEUED
    cache_hit: bool = False
    submitted: float = 0.0
    finished: float = 0.0
    tenants: dict[str, int] = field(default_factory=dict)
    result_bytes: bytes | None = None
    error: str | None = None
    done: asyncio.Event = field(default_factory=asyncio.Event)
    # sharded bookkeeping
    n_units: int = 0
    records: dict[int, dict[str, Any]] = field(default_factory=dict)
    baseline_cycles: int | None = None
    tasks_inflight: int = 0
    # accounting
    executions: int = 0
    preempts: int = 0
    migrations: int = 0
    cycles: int = 0
    workers_used: set[int] = field(default_factory=set)

    @property
    def wall_ms(self) -> float:
        end = self.finished if self.finished else time.perf_counter()
        return (end - self.submitted) * 1e3

    def status_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id,
            "kind": self.spec.kind,
            "state": self.state,
            "fingerprint": self.fingerprint,
            "cache_hit": self.cache_hit,
            "executions": self.executions,
            "preempts": self.preempts,
            "migrations": self.migrations,
            "workers_used": sorted(self.workers_used),
            "cycles": self.cycles,
            "wall_ms": round(self.wall_ms, 3),
            "error": self.error,
        }
        if self.state == STATE_DONE and self.result_bytes is not None:
            import json

            out["result"] = json.loads(self.result_bytes)
        return out


class _WorkerHandle(Worker):
    """One pool worker plus the gateway's view of it: the task it runs,
    whether a death is still news (``alive``) and a reader thread that
    hands every reply to the event loop."""

    def __init__(self, worker_id: int, on_message, on_death):
        super().__init__()
        self.id = worker_id
        self.task: Task | None = None
        self.alive = True
        self._on_message = on_message
        self._on_death = on_death
        self._thread = threading.Thread(
            target=self._read_loop, daemon=True,
            name=f"farm-worker-{worker_id}-reader",
        )
        self._thread.start()

    def _read_loop(self) -> None:
        while True:
            reply = self.recv()
            if reply.get("dead"):
                # a pipe closed by kill() at shutdown is no death
                if self.alive:
                    self._on_death(self, reply["error"])
                return
            if reply.get("cmd") == CMD_EXIT:
                return
            self._on_message(self, reply)

    def kill(self) -> None:
        self.alive = False
        super().kill()


class FarmGateway:
    """The co-simulation-as-a-service gateway (one per host/port)."""

    def __init__(
        self,
        *,
        workers: int = 4,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: str | None = None,
        max_queue: int = 10_000,
        preempt_slice: int = PREEMPT_SLICE,
        journal_path: str | None = None,
        recover: bool = False,
        wal_fsync: bool = False,
    ):
        if workers < 1:
            raise ValueError("a farm needs at least one worker")
        if recover and journal_path is None:
            raise ValueError("recover=True needs a journal_path")
        self.requested_workers = workers
        self.host = host
        self.port = port
        self.cache = FarmCache(cache_dir) if cache_dir else None
        self.max_queue = max_queue
        self.preempt_slice = preempt_slice
        self.journal = (
            GatewayJournal(journal_path, fsync=wal_fsync)
            if journal_path else None
        )
        self.recover = recover

        self.metrics = MetricsRegistry()
        self.tenants: dict[str, dict[str, int]] = {}
        self.jobs: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}
        self._queue: deque[Task] = deque()
        self._workers: dict[int, _WorkerHandle] = {}
        self._next_job = 0
        self._next_task = 0
        self._next_worker = 0
        self._draining = False
        self._drained = None  # asyncio.Event, created in start()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._address: tuple[str, int] | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self.started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        assert self._address is not None, "gateway not started"
        return self._address

    async def start(self) -> None:
        """Spawn the worker pool, replay the write-ahead journal when
        recovering, and start accepting connections."""
        self._loop = asyncio.get_running_loop()
        self._drained = asyncio.Event()
        recovered_events = None
        if self.journal is not None and self.recover:
            recovered_events = self.journal.replay()
        for _ in range(self.requested_workers):
            self._spawn_worker()
        if self.journal is not None:
            self.journal.open()
        if recovered_events is not None:
            self._recover(recovered_events)
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self._address = self._server.sockets[0].getsockname()[:2]
        self.started = True

    async def serve_forever(self) -> None:
        """Run until drained (``POST /v1/drain``) or cancelled."""
        assert self._drained is not None
        await self._drained.wait()

    async def close(self) -> None:
        """Stop immediately: drop the queue, kill workers, close."""
        self._draining = True
        self._queue.clear()
        for job in list(self._inflight.values()):
            if not job.done.is_set():
                self._fail_job(job, "gateway closed")
        for handle in list(self._workers.values()):
            handle.kill()
        self._workers.clear()
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        self._cancel_connections()
        if self.journal is not None:
            self.journal.close()
        if self._drained is not None:
            self._drained.set()

    async def crash(self) -> None:
        """Abrupt stop simulating a gateway crash: kill the workers
        and the listener *without* recording any job outcome — the
        write-ahead journal (flushed on every append) is the only
        survivor, exactly as after a real ``SIGKILL``.  Its handle is
        closed without writing a record, so nothing reaches it after
        the crash.  Chaos/test infrastructure only."""
        self._draining = True
        self._queue.clear()
        for handle in list(self._workers.values()):
            handle.alive = False  # suppress the death-handler respawn
            handle.kill()
        self._workers.clear()
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        self._cancel_connections()
        if self.journal is not None:
            self.journal.close()
        if self._drained is not None:
            self._drained.set()

    async def drain(self) -> dict[str, Any]:
        """Finish every queued/running job, then shut down cleanly."""
        self._draining = True
        # every job, not just the cacheable ones coalesced in _inflight
        pending = [job for job in self.jobs.values() if not job.done.is_set()]
        for job in pending:
            await job.done.wait()
        assert self._loop is not None
        for handle in list(self._workers.values()):
            handle.alive = False
            # exit (and join) in the executor: never block the event loop
            await self._loop.run_in_executor(None, handle.exit)
        if self._server is not None:
            self._server.close()
        completed = sum(
            1 for j in self.jobs.values() if j.state == STATE_DONE
        )
        self._cancel_connections()
        if self.journal is not None:
            self.journal.close()
        if self._drained is not None:
            self._drained.set()
        return {"drained": True, "jobs_completed": completed}

    def _cancel_connections(self) -> None:
        """Drop idle keep-alive connections so shutdown leaves no
        pending tasks behind (the caller's own connection survives
        long enough to receive its response)."""
        current = asyncio.current_task()
        for task in list(self._conn_tasks):
            if task is not current and not task.done():
                task.cancel()

    def _spawn_worker(self) -> _WorkerHandle:
        worker_id = self._next_worker
        self._next_worker += 1
        handle = _WorkerHandle(
            worker_id,
            on_message=self._on_worker_message_threadsafe,
            on_death=self._on_worker_death_threadsafe,
        )
        self._workers[worker_id] = handle
        return handle

    # ------------------------------------------------------------------
    # worker I/O (reader threads -> event loop)
    # ------------------------------------------------------------------
    def _on_worker_message_threadsafe(self, handle, msg) -> None:
        self._post(self._on_worker_message, handle, msg)

    def _on_worker_death_threadsafe(self, handle, error: str) -> None:
        self._post(self._on_worker_death, handle, error)

    def _post(self, callback, *args) -> None:
        """Hand a reader-thread event to the event loop — unless the
        loop already closed under a shutdown, when nobody is left to
        handle it."""
        loop = self._loop
        assert loop is not None
        try:
            loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:
            if not loop.is_closed():
                raise

    def _on_worker_death(self, handle: _WorkerHandle, error: str) -> None:
        if not handle.alive:
            return  # deliberate shutdown
        handle.kill()  # reap it and close the pipe
        self._workers.pop(handle.id, None)
        self.metrics.counter("farm.workers.deaths").inc()
        task = handle.task
        handle.task = None
        if not self._draining:
            self._spawn_worker()
        if task is not None:
            task.workers_lost += 1
            if task.workers_lost >= MAX_WORKERS_LOST:
                # a task that keeps killing its worker is a poison job
                self._fail_job(task.job, error)
            else:
                # the stint died with the worker: re-dispatch from the
                # last known state (the resume_state it was launched with)
                self._queue.appendleft(task)
        self._pump()

    def _on_worker_message(self, handle: _WorkerHandle, reply: dict) -> None:
        task = handle.task
        handle.task = None
        self._gauge_workers()
        if task is None:
            return  # stale reply from a reassigned worker; ignore
        msg = reply.get("value") or {}
        job = task.job
        job.executions += 1
        job.workers_used.add(handle.id)
        job.cycles += int(msg.get("cycles") or 0)
        self.metrics.counter("farm.cycles").inc(int(msg.get("cycles") or 0))

        if not reply["ok"]:
            self._fail_job(job, reply["error"])
        elif msg.get("outcome") == "preempted":
            job.preempts += 1
            self.metrics.counter("farm.jobs.preempts").inc()
            follow = Task(
                id=self._new_task_id(),
                job=job,
                exclude_worker=handle.id,
            )
            if task.units is not None:  # shard: journal migration
                self._absorb_shard_records(job, msg)
                follow.units = list(msg.get("remaining", []))
            else:  # checkpoint migration
                follow.resume_state = msg.get("state")
                self._journal({
                    "ev": EV_PROGRESS,
                    "id": job.id,
                    "state": follow.resume_state,
                })
            job.tasks_inflight -= 1
            self._enqueue_task(follow, front=True)
        else:
            job.tasks_inflight -= 1
            if task.units is not None:
                self._absorb_shard_records(job, msg)
                if len(job.records) >= job.n_units and \
                        job.tasks_inflight <= 0:
                    self._finish_sharded_job(job)
            else:
                self._finish_job(job, msg.get("result") or {})
        self._pump()

    def _absorb_shard_records(self, job: Job, msg: dict) -> None:
        """Fold a shard reply's completed-unit records into the job
        (journaling them, so recovery re-runs only the missing
        units)."""
        records = msg.get("records", [])
        for rec in records:
            job.records[rec["index"]] = rec
        if job.baseline_cycles is None:
            job.baseline_cycles = msg.get("baseline_cycles")
        if records:
            self._journal({
                "ev": EV_UNITS,
                "id": job.id,
                "records": records,
                "baseline_cycles": job.baseline_cycles,
            })

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _new_task_id(self) -> int:
        self._next_task += 1
        return self._next_task

    def _enqueue_task(self, task: Task, front: bool = False) -> None:
        task.job.tasks_inflight += 1
        if front:
            self._queue.appendleft(task)
        else:
            self._queue.append(task)
        self._gauge_queue()
        self._pump()

    def _pump(self) -> None:
        """Match queued tasks to idle workers (migration-aware)."""
        if not self._queue:
            self._gauge_queue()
            return
        idle = [
            h for h in self._workers.values()
            if h.alive and h.task is None
        ]
        if not idle:
            return
        multi_worker = len(self._workers) > 1
        progressed = True
        while progressed and idle and self._queue:
            progressed = False
            for qi, task in enumerate(self._queue):
                eligible = next(
                    (
                        h for h in idle
                        if task.exclude_worker is None
                        or h.id != task.exclude_worker
                        or not multi_worker
                    ),
                    None,
                )
                if eligible is None:
                    continue
                del self._queue[qi]
                idle.remove(eligible)
                if (task.exclude_worker is not None
                        and eligible.id != task.exclude_worker):
                    task.job.migrations += 1
                    self.metrics.counter("farm.jobs.migrations").inc()
                self._dispatch(eligible, task)
                progressed = True
                break
        self._gauge_queue()
        self._gauge_workers()

    def _dispatch(self, handle: _WorkerHandle, task: Task) -> None:
        handle.preempt.clear()
        handle.task = task
        job = task.job
        if job.state == STATE_QUEUED:
            job.state = STATE_RUNNING
        assert self._loop is not None
        # pipe sends can block when the buffer is full; keep the loop free
        self._loop.run_in_executor(None, self._send_to_worker, handle, task)

    def _send_to_worker(self, handle: _WorkerHandle, task: Task) -> None:
        handle.send(
            execute, task.job.spec.kind, task.job.spec.payload,
            units=task.units,
            resume_state=task.resume_state,
            preempt_slice=self.preempt_slice,
        )

    # ------------------------------------------------------------------
    # job lifecycle
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> tuple[Job, bool, bool]:
        """Admit one submission; returns (job, coalesced, shed)."""
        tenant = self._tenant(spec.tenant)
        tenant["submitted"] += 1
        self.metrics.counter("farm.jobs.submitted").inc()

        if self._draining or len(self._queue) >= self.max_queue:
            tenant["shed"] += 1
            self.metrics.counter("farm.jobs.shed").inc()
            return self._shed_job(spec), False, True

        fingerprint = job_fingerprint(spec)

        # 1. content-addressed cache: served without touching a worker
        if spec.cacheable and self.cache is not None:
            hit = self.cache.get(fingerprint)
            if hit is not None:
                tenant["cache_hits"] += 1
                self.metrics.counter("farm.jobs.cache_hits").inc()
                job = self._new_job(spec, fingerprint)
                job.cache_hit = True
                job.result_bytes = hit
                job.state = STATE_DONE
                job.finished = time.perf_counter()
                job.done.set()
                self._observe_latency(job)
                tenant["completed"] += 1
                self.metrics.counter("farm.jobs.completed").inc()
                return job, False, False

        # 2. in-flight coalescing: one execution, N waiters
        running = self._inflight.get(fingerprint)
        if running is not None and spec.cacheable:
            tenant["coalesced"] += 1
            running.tenants[spec.tenant] = \
                running.tenants.get(spec.tenant, 0) + 1
            self.metrics.counter("farm.jobs.coalesced").inc()
            return running, True, False

        # 3. fresh work
        job = self._new_job(spec, fingerprint)
        if spec.cacheable:
            self._inflight[fingerprint] = job
        self._enqueue_job(job)
        return job, False, False

    def _journal(self, event: dict[str, Any]) -> None:
        if self.journal is not None:
            self.journal.record(event)
            self.metrics.counter("farm.wal.records").inc()

    def _new_job(self, spec: JobSpec, fingerprint: str) -> Job:
        self._next_job += 1
        job = Job(
            id=f"j{self._next_job:06d}",
            spec=spec,
            fingerprint=fingerprint,
            submitted=time.perf_counter(),
        )
        job.tenants[spec.tenant] = 1
        self.jobs[job.id] = job
        # write-ahead: the submission is on disk before any state
        # transition, so a crash cannot silently drop an accepted job
        self._journal({
            "ev": EV_SUBMIT,
            "id": job.id,
            "fingerprint": fingerprint,
            "spec": spec.to_dict(),
        })
        return job

    def _shed_job(self, spec: JobSpec) -> Job:
        job = self._new_job(spec, job_fingerprint(spec))
        job.state = STATE_FAILED
        job.error = "overloaded" if not self._draining else "draining"
        job.finished = time.perf_counter()
        job.done.set()
        return job

    def _enqueue_job(self, job: Job) -> None:
        spec = job.spec
        if spec.kind in SHARDED_KINDS:
            if spec.kind == "sweep":
                points = spec.payload.get("points")
                if not isinstance(points, list) or not points:
                    self._fail_job(
                        job, 'sweep payload needs a non-empty "points" array'
                    )
                    return
                job.n_units = len(points)
            else:  # campaign
                config = spec.payload.get("config")
                if not isinstance(config, dict) or \
                        int(config.get("trials", 0)) < 1:
                    self._fail_job(
                        job,
                        'campaign payload needs {"config": {...}} with '
                        'trials >= 1',
                    )
                    return
                job.n_units = int(config["trials"])
            self._enqueue_units(job, list(range(job.n_units)))
        else:
            self._enqueue_task(Task(id=self._new_task_id(), job=job))

    def _enqueue_units(self, job: Job, units: list[int]) -> None:
        """Shard ``units`` across the worker pool as dispatch tasks."""
        shards = max(1, min(len(self._workers), len(units)))
        bounds = [
            (len(units) * s // shards, len(units) * (s + 1) // shards)
            for s in range(shards)
        ]
        for lo, hi in bounds:
            if lo < hi:
                self._enqueue_task(
                    Task(
                        id=self._new_task_id(),
                        job=job,
                        units=units[lo:hi],
                    )
                )

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def _recover(self, events: list[dict[str, Any]]) -> None:
        """Rebuild the job table from the write-ahead journal.

        Completed jobs serve from the content-addressed cache (or
        their inlined bytes); jobs whose cached result was quarantined
        as damaged re-queue and re-execute; queued jobs re-queue;
        running cycle-granular jobs resume from their last journaled
        checkpoint and sharded jobs re-run only their missing units —
        all through the same dispatch paths a live job uses.
        """
        folded: dict[str, dict[str, Any]] = {}
        order: list[str] = []
        for ev in events:
            kind, jid = ev.get("ev"), ev.get("id")
            if kind == EV_SUBMIT and isinstance(jid, str):
                if jid not in folded:
                    order.append(jid)
                folded[jid] = {"submit": ev, "records": {},
                               "baseline": None, "state": None,
                               "terminal": None}
            elif jid in folded:
                entry = folded[jid]
                if kind == EV_PROGRESS:
                    entry["state"] = ev.get("state")
                elif kind == EV_UNITS:
                    for rec in ev.get("records", []):
                        entry["records"][int(rec["index"])] = rec
                    if entry["baseline"] is None:
                        entry["baseline"] = ev.get("baseline_cycles")
                elif kind in (EV_DONE, EV_FAILED):
                    entry["terminal"] = ev

        for jid in order:
            entry = folded[jid]
            try:
                spec = JobSpec.from_dict(entry["submit"]["spec"])
            except ProtocolError:
                continue  # journaled by a future/foreign version
            job = Job(
                id=jid,
                spec=spec,
                fingerprint=str(entry["submit"]["fingerprint"]),
                submitted=time.perf_counter(),
            )
            job.tenants[spec.tenant] = 1
            self.jobs[jid] = job
            with contextlib.suppress(ValueError):
                self._next_job = max(self._next_job, int(jid.lstrip("j")))
            terminal = entry["terminal"]
            if terminal is not None and terminal["ev"] == EV_FAILED:
                job.state = STATE_FAILED
                job.error = terminal.get("error")
                job.finished = job.submitted
                job.done.set()
                self.metrics.counter("farm.recovery.failed").inc()
                continue
            body: bytes | None = None
            if terminal is not None:  # EV_DONE
                if terminal.get("cached"):
                    if self.cache is not None:
                        body = self.cache.get(job.fingerprint)
                elif isinstance(terminal.get("body"), str):
                    body = terminal["body"].encode("ascii")
            elif spec.cacheable and self.cache is not None:
                # completed-but-unjournaled (crash between cache.put
                # and the WAL append) or a twin's bytes: serve them
                body = self.cache.get(job.fingerprint)
            if body is not None:
                job.result_bytes = body
                job.state = STATE_DONE
                job.cache_hit = terminal is None or \
                    bool(terminal.get("cached"))
                job.finished = job.submitted
                job.done.set()
                self.metrics.counter("farm.recovery.replayed_done").inc()
                continue
            # pending (or done-but-quarantined): re-queue and run again
            if terminal is not None:
                self.metrics.counter("farm.recovery.reexecuted").inc()
            if spec.cacheable:
                self._inflight[job.fingerprint] = job
            self.metrics.counter("farm.recovery.requeued").inc()
            if spec.kind in SHARDED_KINDS:
                self._requeue_sharded(job, entry)
            else:
                task = Task(
                    id=self._new_task_id(),
                    job=job,
                    resume_state=entry["state"],
                )
                self._enqueue_task(task)

    def _requeue_sharded(
        self, job: Job, entry: dict[str, Any]
    ) -> None:
        """Re-queue a sharded job minus its journaled completed
        units (falling back to full validation/sharding in
        ``_enqueue_job`` when nothing completed yet)."""
        job.records = dict(entry["records"])
        if entry["baseline"] is not None:
            job.baseline_cycles = int(entry["baseline"])
        if not job.records:
            self._enqueue_job(job)
            return
        spec = job.spec
        if spec.kind == "sweep":
            job.n_units = len(spec.payload.get("points") or [])
        else:
            job.n_units = int(
                (spec.payload.get("config") or {}).get("trials", 0)
            )
        missing = [
            i for i in range(job.n_units) if i not in job.records
        ]
        if not missing:
            self._finish_sharded_job(job)
        else:
            self._enqueue_units(job, missing)

    def _fail_job(self, job: Job, error: str) -> None:
        job.state = STATE_FAILED
        job.error = error
        job.finished = time.perf_counter()
        self._inflight.pop(job.fingerprint, None)
        self.metrics.counter("farm.jobs.failed").inc()
        for tenant_name in job.tenants:
            self._tenant(tenant_name)["failed"] += 1
        self._journal({"ev": EV_FAILED, "id": job.id, "error": error})
        job.done.set()

    def _finish_job(self, job: Job, result_doc: dict[str, Any]) -> None:
        document = {
            "format": "mb32-farm-result",
            "version": 1,
            "kind": job.spec.kind,
            "fingerprint": job.fingerprint,
            **result_doc,
        }
        self._complete(job, httpio.json_body(document))

    def _finish_sharded_job(self, job: Job) -> None:
        try:
            if job.spec.kind == "sweep":
                body = self._merge_sweep(job)
            else:
                body = self._merge_campaign(job)
        except Exception as exc:
            self._fail_job(job, f"shard merge failed: "
                                f"{type(exc).__name__}: {exc}")
            return
        self._finish_job(job, body)

    def _merge_sweep(self, job: Job) -> dict[str, Any]:
        """Assemble the shard journals into the exact per-point records
        a local ``sweep()`` produces (same DSEResult dict layout)."""
        from repro.cosim.sweep import (
            _payload_from_jsonable,
            _to_dse_result,
        )

        points = job.spec.payload["points"]
        results = []
        for index in range(job.n_units):
            rec = job.records[index]
            spec = _spec_from_payload(points[index], f"point-{index}")
            result = _to_dse_result(
                spec,
                _payload_from_jsonable(rec["payload"]),
                rec.get("attempts", 1),
                rec.get("backoff_s", []),
            )
            results.append(result.to_dict())
        ok = sum(1 for r in results if r["status"] == "ok")
        return {
            "family": "sweep",
            "points": job.n_units,
            "ok": ok,
            "failed": job.n_units - ok,
            "results": results,
        }

    def _merge_campaign(self, job: Job) -> dict[str, Any]:
        """Assemble trial shards into the exact
        :meth:`~repro.faults.campaign.CampaignReport.to_dict` document
        the local scalar runner produces (byte-identical)."""
        from repro.faults.campaign import CampaignReport
        from repro.farm.jobs import campaign_config_from_dict

        config = campaign_config_from_dict(job.spec.payload["config"])
        trials = [
            job.records[index]["trial"] for index in range(job.n_units)
        ]
        report = CampaignReport(
            config=config,
            baseline_cycles=int(job.baseline_cycles or 0),
            trials=trials,
            workers=len(self._workers),
        )
        return {"family": "campaign", "report": report.to_dict()}

    def _complete(self, job: Job, body: bytes) -> None:
        job.result_bytes = body
        job.state = STATE_DONE
        job.finished = time.perf_counter()
        self._inflight.pop(job.fingerprint, None)
        cached = job.spec.cacheable and self.cache is not None
        if cached:
            # cache first, then journal: a crash between the two
            # re-queues the job on recovery (cache miss -> re-execute)
            # rather than pointing at bytes that never landed
            self.cache.put(job.fingerprint, body)
        done_event: dict[str, Any] = {
            "ev": EV_DONE, "id": job.id, "cached": cached,
        }
        if not cached:
            # json_body output is ASCII; inline it so even uncached
            # results survive a restart byte-identically
            done_event["body"] = body.decode("ascii")
        self._journal(done_event)
        self._observe_latency(job)
        self.metrics.counter("farm.jobs.completed").inc()
        for tenant_name, n in job.tenants.items():
            tenant = self._tenant(tenant_name)
            tenant["completed"] += n
            tenant["cycles"] += job.cycles
        job.done.set()

    # ------------------------------------------------------------------
    # preemption
    # ------------------------------------------------------------------
    def preempt_job(self, job: Job) -> int:
        """Raise the preempt flag on every worker running this job."""
        n = 0
        for handle in self._workers.values():
            if handle.task is not None and handle.task.job is job:
                handle.preempt.set()
                n += 1
        return n

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _tenant(self, name: str) -> dict[str, int]:
        tenant = self.tenants.get(name)
        if tenant is None:
            tenant = self.tenants[name] = {
                "submitted": 0,
                "completed": 0,
                "failed": 0,
                "cache_hits": 0,
                "coalesced": 0,
                "shed": 0,
                "cycles": 0,
            }
        return tenant

    def _observe_latency(self, job: Job) -> None:
        self.metrics.histogram(
            "farm.latency_ms", LATENCY_BOUNDS_MS
        ).observe(max(0, int(job.wall_ms)))

    def _gauge_queue(self) -> None:
        self.metrics.gauge("farm.queue_depth").set(len(self._queue))

    def _gauge_workers(self) -> None:
        busy = sum(
            1 for h in self._workers.values()
            if h.alive and h.task is not None
        )
        self.metrics.gauge("farm.busy_workers").set(busy)

    def status_dict(self) -> dict[str, Any]:
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "workers": {
                "total": len(self._workers),
                "busy": sum(
                    1 for h in self._workers.values()
                    if h.alive and h.task is not None
                ),
            },
            "queue_depth": len(self._queue),
            "draining": self._draining,
            "jobs": states,
            "cache_entries": len(self.cache) if self.cache else 0,
            "cache_quarantined": (
                self.cache.quarantined() if self.cache else 0
            ),
            "cache_stats": dict(self.cache.stats) if self.cache else {},
            "wal_records": (
                self.journal.records_written if self.journal else 0
            ),
            "metrics": self.metrics.snapshot(),
            "tenants": {k: dict(v) for k, v in sorted(self.tenants.items())},
        }

    # ------------------------------------------------------------------
    # HTTP front
    # ------------------------------------------------------------------
    async def _serve_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            while True:
                try:
                    request = await httpio.read_request(reader)
                except httpio.HTTPProtocolError as exc:
                    writer.write(
                        httpio.response_bytes(
                            400,
                            httpio.json_body({"error": str(exc)}),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                response = await self._route(request)
                fault = httpio.response_fault
                if fault is not None:
                    action = fault(request, response)
                    if action is not None:
                        verb, n = action
                        self.metrics.counter("farm.chaos.conn_faults").inc()
                        if verb == "truncate" and n > 0:
                            writer.write(response[:n])
                            with contextlib.suppress(Exception):
                                await writer.drain()
                        return  # drop the connection mid-exchange
                writer.write(response)
                await writer.drain()
                if request.headers.get("connection", "").lower() == "close":
                    return
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            return
        except asyncio.CancelledError:
            return  # shutdown dropped this idle keep-alive connection
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    async def _route(self, request: httpio.Request) -> bytes:
        try:
            return await self._route_inner(request)
        except (ProtocolError, httpio.HTTPProtocolError) as exc:
            return httpio.response_bytes(
                400, httpio.json_body({"error": str(exc)})
            )
        except Exception as exc:  # never kill the connection loop
            return httpio.response_bytes(
                500,
                httpio.json_body(
                    {"error": f"{type(exc).__name__}: {exc}"}
                ),
            )

    async def _route_inner(self, request: httpio.Request) -> bytes:
        method, path = request.method, request.path
        if path == "/v1/healthz" and method == "GET":
            return httpio.response_bytes(
                200, httpio.json_body({"ok": True})
            )
        if path == "/v1/status" and method == "GET":
            return httpio.response_bytes(
                200, httpio.json_body(self.status_dict())
            )
        if path == "/v1/jobs" and method == "POST":
            return await self._handle_submit(request)
        if path == "/v1/drain" and method == "POST":
            result = await self.drain()
            return httpio.response_bytes(
                200, httpio.json_body(result), keep_alive=False
            )
        if path.startswith("/v1/jobs/"):
            parts = path.split("/")
            # /v1/jobs/<id>[/result|/preempt] -> ['', 'v1', 'jobs', id, ...]
            job = self.jobs.get(parts[3]) if len(parts) > 3 else None
            if job is None:
                return httpio.response_bytes(
                    404, httpio.json_body({"error": "no such job"})
                )
            tail = parts[4] if len(parts) > 4 else ""
            if tail == "" and method == "GET":
                return await self._handle_job_status(request, job)
            if tail == "result" and method == "GET":
                if job.state != STATE_DONE or job.result_bytes is None:
                    return httpio.response_bytes(
                        404,
                        httpio.json_body(
                            {"error": f"job is {job.state}",
                             "state": job.state}
                        ),
                    )
                return httpio.response_bytes(200, job.result_bytes)
            if tail == "preempt" and method == "POST":
                n = self.preempt_job(job)
                return httpio.response_bytes(
                    200,
                    httpio.json_body(
                        {"id": job.id, "state": job.state, "preempting": n}
                    ),
                )
        return httpio.response_bytes(
            404, httpio.json_body({"error": f"no route {method} {path}"})
        )

    async def _handle_submit(self, request: httpio.Request) -> bytes:
        spec = JobSpec.from_dict(request.json())
        header_tenant = request.headers.get("x-mb32-tenant")
        if header_tenant:
            spec.tenant = header_tenant
        job, coalesced, shed = self.submit(spec)
        if shed:
            return httpio.response_bytes(
                503,
                httpio.json_body(
                    {"id": job.id, "state": job.state, "error": job.error}
                ),
                extra_headers={"Retry-After": "1"},
            )
        if request.flag("wait"):
            await self._wait_for(job, request)
        status = job.status_dict()
        status["coalesced"] = coalesced
        code = 200 if job.done.is_set() else 202
        return httpio.response_bytes(code, httpio.json_body(status))

    async def _handle_job_status(
        self, request: httpio.Request, job: Job
    ) -> bytes:
        if request.flag("wait"):
            await self._wait_for(job, request)
        code = 200 if job.done.is_set() else 202
        return httpio.response_bytes(
            code, httpio.json_body(job.status_dict())
        )

    async def _wait_for(self, job: Job, request: httpio.Request) -> None:
        timeout = request.param("timeout_s")
        try:
            await asyncio.wait_for(
                job.done.wait(),
                float(timeout) if timeout is not None else None,
            )
        except asyncio.TimeoutError:
            pass


# ----------------------------------------------------------------------
# embedding helpers (CLI, tests, benchmarks)
# ----------------------------------------------------------------------
class FarmThread:
    """A gateway running its own event loop in a daemon thread — the
    embedding the tests, benchmarks and ``mb32-farm submit --local``
    use.  ``host``/``port`` are live once the constructor returns."""

    def __init__(self, **gateway_kwargs):
        self.gateway = FarmGateway(**gateway_kwargs)
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="farm-gateway"
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("farm gateway failed to start")

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)

        async def main():
            await self.gateway.start()
            self._ready.set()
            await self.gateway.serve_forever()

        try:
            self.loop.run_until_complete(main())
        finally:
            # let cancelled connection tasks unwind and final response
            # bytes flush before tearing the loop down
            with contextlib.suppress(Exception):
                pending = [
                    t for t in asyncio.all_tasks(self.loop) if not t.done()
                ]
                if pending:
                    self.loop.run_until_complete(
                        asyncio.wait(pending, timeout=1)
                    )
                # one more turn runs the connection_lost callbacks that
                # closing transports scheduled; they close the sockets
                self.loop.run_until_complete(asyncio.sleep(0))
            self.loop.close()

    @property
    def host(self) -> str:
        return self.gateway.address[0]

    @property
    def port(self) -> int:
        return self.gateway.address[1]

    def stop(self, timeout: float = 30.0) -> None:
        """Hard-stop the gateway and join the loop thread."""
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.gateway.close(), self.loop
            )
            with contextlib.suppress(Exception):
                future.result(timeout=timeout)
        self._thread.join(timeout=timeout)

    def crash(self, timeout: float = 30.0) -> None:
        """Kill the gateway as a crash would: no drain, no job-state
        bookkeeping, only the write-ahead journal survives.  Pair with
        ``start_farm_thread(..., recover=True)`` on the same journal
        and cache to exercise the recovery path."""
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.gateway.crash(), self.loop
            )
            with contextlib.suppress(Exception):
                future.result(timeout=timeout)
        self._thread.join(timeout=timeout)


def start_farm_thread(**gateway_kwargs) -> FarmThread:
    """Start a gateway in a background thread; returns the handle."""
    return FarmThread(**gateway_kwargs)
