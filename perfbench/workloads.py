"""The benchmark's four workloads.

Every workload is driven through the package's public API and only
receives inputs generated from the benchmark's ``--seed``.  Each one
exposes the same life cycle to ``run.py``:

* ``setup()`` pays the one-off costs (mcc build, schedule compile, gcc C
  kernel, farm start and worker spawn); ``run.py`` repeats it and
  reports the median as ``setup_s``,
* ``warm_up()`` runs one operation outside the timed window and records
  the reference output the timed operations must repeat,
* ``window(seconds)`` runs operations back to back until ``seconds``
  have passed and records each one in a :class:`Ledger`,
* ``verify()`` runs the untimed correctness checks (RTL twin, in-process
  farm execution),
* ``digest()`` hashes the simulated statistics; for a given seed it
  must repeat across runs, traced and untraced windows, and commits,
* ``teardown()`` stops whatever ``setup()`` started.

A wrong output is counted as a failed operation; it never aborts the
run.

Host-speed reference
--------------------
The benchmark shares a 2-core host whose speed drops by up to half for
seconds at a time.  Next to every slice of the window (one operation,
or a batch of farm jobs) it runs :func:`host_probe`, a fixed pure-Python
loop, and scales the slice's times by ``PROBE_REFERENCE_S`` over the
probe's time.  Times are therefore reported in reference seconds: host
seconds on a host where the probe takes exactly 3 ms (about what it
takes on an uncontended core of the 2-core development container).  A
change to the package cannot change the probe, so it cannot move the
scale.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import repro.farm
import repro.faults.campaign as campaign_module
from repro.apps.cordic.design import CordicDesign
from repro.apps.matmul.design import MatmulDesign
from repro.conformance.multicpu import MultiScenarioGenerator
from repro.conformance.scenario import ScenarioGenerator
from repro.cosim.environment import CoSimulation
from repro.farm import jobs as farm_jobs
from repro.farm.httpio import AsyncHTTPConnection, json_body
from repro.farm.protocol import JobSpec, job_fingerprint
from repro.rtl.system import RTLSystem
from repro.sysgen import ckernel
from repro.sysgen.batched import BatchedModel

perf = time.perf_counter

PROBE_REFERENCE_S = 0.003


def host_probe() -> float:
    """Seconds the host takes for a fixed interpreter-bound loop: the
    best of three, so a thread that briefly holds the interpreter lock
    does not count as a slower host."""
    best = float("inf")
    for _ in range(3):
        start = perf()
        counts: dict[int, int] = {}
        x = 0
        for i in range(20_000):
            x = (x * 31 + i) & 0xFFFF
            counts[x & 255] = counts.get(x & 255, 0) + 1
        best = min(best, perf() - start)
    return best


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _data_seed(rng: random.Random) -> int:
    # the datasets' xorshift generators need a non-zero 31-bit state
    return rng.randrange(1, 2**31 - 1)


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def proc_hwm_mb(pid: int | str = "self") -> float:
    """High-water resident set of a process in MB (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids() -> list[int]:
    """Live child processes of this process."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # field 4 (ppid) follows the parenthesised command name
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


@dataclass
class Slice:
    """Consecutive operations timed against one host-speed reading."""

    ops: int
    wall_s: float
    scale: float  # reference seconds per host second


@dataclass
class Ledger:
    """What one timed window did: per operation its host latency,
    simulated cycles and host-speed scale, grouped into slices."""

    wall_s: float = 0.0
    failed: int = 0
    latencies_s: list[float] = field(default_factory=list)
    cycles: list[int] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    slices: list[Slice] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.latencies_s)

    @property
    def sim_cycles(self) -> int:
        return sum(self.cycles)

    def record(self, latency_s: float, cycles: int) -> None:
        self.latencies_s.append(latency_s)
        self.cycles.append(cycles)

    def close_slice(self, wall_s: float, probe_s: float) -> None:
        """Attribute the operations recorded since the last slice to a
        new slice timed against ``probe_s``."""
        scale = PROBE_REFERENCE_S / probe_s
        n = self.ops - len(self.scales)
        self.scales.extend([scale] * n)
        self.slices.append(Slice(n, wall_s, scale))

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)

    def reference_latencies_s(self) -> list[float]:
        return [lat * s for lat, s in zip(self.latencies_s, self.scales)]

    def reference_rates(self) -> list[float]:
        """Operations per reference second, one value per slice."""
        return [s.ops / (s.wall_s * s.scale) for s in self.slices if s.ops]


def timed_loop(seconds: float, op: Callable[[], int]) -> Ledger:
    """Run ``op`` back to back for ``seconds``, one slice per operation;
    ``op`` returns the simulated cycles it covered and raises on a wrong
    output."""
    ledger = Ledger()
    start = perf()
    deadline = start + seconds
    before = host_probe()
    while True:
        t0 = perf()
        try:
            cycles = op()
        except Exception as exc:  # noqa: BLE001 - counted, never fatal
            ledger.fail(f"{type(exc).__name__}: {exc}")
            cycles = 0
        end = perf()
        ledger.record(end - t0, cycles)
        after = host_probe()
        ledger.close_slice(end - t0, (before + after) / 2)
        before = after
        if end >= deadline:
            break
    ledger.wall_s = perf() - start
    return ledger


@dataclass
class Check:
    """One untimed correctness check (counted as an attempted op)."""

    name: str
    ok: bool
    detail: str


class Workload:
    name = ""
    why = ""
    #: tracer layer groups this workload exercises in-process
    layers: list[str] = []
    #: least share of a traced window the main thread's layer spans
    #: must account for
    min_coverage = 0.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}/{seed}")

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def window(self, seconds: float) -> Ledger:
        raise NotImplementedError

    def verify(self) -> list[Check]:
        return []

    def digest(self) -> str:
        raise NotImplementedError

    def layer_metrics(self, spans: dict, ledger: Ledger) -> dict[str, float]:
        """Per-layer metrics only this workload can compute."""
        return {}

    def notes(self) -> list[str]:
        """Extra lines for the human-readable report."""
        return []

    def peak_children_mb(self) -> float:
        return 0.0

    def teardown(self) -> None:
        pass


# ----------------------------------------------------------------------
# single-CPU co-simulation (Fig 5 CORDIC, Fig 7 matmul)
# ----------------------------------------------------------------------
class CosimWorkload(Workload):
    layers = ["iss", "sysgen", "cosim", "mcc", "apps"]
    min_coverage = 0.9

    def make_design(self, reduced: bool):
        raise NotImplementedError

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.data_seed = _data_seed(self.rng)
        self.reference: dict[str, int] = {}

    def setup(self) -> None:
        self.design = self.make_design(reduced=False)
        # construction compiles the hardware schedule
        CoSimulation(self.design.program, self.design.model, self.design.mb,
                     cpu_config=self.design.cpu_config)

    def _op(self) -> dict[str, int]:
        design = self.design
        model, mb = design.fresh_hardware()
        sim = CoSimulation(design.program, model, mb,
                           cpu_config=design.cpu_config)
        result = sim.run()
        design.check(sim.cpu, result)
        return {
            "cycles": result.cycles,
            "instructions": result.instructions,
            "stall_cycles": result.stall_cycles,
            "exit_code": result.exit_code,
        }

    def warm_up(self) -> None:
        self.reference = self._op()

    def window(self, seconds: float) -> Ledger:
        def op() -> int:
            stats = self._op()
            if stats != self.reference:
                raise AssertionError(
                    f"simulated statistics {stats} differ from the "
                    f"warm-up run {self.reference}")
            return stats["cycles"]

        return timed_loop(seconds, op)

    def digest(self) -> str:
        return _sha(json.dumps(self.reference, sort_keys=True).encode())

    def layer_metrics(self, spans: dict, ledger: Ledger) -> dict[str, float]:
        return {
            "iss.instructions": self.reference.get("instructions", 0),
            "iss.stall_cycles": self.reference.get("stall_cycles", 0),
        }

    def notes(self) -> list[str]:
        cycles = self.reference.get("cycles", 0)
        return [f"sim_time_us {cycles / 50.0:.2f} "
                f"({cycles} cycles at 50 MHz)"]

    def verify(self) -> list[Check]:
        """Cycle accuracy against the RTL twin on a reduced instance."""
        rtl_design = self.make_design(reduced=True)
        system = RTLSystem(rtl_design.program, rtl_design.model,
                           rtl_design.mb, cpu_config=rtl_design.cpu_config)
        rtl = system.run()
        try:
            rtl_design.check(system.cpu, rtl)
            cosim = self.make_design(reduced=True).run()
        except AssertionError as exc:
            return [Check("rtl-twin", False, str(exc))]
        error = cosim.cycles - rtl.cycles
        detail = (f"co-simulation {cosim.cycles} cycles, RTL twin "
                  f"{rtl.cycles} cycles, cycle error {error} "
                  f"({100.0 * error / rtl.cycles:.3f} %)")
        return [Check("rtl-twin", error == 0, detail)]


class CordicWorkload(CosimWorkload):
    name = "cosim-cordic"
    why = ("Fig 5/Table II CORDIC P=4, 128 divisions: hardware busy nearly"
           " every cycle, so the compiled sysgen step and the idle-horizon"
           " scan dominate")

    def make_design(self, reduced: bool):
        return CordicDesign(p=4, ndata=8 if reduced else 128,
                            seed=self.data_seed)


class MatmulWorkload(CosimWorkload):
    name = "cosim-matmul"
    why = ("Fig 7 4x4-block matmul at N=16: hardware idles while the CPU "
           "computes, so the ISS and fast-forward advance dominate and a "
           "sysgen-step change should leave it flat")

    def make_design(self, reduced: bool):
        return MatmulDesign(block=4, matn=4 if reduced else 16,
                            seed=self.data_seed)


# ----------------------------------------------------------------------
# batched SEU fault campaigns
# ----------------------------------------------------------------------
CAMPAIGN_TRIALS = 64
CAMPAIGN_WIDTH = 32
CAMPAIGN_NDATA = 4
#: several times the fault-free run: a trial the fault sends into an
#: endless loop is classified (and rolled back) without running 2M cycles
CAMPAIGN_MAX_CYCLES = 8_192


class CampaignWorkload(Workload):
    name = "campaign-seu"
    why = ("seeded 64-trial SEU campaigns on CORDIC P=8, batch width 32, "
           "rollback: vector schedule, per-lane ISS, lane eviction and "
           "checkpoints do the work")
    layers = ["iss", "sysgen", "batched", "cosim", "faults", "mcc", "apps"]
    min_coverage = 0.9

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.design_params = {"p": 8, "ndata": CAMPAIGN_NDATA,
                              "seed": _data_seed(self.rng)}
        #: report hash of every campaign run so far, by index: a repeat
        #: (warm-up, traced window) must reproduce it byte for byte
        self.reports: dict[int, str] = {}
        self.rollbacks = 0

    def config(self, k: int):
        """Campaign ``k`` of the run.  Each operation draws a fresh fault
        seed: how many trials need a rollback varies from campaign to
        campaign, and a window over several of them varies less."""
        rng = random.Random(f"{self.name}/{self.seed}/campaign/{k}")
        return campaign_module.CampaignConfig(
            app="cordic", design=self.design_params,
            trials=CAMPAIGN_TRIALS, seed=_data_seed(rng),
            recovery="rollback", max_cycles=CAMPAIGN_MAX_CYCLES,
        )

    def setup(self) -> None:
        design = CordicDesign(**self.design_params)
        CoSimulation(design.program, design.model, design.mb,
                     cpu_config=design.cpu_config)
        # The C step kernel is cached per process; forgetting it makes
        # every set-up repetition pay the gcc build a fresh process pays.
        cache = getattr(ckernel, "_LIB_CACHE", None)
        if cache is not None:
            cache.clear()
        BatchedModel([design.fresh_hardware()[0]
                      for _ in range(CAMPAIGN_WIDTH)])

    def _op(self, k: int) -> int:
        report = campaign_module.run_campaign(
            self.config(k), batch_width=CAMPAIGN_WIDTH)
        doc = report.to_dict()
        digest = _sha(json_body(doc))
        if self.reports.setdefault(k, digest) != digest:
            raise AssertionError(f"campaign {k} report differs from an "
                                 "earlier run of the same campaign")
        self.rollbacks += sum(t["rollbacks"] for t in doc["trials"])
        return doc["baseline_cycles"] + sum(
            t["cycles"] or 0 for t in doc["trials"])

    def warm_up(self) -> None:
        self._op(0)

    def window(self, seconds: float) -> Ledger:
        self.rollbacks = 0
        ops = iter(range(1, 1 << 30))
        return timed_loop(seconds, lambda: self._op(next(ops)))

    def digest(self) -> str:
        return self.reports.get(0, "")

    def layer_metrics(self, spans: dict, ledger: Ledger) -> dict[str, float]:
        trials = max(1, ledger.ops) * CAMPAIGN_TRIALS
        replays = spans["faults.run_trial"].calls \
            if "faults.run_trial" in spans else 0
        return {
            "faults.trials": trials,
            "faults.rollbacks": self.rollbacks / max(1, ledger.ops),
            # lanes the vector engine handed back to a scalar replay
            "cosim.batch.evicted_ratio": replays / trials,
        }


# ----------------------------------------------------------------------
# the job farm
# ----------------------------------------------------------------------
FARM_WORKERS = 2
FARM_CONNECTIONS = 2
#: each round submits every distinct spec this often: 4 of 5 are hits
FARM_REPEATS = 5
#: rounds per slice (one host-speed reading each)
FARM_SLICE_ROUNDS = 4
#: scenario operations that deliberately deadlock the program
HAZARD_OPS = ("overflow_put", "starve_get")


def _normalised(doc: dict[str, Any]) -> dict[str, Any]:
    """A farm result with the host wall time of a ``simulate`` run
    zeroed: the only field two executions of one spec may differ in."""
    result = doc.get("result")
    if doc.get("family") == "simulate" and isinstance(result, dict):
        return {**doc, "result": {**result, "wall_seconds": 0}}
    return doc


@dataclass
class FarmReply:
    rtt_s: float
    wall_ms: float
    kind: str  # "cold" | "hit" | "coalesced"


class FarmWorkload(Workload):
    name = "farm-mixed"
    why = ("in-process gateway, 2 workers, journal, fresh cache, 2 keep-"
           "alive clients, 80% repeats: the only path through HTTP, dedup,"
           " cache, WAL and multi-CPU")
    layers = ["farm"]

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.scenario_seed = _data_seed(self.rng)
        self.single_gen = ScenarioGenerator(seed=self.scenario_seed)
        self.multi_gen = MultiScenarioGenerator(seed=self.scenario_seed)
        self.farm = None
        self.starts = 0
        self.thread_errors: list[str] = []
        self.children_mb = 0.0
        self.replies: list[FarmReply] = []
        self.round0: dict[str, tuple[JobSpec, bytes]] = {}
        self.executions = 0

    # -- the job stream ------------------------------------------------
    def round_specs(self, r: int) -> list[JobSpec]:
        """The distinct jobs of round ``r``: two simulate points
        (CORDIC and matmul), two single-CPU and two 2-4-CPU scenarios.
        Scenarios come from the generators' hazard-free ones, so no job
        of the mix ends in a watchdog-length deadlock: one would swing
        the simulated cycles of a window by a tenth."""
        rng = random.Random(f"{self.name}/{self.seed}/round/{r}")
        cordic = {"factory": "repro.apps.cordic.design:CordicDesign",
                  "params": {"p": rng.choice([2, 4, 8]), "ndata": 16,
                             "seed": _data_seed(rng)}}
        matmul = {"factory": "repro.apps.matmul.design:MatmulDesign",
                  "params": {"block": 4, "matn": 8,
                             "seed": _data_seed(rng)}}
        specs = [
            JobSpec(kind="simulate", payload={"design": cordic}),
            JobSpec(kind="simulate", payload={"design": matmul}),
        ]
        candidates = range(8 * r, 8 * r + 8)
        single = [i for i in candidates
                  if not any(op.kind in HAZARD_OPS
                             for op in self.single_gen.scenario(i).ops)]
        multi = [i for i in candidates
                 if not self.multi_gen.scenario(i).hazard]
        for i in range(2):
            specs.append(JobSpec(kind="scenario", payload={
                "seed": self.scenario_seed, "index": single[i]}))
            specs.append(JobSpec(kind="multi_scenario", payload={
                "seed": self.scenario_seed, "index": multi[i]}))
        return specs

    def round_jobs(self, r: int) -> list[tuple[int, JobSpec]]:
        specs = self.round_specs(r)
        order = [i for i in range(len(specs)) for _ in range(FARM_REPEATS)]
        random.Random(f"{self.name}/{self.seed}/order/{r}").shuffle(order)
        return [(r, specs[i]) for i in order]

    # -- life cycle ----------------------------------------------------
    def setup(self) -> None:
        self.starts += 1
        base = os.path.join(self.workdir, f"farm-{self.starts}")
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(base)
        self.farm = repro.farm.start_farm_thread(
            workers=FARM_WORKERS,
            cache_dir=os.path.join(base, "cache"),
            journal_path=os.path.join(base, "wal.log"),
        )

    def teardown(self) -> None:
        if self.farm is None:
            return
        self.children_mb = max(self.children_mb, sum(
            proc_hwm_mb(pid) for pid in child_pids()))
        # The worker reader threads may report a closed event loop as
        # the gateway stops (a known shutdown race): recorded, and not
        # counted against any job.
        previous = threading.excepthook

        def hook(args) -> None:
            self.thread_errors.append(
                f"{args.thread.name if args.thread else '?'}: "
                f"{args.exc_type.__name__}: {args.exc_value}")

        threading.excepthook = hook
        try:
            self.farm.stop()
            for thread in threading.enumerate():
                if thread.name.startswith("farm-"):
                    thread.join(timeout=5)
        finally:
            threading.excepthook = previous
        self.farm = None

    def peak_children_mb(self) -> float:
        return self.children_mb

    def warm_up(self) -> None:
        # two cold jobs outside the stream, one per connection, bring
        # the workers' first executions out of the timed window
        jobs = [(None, JobSpec(kind="scenario", payload={
            "seed": self.scenario_seed, "index": 10**6 + i}))
            for i in range(FARM_CONNECTIONS)]
        ledger = Ledger()
        asyncio.run(self._drive(
            lambda conns: self._submit_all(conns, jobs, ledger, {})))
        if ledger.failed:
            raise RuntimeError(f"farm warm-up failed: {ledger.failures}")

    def window(self, seconds: float) -> Ledger:
        """Slices of ``FARM_SLICE_ROUNDS`` rounds until ``seconds`` have
        passed; between slices the farm is idle and the host is
        probed."""
        self.replies = []
        self.round0 = {}
        ledger = Ledger()
        first: dict[str, bytes] = {}

        async def run_slices(conns) -> None:
            start = perf()
            before = host_probe()
            r = 0
            while True:
                jobs = [job for k in range(r, r + FARM_SLICE_ROUNDS)
                        for job in self.round_jobs(k)]
                t0 = perf()
                await self._submit_all(conns, jobs, ledger, first)
                wall = perf() - t0
                after = host_probe()
                ledger.close_slice(wall, (before + after) / 2)
                before = after
                r += FARM_SLICE_ROUNDS
                if perf() - start >= seconds:
                    break
            ledger.wall_s = perf() - start

        executed = self._executions()
        asyncio.run(self._drive(run_slices))
        self.executions = self._executions() - executed
        return ledger

    def _executions(self) -> int:
        """Jobs the gateway has sent to a worker so far."""
        with repro.farm.FarmClient(self.farm.host, self.farm.port) as client:
            metrics = client.farm_status()["metrics"]
        # counters are created lazily; absent means zero
        return (metrics.get("farm.jobs.completed", 0)
                - metrics.get("farm.jobs.cache_hits", 0))

    async def _drive(self, body) -> None:
        conns = [AsyncHTTPConnection(self.farm.host, self.farm.port)
                 for _ in range(FARM_CONNECTIONS)]
        try:
            await body(conns)
        finally:
            for conn in conns:
                await conn.close()

    async def _submit_all(self, conns, jobs, ledger: Ledger,
                          first: dict[str, bytes]) -> None:
        """A closed loop: each connection sends its next job only after
        the previous reply arrived."""
        queue = iter(jobs)

        async def client(k: int) -> None:
            for r, spec in queue:
                fingerprint = job_fingerprint(spec)
                body = json.dumps(spec.to_dict()).encode()
                start = perf()
                try:
                    status, _, data = await conns[k].request(
                        "POST", "/v1/jobs?wait=1", body)
                except (OSError, asyncio.IncompleteReadError) as exc:
                    ledger.record(perf() - start, 0)
                    ledger.fail(f"transport: {exc}")
                    await conns[k].close()
                    continue
                rtt = perf() - start
                doc = json.loads(data) if data else {}
                if status != 200 or doc.get("state") != "done":
                    ledger.record(rtt, 0)
                    ledger.fail(f"HTTP {status}: {str(doc)[:200]}")
                    continue
                result = json_body(doc["result"])
                seen = first.get(fingerprint)
                cycles = 0
                if seen is None:
                    first[fingerprint] = result
                    kind = "hit" if doc.get("cache_hit") else "cold"
                    if kind == "cold":
                        cycles = int(doc.get("cycles") or 0)
                    if r == 0:
                        self.round0[fingerprint] = (spec, result)
                else:
                    kind = "hit" if doc.get("cache_hit") else "coalesced"
                    if result != seen:
                        ledger.fail(f"{spec.kind} job {fingerprint[:12]}"
                                    " returned different bytes")
                ledger.record(rtt, cycles)
                self.replies.append(FarmReply(
                    rtt, float(doc.get("wall_ms") or 0.0), kind))

        await asyncio.gather(*(client(k) for k in range(len(conns))))

    # -- results -------------------------------------------------------
    def digest(self) -> str:
        lines = sorted(
            f"{fp} {_sha(json_body(_normalised(json.loads(body))))}"
            for fp, (_, body) in self.round0.items())
        return _sha("\n".join(lines).encode())

    def verify(self) -> list[Check]:
        """Round 0's payloads against an in-process execution."""
        checks = []
        for fp, (spec, body) in sorted(self.round0.items()):
            farm_doc = json.loads(body)
            local = farm_jobs.execute(spec.kind, spec.payload)["result"]
            extra = set(farm_doc) - set(local)
            same = (
                extra <= {"format", "version", "kind", "fingerprint"}
                and farm_doc.get("kind") == spec.kind
                and json_body(_normalised(
                    {k: farm_doc[k] for k in local if k in farm_doc}))
                == json_body(_normalised(local))
            )
            checks.append(Check(f"farm-{spec.kind}-{fp[:12]}", same,
                                "" if same else "payload differs from an "
                                "in-process execution"))
        if not checks:
            checks.append(Check("farm-round0", False,
                                "the window finished no round-0 job"))
        return checks

    def layer_metrics(self, spans: dict, ledger: Ledger) -> dict[str, float]:
        replies = self.replies
        hits = [r.rtt_s * 1e3 for r in replies if r.kind == "hit"]
        colds = [r.wall_ms for r in replies if r.kind == "cold"]
        overhead = [r.rtt_s * 1e3 - r.wall_ms for r in replies
                    if r.kind != "coalesced"]
        n = max(1, len(replies))
        median = lambda v: statistics.median(v) if v else 0.0  # noqa: E731
        return {
            "farm.hit_rtt_ms": median(hits),
            "farm.cold_wall_ms": median(colds),
            "farm.http_overhead_ms": median(overhead),
            "farm.hit_ratio": sum(1 for r in replies if r.kind != "cold") / n,
            "farm.executions": self.executions / n,
        }

    def notes(self) -> list[str]:
        if not self.thread_errors:
            return []
        return [f"recorded {len(self.thread_errors)} thread error(s) at "
                f"farm shutdown (not job failures): {self.thread_errors[0]}"]


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (CordicWorkload, MatmulWorkload, CampaignWorkload,
                        FarmWorkload)
}
