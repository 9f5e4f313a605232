"""Co-simulation as a service: the asyncio job farm.

The paper's own workflow is already client/server — ``mb-gdb`` talks
to the cycle-accurate simulator over TCP — and this package extends
that split to fleet scale: an asyncio **gateway**
(:mod:`repro.farm.gateway`) accepts compile+simulate jobs over
HTTP/JSON (stdlib-only: hand-rolled HTTP/1.1 on :mod:`asyncio`),
multiplexes thousands of concurrent sessions, and dispatches work to a
pool of persistent process **workers** (:class:`repro.runapi.pool
.Worker`, the worker the local sweep engine runs on too) that execute
:func:`repro.farm.jobs.execute`.

The pieces that make it a farm rather than a queue:

* **content-addressed deduplication** — every job is keyed by
  :func:`repro.farm.protocol.job_fingerprint` (built on the public
  :mod:`repro.runapi.fingerprint` recipe).  A result already on disk
  (:class:`repro.farm.cache.FarmCache`) is replayed byte-identically
  in microseconds; concurrent duplicates coalesce onto one execution
  and all receive the same bytes,
* **checkpoint preempt + migrate** — long ``scenario`` /
  ``multi_scenario`` runs are preempted at cycle granularity through
  the deterministic checkpoint/restore of
  :mod:`repro.cosim.checkpoint` and resumed on a *different* worker,
  bit-identical to an uninterrupted run; sweep shards and fault
  campaigns migrate at point/trial granularity by shipping their
  completed-unit journal,
* **sweep/campaign sharding** — ``sweep`` and ``campaign`` jobs split
  their points across the worker pool and merge into the same report
  documents ``repro.cosim.sweep`` / ``repro.faults.campaign`` produce
  locally (byte-identical, enforced by tests),
* **per-tenant accounting and load shedding** — queue depth, cache
  hit-rate, simulated cycles/s and per-tenant usage hang off the
  PR-4 telemetry :class:`~repro.telemetry.metrics.MetricsRegistry`
  and are served by ``GET /v1/status``; past ``max_queue`` the
  gateway sheds with ``503``.

Durability and chaos (PR 10): every cache entry is written through the
crash-safe envelope of :mod:`repro.runapi.durable` (torn or bit-flipped
entries quarantine and re-execute instead of being served), the gateway
journals submissions and state transitions to a write-ahead log
(:mod:`repro.farm.wal`) replayed by ``mb32-farm serve --recover``, and
the seeded deterministic chaos harness (:mod:`repro.farm.chaos`,
``mb32-farm chaos``) proves the invariant: every accepted job completes
with bytes identical to a fault-free run, under worker kills, stalls,
corrupted cache writes, dropped connections and gateway crashes.

The ``mb32-farm`` CLI (``serve`` / ``submit`` / ``status`` /
``drain`` / ``chaos``) fronts all of it;
:class:`repro.farm.client.FarmClient` is the in-process client the CLI
and the tests share.
"""

from repro.farm.cache import FarmCache
from repro.farm.chaos import (
    CHAOS_KINDS,
    ChaosPlan,
    ChaosSpec,
    generate_chaos_plan,
    run_chaos_campaign,
)
from repro.farm.client import FarmClient, FarmError, FarmUnavailable
from repro.farm.gateway import FarmGateway, start_farm_thread
from repro.farm.wal import GatewayJournal
from repro.farm.protocol import (
    JOB_KINDS,
    PROTOCOL_VERSION,
    JobSpec,
    job_fingerprint,
)

__all__ = [
    "CHAOS_KINDS",
    "ChaosPlan",
    "ChaosSpec",
    "FarmCache",
    "FarmClient",
    "FarmError",
    "FarmGateway",
    "FarmUnavailable",
    "GatewayJournal",
    "JOB_KINDS",
    "JobSpec",
    "PROTOCOL_VERSION",
    "generate_chaos_plan",
    "job_fingerprint",
    "run_chaos_campaign",
    "start_farm_thread",
]
