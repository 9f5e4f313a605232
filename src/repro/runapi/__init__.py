"""The unified run/result/engine API.

Six PRs accreted three result types and four ways to pick an execution
engine; this package is the one surface that ties them together:

* :class:`RunOutcome` — the shared result protocol.  Every terminal
  record the toolkit produces (a co-simulation result, a sweep point,
  a fault-campaign trial) exposes ``status`` / ``error`` / ``cycles``
  and a ``to_dict()`` whose key core is stable across all three (see
  ``tests/golden/run_outcome_contract.json``).
* :class:`RunPolicy` — per-call execution policy for
  :meth:`repro.cosim.environment.CoSimulation.run`: cycle budget
  default, wall-clock budget, fast-forward mode, watchdog window.
* :func:`resolve_engine` / :func:`engine_scope` — the single engine
  selector (``"auto" | "compiled" | "interpreter" | "batched"``).
* :func:`design_fingerprint` / :func:`fingerprint_json` — the
  stability-tested content fingerprints that key the sweep result
  cache and the farm's content-addressed job cache
  (:mod:`repro.runapi.fingerprint`).
* :func:`retry_backoff_delay` — the shared seeded jittered-retry
  backoff policy used by sweep retries and farm worker retries
  (:mod:`repro.runapi.backoff`).
* :class:`~repro.runapi.pool.Worker` — the one persistent worker
  process the parallel sweep, the conformance oracle's ``subprocess``
  mode and the farm gateway drive (:mod:`repro.runapi.pool`).
"""

from repro.runapi.backoff import retry_backoff_delay
from repro.runapi.durable import (
    DurableError,
    decode_envelope,
    durable_write,
    encode_envelope,
    read_verified,
    record_intact,
    scavenge_tmp,
    seal_record,
)
from repro.runapi.fingerprint import (
    FINGERPRINT_VERSION,
    canonical_json,
    design_fingerprint,
    fingerprint_json,
)
from repro.runapi.engine import (
    ENGINES,
    EngineError,
    current_engine,
    engine_scope,
    resolve_engine,
)
from repro.runapi.outcome import OUTCOME_CORE_KEYS, RunOutcome
from repro.runapi.policy import RunPolicy

__all__ = [
    "ENGINES",
    "DurableError",
    "EngineError",
    "FINGERPRINT_VERSION",
    "decode_envelope",
    "durable_write",
    "encode_envelope",
    "read_verified",
    "record_intact",
    "scavenge_tmp",
    "seal_record",
    "OUTCOME_CORE_KEYS",
    "RunOutcome",
    "RunPolicy",
    "canonical_json",
    "current_engine",
    "design_fingerprint",
    "engine_scope",
    "fingerprint_json",
    "resolve_engine",
    "retry_backoff_delay",
]
