"""The gateway's write-ahead journal: crash-safe job state.

PR 9's gateway kept its job table in memory only — a gateway crash
silently dropped every queued *and* running job.  This module is the
durability layer behind ``mb32-farm serve --recover``: an append-only
JSON-lines log of job submissions and state transitions, written
*before* the corresponding in-memory transition takes effect, so a
crashed gateway can be restarted and replay itself back to a
consistent table:

* ``submit``  — the job id, full :class:`~repro.farm.protocol.JobSpec`
  and fingerprint of every admitted job,
* ``progress`` — the latest checkpoint document of a preempted
  cycle-granular job (``scenario`` / ``multi_scenario``), so recovery
  resumes from the last checkpoint instead of cycle 0,
* ``units`` — completed shard records of a sharded job (``sweep`` /
  ``campaign``), so recovery only re-runs the missing units,
* ``done`` / ``failed`` — terminal transitions; a completed cacheable
  job's bytes live in the content-addressed
  :class:`~repro.farm.cache.FarmCache` (the WAL stores only the
  pointer), while non-cacheable results are inlined so they survive
  too.

The file is a :class:`repro.runapi.durable.SealedJournal`: every line
is sealed with a per-record digest; replay stops at the first
truncated or damaged line — the standard WAL-tail rule — so a crash
mid-append costs at most the final record, never a corrupted table,
and reopening cuts that torn record off before appending.
"""

from __future__ import annotations

from typing import Any

from repro.runapi.durable import SealedJournal

WAL_FORMAT = "mb32-farm-wal"
WAL_VERSION = 1

#: journal event verbs
EV_SUBMIT = "submit"
EV_PROGRESS = "progress"
EV_UNITS = "units"
EV_DONE = "done"
EV_FAILED = "failed"


class GatewayJournal(SealedJournal):
    """Append-only, sealed, replayable journal of gateway events.

    ``fsync=True`` syncs every event to stable storage — power-loss
    durability at a per-event fsync cost; by default events are only
    flushed to the OS, which a process crash cannot lose.  A file that
    is not a farm WAL raises ``ValueError`` on :meth:`replay` and
    :meth:`open` (refusing to "recover" from, or append to, garbage).
    """

    def header(self) -> dict[str, Any]:
        return {"ev": "header", "format": WAL_FORMAT,
                "version": WAL_VERSION}

    def check_header(self, record: dict[str, Any]) -> None:
        if (record.get("format") != WAL_FORMAT
                or record.get("version") != WAL_VERSION):
            raise ValueError(
                f"{self.path} is not an mb32-farm write-ahead journal"
            )

    def record(self, event: dict[str, Any]) -> None:
        """Seal and append one event (dropped while the journal is
        closed, e.g. after a simulated crash)."""
        self.append(event)
