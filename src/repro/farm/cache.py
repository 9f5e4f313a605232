"""Content-addressed result store: fingerprint -> result bytes.

The farm cache is the shared durable result cache
(:class:`repro.runapi.durable.ResultCache`), the same store the sweep
engine keeps its points in.  The farm stores the **serialized result
document verbatim** — ``get`` hands back exactly the bytes ``put``
stored, so a cache hit is byte-identical to the response the original
execution produced, at the cost of one small file read (microseconds,
no simulation, no JSON round-trip).

Entries are written through the shared durable envelope
(:mod:`repro.runapi.durable`): tmp + ``os.replace`` + fsync of file
and directory on the write side, and a length+sha256 verification on
the read side.  A torn, truncated or bit-flipped entry is **never**
served — it classifies as damage, moves into the ``quarantine/``
sidecar directory for post-mortem, and reads as a miss so the job
re-executes.  Entries written by pre-envelope farms (raw JSON bytes)
are treated the same way: quarantined, missed, re-executed.

Gateways and workers may share a directory; a startup scavenge (and
every ``clear()``) collects the orphaned ``.tmp.<pid>`` staging files
a crashed writer leaves behind.
"""

from __future__ import annotations

from repro.runapi.durable import STARTUP_SCAVENGE_AGE_S, ResultCache

#: the farm's name for the shared result cache
FarmCache = ResultCache

__all__ = ["FarmCache", "STARTUP_SCAVENGE_AGE_S"]
