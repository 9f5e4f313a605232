"""Content-addressed result store: fingerprint -> result bytes.

Unlike the sweep cache (which stores typed result/estimate records and
re-hydrates them), the farm cache stores the **serialized result
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

import os
import pathlib

from repro.runapi.durable import (
    QUARANTINE_DIR,
    durable_write,
    read_verified,
    scavenge_tmp,
)

#: a startup scavenge only collects staging files at least this stale,
#: so it cannot race a live writer sharing the directory
STARTUP_SCAVENGE_AGE_S = 3600.0


class FarmCache:
    """One file per job fingerprint under ``path``."""

    SUFFIX = ".json"

    def __init__(self, path: str | os.PathLike, *, fsync: bool = True):
        self.path = pathlib.Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        #: damage accounting, served via the gateway status document
        self.stats = {"quarantined": 0, "scavenged": 0}
        self.stats["scavenged"] += scavenge_tmp(
            self.path, older_than_s=STARTUP_SCAVENGE_AGE_S
        )

    @property
    def quarantine_path(self) -> pathlib.Path:
        return self.path / QUARANTINE_DIR

    def _entry(self, fingerprint: str) -> pathlib.Path:
        if not fingerprint or "/" in fingerprint or "." in fingerprint:
            raise ValueError(f"bad fingerprint {fingerprint!r}")
        return self.path / f"{fingerprint}{self.SUFFIX}"

    def get(self, fingerprint: str) -> bytes | None:
        return read_verified(
            self._entry(fingerprint),
            quarantine_dir=self.quarantine_path,
            on_damage=self._on_damage,
        )

    def _on_damage(self, reason: str) -> None:
        self.stats["quarantined"] += 1
        self.stats[f"quarantined.{reason}"] = \
            self.stats.get(f"quarantined.{reason}", 0) + 1

    def put(self, fingerprint: str, payload: bytes) -> None:
        durable_write(self._entry(fingerprint), payload, fsync=self.fsync)

    def __contains__(self, fingerprint: str) -> bool:
        return self._entry(fingerprint).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.path.glob(f"*{self.SUFFIX}"))

    def quarantined(self) -> int:
        """Number of damaged entries sitting in the sidecar dir."""
        if not self.quarantine_path.is_dir():
            return 0
        return sum(1 for p in self.quarantine_path.iterdir() if p.is_file())

    def verify_all(self) -> int:
        """Read-verify every entry in place (quarantining damage);
        returns the number of intact entries.  Chaos-campaign epilogue:
        after this, the directory serves no corrupt bytes."""
        intact = 0
        for entry in sorted(self.path.glob(f"*{self.SUFFIX}")):
            if self.get(entry.name[:-len(self.SUFFIX)]) is not None:
                intact += 1
        return intact

    def clear(self) -> int:
        """Drop every entry (sweeping orphaned staging files too);
        returns the number of entries removed."""
        n = 0
        for entry in self.path.glob(f"*{self.SUFFIX}"):
            try:
                entry.unlink()
                n += 1
            except OSError:
                pass
        self.stats["scavenged"] += scavenge_tmp(self.path)
        return n
