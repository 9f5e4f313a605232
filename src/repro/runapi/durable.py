"""Crash-safe durable artifacts: one envelope for everything on disk.

Every persistent artifact the toolkit writes — farm cache entries,
sweep caches, checkpoints, journals — used to be *rename-atomic* but
nothing more: the bytes were never fsync'd (a host crash can lose the
rename, or worse, leave the renamed file with torn contents) and the
read side served whatever bytes it found.  A torn cache entry read
back as a byte-identical "cached result" is the worst possible
failure for a content-addressed store whose whole contract is
*verbatim replay*.

This module is the shared fix, three pieces:

* **the envelope** — payload bytes framed by a one-line ASCII header
  ``mb32-durable <version> <length> <sha256hex>\\n``.  Length catches
  truncation, the digest catches torn/bit-flipped contents, the magic
  catches "this is not even ours".  :func:`decode_envelope` classifies
  failures (:data:`REASON_TRUNCATED` / :data:`REASON_CORRUPT` /
  :data:`REASON_BAD_HEADER`) so callers can count what actually
  happened,
* **durable writes** — :func:`durable_write` stages to a
  ``.tmp.<pid>`` sibling, flushes and ``fsync``\\ s the file, renames
  with ``os.replace`` and then fsyncs the parent directory, so the
  entry either exists complete or not at all, even across power loss,
* **verified reads + quarantine** — :func:`read_verified` returns the
  payload or ``None`` (a *miss*, so the caller re-executes instead of
  serving garbage), moving any damaged file into a ``quarantine/``
  sidecar directory for post-mortem rather than deleting the evidence.
  A file without the envelope (a pre-envelope cache entry included) is
  damage too: a cache miss is always safe.  Checkpoints keep their own
  reader for pre-envelope files (:mod:`repro.cosim.checkpoint`).

Append-only journals (the sweep resume journal, the farm gateway's
write-ahead log) cannot use a whole-file envelope; they get the same
integrity property per record: :func:`seal_record` embeds a digest of
the record's canonical JSON and :func:`record_intact` verifies it on
replay, so a line torn by a crash mid-append is detected and replay
stops at the last intact prefix (exactly the semantics of a database
WAL tail).  :class:`SealedJournal` is the one implementation of such a
file: header, sealed appends, intact-prefix replay, and a reopen that
cuts a torn tail off before appending after it.

:class:`ResultCache` is the one content-addressed result store built on
the envelope: the sweep engine and the job farm both keep their results
in it.

Chaos hook: :func:`set_write_fault` installs a process-wide mutator
applied to the encoded blob of the *next* durable writes — the
deterministic chaos harness (:mod:`repro.farm.chaos`) uses it to
simulate torn and bit-flipped writes without patching any call site.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
from typing import Any, Callable

#: bump when the envelope layout changes incompatibly
DURABLE_VERSION = 1

MAGIC = b"mb32-durable"

#: read-side failure classification
REASON_TRUNCATED = "truncated"    # fewer payload bytes than the header
REASON_CORRUPT = "corrupt"        # digest mismatch (torn / bit-flipped)
REASON_BAD_HEADER = "bad-header"  # magic present but header unparsable

#: name of the sidecar directory damaged files are moved into
QUARANTINE_DIR = "quarantine"


class DurableError(RuntimeError):
    """A damaged durable artifact; ``reason`` is one of the
    ``REASON_*`` constants."""

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


# ----------------------------------------------------------------------
# chaos hook (torn / bit-flipped writes, injected deterministically)
# ----------------------------------------------------------------------
WriteFault = Callable[[str, bytes], bytes]

_write_fault: WriteFault | None = None


def set_write_fault(fault: WriteFault | None) -> None:
    """Install (or clear, with ``None``) a blob mutator applied to
    every subsequent :func:`durable_write` in this process.  The
    mutator receives ``(path, encoded_blob)`` and returns the bytes
    actually written — truncate them for a torn write, flip a bit for
    silent corruption.  Test/chaos infrastructure only."""
    global _write_fault
    _write_fault = fault


# ----------------------------------------------------------------------
# the envelope
# ----------------------------------------------------------------------
def encode_envelope(payload: bytes) -> bytes:
    """Frame ``payload`` with the length+digest header."""
    digest = hashlib.sha256(payload).hexdigest()
    header = b"%s %d %d %s\n" % (
        MAGIC, DURABLE_VERSION, len(payload), digest.encode()
    )
    return header + payload


def is_envelope(blob: bytes) -> bool:
    """``True`` when ``blob`` starts with the envelope magic (a legacy
    raw-bytes artifact does not)."""
    return blob.startswith(MAGIC + b" ")


def decode_envelope(blob: bytes) -> bytes:
    """Verify and strip the envelope; raises :class:`DurableError`
    with a classified ``reason`` on any damage."""
    newline = blob.find(b"\n")
    if newline < 0:
        raise DurableError("envelope header is truncated",
                           REASON_TRUNCATED)
    parts = blob[:newline].split(b" ")
    if len(parts) != 4 or parts[0] != MAGIC:
        raise DurableError("unparsable envelope header",
                           REASON_BAD_HEADER)
    try:
        version = int(parts[1])
        length = int(parts[2])
    except ValueError:
        raise DurableError("non-numeric envelope header fields",
                           REASON_BAD_HEADER)
    if version != DURABLE_VERSION:
        raise DurableError(
            f"unsupported envelope version {version}", REASON_BAD_HEADER
        )
    payload = blob[newline + 1:]
    if len(payload) < length:
        raise DurableError(
            f"payload truncated: {len(payload)} of {length} bytes",
            REASON_TRUNCATED,
        )
    payload = payload[:length]
    if hashlib.sha256(payload).hexdigest().encode() != parts[3]:
        raise DurableError("payload digest mismatch (torn or corrupt)",
                           REASON_CORRUPT)
    return payload


# ----------------------------------------------------------------------
# durable writes
# ----------------------------------------------------------------------
def _fsync_dir(directory: pathlib.Path) -> None:
    """fsync a directory so a rename inside it survives power loss.
    Platforms that cannot open directories (Windows) skip silently —
    the rename is still atomic there."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def durable_write(
    path: str | os.PathLike, payload: bytes, *, fsync: bool = True
) -> None:
    """Write ``payload`` (enveloped) to ``path`` so that after a crash
    the file is either absent, the complete new version, or the
    complete old version — never torn.

    ``fsync=False`` keeps the tmp+replace atomicity but skips the two
    fsyncs for hot paths where process-crash safety is enough.
    """
    target = pathlib.Path(path)
    blob = encode_envelope(payload)
    if _write_fault is not None:
        blob = _write_fault(str(target), blob)
    tmp = target.parent / f"{target.name}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, target)
        if fsync:
            _fsync_dir(target.parent)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# verified reads + quarantine
# ----------------------------------------------------------------------
def quarantine_file(
    path: str | os.PathLike, quarantine_dir: str | os.PathLike
) -> pathlib.Path:
    """Move a damaged artifact into ``quarantine_dir`` (created on
    demand) instead of deleting it; returns the new location.  A name
    collision appends a numeric suffix so repeated damage to the same
    entry keeps every specimen."""
    source = pathlib.Path(path)
    qdir = pathlib.Path(quarantine_dir)
    qdir.mkdir(parents=True, exist_ok=True)
    dest = qdir / source.name
    n = 0
    while dest.exists():
        n += 1
        dest = qdir / f"{source.name}.{n}"
    source.replace(dest)
    return dest


def read_verified(
    path: str | os.PathLike,
    *,
    quarantine_dir: str | os.PathLike | None = None,
    on_damage: Callable[[str], None] | None = None,
) -> bytes | None:
    """Read and verify a durable artifact.

    Returns the payload bytes, or ``None`` — missing *or damaged*.  A
    damaged file, and any file without the envelope, is moved to
    ``quarantine_dir`` (when given) and reported to
    ``on_damage(reason)``, and the caller treats the ``None`` exactly
    like a miss: re-execute, never serve garbage.
    """
    target = pathlib.Path(path)
    try:
        blob = target.read_bytes()
    except OSError:
        return None
    try:
        return decode_envelope(blob)
    except DurableError as exc:
        if on_damage is not None:
            on_damage(exc.reason)
        if quarantine_dir is not None:
            with contextlib.suppress(OSError):
                quarantine_file(target, quarantine_dir)
        return None


def scavenge_tmp(
    directory: str | os.PathLike, *, older_than_s: float = 0.0
) -> int:
    """Remove orphaned ``*.tmp.<pid>`` staging files left behind by
    crashed writers; returns the number removed.

    ``older_than_s`` skips files younger than that age: a startup
    scavenge of a directory other processes may still be writing into
    should only collect stale orphans, while ``clear()``-style callers
    (which drop the live entries too) sweep everything.
    """
    import time

    removed = 0
    cutoff = time.time() - older_than_s
    for orphan in pathlib.Path(directory).glob("*.tmp.*"):
        try:
            if older_than_s > 0.0 and orphan.stat().st_mtime > cutoff:
                continue
            orphan.unlink()
            removed += 1
        except OSError:
            pass
    return removed


# ----------------------------------------------------------------------
# sealed journal records (append-only logs)
# ----------------------------------------------------------------------
def _record_digest(record: dict[str, Any]) -> str:
    body = json.dumps(
        record, sort_keys=True, separators=(",", ":"), default=repr
    )
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def seal_record(record: dict[str, Any]) -> dict[str, Any]:
    """Return a copy of ``record`` carrying a ``"sha"`` digest of its
    canonical JSON, for append-only journal lines."""
    sealed = {k: v for k, v in record.items() if k != "sha"}
    sealed["sha"] = _record_digest({k: v for k, v in sealed.items()})
    return sealed


def record_intact(record: Any) -> bool:
    """Verify a journal record read back from disk.  Records without a
    ``"sha"`` (legacy journals) are accepted; a present-but-wrong
    digest means the line was damaged."""
    if not isinstance(record, dict):
        return False
    if "sha" not in record:
        return True
    body = {k: v for k, v in record.items() if k != "sha"}
    return record["sha"] == _record_digest(body)


class SealedJournal:
    """An append-only JSON-lines file of sealed records behind a header.

    Line 1 is the header (:meth:`header`, checked on every read by
    :meth:`check_header`, which raises ``ValueError`` for a file that is
    not this kind of journal); every further line is one sealed record.
    :meth:`replay` returns the records of the intact prefix — reading
    stops at the first truncated or damaged line.  :meth:`open` cuts
    the file back to that prefix before appending, so a tail torn by a
    crash can never swallow the records written after the restart; a
    file with no intact header starts over with a fresh one.  Appends
    are flushed (and fsync'd per record with ``fsync=True``); ``close``
    always fsyncs.
    """

    def __init__(self, path: str | os.PathLike, *, fsync: bool = False):
        self.path = pathlib.Path(path)
        self.fsync = fsync
        self._fh: Any = None
        self.records_written = 0

    def header(self) -> dict[str, Any]:
        """The first line of a fresh journal."""
        raise NotImplementedError

    def check_header(self, record: dict[str, Any]) -> None:
        """Raise ``ValueError`` unless ``record`` heads this journal."""
        raise NotImplementedError

    def _scan(self) -> tuple[list[dict[str, Any]], bytes]:
        """The intact records after the header, and the bytes of the
        intact prefix (header included)."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return [], b""
        records: list[dict[str, Any]] = []
        header_seen = False
        pos = end = 0
        while pos < len(data):
            newline = data.find(b"\n", pos)
            stop = len(data) if newline < 0 else newline + 1
            line = data[pos:stop].strip()
            if line:
                try:
                    rec = json.loads(line)
                except ValueError:
                    break  # torn tail from a crash mid-append
                if not record_intact(rec):
                    break  # damaged line: replay the intact prefix only
                if header_seen:
                    records.append(rec)
                else:
                    self.check_header(rec)
                    header_seen = True
            pos = stop
            if header_seen:
                end = stop
        return records, data[:end]

    def replay(self) -> list[dict[str, Any]]:
        """The records of the intact prefix, header excluded; a missing
        file replays as empty."""
        return self._scan()[0]

    def open(self) -> None:
        """Open for appending after the intact prefix, writing the
        header when there is none."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        _records, prefix = self._scan()
        self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.truncate(len(prefix))
        if not prefix:
            self.append(self.header())
        elif not prefix.endswith(b"\n"):
            self._fh.write("\n")  # intact last line, torn before its newline

    def append(self, record: dict[str, Any]) -> None:
        """Seal and append one record, flushed to the OS immediately;
        a journal that is not open drops it."""
        if self._fh is None:
            return
        # canonicalize through a JSON round-trip so the seal digest is
        # computed on exactly what replay will parse (tuples -> lists)
        record = json.loads(json.dumps(record, default=repr))
        self._fh.write(json.dumps(seal_record(record)) + "\n")
        self._fh.flush()
        if self.fsync:
            with contextlib.suppress(OSError, ValueError):
                os.fsync(self._fh.fileno())
        self.records_written += 1

    def close(self) -> None:
        """Sync everything appended to stable storage and close."""
        if self._fh is not None:
            self._fh.flush()
            with contextlib.suppress(OSError, ValueError):
                os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None


# ----------------------------------------------------------------------
# the result cache (sweep points and farm jobs)
# ----------------------------------------------------------------------
#: a startup scavenge only collects staging files at least this stale,
#: so it cannot race a live writer sharing the directory
STARTUP_SCAVENGE_AGE_S = 3600.0


class ResultCache:
    """Content-addressed result store: one enveloped file per
    fingerprint under ``path``, holding the caller's bytes verbatim.

    ``get`` hands back exactly the bytes ``put`` stored, or ``None`` —
    a miss — for a missing entry or one that fails verification (torn,
    truncated, bit-flipped, or written before the envelope existed);
    damage moves into the ``quarantine/`` sidecar directory.  Writers
    may share the directory: construction scavenges the ``.tmp.<pid>``
    staging files that crashed writers left behind, once they are
    :data:`STARTUP_SCAVENGE_AGE_S` old.  The sweep engine stores its
    ``{result, estimate}`` JSON here, the job farm its result
    documents (:mod:`repro.farm.cache`).
    """

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
