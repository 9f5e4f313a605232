"""Public, stability-tested content fingerprints.

Two subsystems key the shared durable result cache
(:class:`repro.runapi.durable.ResultCache`) on a deterministic
identity: the sweep engine keys its points by design, and the
co-simulation farm keys its jobs by content (:mod:`repro.farm.cache`).
A silent drift of the hash recipe would make every cached result
unreachable (and, worse, could alias distinct designs), so the recipe
lives here as a public API with a **pinned-digest regression test**
(``tests/test_fingerprint.py``) that fails if any byte of the digest
stream changes.

* :func:`canonical_json` / :func:`fingerprint_json` — the canonical
  serialized form of a JSON-able payload and its sha256.  This is the
  farm's job key: two submissions with equal (kind, payload) hash
  identically regardless of dict ordering.
* :func:`design_fingerprint` — the identity of a *built* design point
  (program image + entry, CPU configuration, model parameters); it
  keys the sweep result cache, and its recipe predates this module,
  so existing sweep caches stay valid.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

#: bump ONLY with a migration story: every on-disk cache entry keyed on
#: an old version becomes unreachable.
FINGERPRINT_VERSION = 1


def canonical_json(payload: Any) -> str:
    """The one canonical serialized form used in fingerprint streams:
    sorted keys, no whitespace, non-JSON leaves rendered via ``repr``."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=repr
    )


def fingerprint_json(payload: Any) -> str:
    """sha256 hex digest of :func:`canonical_json` of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def design_fingerprint(point, instance) -> str:
    """Deterministic identity of an evaluated design point.

    Hashes the built program image, the CPU configuration and the
    model parameters, so a re-sweep (or a farm re-submission)
    recognizes work it has already done even across processes and
    sessions.

    ``point`` is a :class:`~repro.cosim.partition.DesignPoint` or
    :class:`~repro.cosim.partition.DesignSpec`; ``instance`` is its
    built design.  The pinned-digest tests keep the recipe stable, so
    existing sweep caches keep hitting.
    """
    h = hashlib.sha256()
    h.update(getattr(point, "factory", point.name).encode())
    program = getattr(instance, "program", None)
    if program is not None:
        h.update(program.image)
        h.update(str(program.entry).encode())
    cpu_config = getattr(instance, "cpu_config", None)
    h.update(repr(cpu_config).encode())
    h.update(
        json.dumps(point.params, sort_keys=True, default=repr).encode()
    )
    return h.hexdigest()
