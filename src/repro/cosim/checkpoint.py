"""Versioned, fingerprinted on-disk checkpoints of a co-simulation.

A checkpoint is a JSON document with three layers of protection:

* a **format version** (:data:`CHECKPOINT_VERSION`) so a future layout
  change fails loudly instead of silently misrestoring,
* a **configuration fingerprint** binding the snapshot to the exact
  program image, CPU configuration and model structure it was taken
  from — restoring into a different design is an error, not a corrupted
  run,
* a **payload digest** (sha256 over the canonical state JSON) so a
  truncated or hand-edited file is rejected before any state is loaded.

On disk the document travels inside the shared durable envelope
(:mod:`repro.runapi.durable`): writes fsync the file and its parent
directory (a host crash cannot lose the rename), and reads verify a
whole-file length+sha256 frame before parsing.

Restore-then-continue is bit-identical to an uninterrupted run: the
state dict covers every observable (``tests/test_checkpoint.py``
enforces this against the conformance oracle's observation surface in
both per-cycle and fast-forward modes).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.runapi.durable import (
    DurableError,
    decode_envelope,
    durable_write,
    is_envelope,
)

#: bump when the state-dict layout changes incompatibly
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    """Raised for unreadable, corrupt or mismatched checkpoint files."""


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _payload_digest(state: dict) -> str:
    return hashlib.sha256(_canonical(state).encode()).hexdigest()


def sim_fingerprint(sim) -> str:
    """Deterministic identity of the *configuration* (not the state):
    program image + entry, CPU configuration, model structure (block
    names/types, probe count) and FSL channel names/depths.

    Accepts a single-CPU :class:`CoSimulation` or a
    :class:`~repro.cosim.multicpu.MultiCoSimulation`; the K-CPU
    fingerprint additionally binds the topology wiring and every
    node's program/configuration, so a checkpoint cannot restore into
    a differently shaped system.
    """
    h = hashlib.sha256()
    if hasattr(sim, "topology"):  # MultiCoSimulation
        h.update(repr(sim.topology.signature()).encode())
        for node in sim.nodes:
            h.update(node.name.encode())
            h.update(node.program.image)
            h.update(str(node.program.entry).encode())
            h.update(repr(node.cpu.config).encode())
        for channel in sim.links.values():
            h.update(f"{channel.name}:{channel.depth}".encode())
    else:
        h.update(sim.program.image)
        h.update(str(sim.program.entry).encode())
        h.update(repr(sim.cpu.config).encode())
    for model in sim._models:
        h.update(model.name.encode())
        for block in model.blocks:
            h.update(f"{block.name}:{type(block).__name__}".encode())
        h.update(str(len(model.probes)).encode())
    if hasattr(sim, "topology"):
        for node in sim.nodes:
            if node.mb_block is not None:
                for channel in node.mb_block.channels():
                    h.update(f"{channel.name}:{channel.depth}".encode())
    else:
        for channel in sim.mb_block.channels():
            h.update(f"{channel.name}:{channel.depth}".encode())
    return h.hexdigest()


def checkpoint_to_dict(sim, label: str = "") -> dict:
    """Build the full checkpoint document (in-memory form)."""
    state = sim.state_dict()
    return {
        "format": "mb32-checkpoint",
        "version": CHECKPOINT_VERSION,
        "label": label,
        "fingerprint": sim_fingerprint(sim),
        "cycle": sim.cycle,
        "digest": _payload_digest(state),
        "state": state,
    }


def restore_from_dict(sim, doc: dict) -> None:
    """Validate and load a checkpoint document into ``sim``."""
    if not isinstance(doc, dict) or doc.get("format") != "mb32-checkpoint":
        raise CheckpointError("not an mb32 checkpoint document")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {doc.get('version')} unsupported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    fingerprint = sim_fingerprint(sim)
    if doc.get("fingerprint") != fingerprint:
        raise CheckpointError(
            "checkpoint was taken from a different configuration "
            f"(fingerprint {str(doc.get('fingerprint'))[:12]}… != "
            f"{fingerprint[:12]}…)"
        )
    state = doc.get("state")
    if not isinstance(state, dict):
        raise CheckpointError("checkpoint has no state payload")
    if doc.get("digest") != _payload_digest(state):
        raise CheckpointError("checkpoint payload digest mismatch "
                              "(truncated or modified file)")
    sim.load_state(state)


def save_checkpoint(sim, path: str, label: str = "") -> dict:
    """Write a checkpoint durably (tmp + rename + fsync of the file
    *and* its parent directory, through the shared
    :func:`repro.runapi.durable.durable_write` envelope — a host crash
    can neither lose the rename nor leave torn contents); returns the
    doc."""
    doc = checkpoint_to_dict(sim, label)
    try:
        durable_write(path, json.dumps(doc).encode())
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc
    return doc


def load_checkpoint(sim, path: str) -> dict:
    """Read, validate and load a checkpoint file into ``sim``.

    Envelope-framed checkpoints are integrity-verified before any
    JSON parsing; files written by pre-envelope versions (raw JSON)
    load transparently, falling back to the in-document payload digest
    for damage detection.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if is_envelope(blob):
        try:
            blob = decode_envelope(blob)
        except DurableError as exc:
            raise CheckpointError(
                f"checkpoint {path} is damaged ({exc.reason}): {exc}"
            ) from exc
    try:
        doc = json.loads(blob)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path} is not JSON: {exc}") from exc
    restore_from_dict(sim, doc)
    return doc
