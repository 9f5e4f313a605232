"""Stability tests for the public fingerprint + backoff APIs.

Two kinds of persistent state are keyed on these digests: the sweep
engine's on-disk result cache and the farm's content-addressed job
cache.  The digests below are **pinned**: if any of these assertions
fail, the hash recipe changed and every existing cache entry silently
became unreachable (or worse, ambiguous).  Bump
``FINGERPRINT_VERSION`` — with a migration story — instead of editing
the expected values.
"""

from __future__ import annotations

import pytest

from repro.cosim.partition import DesignSpec
from repro.cosim.sweep import retry_backoff_delay as sweep_backoff
from repro.runapi import (
    FINGERPRINT_VERSION,
    canonical_json,
    design_fingerprint,
    fingerprint_json,
    retry_backoff_delay,
)

# ----------------------------------------------------------------------
# pinned digests — DO NOT update these to make a failing test pass
# ----------------------------------------------------------------------
PINNED_JSON = (
    "c254047a01ea9a9bad2d3db8afd4facf207b930d904be174f17cd02062947732"
)
PINNED_SYNTHETIC = (
    "49c0c40a74b65020e6836f6d67a51405f9cc9ae29ee5febe7f10d2eb422e6d4f"
)
PINNED_CORDIC = (
    "677e7979faee360abedec1f2928cba23d846eafb0c0ea71539320e5660a4cd7a"
)
PINNED_BACKOFF = [0.357567646257, 1.129310613002, 2.762128700812]


def test_fingerprint_version_is_pinned():
    assert FINGERPRINT_VERSION == 1


def test_canonical_json_form():
    assert canonical_json({"b": 2, "a": [1, {"z": None}]}) == \
        '{"a":[1,{"z":null}],"b":2}'


def test_fingerprint_json_pinned_digest():
    assert fingerprint_json(
        {"kind": "scenario", "payload": {"seed": 0, "index": 3}}
    ) == PINNED_JSON


def test_fingerprint_json_is_order_insensitive():
    assert fingerprint_json(
        {"payload": {"index": 3, "seed": 0}, "kind": "scenario"}
    ) == PINNED_JSON


def test_fingerprint_json_distinguishes_payloads():
    assert fingerprint_json({"kind": "scenario", "payload": {"seed": 1}}) \
        != fingerprint_json({"kind": "scenario", "payload": {"seed": 2}})


def _synthetic_spec():
    return DesignSpec(
        name="pin",
        factory="repro.cosim.sweep:SyntheticDesign",
        params={"seconds": 0.01, "cycles": 1234},
    )


def test_design_fingerprint_pinned_synthetic():
    spec = _synthetic_spec()
    assert design_fingerprint(spec, spec.build()) == PINNED_SYNTHETIC


def test_design_fingerprint_pinned_with_program_image():
    """Covers the program-image + cpu-config arms of the recipe: a
    drifting assembler/linker output or CPUConfig repr also breaks
    cache keys, and should be caught here, not in production."""
    spec = DesignSpec(
        name="cordic-pin",
        factory="repro.apps.cordic.design:CordicDesign",
        params={"p": 1, "iters": 8, "ndata": 4},
    )
    assert design_fingerprint(spec, spec.build()) == PINNED_CORDIC


def test_param_order_does_not_change_design_fingerprint():
    a = DesignSpec(name="p", factory="repro.cosim.sweep:SyntheticDesign",
                   params={"seconds": 0.01, "cycles": 1234})
    b = DesignSpec(name="p", factory="repro.cosim.sweep:SyntheticDesign",
                   params={"cycles": 1234, "seconds": 0.01})
    assert design_fingerprint(a, a.build()) == \
        design_fingerprint(b, b.build())


# ----------------------------------------------------------------------
# the shared backoff policy
# ----------------------------------------------------------------------
def test_backoff_schedule_pinned():
    got = [retry_backoff_delay(0.5, "pin-point", a, seed=7)
           for a in (1, 2, 3)]
    assert got == pytest.approx(PINNED_BACKOFF, abs=1e-9)


def test_backoff_sweep_alias_is_the_shared_policy():
    assert sweep_backoff is retry_backoff_delay


def test_backoff_zero_base_never_sleeps():
    assert retry_backoff_delay(0.0, "x", 5, seed=3) == 0.0


def test_backoff_is_exponential_within_jitter():
    for attempt in (1, 2, 3, 4):
        d = retry_backoff_delay(1.0, "unit", attempt, seed=0)
        lo = 2 ** (attempt - 1) * 0.5
        hi = 2 ** (attempt - 1) * 1.5
        assert lo <= d < hi
