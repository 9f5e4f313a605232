"""The deprecated spellings of the unified run/engine API.

Contract: every old spelling (pre-``RunPolicy``/``engine=`` surface)
still works, produces the same results as the new spelling, and emits
its :class:`DeprecationWarning` exactly once per process no matter how
often it is used.
"""

from __future__ import annotations

import types
import warnings

import pytest

from repro.cosim.environment import CoSimulation
from repro.faults.campaign import build_design
from repro.runapi import RunPolicy, reset_deprecation_registry
from repro.runapi.engine import resolve_engine


@pytest.fixture(autouse=True)
def _fresh_registry():
    reset_deprecation_registry()
    yield
    reset_deprecation_registry()


def _sim():
    design = build_design("cordic", dict(p=2, iters=8, ndata=6))
    return CoSimulation(design.program, design.model, design.mb,
                        cpu_config=design.cpu_config)


def _deprecations(record):
    return [w for w in record if issubclass(w.category, DeprecationWarning)]


# ----------------------------------------------------------------------
# engine selection shims
# ----------------------------------------------------------------------
def test_force_interpreter_flag_resolves_and_warns_once():
    model = types.SimpleNamespace(force_interpreter=True)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        assert resolve_engine("auto", model=model) == "interpreter"
        assert resolve_engine("auto", model=model) == "interpreter"
    warned = _deprecations(record)
    assert len(warned) == 1
    assert "force_interpreter" in str(warned[0].message)


def test_interp_env_var_resolves_and_warns_once(monkeypatch):
    monkeypatch.setenv("REPRO_SYSGEN_INTERP", "1")
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        assert resolve_engine("auto") == "interpreter"
        assert resolve_engine("auto") == "interpreter"
    warned = _deprecations(record)
    assert len(warned) == 1
    assert "REPRO_SYSGEN_INTERP" in str(warned[0].message)


def test_new_spellings_do_not_warn():
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        _sim().run(until=500, policy=RunPolicy(wall_timeout_s=60.0))
        assert resolve_engine("interpreter") == "interpreter"
    assert not _deprecations(record)


def test_registry_reset_rearms_the_warning():
    model = types.SimpleNamespace(force_interpreter=True)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        resolve_engine("auto", model=model)
        reset_deprecation_registry()
        resolve_engine("auto", model=model)
    assert len(_deprecations(record)) == 2
