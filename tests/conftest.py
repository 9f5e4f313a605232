"""Shared fixtures.

``sysgen_engine`` parametrizes a test over both hardware-model
execution engines — the compiled schedule (default) and the per-cycle
interpreter (via an ambient ``engine_scope``) — so every behavioural
test that opts in becomes an equivalence check between them.  Modules that
want *all* their tests doubled add::

    @pytest.fixture(autouse=True)
    def _engine(sysgen_engine):
        pass
"""

from __future__ import annotations

import shutil

import pytest

ENGINES = ("compiled", "interpreter")

#: marks a test that builds a lockstep batch: its step runs only as the
#: gcc-built C kernel, and without gcc the batch refuses to build
needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None,
                               reason="the lockstep C kernel needs gcc")


@pytest.fixture(params=ENGINES, ids=lambda e: f"engine={e}")
def sysgen_engine(request):
    """Run the test once per sysgen execution engine.

    The ambient engine scope is entered *before* the test body runs, so
    any ``Model`` compiled inside the test picks the requested engine;
    the fixture yields the engine name for tests that assert on
    ``Model.engine`` directly.
    """
    from repro.runapi import engine_scope

    with engine_scope(request.param):
        yield request.param
