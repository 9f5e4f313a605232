"""Every span target of the perfbench tracer still names real code.

``perfbench/tracer.py`` wraps entry points by name (``LAYERS``).  A
renamed function, or a method moved off the class the table names,
would only surface when the benchmark runs traced.  This test resolves
each target the way ``Tracer.install`` does — a module attribute, or
for ``Class.attr`` the class's own ``__dict__`` — so such a move fails
the ordinary test suite.  It reads the tracer; it does not install it.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _targets() -> list[str]:
    name = "_perfbench_tracer"
    spec = importlib.util.spec_from_file_location(name, TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return [where for targets in module.LAYERS.values()
            for _name, where, _observe in targets]


TARGETS = _targets()


def test_tracer_names_targets():
    assert len(TARGETS) > 20


@pytest.mark.parametrize("where", TARGETS)
def test_traced_target_resolves(where):
    module_name, _, qual = where.partition(":")
    module = importlib.import_module(module_name)
    if "." in qual:
        cls_name, attr = qual.split(".")
        owner = getattr(module, cls_name)
        assert attr in owner.__dict__, (
            f"{where}: {attr!r} is not defined on {owner.__qualname__} "
            "itself, so the tracer cannot wrap it")
        assert callable(owner.__dict__[attr])
    else:
        assert callable(getattr(module, qual, None)), where
