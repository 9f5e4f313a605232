"""One engine selector.

How a sysgen model executes is a single ``engine=`` value:

* ``"auto"`` — honor an enclosing :func:`engine_scope`, else compiled.
* ``"compiled"`` — the PR 6 generated-python schedule, always.
* ``"interpreter"`` — the per-block reference interpreter, always.
* ``"batched"`` — the lockstep vector engine; only meaningful for
  whole-simulation construction (``BatchedCoSimulation`` /
  ``--batch``), a scalar run resolving to it is an :class:`EngineError`.

Harness code (sweep workers, campaign trials, the conformance oracle)
threads an engine choice to every simulation it builds with
:func:`engine_scope`, without every design class having to grow an
``engine=`` parameter.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

ENGINES = ("auto", "compiled", "interpreter", "batched")

#: engines a single scalar Model can actually execute on
SCALAR_ENGINES = ("compiled", "interpreter")


class EngineError(ValueError):
    """Invalid or unusable engine selection."""


#: stack of ambient engine requests pushed by engine_scope()
_scope_stack: list[str] = []


def _validate(engine: str) -> str:
    if engine not in ENGINES:
        raise EngineError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )
    return engine


def current_engine() -> str | None:
    """The innermost :func:`engine_scope` request, or None."""
    return _scope_stack[-1] if _scope_stack else None


@contextmanager
def engine_scope(engine: str) -> Iterator[str]:
    """Make ``engine`` the ambient choice for every simulation built
    inside the ``with`` block whose own request is ``"auto"``."""
    _validate(engine)
    _scope_stack.append(engine)
    try:
        yield engine
    finally:
        _scope_stack.pop()


def resolve_engine(engine: str = "auto") -> str:
    """Resolve an engine request to a concrete scalar engine.

    ``"auto"`` takes the ambient :func:`engine_scope` and otherwise
    defaults to ``"compiled"``.  The result is always one of
    :data:`SCALAR_ENGINES`; resolving to ``"batched"`` here raises,
    because a scalar model cannot run vectorized — build a
    ``BatchedCoSimulation`` (or pass ``--batch``) instead.
    """
    _validate(engine)
    if engine == "auto":
        ambient = current_engine()
        # An ambient "batched" request is aimed at whole-simulation
        # construction; the scalar models a batch harness builds
        # internally still resolve as if unscoped.
        if ambient in SCALAR_ENGINES:
            engine = ambient
    if engine == "auto":
        return "compiled"
    if engine == "batched":
        raise EngineError(
            "engine='batched' selects the lockstep vector engine, which "
            "runs whole simulations, not a single scalar model; construct "
            "a repro.cosim.batch.BatchedCoSimulation (or pass --batch to "
            "mb32-dse / mb32-faultsim) instead"
        )
    return engine
