"""Per-layer timing from outside the program.

The tracer wraps public entry points of the simulator's modules with a
span recorder and removes the wrappers again afterwards.  Nothing under
``src/`` knows about it: each wrapper replaces the name *where callers
look it up*.  A method is replaced on its class; a module-level function
is replaced in every loaded ``repro.*`` module that bound it by import
(``repro.faults.campaign`` imports ``checkpoint_to_dict`` by name, so
patching only ``repro.cosim.checkpoint`` would miss its calls).

A span's self time is its duration minus the time of the spans it
called.  Spans are kept per thread, so the farm gateway thread and the
client thread never charge each other.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: (name a span is recorded under, "module:Class.attr" or "module:func",
#:  optional observer(args, result) -> amount added to the span's tally)
Target = tuple[str, str, Callable[[tuple, Any], float] | None]


def _first_arg(args: tuple, result: Any) -> float:
    return args[1] if len(args) > 1 else 0


def _positive_result(args: tuple, result: Any) -> float:
    return 1 if result > 0 else 0


# Each layer's public entry points, grouped by the repo module that owns
# them.  Extra spans (cosim.construct, apps.*) are not reported on their
# own; they keep the benchmark's own loop out of the layers' self times.
LAYERS: dict[str, list[Target]] = {
    "iss": [
        ("iss.tick", "repro.iss.cpu:CPU.tick", None),
        ("iss.advance", "repro.iss.cpu:CPU.advance", _first_arg),
    ],
    "sysgen": [
        ("sysgen.step", "repro.sysgen.model:Model.step", None),
        ("sysgen.idle_horizon", "repro.sysgen.model:Model.idle_horizon",
         _positive_result),
        ("sysgen.fast_forward", "repro.sysgen.model:Model.fast_forward",
         _first_arg),
        ("sysgen.compile", "repro.sysgen.model:Model.compile", None),
    ],
    "batched": [
        ("batched.step", "repro.sysgen.batched:BatchedModel.step", None),
        ("batched.fallback_idle_horizon",
         "repro.sysgen.batched:BatchedModel.fallback_idle_horizon", None),
        ("batched.fast_forward",
         "repro.sysgen.batched:BatchedModel.fast_forward", None),
        ("batched.build", "repro.sysgen.batched:BatchedModel.__init__", None),
        ("ckernel.build", "repro.sysgen.ckernel:build_step_kernel", None),
    ],
    "cosim": [
        ("cosim.run", "repro.cosim.environment:CoSimulation.run", None),
        ("cosim.construct",
         "repro.cosim.environment:CoSimulation.__init__", None),
        ("cosim.batch.run", "repro.cosim.batch:BatchedCoSimulation.run",
         None),
        ("cosim.batch.run",
         "repro.cosim.batch:BatchedCoSimulation.advance", None),
        ("cosim.batch.construct",
         "repro.cosim.batch:BatchedCoSimulation.__init__", None),
        ("checkpoint.save", "repro.cosim.checkpoint:checkpoint_to_dict",
         None),
        ("checkpoint.restore", "repro.cosim.checkpoint:restore_from_dict",
         None),
    ],
    "faults": [
        ("faults.campaign", "repro.faults.campaign:run_campaign", None),
        ("faults.run_trial", "repro.faults.campaign:run_trial", None),
    ],
    "mcc": [
        ("mcc.build", "repro.mcc.compiler:build_executable", None),
    ],
    "apps": [
        ("apps.check", "repro.apps.cordic.design:CordicDesign.check", None),
        ("apps.check", "repro.apps.matmul.design:MatmulDesign.check", None),
        ("apps.fresh_hardware",
         "repro.apps.cordic.design:CordicDesign.fresh_hardware", None),
        ("apps.fresh_hardware",
         "repro.apps.matmul.design:MatmulDesign.fresh_hardware", None),
    ],
    "farm": [
        ("farm.start", "repro.farm.gateway:start_farm_thread", None),
        ("farm.fingerprint", "repro.farm.protocol:job_fingerprint", None),
        ("farm.cache.get", "repro.farm.cache:FarmCache.get", None),
        ("farm.cache.put", "repro.farm.cache:FarmCache.put", None),
        ("durable.read", "repro.runapi.durable:read_verified", None),
        ("durable.write", "repro.runapi.durable:durable_write", None),
        ("farm.wal.record", "repro.farm.wal:GatewayJournal.record", None),
    ],
}


@dataclass
class SpanTally:
    calls: int = 0
    self_s: float = 0.0
    amount: float = 0.0

    def add(self, other: "SpanTally") -> None:
        self.calls += other.calls
        self.self_s += other.self_s
        self.amount += other.amount


@dataclass
class _ThreadState:
    main: bool
    stack: list[float] = field(default_factory=list)
    tallies: dict[str, SpanTally] = field(default_factory=dict)


class Tracer:
    """Installs span wrappers on :data:`LAYERS` and collects tallies."""

    def __init__(self, layers: list[str]):
        self.layers = layers
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(
                main=threading.current_thread() is threading.main_thread())
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def _wrap(self, name: str, func: Callable,
              observe: Callable[[tuple, Any], float] | None) -> Callable:
        perf = time.perf_counter
        state_of = self._state

        def span(*args, **kwargs):
            state = state_of()
            stack = state.stack
            stack.append(0.0)
            t0 = perf()
            done = False
            result = None
            try:
                result = func(*args, **kwargs)
                done = True
                return result
            finally:
                elapsed = perf() - t0
                children = stack.pop()
                tally = state.tallies.get(name)
                if tally is None:
                    tally = state.tallies[name] = SpanTally()
                tally.calls += 1
                tally.self_s += elapsed - children
                if observe is not None and done:
                    tally.amount += observe(args, result)
                if stack:
                    stack[-1] += elapsed

        span.__wrapped__ = func
        span.__name__ = getattr(func, "__name__", name)
        return span

    # -- install / remove ----------------------------------------------
    def install(self) -> None:
        for layer in self.layers:
            for name, where, observe in LAYERS[layer]:
                module_name, _, qual = where.partition(":")
                module = importlib.import_module(module_name)
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original,
                                self._wrap(name, original, observe))
                    continue
                original = getattr(module, qual)
                wrapper = self._wrap(name, original, observe)
                for mod in list(sys.modules.values()):
                    mod_name = getattr(mod, "__name__", "") or ""
                    if not mod_name.startswith("repro"):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any,
               wrapper: Callable) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every patched name; raises if one was left wrapped."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for owner, attr, original in self._patches:
            if getattr(owner, "__dict__", {}).get(attr) is not original:
                raise RuntimeError(f"tracer left {owner!r}.{attr} wrapped")
        self._patches.clear()

    # -- results -------------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            for state in self._threads:
                state.tallies.clear()

    def snapshot(self, main_only: bool = False) -> dict[str, SpanTally]:
        merged: dict[str, SpanTally] = {}
        with self._lock:
            for state in self._threads:
                if main_only and not state.main:
                    continue
                for name, tally in state.tallies.items():
                    merged.setdefault(name, SpanTally()).add(tally)
        return merged
