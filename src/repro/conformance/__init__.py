"""Differential conformance fuzzing for the co-simulation engine.

The paper's contract is that the high-level co-simulation is
*cycle-accurate*; every speed trick the engine grew since (the
fast-forward kernel, sweep worker subprocesses, environment re-use
after ``reset()``) must therefore be observably indistinguishable from
the per-cycle reference loop.  This package locks that in:

* :mod:`repro.conformance.scenario` — a seeded generator of random
  co-simulation designs: FSL pipeline topologies assembled from the
  sysgen block library paired with generated mini-C programs mixing
  blocking and non-blocking ``get``/``put``, control-bit traffic,
  carry/MSR reads and multi-cycle arithmetic,
* :mod:`repro.conformance.oracle` — runs one scenario under every
  execution mode and diffs the *full* observable surface (cycle,
  instruction and stall counts, FIFO statistics, channel occupancies,
  probe traces, FSL transaction logs, deadlock points, register file
  and memory digests),
* :mod:`repro.conformance.shrink` — reduces a divergent scenario to a
  minimal reproducer,
* :mod:`repro.conformance.golden` — a pinned golden-trace corpus with
  drift detection that distinguishes an intentional semantic change
  (re-bless) from a silent regression in one execution mode.

The ``mb32-conformance`` CLI (:func:`repro.cli.conformance_main`) runs
the same harness from the shell and from CI.
"""

from repro.conformance.golden import (
    DriftEntry,
    bless_golden,
    check_golden,
    load_golden,
    write_golden,
)
from repro.conformance.multicpu import (
    MultiNodeSpec,
    MultiScenario,
    MultiScenarioGenerator,
    build_multi_sim,
    build_programs,
)
from repro.conformance.oracle import (
    ALL_MODES,
    REFERENCE_MODE,
    ConformanceReport,
    Observation,
    ScenarioVerdict,
    check_scenario,
    divergence,
    first_divergence,
    observe,
)
from repro.conformance.scenario import (
    OpSpec,
    PipelineSpec,
    Scenario,
    ScenarioGenerator,
    StageSpec,
    build_model,
    build_program,
    scenario_from_dict,
)
from repro.conformance.shrink import shrink_scenario

__all__ = [
    "ALL_MODES",
    "REFERENCE_MODE",
    "ConformanceReport",
    "DriftEntry",
    "MultiNodeSpec",
    "MultiScenario",
    "MultiScenarioGenerator",
    "Observation",
    "OpSpec",
    "PipelineSpec",
    "Scenario",
    "ScenarioGenerator",
    "ScenarioVerdict",
    "StageSpec",
    "bless_golden",
    "build_model",
    "build_multi_sim",
    "build_program",
    "build_programs",
    "check_golden",
    "check_scenario",
    "divergence",
    "first_divergence",
    "load_golden",
    "observe",
    "scenario_from_dict",
    "shrink_scenario",
    "write_golden",
]
