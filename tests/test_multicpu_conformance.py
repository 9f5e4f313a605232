"""Multi-CPU conformance: K-CPU topologies under the differential
oracle.

Tier-1 keeps the fuzz volume small; the full multi-CPU corpus runs in
CI via ``mb32-conformance --family multi`` (the ``multicpu-smoke``
job) and the acceptance sweep drives hundreds of scenarios across both
engines.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance import (
    ALL_MODES,
    MultiScenario,
    MultiScenarioGenerator,
    build_multi_sim,
    build_programs,
    check_scenario,
    divergence,
    first_divergence,
    observe,
    scenario_from_dict,
    shrink_scenario,
)
from repro.conformance.multicpu import MultiNodeSpec
from repro.conformance.oracle import observe_batched
from repro.cosim.topology import TopologySpec


# ----------------------------------------------------------------------
# scenario generation
# ----------------------------------------------------------------------
def test_generator_is_deterministic():
    a = MultiScenarioGenerator(seed=7).scenario(3)
    b = MultiScenarioGenerator(seed=7).scenario(3)
    assert a == b
    assert a.to_dict() == b.to_dict()


def test_generator_scenarios_depend_only_on_index():
    gen = MultiScenarioGenerator(seed=5)
    late = gen.scenario(9)
    gen2 = MultiScenarioGenerator(seed=5)
    for scenario in gen2.scenarios(9):
        assert scenario.name.startswith("m5-")
    assert gen2.scenario(9) == late


def test_scenario_dict_roundtrip_with_family_tag():
    for index in range(8):
        scenario = MultiScenarioGenerator(seed=2).scenario(index)
        data = json.loads(json.dumps(scenario.to_dict()))
        assert data["family"] == "multi"
        again = scenario_from_dict(data)
        assert isinstance(again, MultiScenario)
        assert again == scenario


def test_generator_covers_topologies_and_sizes():
    gen = MultiScenarioGenerator(seed=0)
    scenarios = list(gen.scenarios(40))
    kinds = {s.topology_kind for s in scenarios}
    assert kinds == {"pipeline", "ring", "mesh"}
    sizes = {s.n_cpus for s in scenarios}
    assert sizes == {2, 3, 4}
    assert any(s.hazard for s in scenarios)
    for s in scenarios:
        assert len(s.nodes) == s.n_cpus


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31), index=st.integers(0, 500))
def test_generator_determinism_property(seed, index):
    a = MultiScenarioGenerator(seed=seed).scenario(index)
    b = MultiScenarioGenerator(seed=seed).scenario(index)
    assert a == b
    assert scenario_from_dict(a.to_dict()) == a


# ----------------------------------------------------------------------
# topology and route conventions
# ----------------------------------------------------------------------
def _scenario(kind, n, rows=0, cols=0):
    return MultiScenario(
        name="t", seed="t", topology_kind=kind, n_cpus=n,
        rows=rows, cols=cols,
        nodes=tuple(MultiNodeSpec() for _ in range(n)),
    )


def test_pipeline_route_is_front_to_back():
    s = _scenario("pipeline", 4)
    assert s.route() == (0, 1, 2, 3)
    assert s.stream_channels(0) == (None, 0)
    assert s.stream_channels(1) == (0, 0)
    assert s.stream_channels(3) == (0, None)


def test_ring_route_closes_the_loop():
    s = _scenario("ring", 3)
    assert s.route() == (0, 1, 2, 0)
    in_ch, out_ch = s.stream_channels(0)
    assert in_ch is not None and out_ch is not None


def test_mesh_route_is_serpentine():
    s = _scenario("mesh", 4, rows=2, cols=2)
    # row 0 left-to-right, row 1 right-to-left: every hop a neighbour
    assert s.route() == (0, 1, 3, 2)
    topo = s.topology()
    pairs = {(link.src, link.dst) for link in topo.links}
    for a, b in zip(s.route(), s.route()[1:]):
        assert (a, b) in pairs
    # the reverse links exist but stay idle — fault-campaign targets
    for a, b in zip(s.route(), s.route()[1:]):
        assert (b, a) in pairs


def test_lockstep_signature_groups_by_structure():
    s = MultiScenarioGenerator(seed=0).scenario(0)
    programs = build_programs(s)
    sim_a, _ = build_multi_sim(s, programs, fast_forward=False)
    sim_b, _ = build_multi_sim(s, programs, fast_forward=False)
    assert sim_a.lockstep_signature() == sim_b.lockstep_signature()
    other = MultiScenarioGenerator(seed=0).scenario(1)
    sim_c, _ = build_multi_sim(other, fast_forward=False)
    assert sim_a.lockstep_signature() != sim_c.lockstep_signature()


# ----------------------------------------------------------------------
# the oracle: all five modes, both engines
# ----------------------------------------------------------------------
def test_small_fuzz_all_modes_agree(sysgen_engine):
    gen = MultiScenarioGenerator(seed=0)
    for scenario in gen.scenarios(6):
        verdict = check_scenario(scenario, ALL_MODES)
        assert verdict.ok, (scenario.name, verdict.divergences,
                            verdict.build_error)


def test_random_pipelines_agree_across_modes(sysgen_engine):
    """The satellite property: seeded random 2-4 CPU pipelines are
    byte-identical across every execution mode on both engines."""
    gen = MultiScenarioGenerator(seed=9)
    pipelines = [s for s in gen.scenarios(12)
                 if s.topology_kind == "pipeline"][:4]
    assert pipelines
    for scenario in pipelines:
        assert 2 <= scenario.n_cpus <= 4
        ref = observe(scenario, "per_cycle")
        for mode in ALL_MODES:
            obs = observe(scenario, mode)
            assert divergence(ref, obs) is None, (
                scenario.name, mode)


def test_hazard_scenario_agrees_across_modes():
    # seed 0 / index 5 deliberately overflows its ring: every mode must
    # report the deadlock with identical state.
    scenario = MultiScenarioGenerator(seed=0).scenario(5)
    assert scenario.hazard == "overflow"
    verdict = check_scenario(scenario, ALL_MODES)
    assert verdict.ok, verdict.divergences
    assert verdict.reference.status == "deadlock"


def test_multi_observation_surface():
    scenario = MultiScenarioGenerator(seed=0).scenario(0)
    obs = observe(scenario, "per_cycle")
    data = obs.to_dict()
    assert set(data["cpus"]) == {f"cpu{k}"
                                for k in range(scenario.n_cpus)}
    for surface in data["cpus"].values():
        assert len(surface["regs"]) == 32
        assert len(surface["mem_digest"]) == 64
    # aggregates: global clock, summed instruction counts
    assert data["cycles"] >= max(s["cycles"]
                                 for s in data["cpus"].values())
    assert data["instructions"] == sum(s["instructions"]
                                       for s in data["cpus"].values())
    # inter-CPU links appear in the channel statistics
    assert any(name.startswith("link_") for name in data["channels"])


def test_engines_agree_per_scenario():
    scenario = MultiScenarioGenerator(seed=1).scenario(2)
    a = observe(scenario, "per_cycle", engine="compiled")
    b = observe(scenario, "per_cycle", engine="interpreter")
    assert first_divergence(a.comparable(), b.comparable()) is None


def test_observe_batched_rejects_multi():
    scenario = MultiScenarioGenerator(seed=0).scenario(0)
    with pytest.raises(ValueError, match="lockstep_signature"):
        observe_batched(scenario, [1000, 2000])


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def test_shrink_multi_scenario():
    """The shrinker walks multi-CPU variants: a predicate keyed on the
    hazard alone must reduce to a minimal scenario that keeps it."""
    scenario = MultiScenarioGenerator(seed=0).scenario(24)
    assert scenario.hazard == "starve" and scenario.n_cpus == 4

    def still_fails(candidate):
        return candidate.hazard == "starve"

    small = shrink_scenario(scenario, fails=still_fails)
    assert small.hazard == "starve"
    assert small.n_cpus <= scenario.n_cpus
    assert all(n.hw_stage is None for n in small.nodes)
    assert small.tokens <= scenario.tokens
