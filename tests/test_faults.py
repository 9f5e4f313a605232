"""Seeded fault-injection: plans, the injector, campaigns, recovery.

Campaign determinism is the load-bearing property: the same
``(config, seed)`` must produce a byte-identical report whether trials
run in-process, across worker processes, or split over a resumed
journal — reports deliberately carry no wall-clock fields.
"""

from __future__ import annotations

import json

import pytest

from repro.apps.cordic.design import CordicDesign
from repro.bus.fsl import FSLChannel
from repro.cli import faultsim_main
from repro.faults import (
    ALL_OUTCOMES,
    FAULT_KINDS,
    CampaignConfig,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    generate_plan,
    run_campaign,
    run_trial,
)
from repro.faults.campaign import _make_sim, build_design

#: a small, fast design point every test shares (p=2 CORDIC, 8 samples)
DESIGN = {"p": 2, "ndata": 8}
#: its fault-free cycle count is ~3.5k; this bounds every trial
MAX_CYCLES = 200_000


def _campaign(trials=6, seed=3, recovery="none", workers=0, **kw):
    config = CampaignConfig(
        app="cordic", design=dict(DESIGN), trials=trials, seed=seed,
        recovery=recovery, deadlock_window=2_048, max_cycles=MAX_CYCLES,
    )
    return run_campaign(config, workers=workers, **kw)


# ----------------------------------------------------------------------
# plans


def test_plan_generation_is_deterministic():
    kw = dict(max_cycle=3_000, mem_words=512,
              channels=("fsl0", "fsl1"), ports=("pe0:out",), n_faults=3)
    a = generate_plan("camp/0", **kw)
    b = generate_plan("camp/0", **kw)
    assert a.to_dict() == b.to_dict()
    assert a.to_dict() != generate_plan("camp/1", **kw).to_dict()


def test_plan_round_trips_through_json():
    plan = generate_plan("rt", max_cycle=100, mem_words=64,
                         channels=("ch",), ports=("b:o",), n_faults=4)
    blob = json.dumps(plan.to_dict())
    again = FaultPlan.from_dict(json.loads(blob))
    assert again.to_dict() == plan.to_dict()
    assert again.first_cycle == plan.first_cycle


def test_plan_excludes_untargetable_kinds():
    plan = generate_plan("x", max_cycle=500, mem_words=64,
                         channels=(), ports=(), n_faults=20)
    kinds = {f.kind for f in plan.faults}
    assert kinds <= {"reg_flip", "mem_flip"}
    with pytest.raises(ValueError, match="no injectable"):
        generate_plan("x", max_cycle=500, mem_words=0,
                      channels=(), ports=(), kinds=("fifo_drop", "mem_flip"))


def test_fault_spec_validation():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec(kind="gamma_ray", cycle=5)
    with pytest.raises(ValueError, match="cycle"):
        FaultSpec(kind="reg_flip", cycle=0)


# ----------------------------------------------------------------------
# injector


def _fresh_sim():
    design = build_design("cordic", dict(DESIGN))
    return design, _make_sim(design, 2_048)


def test_reg_flip_perturbs_exactly_one_bit():
    _design, sim = _fresh_sim()
    sim.run(until=50)
    before = list(sim.cpu.regs)
    spec = FaultSpec(kind="reg_flip", cycle=60, index=4, bit=7)
    injector = FaultInjector(sim, FaultPlan(faults=[spec], seed="t"))
    injector.run(until_cycle=61)
    after = sim.cpu.regs
    idx = 1 + spec.index % 31
    # only the targeted register may have changed, by exactly one bit —
    # unless execution between cycles 50..61 rewrote it first
    changed = [i for i in range(32) if after[i] != before[i] and i != idx]
    assert injector.log and injector.log[0]["applied"]
    assert "r5" in injector.log[0]["fault"]
    assert all(i != 0 for i in changed), "r0 must stay hardwired zero"


def test_mem_flip_applies_and_logs():
    _design, sim = _fresh_sim()
    spec = FaultSpec(kind="mem_flip", cycle=30, index=9, bit=3)
    word_addr = (spec.index % (sim.cpu.mem.bram.size // 4)) * 4
    before = sim.cpu.mem.read_u32(word_addr)
    injector = FaultInjector(sim, FaultPlan(faults=[spec], seed="t"))
    injector.run(until_cycle=31)
    assert sim.cpu.mem.read_u32(word_addr) == before ^ (1 << 3)
    assert injector.log[0]["applied"]


def test_fifo_fault_on_empty_fifo_is_a_recorded_noop():
    _design, sim = _fresh_sim()
    channel = next(iter(sim.mb_block.channels()))
    spec = FaultSpec(kind="fifo_drop", cycle=2, target=channel.name)
    injector = FaultInjector(sim, FaultPlan(faults=[spec], seed="t"))
    injector.run(until_cycle=3)
    entry = injector.log[0]
    assert not entry["applied"]
    assert "empty" in entry["note"]


def test_fault_after_program_end_is_logged_not_crashed():
    design, sim = _fresh_sim()
    baseline = design.run()  # fault-free cycle count
    spec = FaultSpec(kind="reg_flip", cycle=baseline.cycles + 10_000)
    _design2, sim = _fresh_sim()
    injector = FaultInjector(sim, FaultPlan(faults=[spec], seed="t"))
    injector.run(until_cycle=MAX_CYCLES)
    entry = injector.log[0]
    assert not entry["applied"]
    assert "ended before" in entry["note"]
    assert sim.cpu.exit_code is not None


#: a plan whose stuck_at window is not its first fault: the window must
#: still hold for its full duration (the CPU is parked on MAX_CYCLES at
#: every segment end, and the window must step past that park)
FORCED = 0x5A5A5A5A


def _late_window_plan(port, node=""):
    return FaultPlan(faults=[
        FaultSpec(kind="reg_flip", cycle=500, target=node, index=4, bit=3),
        FaultSpec(kind="stuck_at", cycle=900, target=port, value=FORCED,
                  duration=10),
    ], seed="t")


def _record_port(model, block, port):
    """The value ``block:port`` holds entering each of ``model``'s
    steps, keyed by the model cycle the step starts from."""
    out = model.block(block).outputs[port]
    seen: dict[int, int] = {}
    step = model.step

    def recording_step(cycles=1):
        for _ in range(cycles):
            seen[model.cycle] = out.value
            step()

    model.step = recording_step
    return seen


def test_stuck_at_after_another_fault_holds_its_whole_window():
    sim = _make_sim(build_design("cordic", {"p": 2, "iters": 8, "ndata": 8}),
                    2_048)
    seen = _record_port(sim.model, "pe0_rz", "q")
    injector = FaultInjector(sim, _late_window_plan("pe0_rz:q"))
    injector.run(until_cycle=MAX_CYCLES)
    assert [(e["cycle"], e["applied"]) for e in injector.log] == \
        [(500, True), (910, True)]
    assert [seen.get(c) for c in range(900, 910)] == [FORCED] * 10
    assert sim.cpu.exit_code == 0


# ----------------------------------------------------------------------
# trials and campaigns


def test_config_validation():
    with pytest.raises(ValueError, match="unknown campaign app"):
        CampaignConfig(app="fft", design={})
    with pytest.raises(ValueError, match="recovery"):
        CampaignConfig(app="cordic", design={}, recovery="pray")
    with pytest.raises(ValueError, match="trials"):
        CampaignConfig(app="cordic", design={}, trials=0)


def test_software_only_partition_is_rejected():
    with pytest.raises(ValueError, match="hardware partition"):
        build_design("cordic", {"p": 0})


def test_campaign_is_deterministic_across_runs():
    a = _campaign().to_dict()
    b = _campaign().to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert set(a["counts"]) == set(ALL_OUTCOMES)
    assert sum(a["counts"].values()) == 6
    assert a["baseline_cycles"] > 0


@pytest.mark.sweep
def test_campaign_identical_sequential_vs_parallel():
    seq = _campaign(workers=0).to_dict()
    par = _campaign(workers=2).to_dict()
    assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True)


def test_rollback_converts_failures_to_recovered():
    """Seed 7 over 12 trials produces one hang and one sdc without
    recovery; with rollback both must convert (a transient SEU replayed
    from the pre-fault checkpoint cannot recur)."""
    plain = _campaign(trials=12, seed=7, recovery="none")
    harmed = {t["trial"]: t["outcome"] for t in plain.trials
              if t["outcome"] in ("hang", "sdc", "detected", "crash")}
    assert harmed, "seed 7 must produce at least one non-masked outcome"

    rolled = _campaign(trials=12, seed=7, recovery="rollback")
    assert rolled.counts["recovered"] == len(harmed)
    for i, original in harmed.items():
        trial = rolled.trials[i]
        assert trial["outcome"] == "recovered"
        assert trial["original_outcome"] == original
        assert trial["rollbacks"] >= 1
        assert trial["checkpoint_cycle"] is not None
        assert len(trial["backoff_s"]) == trial["rollbacks"]


def test_trial_records_are_json_safe_and_complete():
    report = _campaign(trials=2)
    for trial in report.trials:
        json.dumps(trial)  # raises on any non-JSON-safe leftovers
        for key in ("seed", "plan", "injected", "rollbacks", "backoff_s",
                    "checkpoint_cycle", "outcome", "original_outcome",
                    "detail", "cycles", "exit_code", "trial"):
            assert key in trial, f"trial record missing {key!r}"
        assert trial["outcome"] in ALL_OUTCOMES


def test_run_trial_plan_travels_as_plain_dict():
    """run_trial takes the JSON form of a plan (what worker processes
    receive), not the dataclass."""
    plan = generate_plan("unit/0", max_cycle=2_000, mem_words=256)
    record = run_trial("cordic", dict(DESIGN), plan.to_dict(),
                       deadlock_window=2_048, max_cycles=MAX_CYCLES)
    assert record["outcome"] in ALL_OUTCOMES
    assert record["plan"] == plan.to_dict()


def test_campaign_journal_resume_replays_identically(tmp_path):
    journal = str(tmp_path / "campaign.journal")
    first = _campaign(journal=journal).to_dict()
    resumed = _campaign(journal=journal, resume=True).to_dict()
    assert json.dumps(first, sort_keys=True) \
        == json.dumps(resumed, sort_keys=True)


# ----------------------------------------------------------------------
# CLI


def _cli(args, capsys):
    rc = faultsim_main(args)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "Traceback" not in captured.out
    return rc, captured


def test_cli_smoke_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc, captured = _cli(
        ["cordic", "--p", "2", "--ndata", "8", "--trials", "4",
         "--seed", "3", "--max-cycles", str(MAX_CYCLES),
         "--quiet", "--json", str(out)], capsys)
    assert rc == 0
    assert "| masked |" in captured.out
    doc = json.loads(out.read_text())
    assert doc["format"] == "mb32-faultsim-report"
    assert sum(doc["counts"].values()) == 4


def test_cli_rejects_software_only_point(capsys):
    rc, captured = _cli(["cordic", "--p", "0", "--trials", "1"], capsys)
    assert rc == 2
    assert "hardware partition" in captured.err


def test_cli_rejects_bad_trials(capsys):
    rc, captured = _cli(["cordic", "--trials", "0"], capsys)
    assert rc == 2
    assert "trials" in captured.err


def test_cli_resume_needs_journal(capsys):
    rc, captured = _cli(["cordic", "--resume"], capsys)
    assert rc == 2
    assert "--journal" in captured.err


# ----------------------------------------------------------------------
# the lockstep vector engine: batched campaigns are byte-identical


#: rollback campaigns whose re-runs the batched engine takes from one
#: fault-free tail run instead of replaying the trial
ROLLBACK_TAIL_CONFIGS = [
    pytest.param(dict(app="matmul", design={"block": 2, "matn": 6},
                      trials=12, seed=17, max_cycles=120_000,
                      deadlock_window=512, recovery="rollback"),
                 id="matmul-rollback"),
    # no re-run at all: each lane keeps its own faulted record
    pytest.param(dict(app="cordic", design={"p": 2, "iters": 8, "ndata": 8},
                      trials=16, seed=20, max_cycles=60_000,
                      deadlock_window=512, recovery="rollback",
                      max_retries=0, backoff_s=0.25),
                 id="cordic-rollback-no-retries"),
    # a budget below the fault-free run: the tail hangs, so every
    # trial fails all three re-runs, and a crash or an sdc reports the
    # tail's detail
    pytest.param(dict(app="cordic", design={"p": 2, "iters": 8, "ndata": 8},
                      trials=16, seed=23, max_cycles=1_200,
                      deadlock_window=512, recovery="rollback",
                      max_retries=3, backoff_s=0.5,
                      kinds=("reg_flip", "mem_flip")),
                 id="cordic-rollback-short-budget"),
]

#: divergence axes of the batched engine: fault mix, app, recovery,
#: and plans scheduled at/after the cycle budget (early-exit shapes)
BATCH_EQUIV_CONFIGS = [
    pytest.param(dict(app="cordic", design={"p": 2, "iters": 8, "ndata": 8},
                      trials=16, seed=11, max_cycles=60_000,
                      deadlock_window=512), id="cordic-all"),
    pytest.param(dict(app="cordic", design={"p": 2, "iters": 8, "ndata": 8},
                      trials=16, seed=12, max_cycles=60_000,
                      deadlock_window=512, kinds=("stuck_at",)),
                 id="cordic-stuck-at"),
    pytest.param(dict(app="matmul", design={"block": 2, "matn": 6},
                      trials=12, seed=14, max_cycles=120_000,
                      deadlock_window=512), id="matmul-all"),
    pytest.param(dict(app="cordic", design={"p": 2, "iters": 8, "ndata": 8},
                      trials=10, seed=15, max_cycles=60_000,
                      deadlock_window=512, recovery="rollback"),
                 id="cordic-rollback"),
    pytest.param(dict(app="cordic", design={"p": 2, "iters": 8, "ndata": 8},
                      trials=10, seed=16, max_cycles=4_000,
                      deadlock_window=512), id="cordic-near-end"),
    # three faults per trial: stuck_at windows that are not the plan's
    # first fault must hold their full duration on both engines
    pytest.param(dict(app="cordic", design={"p": 2, "iters": 8, "ndata": 8},
                      trials=8, seed=30, max_cycles=60_000,
                      deadlock_window=512, faults_per_trial=3),
                 id="cordic-multi-fault"),
    pytest.param(dict(app="cordic", design={"p": 2, "iters": 8, "ndata": 8},
                      trials=8, seed=31, max_cycles=60_000,
                      deadlock_window=512, faults_per_trial=3,
                      kinds=("stuck_at", "reg_flip", "fifo_drop"),
                      recovery="rollback"),
                 id="cordic-multi-fault-rollback"),
    # bit flips alone, three per trial: flips into the program text
    # land on words whose decodes and translations the lanes share,
    # before and after those words first run
    pytest.param(dict(app="cordic", design={"p": 2, "iters": 8, "ndata": 8},
                      trials=12, seed=41, max_cycles=60_000,
                      deadlock_window=512, faults_per_trial=3,
                      kinds=("mem_flip",)),
                 id="cordic-mem-flip"),
    *ROLLBACK_TAIL_CONFIGS,
]


def _spy_replays(monkeypatch) -> list[str]:
    """Record the plan seed of every scalar ``run_trial`` from here on."""
    from repro.faults import campaign

    calls: list[str] = []
    real = campaign.run_trial

    def spy(app, design, plan, **kw):
        calls.append(plan["seed"])
        return real(app, design, plan, **kw)

    monkeypatch.setattr(campaign, "run_trial", spy)
    return calls


def _text_flips(kw: dict, report: dict) -> int:
    """Applied ``mem_flip`` faults of ``report`` whose word lies in the
    program text of the campaign's design."""
    from repro.iss.run import make_cpu

    design = build_design(kw["app"], dict(kw["design"]))
    words = make_cpu(design.program).mem.bram.size // 4
    return sum(
        1 for trial in report["trials"] for entry in trial["injected"]
        if entry["applied"] and entry["fault"].startswith("mem_flip ")
        and int(entry["fault"].split()[2]) % words * 4
        < design.program.text_size)


@pytest.mark.parametrize("kw", BATCH_EQUIV_CONFIGS)
def test_batched_campaign_matches_scalar(kw):
    config = CampaignConfig(**kw)
    scalar = run_campaign(config).to_dict()
    batched = run_campaign(config, batch_width=8).to_dict()
    assert json.dumps(batched, sort_keys=True) == \
        json.dumps(scalar, sort_keys=True)
    if kw.get("kinds") == ("mem_flip",):
        # the case exists for the lanes' shared code: it must flip it
        assert _text_flips(kw, scalar) >= 1


@pytest.mark.parametrize("kw", ROLLBACK_TAIL_CONFIGS)
def test_batched_rollback_matches_scalar_without_ckernel(monkeypatch, kw):
    # every lane is classified in lockstep: nothing is replayed
    from repro.sysgen import ckernel

    monkeypatch.setenv(ckernel.DISABLE_ENV, "1")
    config = CampaignConfig(**kw)
    scalar = run_campaign(config).to_dict()
    replays = _spy_replays(monkeypatch)
    batched = run_campaign(config, batch_width=8).to_dict()
    assert json.dumps(batched, sort_keys=True) == \
        json.dumps(scalar, sort_keys=True)
    assert replays == []


def test_batched_campaign_matches_scalar_without_ckernel(monkeypatch):
    # the numpy fallback of the vector step must be just as exact as
    # the compiled per-lane C kernel
    from repro.sysgen import ckernel

    monkeypatch.setenv(ckernel.DISABLE_ENV, "1")
    config = CampaignConfig(
        app="cordic", design={"p": 2, "iters": 8, "ndata": 8},
        trials=12, seed=11, max_cycles=60_000, deadlock_window=512,
    )
    scalar = run_campaign(config).to_dict()
    batched = run_campaign(config, batch_width=8).to_dict()
    assert json.dumps(batched, sort_keys=True) == \
        json.dumps(scalar, sort_keys=True)


def test_batched_campaign_width_does_not_change_report():
    config = CampaignConfig(
        app="cordic", design=dict(DESIGN), trials=9, seed=3,
        deadlock_window=2_048, max_cycles=MAX_CYCLES,
    )
    ref = json.dumps(run_campaign(config).to_dict(), sort_keys=True)
    for width in (1, 4, 32):
        got = json.dumps(
            run_campaign(config, batch_width=width).to_dict(),
            sort_keys=True)
        assert got == ref, f"width {width} changed the report"


def test_crash_records_agree_across_every_campaign_path():
    """A 2-cycle watchdog trips during most trials' fault-free prefix,
    so their evaluation raises: every path must build the same crash
    records (and the in-lane hang record) as the sequential runner."""
    from repro.farm.jobs import execute

    config = CampaignConfig(
        app="cordic", design=dict(p=2, iters=8, ndata=6), trials=6, seed=3,
        deadlock_window=2,
    )
    ref = run_campaign(config, workers=0).to_dict()
    assert ref["counts"]["crash"] == 5 and ref["counts"]["hang"] == 1
    for kw in (dict(workers=2), dict(batch_width=4)):
        got = run_campaign(config, **kw).to_dict()
        assert json.dumps(got, sort_keys=True) == \
            json.dumps(ref, sort_keys=True), kw
    shard = execute("campaign", {"config": config.to_dict()},
                    units=list(range(6)))
    assert shard["baseline_cycles"] == ref["baseline_cycles"]
    assert json.dumps([r["trial"] for r in shard["records"]],
                      sort_keys=True) == \
        json.dumps(ref["trials"], sort_keys=True)


#: the benchmark's campaign shape: CORDIC P=8, four samples, rollback,
#: every default fault kind, a budget several times the fault-free run
SEU_SHAPE = dict(app="cordic", design={"p": 8, "ndata": 4},
                 recovery="rollback", max_cycles=8_192)


@pytest.mark.parametrize("ckernel", [True, False], ids=["ckernel", "numpy"])
def test_batched_campaign_matches_scalar_at_benchmark_shape(monkeypatch,
                                                            ckernel):
    from repro.sysgen import ckernel as ck

    if not ckernel:
        monkeypatch.setenv(ck.DISABLE_ENV, "1")
    config = CampaignConfig(trials=32, seed=5, **SEU_SHAPE)
    scalar = run_campaign(config).to_dict()
    batched = run_campaign(config, batch_width=32).to_dict()
    assert json.dumps(batched, sort_keys=True) == \
        json.dumps(scalar, sort_keys=True)


#: CPU.tick calls of the SEU_SHAPE campaign below (32 trials, seed 5)
#: with a per-cycle lane loop, which ticked every lane's CPU on each
#: cycle it was not blocked on an FSL access behind idle hardware
PER_CYCLE_LANE_TICKS = 26_688


def test_lane_bursts_cut_cpu_ticks_at_benchmark_shape(monkeypatch):
    # Lane CPUs run alone between couplings (translated blocks, bulk
    # latency), so the campaign makes under a third of the per-cycle
    # loop's ticks and still reports what the scalar runs report.
    from repro.iss.cpu import CPU

    config = CampaignConfig(trials=32, seed=5, **SEU_SHAPE)
    scalar = run_campaign(config).to_dict()
    ticks = [0]
    tick = CPU.tick

    def counted(self):
        ticks[0] += 1
        return tick(self)

    monkeypatch.setattr(CPU, "tick", counted)
    batched = run_campaign(config, batch_width=32).to_dict()
    assert json.dumps(batched, sort_keys=True) == \
        json.dumps(scalar, sort_keys=True)
    assert 3 * ticks[0] <= PER_CYCLE_LANE_TICKS, ticks[0]


#: benchmark-shape campaign seeds: in 2042780741 and 1038164037 a
#: lane's corrupted instruction raises in ``CPU.advance_horizon`` while
#: its hardware idles; seed 3's batches end on a few long-running lanes
SEU_SEEDS = (2042780741, 1038164037, 3)
#: the scalar reports of SEU_SEEDS, shared by both kernels' runs
_SEU_SCALAR: dict[int, str] = {}


@pytest.mark.parametrize("ckernel", [True, False], ids=["ckernel", "numpy"])
def test_benchmark_shape_replays_no_classified_lane(monkeypatch, ckernel):
    # A rollback lane, or a lane whose CPU raised, is classified in
    # lockstep and takes its re-runs from the tail: none is replayed.
    from repro.cosim.batch import BatchedCoSimulation
    from repro.sysgen import ckernel as ck

    if not ckernel:
        monkeypatch.setenv(ck.DISABLE_ENV, "1")
    raised: list[str] = []
    cpu_raised = BatchedCoSimulation._cpu_raised

    def recording_raise(self, lane, exc):
        raised.append(type(exc).__name__)
        return cpu_raised(self, lane, exc)

    monkeypatch.setattr(BatchedCoSimulation, "_cpu_raised", recording_raise)
    for seed in SEU_SEEDS:
        config = CampaignConfig(trials=64, seed=seed, **SEU_SHAPE)
        if seed not in _SEU_SCALAR:
            _SEU_SCALAR[seed] = json.dumps(run_campaign(config).to_dict(),
                                           sort_keys=True)
        raised.clear()
        replays = _spy_replays(monkeypatch)
        batched = run_campaign(config, batch_width=32).to_dict()
        assert json.dumps(batched, sort_keys=True) == _SEU_SCALAR[seed]
        assert replays == []
        if seed != 3:
            assert "FSLConfigError" in raised


def test_batched_campaign_lanes_advance_together(monkeypatch):
    # The lanes catch their hardware up together each round, in
    # doubling chunks and fast-forwarding idle stretches, so a batch
    # takes no more vector steps than its longest lane runs cycles even
    # though every lane runs to its own stops.
    from repro.cosim.batch import BatchedCoSimulation
    from repro.sysgen.batched import BatchedModel

    steps: dict[int, int] = {}
    batches: list[BatchedCoSimulation] = []
    step, init = BatchedModel.step, BatchedCoSimulation.__init__

    def counting_step(self, cycles=1):
        steps[id(self)] = steps.get(id(self), 0) + 1
        return step(self, cycles)

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        batches.append(self)

    monkeypatch.setattr(BatchedModel, "step", counting_step)
    monkeypatch.setattr(BatchedCoSimulation, "__init__", recording_init)
    run_campaign(CampaignConfig(trials=64, seed=1, **SEU_SHAPE),
                 batch_width=32)
    assert len(batches) == 2
    for batch in batches:
        longest = max(sim.cpu.cycle for sim in batch.sims)
        assert steps[id(batch.batched)] <= longest + 64


@pytest.fixture
def no_references(monkeypatch):
    """An empty reference map and an empty map of shared code caches
    (``SharedCode``) for the test (the process's own come back after
    it)."""
    from repro.faults import campaign
    from repro.iss import cpu

    monkeypatch.setattr(campaign, "_references", {})
    monkeypatch.setattr(cpu, "_shared_code", {})
    return campaign._references


def test_batched_campaign_builds_its_hardware_once(monkeypatch,
                                                   no_references):
    # The lanes of a batched campaign share the reference's template:
    # a process builds a design's hardware once for the template and
    # once for the fault-free tail run of rollback, then once per
    # scalar replay — never per lane, batch or campaign — and no lane's
    # structure is walked to prove it matches the template.
    from repro.sysgen import batched

    builds, walks = [], []
    fresh_hardware = CordicDesign.fresh_hardware

    def counted(self):
        builds.append(1)
        return fresh_hardware(self)

    monkeypatch.setattr(CordicDesign, "fresh_hardware", counted)
    monkeypatch.setattr(batched, "lockstep_signature", walks.append)
    replays = _spy_replays(monkeypatch)
    width = 8

    def campaign_builds(seed: int) -> int:
        builds.clear()
        replays.clear()
        run_campaign(CampaignConfig(
            app="cordic", design={"p": 2, "iters": 8, "ndata": 8},
            trials=2 * width, seed=seed, max_cycles=60_000,
            deadlock_window=512, recovery="rollback"), batch_width=width)
        return len(builds) - len(replays)

    assert campaign_builds(15) == 2  # the template and the tail
    assert campaign_builds(16) == 0  # its replays alone
    assert walks == []


# ----------------------------------------------------------------------
# the fault-free reference: built once per process and design


def _spy_reference_work(monkeypatch) -> dict[str, int]:
    """Count, from here on, CORDIC program builds, fault-free baseline
    runs and the simulations a campaign builds for its reference, its
    tail run and its scalar trials."""
    from repro.apps.cordic import design as cordic_design
    from repro.faults import campaign

    counts = {"builds": 0, "baselines": 0, "sims": 0}

    def counting(name, real):
        def spy(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return spy

    monkeypatch.setattr(cordic_design, "build_executable",
                        counting("builds", cordic_design.build_executable))
    monkeypatch.setattr(CordicDesign, "run",
                        counting("baselines", CordicDesign.run))
    monkeypatch.setattr(campaign, "_make_sim",
                        counting("sims", campaign._make_sim))
    return counts


def _report(config, width) -> str:
    return json.dumps(run_campaign(config, batch_width=width).to_dict(),
                      sort_keys=True)


@pytest.mark.parametrize("path", ["scalar", "ckernel", "numpy"])
def test_a_second_campaign_reuses_the_reference(monkeypatch, no_references,
                                                path):
    # A new fault seed on the same design compiles no program and runs
    # no baseline and no tail: its scalar trials build one simulation
    # each, its lanes none.  Its report is byte for byte the one a
    # process with no reference gives.
    from repro.iss import cpu
    from repro.sysgen import ckernel

    if path == "numpy":
        monkeypatch.setenv(ckernel.DISABLE_ENV, "1")
    width = None if path == "scalar" else 32
    first = CampaignConfig(trials=32, seed=5, **SEU_SHAPE)
    second = CampaignConfig(trials=32, seed=6, **SEU_SHAPE)
    _report(first, width)
    counts = _spy_reference_work(monkeypatch)
    replays = _spy_replays(monkeypatch)
    warm = _report(second, width)
    trials = len(replays) if width else second.trials
    assert counts == {"builds": 0, "baselines": 0, "sims": trials}
    assert len(no_references) == 1
    no_references.clear()
    cpu._shared_code.clear()
    assert _report(second, width) == warm


def test_each_engine_window_and_budget_gets_its_own_reference(
        monkeypatch, no_references):
    from repro.runapi.engine import engine_scope

    counts = _spy_reference_work(monkeypatch)
    base = dict(app="cordic", design=dict(DESIGN), trials=1, seed=3,
                deadlock_window=2_048, max_cycles=MAX_CYCLES)
    variants = [{}, {"engine": "interpreter"}, {"deadlock_window": 1_024},
                {"max_cycles": MAX_CYCLES // 2}]
    for k, change in enumerate(variants, start=1):
        run_campaign(CampaignConfig(**{**base, **change}))
        assert counts["baselines"] == len(no_references) == k
    # "auto" resolves to the compiled engine, also inside an ambient
    # scope (the campaign's own engine request is innermost), and an
    # explicit "compiled" is the same engine: no new reference
    run_campaign(CampaignConfig(**base, engine="compiled"))
    with engine_scope("interpreter"):
        run_campaign(CampaignConfig(**base))
    assert counts["baselines"] == len(no_references) == len(variants)


def test_a_failing_baseline_raises_every_time_and_is_not_stored(
        monkeypatch, no_references):
    from repro.apps.common import VerificationError

    calls = []

    def failing(self):
        calls.append(1)
        raise VerificationError("baseline failed")

    config = CampaignConfig(app="cordic", design=dict(DESIGN), trials=2,
                            max_cycles=MAX_CYCLES)
    with monkeypatch.context() as patch:
        patch.setattr(CordicDesign, "run", failing)
        for width in (None, None, 4):
            with pytest.raises(VerificationError, match="baseline failed"):
                run_campaign(config, batch_width=width)
    assert len(calls) == 3
    assert no_references == {}
    assert run_campaign(config).baseline_cycles > 0
    assert len(no_references) == 1


def test_the_reference_map_is_bounded(monkeypatch, no_references):
    from repro.faults import campaign

    monkeypatch.setattr(campaign, "REFERENCE_CACHE_LIMIT", 2)
    counts = _spy_reference_work(monkeypatch)

    def run(max_cycles):
        run_campaign(CampaignConfig(app="cordic", design=dict(DESIGN),
                                    trials=1, max_cycles=max_cycles))
        return counts["baselines"]

    budgets = (MAX_CYCLES, MAX_CYCLES + 1, MAX_CYCLES + 2)
    assert [run(b) for b in budgets] == [1, 2, 3]
    assert [key[-1] for key in no_references] == list(budgets[1:])
    assert run(budgets[2]) == 3  # still held
    assert run(budgets[0]) == 4  # evicted, so rebuilt
    assert len(no_references) == 2


def test_the_reference_map_holds_its_bound_under_threads(monkeypatch,
                                                        no_references):
    # Many threads look up and insert references of more designs than
    # the map holds: an eviction race would raise or overfill it.
    import sys
    import threading

    from repro.faults import campaign

    class Stub:
        def __init__(self, app, design_params, engine, deadlock_window,
                     max_cycles):
            self.max_cycles = max_cycles

    monkeypatch.setattr(campaign, "_Reference", Stub)
    monkeypatch.setattr(campaign, "REFERENCE_CACHE_LIMIT", 3)
    errors = []

    def worker(k):
        try:
            for i in range(5_000):
                budget = (k * 7 + i) % 11
                ref = campaign._reference("cordic", DESIGN, "auto", 2_048,
                                          budget)
                assert ref.max_cycles == budget
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert 1 <= len(no_references) <= 3
    assert all(ref.max_cycles == key[-1]
               for key, ref in no_references.items())


def test_a_campaign_leaves_the_template_unchanged(no_references):
    from repro.faults import campaign

    config = CampaignConfig(trials=32, seed=5, **SEU_SHAPE)
    model, hub = campaign._campaign_reference(config).template
    before = (model.state_dict(), hub.state_dict())
    run_campaign(config, batch_width=32)
    assert campaign._campaign_reference(config).template == (model, hub)
    assert (model.state_dict(), hub.state_dict()) == before
    fresh_model, fresh_hub = CordicDesign(**SEU_SHAPE["design"]) \
        .fresh_hardware()
    assert before == (fresh_model.state_dict(), fresh_hub.state_dict())


def test_lane_halting_in_a_stuck_window_leaves_the_hang_quiet(monkeypatch):
    # Lane 0 halts inside an open stuck_at window; lane 1 lost a result
    # word and blocks on its get until the watchdog.  The halted lane's
    # forcing must not keep the idle hang stepping cycle by cycle.
    from repro.faults import campaign
    from repro.sysgen.batched import BatchedModel

    plans = [
        [FaultSpec(kind="stuck_at", cycle=800, target="in_c0:q", value=5,
                   duration=200)],
        [FaultSpec(kind="fifo_drop", cycle=251, target="mb_in0")],
    ]

    def planned(seed, **_):
        return FaultPlan(faults=plans[int(seed.split("/")[1])], seed=seed)

    skipped: list[int] = []
    fast_forward = BatchedModel.fast_forward

    def spy(self, cycles):
        skipped.append(cycles)
        return fast_forward(self, cycles)

    monkeypatch.setattr(campaign, "generate_plan", planned)
    monkeypatch.setattr(BatchedModel, "fast_forward", spy)
    config = CampaignConfig(app="cordic",
                            design={"p": 2, "iters": 8, "ndata": 4},
                            trials=2, deadlock_window=1_024,
                            max_cycles=20_000)
    batched = run_campaign(config, batch_width=2).to_dict()
    assert [t["outcome"] for t in batched["trials"]] == ["masked", "hang"]
    assert max(skipped) >= 512
    assert json.dumps(batched, sort_keys=True) == \
        json.dumps(run_campaign(config).to_dict(), sort_keys=True)


def test_batched_campaign_rejects_journal():
    config = CampaignConfig(app="cordic", design=dict(DESIGN), trials=2)
    with pytest.raises(ValueError, match="journal"):
        run_campaign(config, batch_width=4, journal="x.jsonl")


def test_cli_batch_matches_scalar_report(tmp_path, capsys):
    args = ["cordic", "--p", "2", "--ndata", "8", "--trials", "6",
            "--seed", "3", "--max-cycles", str(MAX_CYCLES), "--quiet"]
    scalar_out = tmp_path / "scalar.json"
    batched_out = tmp_path / "batched.json"
    rc, _ = _cli(args + ["--json", str(scalar_out)], capsys)
    assert rc == 0
    rc, _ = _cli(args + ["--batch", "4", "--json", str(batched_out)],
                 capsys)
    assert rc == 0
    assert json.loads(batched_out.read_text()) == \
        json.loads(scalar_out.read_text())


def test_cli_batch_conflicts_with_scalar_options(capsys):
    rc, captured = _cli(
        ["cordic", "--trials", "2", "--batch", "--jobs", "2"], capsys)
    assert rc == 2
    assert "--batch is incompatible" in captured.err


# ----------------------------------------------------------------------
# K-CPU campaigns: mesh + pipelined CORDIC, link_drop / node_stall


#: a 2x2 mesh design point every multi-CPU test shares
MESH = {"rows": 2, "cols": 2, "tokens": 8}


def _mesh_campaign(trials=12, seed=3, **kw):
    config = CampaignConfig(
        app="mesh", design=dict(MESH), trials=trials, seed=seed,
        deadlock_window=2_048, max_cycles=120_000, **kw,
    )
    return run_campaign(config)


def test_multi_kinds_enter_the_pool_only_for_multi_apps():
    from repro.faults.plan import FAULT_KINDS, MULTI_FAULT_KINDS

    single = CampaignConfig(app="cordic", design=dict(DESIGN), trials=1)
    assert single.kinds == FAULT_KINDS
    multi = CampaignConfig(app="mesh", design=dict(MESH), trials=1)
    assert multi.kinds == MULTI_FAULT_KINDS


def test_single_cpu_plans_unchanged_by_cpus_parameter():
    """Adding the ``cpus`` axis must not disturb the draw sequence of
    existing single-CPU campaign seeds (their reports are blessed)."""
    kw = dict(max_cycle=3_000, mem_words=512,
              channels=("fsl0",), ports=("pe0:out",), n_faults=5)
    assert generate_plan("camp/0", **kw).to_dict() == \
        generate_plan("camp/0", cpus=(), **kw).to_dict()


def test_mesh_campaign_deterministic_classifications():
    """link_drop / node_stall trials classify deterministically into
    the campaign's outcome lattice."""
    report = _mesh_campaign(kinds=("link_drop", "node_stall"))
    outcomes = {t["outcome"] for t in report.trials}
    assert outcomes <= {"masked", "sdc", "detected", "hang"}
    again = _mesh_campaign(kinds=("link_drop", "node_stall"))
    assert json.dumps(report.to_dict(), sort_keys=True) == \
        json.dumps(again.to_dict(), sort_keys=True)
    # every trial targeted a named link or a named node
    for t in report.trials:
        fault = t["plan"]["faults"][0]
        if fault["kind"] == "link_drop":
            assert fault["target"].startswith("link_")
        else:
            assert fault["target"].startswith("cpu")


def test_node_stall_is_latency_tolerant_on_the_mesh():
    """Gating one CPU's clock reorders nothing: the blocking FSL
    handshake absorbs the stall, so the run verifies clean (masked) and
    merely finishes later."""
    from repro.faults import MultiFaultInjector

    design = build_design("mesh", dict(MESH))
    fault_free = design.run()
    sim = _make_sim(design, 2_048)
    plan = FaultPlan(faults=[FaultSpec(kind="node_stall", cycle=20,
                                       target="cpu1", duration=64)],
                     seed="t")
    injector = MultiFaultInjector(sim, plan)
    injector.run(until_cycle=120_000)
    assert injector.log[0]["applied"]
    assert sim.exit_code == 0
    design._verify(sim)  # no corruption anywhere
    assert sim.cycle > fault_free.cycles  # but the stall cost cycles


def test_link_drop_on_a_busy_link_starves_the_sink():
    """Dropping an in-flight word desynchronizes the stream: the sink
    blocks on a token that never arrives and the watchdog reports the
    hang."""
    from repro.cosim.environment import CoSimDeadlock
    from repro.faults import MultiFaultInjector

    design = build_design("mesh", dict(MESH))
    # find a cycle where the first route hop actually has words queued
    probe = _make_sim(design, 2_048)
    target = None
    while not probe.halted and probe.cycle < 2_000:
        probe.step(1)
        for channel in probe.all_channels():
            if channel.name.startswith("link_") and channel.occupancy:
                target = (channel.name, probe.cycle)
                break
        if target:
            break
    assert target, "no link traffic observed in the fault-free run"
    name, cycle = target
    sim = _make_sim(design, 2_048)
    plan = FaultPlan(faults=[FaultSpec(kind="link_drop", cycle=cycle,
                                       target=name, duration=1)],
                     seed="t")
    injector = MultiFaultInjector(sim, plan)
    with pytest.raises(CoSimDeadlock):
        injector.run(until_cycle=120_000)
    assert injector.log[0]["applied"]
    assert "dropped 1 word(s)" in injector.log[0]["note"]


def test_multi_stuck_at_after_another_fault_holds_its_whole_window():
    """The K-CPU face of the late-window regression: a 2x2 mesh whose
    first node streams through node-local hardware."""
    from repro.conformance.multicpu import (
        MultiNodeSpec,
        MultiScenario,
        build_multi_sim,
    )
    from repro.conformance.scenario import StageSpec
    from repro.faults import MultiFaultInjector

    scenario = MultiScenario(
        name="mesh-hw", seed="mesh-hw", topology_kind="mesh", n_cpus=4,
        rows=2, cols=2, tokens=8,
        nodes=(MultiNodeSpec(hw_stage=StageSpec("reg"), hw_rounds=64),)
        + (MultiNodeSpec(),) * 3,
    )
    sim, _trace = build_multi_sim(scenario, fast_forward=True)
    seen = _record_port(sim.nodes[0].model, "hw_s0_reg", "q")
    injector = MultiFaultInjector(
        sim, _late_window_plan("hw_s0_reg:q", node="cpu3"))
    injector.run(until_cycle=120_000)
    assert [(e["cycle"], e["applied"]) for e in injector.log] == \
        [(500, True), (910, True)]
    assert [seen.get(c) for c in range(900, 910)] == [FORCED] * 10
    assert sim.exit_code is not None


#: the multi-CPU face of BATCH_EQUIV_CONFIGS: --batch must replay
#: K-CPU trials to a byte-identical report
MULTI_BATCH_CONFIGS = [
    pytest.param(dict(app="mesh", design=dict(MESH), trials=10, seed=3,
                      max_cycles=120_000, deadlock_window=2_048),
                 id="mesh-all"),
    pytest.param(dict(app="cordic-pipe",
                      design={"stages": 2, "iters": 8, "ndata": 8},
                      trials=8, seed=7, max_cycles=200_000,
                      deadlock_window=2_048), id="cordic-pipe-all"),
    pytest.param(dict(app="mesh", design=dict(MESH), trials=8, seed=5,
                      max_cycles=120_000, deadlock_window=2_048,
                      faults_per_trial=3),
                 id="mesh-multi-fault"),
]


@pytest.mark.parametrize("kw", MULTI_BATCH_CONFIGS)
def test_multi_batched_campaign_matches_scalar(kw):
    config = CampaignConfig(**kw)
    scalar = run_campaign(config).to_dict()
    batched = run_campaign(config, batch_width=4).to_dict()
    assert json.dumps(batched, sort_keys=True) == \
        json.dumps(scalar, sort_keys=True)


def test_cli_mesh_smoke_writes_report(tmp_path, capsys):
    out = tmp_path / "mesh.json"
    rc, captured = _cli(
        ["mesh", "--rows", "2", "--cols", "2", "--tokens", "8",
         "--trials", "4", "--seed", "3", "--quiet",
         "--json", str(out)], capsys)
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["app"] == "mesh"
    assert sum(doc["counts"].values()) == 4
    assert "link_drop" in doc["config"]["kinds"]
    assert "node_stall" in doc["config"]["kinds"]


# ----------------------------------------------------------------------
# every fault kind perturbs a run, on every engine


@pytest.mark.parametrize("path", ["scalar", "ckernel", "numpy"])
@pytest.mark.parametrize("kind", [
    pytest.param(kind, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1: stuck_at never reaches "
        "the hardware")) if kind == "stuck_at" else kind
    for kind in FAULT_KINDS])
def test_fault_kind_efficacy(monkeypatch, kind, path):
    # A kind whose faults are all masked tests nothing: eight seeded
    # CORDIC trials of one kind must change at least one outcome, on
    # the scalar engine and in lockstep (the fifo_* kinds drive the
    # channel ring through the vector endpoints there).
    from repro.sysgen import ckernel as ck

    if path == "numpy":
        monkeypatch.setenv(ck.DISABLE_ENV, "1")
    config = CampaignConfig(app="cordic", design={"p": 2, "ndata": 4},
                            trials=8, seed=1, max_cycles=20_000,
                            kinds=(kind,))
    report = run_campaign(
        config, batch_width=None if path == "scalar" else 8).to_dict()
    assert {t["outcome"] for t in report["trials"]} != {"masked"}


# ----------------------------------------------------------------------
# a duplicated word past the FIFO depth


def _overdepth_run(dups: int, lockstep: bool):
    """The ``drop`` endpoint design (``fsl_in0`` holds ``write`` high
    into ``mb_in0``, which the program never drains, so it stays full)
    with ``dups`` ``fifo_dup`` faults on it from cycle 200, run to
    the end on the scalar engine or as lane 0 of a lockstep batch."""
    from repro.cosim.batch import BatchedCoSimulation
    from repro.faults.campaign import _lane_stop
    from tests.test_batched_cosim import _endpoint_factory

    make = _endpoint_factory("drop", 4)
    plan = FaultPlan([FaultSpec("fifo_dup", 200 + k, "mb_in0", index=k)
                      for k in range(dups)], seed="overdepth")
    if not lockstep:
        sim = make()
        injector = FaultInjector(sim, plan)
        injector.run(MAX_CYCLES)
        return sim, injector
    batch = BatchedCoSimulation(sims=[make(), make()])
    assert batch.fallback_blocks == []
    injector = FaultInjector(batch.sims[0], plan)
    while (stop := _lane_stop(batch, 0, injector, MAX_CYCLES)) is not None:
        batch.advance({0: stop})
    return batch.lane(0), injector


def _overdepth_record(sim, injector) -> dict:
    from repro.faults.detect import check_invariants

    return {"log": injector.log, "anomalies": check_invariants(sim),
            "exit": sim.cpu.exit_code, "cycles": sim.cpu.cycle,
            "channels": [c.state_dict() for c in sim.mb_block.channels()],
            "dropped": sim.model.block("fsl_in0").dropped}


@pytest.mark.parametrize("ckernel", [True, False], ids=["ckernel", "numpy"])
def test_fifo_dup_on_a_full_fifo_overflows_it(monkeypatch, ckernel):
    from repro.cosim.checkpoint import checkpoint_to_dict, restore_from_dict
    from repro.sysgen import ckernel as ck
    from tests.test_batched_cosim import _endpoint_factory

    if not ckernel:
        monkeypatch.setenv(ck.DISABLE_ENV, "1")
    sim, injector = _overdepth_run(1, lockstep=False)
    record = _overdepth_record(sim, injector)
    assert record["log"][0]["applied"]
    assert sim.mb_block.from_hw_channel(0).occupancy == 4 + 1
    assert "fifo-overflow: mb_in0 holds 5 words (depth 4)" in \
        record["anomalies"]
    assert _overdepth_record(*_overdepth_run(1, lockstep=True)) == record
    # the over-depth word survives a checkpoint round trip
    doc = json.loads(json.dumps(checkpoint_to_dict(sim)))
    fresh = _endpoint_factory("drop", 4)()
    restore_from_dict(fresh, doc)
    assert [c.state_dict() for c in fresh.mb_block.channels()] == \
        record["channels"]
    assert fresh.mb_block.from_hw_channel(0).occupancy == 5


def test_fifo_dup_without_a_free_slot_is_not_applied():
    # The ring holds twice the depth: four duplicates fill a full
    # depth-4 FIFO's spare slots, and the fifth is logged, not applied
    # — the same on the scalar engine and in lockstep.
    sim, injector = _overdepth_run(5, lockstep=False)
    record = _overdepth_record(sim, injector)
    assert [e["applied"] for e in record["log"]] == [True] * 4 + [False]
    assert record["log"][-1]["note"] == "no free FIFO slot for the duplicate"
    assert sim.mb_block.from_hw_channel(0).occupancy == 8
    assert _overdepth_record(*_overdepth_run(5, lockstep=True)) == record
    channel = FSLChannel(depth=1)
    channel.push(7)
    assert channel.duplicate(0) and not channel.duplicate(0)
    assert channel.state_dict()["fifo"] == [[7, 0], [7, 0]]


def _overfill(channel: FSLChannel) -> None:
    """Fill ``channel`` and queue one duplicated word past its depth."""
    while channel.push(1):
        pass
    assert channel.duplicate(0)


def test_invariant_diagnostics_keep_their_text():
    # Campaign reports quote these strings, so their words and order
    # are pinned: every processor's FSL error, then every over-depth
    # FIFO, then every nonzero exit — one CPU or K.
    from repro.faults.detect import check_invariants

    _design, sim = _fresh_sim()
    assert check_invariants(sim) == []
    sim.cpu.fsl.error = True
    _overfill(sim.mb_block.from_hw_channel(0))
    sim.cpu.halted, sim.cpu.exit_code = True, 3
    depth = sim.mb_block.from_hw_channel(0).depth
    assert check_invariants(sim) == [
        "fsl-error: control-bit mismatch flagged by the FSL interface",
        f"fifo-overflow: mb_in0 holds {depth + 1} words (depth {depth})",
        "exit-code: program exited with 3",
    ]

    mesh = _make_sim(build_design("mesh", dict(MESH)), 2_048)
    assert check_invariants(mesh) == []
    for node in (mesh.nodes[3], mesh.nodes[0]):
        node.cpu.fsl.error = True
        node.cpu.halted, node.cpu.exit_code = True, 5
    _overfill(mesh.all_channels()[1])
    assert check_invariants(mesh) == [
        "fsl-error: control-bit mismatch flagged by cpu0's FSL interface",
        "fsl-error: control-bit mismatch flagged by cpu3's FSL interface",
        "fifo-overflow: link_1o1_0i0 holds 9 words (depth 8)",
        "exit-code: cpu0 exited with 5",
        "exit-code: cpu3 exited with 5",
    ]
