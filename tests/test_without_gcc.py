"""A host without ``gcc`` runs ``--batch`` work on the scalar path.

The lockstep step runs only as the gcc-built C kernel.  With ``gcc``
off ``PATH`` a lockstep batch refuses to build
(:class:`~repro.sysgen.batched.BatchUnsupported`), so a campaign's
trials and a batched sweep's points run on the scalar engine, and each
report is byte for byte the scalar one (wall-clock fields aside, which
no two sweeps share).
"""

from __future__ import annotations

import importlib
import json
import shutil
import sys

import pytest

pytest.importorskip("numpy")

from repro.cosim.sweep import sweep
from repro.faults import CampaignConfig, campaign, run_campaign
from repro.sysgen import ckernel
from repro.sysgen.batched import BatchedModel, BatchUnsupported
from tests import test_sweep

# the package exports the function under the module's name
sweep_batched_module = importlib.import_module("repro.cosim.sweep_batched")


@pytest.fixture
def refusals(monkeypatch, tmp_path) -> list[str]:
    """``PATH`` holds only ``python`` and no kernel is cached; returns
    the message of every batch that refused to build."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "python").symlink_to(sys.executable)
    monkeypatch.setenv("PATH", str(bin_dir))
    monkeypatch.setattr(ckernel, "_LIB_CACHE", {})
    assert shutil.which("gcc") is None
    seen: list[str] = []
    init = BatchedModel.__init__

    def recording_init(self, *args, **kwargs):
        try:
            init(self, *args, **kwargs)
        except BatchUnsupported as exc:
            seen.append(str(exc))
            raise

    monkeypatch.setattr(BatchedModel, "__init__", recording_init)
    return seen


def test_a_batch_campaign_runs_every_trial_on_the_scalar_path(
        monkeypatch, refusals):
    config = CampaignConfig(
        app="cordic", design={"p": 2, "iters": 8, "ndata": 8},
        trials=12, seed=11, max_cycles=60_000, deadlock_window=512,
    )
    scalar = json.dumps(run_campaign(config).to_dict(), sort_keys=True)
    trials = []
    scalar_trial = campaign._scalar_trial

    def recording_trial(spec):
        trials.append(spec.params["plan"]["seed"])
        return scalar_trial(spec)

    monkeypatch.setattr(campaign, "_scalar_trial", recording_trial)
    builds = []
    compile_ = ckernel._compile

    def recording_compile(source, key):
        builds.append(key)
        return compile_(source, key)

    monkeypatch.setattr(ckernel, "_compile", recording_compile)
    batched = run_campaign(config, batch_width=8).to_dict()
    assert json.dumps(batched, sort_keys=True) == scalar
    assert len(trials) == config.trials
    # one refusal per batch of at most 8, each naming the missing
    # compiler; the failed build is cached, so gcc is looked for once
    assert len(refusals) == 2
    assert all("gcc" in message for message in refusals), refusals
    assert len(builds) == 1


def _sweep_bytes(report) -> str:
    doc = report.to_dict()
    doc["wall_seconds"] = 0.0
    for result in doc["results"]:
        result["wall_seconds"] = 0.0
    return json.dumps(doc, sort_keys=True)


def test_a_batched_sweep_runs_every_point_on_the_scalar_path(
        monkeypatch, refusals):
    points = test_sweep.TestSweepBatched()._points
    scalar = sweep(points(), workers=0)
    engines = []
    classify = sweep_batched_module._run_and_classify

    def recording_classify(instance, *args, **kwargs):
        engines.append(instance.model.engine if instance.model else None)
        return classify(instance, *args, **kwargs)

    monkeypatch.setattr(sweep_batched_module, "_run_and_classify",
                        recording_classify)
    batched = sweep_batched_module.sweep_batched(points(), batch_width=3)
    assert _sweep_bytes(batched) == _sweep_bytes(scalar)
    # the four-point p=2 group makes a batch of 3 and one of 1
    assert len(refusals) == 2
    assert all("gcc" in message for message in refusals), refusals
    # a refused batch leaves its points' models on the compiled engine
    assert engines == [None] + ["compiled"] * 5


def test_a_refused_batch_leaves_every_channel_its_own_row(refusals):
    # The kernel is built before the lanes' channels adopt rows of the
    # batch's FSL lane tables, so a refused batch moves no channel.
    from repro.faults.campaign import build_design

    design = build_design("cordic", {"p": 2, "iters": 8, "ndata": 4})
    models = [design.fresh_hardware()[0] for _ in range(3)]
    channels = [b.channel for m in models for b in m.blocks
                if hasattr(b, "channel")]
    assert channels
    with pytest.raises(BatchUnsupported, match="gcc"):
        BatchedModel(models)
    assert all(type(ch._row) is list for ch in channels)
