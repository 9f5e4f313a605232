"""Golden-trace corpus: format, drift classification, tampering."""

import json
from pathlib import Path

import pytest

import repro.conformance.golden as golden_mod
from repro.cli import conformance_main
from repro.conformance import (
    bless_golden,
    check_golden,
    load_golden,
    observe,
    write_golden,
)
from repro.conformance.oracle import ScenarioVerdict
from repro.conformance.scenario import OpSpec, PipelineSpec, Scenario

CORPUS = Path(__file__).parent / "golden"

FAST_MODES = ("fast_forward",)


def _tiny_scenario(name="tiny"):
    return Scenario(
        name=name,
        seed="t",
        fifo_depth=4,
        pipelines=(PipelineSpec(channel=0),),
        ops=(OpSpec(kind="session", channel=0, count=3),),
        max_cycles=20_000,
    )


def test_bless_and_check_roundtrip(tmp_path):
    scenario = _tiny_scenario()
    written = bless_golden(tmp_path, [scenario])
    assert written == [tmp_path / "tiny.json"]
    loaded_scenario, stored = load_golden(written[0])
    assert loaded_scenario == scenario
    assert stored["mode"] == "per_cycle"
    entries = check_golden(tmp_path, modes=FAST_MODES)
    assert [e.kind for e in entries] == ["ok"]


def test_corpus_check_runs_under_the_requested_engine(tmp_path,
                                                      monkeypatch, capsys):
    import repro.conformance.oracle as oracle

    bless_golden(tmp_path, [_tiny_scenario()])
    seen = []
    real_observe = oracle.observe

    def spy(scenario, mode, program=None, engine="auto"):
        seen.append((mode, engine))
        return real_observe(scenario, mode, program, engine)

    monkeypatch.setattr(oracle, "observe", spy)
    rc = conformance_main(["--corpus", str(tmp_path), "--count", "0",
                           "--engine", "interpreter",
                           "--modes", "fast_forward,subprocess"])
    capsys.readouterr()
    assert rc == 0
    assert seen == [("per_cycle", "interpreter"),
                    ("fast_forward", "interpreter"),
                    ("subprocess", "interpreter")]


def test_golden_file_is_sorted_reviewable_json(tmp_path):
    path = write_golden(tmp_path, _tiny_scenario(),
                        observe(_tiny_scenario(), "per_cycle"))
    text = path.read_text()
    data = json.loads(text)
    assert json.dumps(data, indent=2, sort_keys=True) + "\n" == text
    assert data["version"] == golden_mod.GOLDEN_VERSION


def test_tampered_golden_names_first_divergent_observable(tmp_path):
    scenario = _tiny_scenario()
    bless_golden(tmp_path, [scenario])
    path = tmp_path / "tiny.json"
    data = json.loads(path.read_text())
    data["observation"]["stall_cycles"] += 7
    path.write_text(json.dumps(data, indent=2, sort_keys=True))

    entries = check_golden(tmp_path, modes=FAST_MODES)
    (entry,) = entries
    assert entry.kind == "semantic-change"
    assert entry.path == "stall_cycles"
    assert entry.stored == data["observation"]["stall_cycles"]
    assert entry.live == data["observation"]["stall_cycles"] - 7
    assert "re-bless" in entry.message


def test_silent_regression_when_live_modes_disagree(tmp_path, monkeypatch):
    scenario = _tiny_scenario()
    bless_golden(tmp_path, [scenario])
    reference = observe(scenario, "per_cycle")

    def fake_check_scenario(sc, modes, engine="auto"):
        verdict = ScenarioVerdict(scenario=sc, reference=reference)
        verdict.observations["per_cycle"] = reference
        verdict.divergences["fast_forward"] = {
            "path": "cycles", "reference": reference.cycles,
            "observed": reference.cycles + 1,
        }
        return verdict

    monkeypatch.setattr(golden_mod, "check_scenario", fake_check_scenario)
    (entry,) = check_golden(tmp_path, modes=FAST_MODES)
    assert entry.kind == "silent-regression"
    assert entry.path == "cycles"
    assert "re-blessing cannot fix this" in entry.message
    assert entry.mode_divergences["fast_forward"]["path"] == "cycles"


def test_version_mismatch_is_an_error(tmp_path):
    bless_golden(tmp_path, [_tiny_scenario()])
    path = tmp_path / "tiny.json"
    data = json.loads(path.read_text())
    data["version"] = 99
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="version"):
        load_golden(path)
    (entry,) = check_golden(tmp_path, modes=FAST_MODES)
    assert entry.kind == "error"
    assert "version" in entry.message


def test_corrupt_golden_file_is_an_error(tmp_path):
    (tmp_path / "broken.json").write_text("{not json")
    (entry,) = check_golden(tmp_path, modes=FAST_MODES)
    assert entry.kind == "error"
    assert entry.name == "broken"


def test_cli_golden_check_and_tamper(tmp_path, capsys):
    corpus = tmp_path / "golden"
    assert conformance_main(["--seed", "3", "--corpus", str(corpus),
                             "--bless", "--pin", "0,1"]) == 0
    capsys.readouterr()
    assert conformance_main(["--corpus", str(corpus), "--count", "0",
                             "--modes", "fast_forward"]) == 0
    assert "2/2 golden traces clean" in capsys.readouterr().out

    path = sorted(corpus.glob("*.json"))[0]
    data = json.loads(path.read_text())
    data["observation"]["instructions"] += 1
    path.write_text(json.dumps(data, indent=2, sort_keys=True))
    assert conformance_main(["--corpus", str(corpus), "--count", "0",
                             "--modes", "fast_forward"]) == 1
    out = capsys.readouterr().out
    assert "semantic-change" in out
    assert "instructions" in out


def test_cli_empty_corpus_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert conformance_main(["--corpus", str(empty), "--count", "0"]) == 2
    assert "no golden traces" in capsys.readouterr().err


def test_committed_corpus_loads():
    from repro.conformance import MultiScenario

    files = sorted(CORPUS.glob("*.json"))
    assert len(files) >= 8
    multi_seen = 0
    for path in files:
        scenario, stored = load_golden(path)
        assert scenario.name == path.stem
        assert stored["mode"] == "per_cycle"
        if isinstance(scenario, MultiScenario):
            # K-CPU traces keep the register files per node
            multi_seen += 1
            assert len(stored["cpus"]) == scenario.n_cpus
            for surface in stored["cpus"].values():
                assert len(surface["regs"]) == 32
        else:
            assert len(stored["regs"]) == 32
    assert multi_seen >= 8, "the blessed multi-CPU corpus went missing"


@pytest.mark.conformance
def test_committed_corpus_has_no_drift():
    entries = check_golden(CORPUS)
    assert entries
    assert all(e.ok for e in entries), \
        [e.to_dict() for e in entries if not e.ok]
