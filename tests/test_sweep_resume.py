"""Sweep-engine robustness features: seeded retry backoff, the resume
journal, and the pluggable ``evaluate`` hook they ride on."""

from __future__ import annotations

import json

import pytest

from repro.cli import dse_main
from repro.cosim.dse import STATUS_OK
from repro.cosim.partition import DesignSpec
from repro.cosim.sweep import SweepJournal, sweep, sweep_spec_id
from repro.runapi.backoff import retry_backoff_delay

CALLS: list[str] = []


def _ok_evaluate(point, cache_dir, timeout_s, telemetry=False):
    """Module-level evaluate hook (picklable, like the real ones)."""
    CALLS.append(point.name)
    return {
        "status": STATUS_OK,
        "error": None,
        "result": None,
        "estimate": None,
        "fingerprint": None,
        "cache_hit": False,
        "metrics": {"name": point.name, "x": point.params["x"] * 10},
    }


def _specs(n=3):
    return [DesignSpec(name=f"p{i}", factory="unused:unused",
                       params={"x": i}) for i in range(n)]


# ----------------------------------------------------------------------
# backoff


def test_backoff_is_deterministic_and_jittered():
    d1 = retry_backoff_delay(0.5, "pt", 1, seed=0)
    assert d1 == retry_backoff_delay(0.5, "pt", 1, seed=0)
    assert 0.25 <= d1 < 0.75  # base * 2**0 * [0.5, 1.5)
    d2 = retry_backoff_delay(0.5, "pt", 2, seed=0)
    assert 0.5 <= d2 < 1.5    # base * 2**1 * [0.5, 1.5)
    assert retry_backoff_delay(0.5, "pt", 1, seed=1) != d1
    assert retry_backoff_delay(0.5, "other", 1, seed=0) != d1


def test_backoff_zero_base_is_free():
    assert retry_backoff_delay(0.0, "pt", 3) == 0.0
    assert retry_backoff_delay(-1.0, "pt", 1) == 0.0


# ----------------------------------------------------------------------
# spec identity


def test_spec_id_tracks_points_and_order():
    a, b = _specs(2)
    assert sweep_spec_id([a, b]) == sweep_spec_id([a, b])
    assert sweep_spec_id([a, b]) != sweep_spec_id([b, a])
    assert sweep_spec_id([a]) != sweep_spec_id([a, b])


# ----------------------------------------------------------------------
# journal


def test_journal_round_trip(tmp_path):
    path = str(tmp_path / "j.jsonl")
    journal = SweepJournal(path)
    journal.open("spec-1", total=3)
    journal.record(0, attempts=1, backoff_s=[],
                   payload={"status": STATUS_OK, "error": None,
                            "result": None, "estimate": None,
                            "fingerprint": None, "cache_hit": False,
                            "metrics": {"i": 0}})
    journal.close()
    loaded = SweepJournal(path).load("spec-1", total=3)
    assert set(loaded) == {0}
    assert loaded[0]["payload"]["metrics"] == {"i": 0}


def test_journal_rejects_foreign_spec(tmp_path):
    path = str(tmp_path / "j.jsonl")
    journal = SweepJournal(path)
    journal.open("spec-1", total=3)
    journal.close()
    with pytest.raises(ValueError, match="journal"):
        SweepJournal(path).load("spec-2", total=3)


def test_journal_drops_truncated_tail(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = SweepJournal(str(path))
    journal.open("spec-1", total=3)
    journal.record(0, attempts=1, backoff_s=[],
                   payload={"status": STATUS_OK, "error": None,
                            "result": None, "estimate": None,
                            "fingerprint": None, "cache_hit": False,
                            "metrics": None})
    journal.close()
    path.write_text(path.read_text() + '{"index": 1, "att')  # torn write
    loaded = SweepJournal(str(path)).load("spec-1", total=3)
    assert set(loaded) == {0}


def test_journal_reopen_after_torn_tail_keeps_new_records(tmp_path):
    path = tmp_path / "j.jsonl"

    def append(journal, index):
        journal.record(index, attempts=1, backoff_s=[],
                       payload={"status": STATUS_OK, "error": None,
                                "result": None, "estimate": None,
                                "fingerprint": None, "cache_hit": False,
                                "metrics": {"i": index}})

    journal = SweepJournal(str(path))
    journal.open("spec-1", total=6)
    for index in range(3):
        append(journal, index)
    journal.close()
    path.write_text(path.read_text() + '{"index": 3, "att')  # torn write
    assert set(SweepJournal(str(path)).load("spec-1", total=6)) == {0, 1, 2}

    journal = SweepJournal(str(path))
    journal.open("spec-1", total=6)
    for index in range(3, 6):
        append(journal, index)
    journal.close()
    loaded = SweepJournal(str(path)).load("spec-1", total=6)
    assert sorted(loaded) == list(range(6))
    assert [loaded[i]["payload"]["metrics"] for i in range(6)] == \
        [{"i": i} for i in range(6)]


# ----------------------------------------------------------------------
# sweep + journal + evaluate hook integration


def test_sweep_resume_skips_completed_points(tmp_path):
    journal = str(tmp_path / "sweep.jsonl")
    specs = _specs(3)
    CALLS.clear()
    first = sweep(specs, journal=journal, evaluate=_ok_evaluate)
    assert CALLS == ["p0", "p1", "p2"]
    assert [r.metrics["x"] for r in first.results] == [0, 10, 20]

    CALLS.clear()
    resumed = sweep(specs, journal=journal, resume=True,
                    evaluate=_ok_evaluate)
    assert CALLS == []  # every point replayed from the journal
    assert ([r.metrics for r in resumed.results]
            == [r.metrics for r in first.results])


def test_sweep_without_resume_restarts_journal(tmp_path):
    journal = str(tmp_path / "sweep.jsonl")
    specs = _specs(2)
    sweep(specs, journal=journal, evaluate=_ok_evaluate)
    CALLS.clear()
    sweep(specs, journal=journal, evaluate=_ok_evaluate)
    assert CALLS == ["p0", "p1"]  # stale journal discarded, all re-run


def test_sweep_resume_with_changed_specs_fails_loudly(tmp_path):
    journal = str(tmp_path / "sweep.jsonl")
    sweep(_specs(3), journal=journal, evaluate=_ok_evaluate)
    with pytest.raises(ValueError, match="journal"):
        sweep(_specs(2), journal=journal, resume=True,
              evaluate=_ok_evaluate)


def test_dse_result_records_backoff_schedule():
    fails: dict[str, int] = {}

    def flaky(point, cache_dir, timeout_s, telemetry=False):
        n = fails.get(point.name, 0)
        fails[point.name] = n + 1
        if n == 0:  # evaluate hooks report failures as statuses
            return {"status": "error", "error": "transient",
                    "result": None, "estimate": None, "fingerprint": None,
                    "cache_hit": False, "metrics": None}
        return _ok_evaluate(point, cache_dir, timeout_s, telemetry)

    report = sweep(_specs(1), retries=1, retry_backoff_s=0.001,
                   evaluate=flaky)
    result = report.results[0]
    assert result.status == STATUS_OK
    assert result.attempts == 2
    assert len(result.backoff_s) == 1
    assert 0.0005 <= result.backoff_s[0] < 0.0015
    assert "backoff_s" in result.to_dict()


# ----------------------------------------------------------------------
# CLI


def test_dse_resume_requires_journal(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"points": [{"name": "x", "factory": "m:f", "params": {}}]}))
    rc = dse_main([str(spec), "--resume"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "--resume needs --journal" in captured.err
    assert "Traceback" not in captured.err
