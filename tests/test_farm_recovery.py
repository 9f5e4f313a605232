"""Gateway crash recovery and farm-cache durability.

The contract under test: a farm that crashes (SIGKILL semantics — no
drain, no goodbye) and restarts with ``--recover`` on the same journal
and cache finishes every accepted job with exactly the bytes a crash-
free farm would have produced; a damaged cache entry is never served.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.farm import (
    FarmCache,
    FarmClient,
    FarmError,
    FarmUnavailable,
    GatewayJournal,
    start_farm_thread,
)
from repro.farm.wal import EV_DONE, EV_SUBMIT
from repro.runapi.durable import QUARANTINE_DIR


def synth_payload(seconds: float = 0.0, cycles: int = 1234) -> dict:
    return {
        "design": {
            "factory": "repro.cosim.sweep:SyntheticDesign",
            "params": {"seconds": seconds, "cycles": cycles},
        }
    }


# ----------------------------------------------------------------------
# the write-ahead journal
# ----------------------------------------------------------------------
class TestGatewayJournal:
    def _journal(self, tmp_path, events):
        journal = GatewayJournal(tmp_path / "wal.jsonl")
        journal.open()
        for ev in events:
            journal.record(ev)
        journal.close()
        return journal

    def test_record_replay_round_trip(self, tmp_path):
        events = [
            {"ev": EV_SUBMIT, "id": "j1", "fingerprint": "f" * 8,
             "spec": {"kind": "simulate"}},
            {"ev": EV_DONE, "id": "j1", "cached": True},
        ]
        journal = self._journal(tmp_path, events)
        replayed = GatewayJournal(journal.path).replay()
        assert [
            {k: v for k, v in rec.items() if k != "sha"}
            for rec in replayed
        ] == events

    def test_missing_file_replays_empty(self, tmp_path):
        assert GatewayJournal(tmp_path / "absent.jsonl").replay() == []

    def test_torn_tail_stops_replay(self, tmp_path):
        journal = self._journal(tmp_path, [
            {"ev": EV_SUBMIT, "id": "j1"},
            {"ev": EV_DONE, "id": "j1"},
        ])
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write('{"ev": "submit", "id": "j2", "trunc')  # crash mid-append
        replayed = GatewayJournal(journal.path).replay()
        assert [rec["ev"] for rec in replayed] == ["submit", "done"]

    def test_damaged_line_stops_replay(self, tmp_path):
        journal = self._journal(tmp_path, [
            {"ev": EV_SUBMIT, "id": "j1"},
            {"ev": EV_DONE, "id": "j1"},
        ])
        lines = journal.path.read_text().splitlines()
        doctored = json.loads(lines[1])
        doctored["id"] = "j9"  # flipped after sealing
        lines[1] = json.dumps(doctored)
        journal.path.write_text("\n".join(lines) + "\n")
        replayed = GatewayJournal(journal.path).replay()
        assert replayed == []  # prefix ends before the damaged line

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        path.write_text('{"just": "some json"}\n')
        with pytest.raises(ValueError, match="write-ahead journal"):
            GatewayJournal(path).replay()

    def test_append_survives_reopen(self, tmp_path):
        journal = self._journal(tmp_path, [{"ev": EV_SUBMIT, "id": "j1"}])
        second = GatewayJournal(journal.path)
        second.open()
        second.record({"ev": EV_DONE, "id": "j1"})
        second.close()
        replayed = GatewayJournal(journal.path).replay()
        assert [rec["ev"] for rec in replayed] == ["submit", "done"]

    def test_reopen_after_torn_tail_keeps_new_records(self, tmp_path):
        journal = self._journal(tmp_path, [
            {"ev": EV_SUBMIT, "id": f"j{i}"} for i in range(3)
        ])
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write('{"ev": "submit", "id": "j3", "sh')  # crash mid-append
        assert len(GatewayJournal(journal.path).replay()) == 3
        second = GatewayJournal(journal.path)
        second.open()
        for i in range(3, 6):
            second.record({"ev": EV_SUBMIT, "id": f"j{i}"})
        second.close()
        replayed = GatewayJournal(journal.path).replay()
        assert [rec["id"] for rec in replayed] == [f"j{i}" for i in range(6)]

    def test_reopen_after_torn_header_starts_fresh(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text('{"ev": "header", "for')
        journal = GatewayJournal(path)
        journal.open()
        journal.record({"ev": EV_SUBMIT, "id": "j1"})
        journal.close()
        assert [rec["id"] for rec in GatewayJournal(path).replay()] == ["j1"]


# ----------------------------------------------------------------------
# FarmCache durability (regression: torn entry -> miss -> re-execute)
# ----------------------------------------------------------------------
class TestFarmCacheDurability:
    def test_truncated_entry_is_miss_and_quarantined(self, tmp_path):
        cache = FarmCache(tmp_path)
        cache.put("a" * 16, b'{"result": "bytes"}')
        (entry,) = list(tmp_path.glob("*.json"))
        entry.write_bytes(entry.read_bytes()[:10])

        assert cache.get("a" * 16) is None
        assert cache.stats["quarantined"] == 1
        assert cache.quarantined() == 1
        assert not entry.exists()

    def test_bitflipped_entry_is_miss(self, tmp_path):
        cache = FarmCache(tmp_path)
        cache.put("b" * 16, b'{"result": "bytes"}')
        (entry,) = list(tmp_path.glob("*.json"))
        blob = bytearray(entry.read_bytes())
        blob[-3] ^= 0x10
        entry.write_bytes(bytes(blob))
        assert cache.get("b" * 16) is None
        assert cache.stats["quarantined.corrupt"] == 1

    def test_verify_all_sweeps_damage_in_place(self, tmp_path):
        cache = FarmCache(tmp_path)
        cache.put("c" * 16, b"intact")
        cache.put("d" * 16, b"doomed")
        entry = tmp_path / ("d" * 16 + ".json")
        entry.write_bytes(entry.read_bytes()[:8])
        assert cache.verify_all() == 1
        assert cache.quarantined() == 1
        assert cache.get("c" * 16) == b"intact"

    def test_clear_sweeps_staging_orphans(self, tmp_path):
        cache = FarmCache(tmp_path)
        cache.put("e" * 16, b"x")
        (tmp_path / "f.json.tmp.4242").write_bytes(b"orphaned staging")
        assert cache.clear() == 1
        assert cache.stats["scavenged"] == 1
        assert not list(tmp_path.glob("*.tmp.*"))
        assert len(cache) == 0

    def test_startup_scavenge_collects_stale_orphans_only(self, tmp_path):
        import os

        stale = tmp_path / "old.json.tmp.7"
        stale.write_bytes(b"")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        young = tmp_path / "new.json.tmp.8"
        young.write_bytes(b"")

        cache = FarmCache(tmp_path)
        assert cache.stats["scavenged"] == 1
        assert young.exists() and not stale.exists()

    def test_legacy_raw_entry_reads_verbatim(self, tmp_path):
        raw = b'{"pre": "envelope entry"}'
        (tmp_path / ("f" * 16 + ".json")).write_bytes(raw)
        cache = FarmCache(tmp_path)
        assert cache.get("f" * 16) == raw

    def test_farm_reexecutes_after_cache_damage(self, tmp_path):
        """End to end: damage the cached result of a completed job; a
        re-submission quarantines it, misses, and re-executes to the
        same bytes."""
        farm = start_farm_thread(
            workers=1, cache_dir=str(tmp_path / "cache")
        )
        try:
            with FarmClient(farm.host, farm.port) as client:
                payload = synth_payload(cycles=90_210)
                first = client.submit("simulate", payload, wait=True)
                assert first["state"] == "done"
                original = client.result_bytes(first["id"])

                cache_dir = tmp_path / "cache"
                (entry,) = list(cache_dir.glob("*.json"))
                entry.write_bytes(entry.read_bytes()[:-7])  # torn

                second = client.submit("simulate", payload, wait=True)
                assert second["state"] == "done"
                assert not second["cache_hit"]
                assert second["executions"] == 1  # really re-ran
                assert client.result_bytes(second["id"]) == original

                status = client.farm_status()
                assert status["cache_quarantined"] == 1
                assert status["cache_stats"]["quarantined"] == 1
            assert len(list(
                (cache_dir / QUARANTINE_DIR).iterdir()
            )) == 1
        finally:
            farm.stop()


# ----------------------------------------------------------------------
# crash + recover, end to end
# ----------------------------------------------------------------------
class TestGatewayRecovery:
    def _boot(self, tmp_path, *, recover: bool, workers: int = 2):
        return start_farm_thread(
            workers=workers,
            cache_dir=str(tmp_path / "cache"),
            journal_path=str(tmp_path / "gateway.wal"),
            recover=recover,
        )

    def test_queued_jobs_survive_crash(self, tmp_path):
        farm = self._boot(tmp_path, recover=False)
        ids = {}
        try:
            with FarmClient(farm.host, farm.port) as client:
                # one long job occupies the pool; the rest stay queued
                for i in range(6):
                    doc = client.submit(
                        "simulate",
                        synth_payload(
                            seconds=0.5 if i < 2 else 0.0,
                            cycles=40_000 + i,
                        ),
                    )
                    ids[i] = doc["id"]
        finally:
            farm.crash()

        recovered = self._boot(tmp_path, recover=True)
        try:
            with FarmClient(recovered.host, recovered.port) as client:
                for i, job_id in ids.items():
                    doc = client.status(job_id, wait=True, timeout_s=60)
                    assert doc["state"] == "done", (i, doc)
                    result = json.loads(
                        client.result_bytes(job_id)
                    )
                    assert result["result"]["cycles"] == 40_000 + i
                status = client.farm_status()
                metrics = status["metrics"]
                assert metrics.get("farm.recovery.requeued", 0) >= 1
                assert status["wal_records"] >= 1
        finally:
            recovered.stop()

    def test_completed_jobs_replay_from_cache_byte_identical(
        self, tmp_path
    ):
        farm = self._boot(tmp_path, recover=False)
        payload = synth_payload(cycles=777_000)
        try:
            with FarmClient(farm.host, farm.port) as client:
                doc = client.submit("simulate", payload, wait=True)
                job_id = doc["id"]
                original = client.result_bytes(job_id)
        finally:
            farm.crash()

        recovered = self._boot(tmp_path, recover=True)
        try:
            with FarmClient(recovered.host, recovered.port) as client:
                doc = client.status(job_id)
                assert doc["state"] == "done"
                assert client.result_bytes(job_id) == original
                metrics = client.farm_status()["metrics"]
                assert metrics.get("farm.recovery.replayed_done") == 1
                # and the worker pool was never touched
                resubmit = client.submit("simulate", payload, wait=True)
                assert resubmit["cache_hit"]
        finally:
            recovered.stop()

    def test_quarantined_result_reexecutes_on_recovery(self, tmp_path):
        farm = self._boot(tmp_path, recover=False)
        payload = synth_payload(cycles=31_337)
        try:
            with FarmClient(farm.host, farm.port) as client:
                doc = client.submit("simulate", payload, wait=True)
                job_id = doc["id"]
                original = client.result_bytes(job_id)
        finally:
            farm.crash()

        (entry,) = list((tmp_path / "cache").glob("*.json"))
        entry.write_bytes(entry.read_bytes()[: len(entry.read_bytes()) // 2])

        recovered = self._boot(tmp_path, recover=True)
        try:
            with FarmClient(recovered.host, recovered.port) as client:
                doc = client.status(job_id, wait=True, timeout_s=60)
                assert doc["state"] == "done"
                assert client.result_bytes(job_id) == original
                metrics = client.farm_status()["metrics"]
                assert metrics.get("farm.recovery.reexecuted") == 1
        finally:
            recovered.stop()

    def test_sharded_job_resumes_missing_units_only(self, tmp_path):
        """A sweep interrupted by the crash re-runs only what the WAL
        does not already hold, and merges byte-identically."""
        points = [
            {
                "factory": "repro.cosim.sweep:SyntheticDesign",
                "params": {"seconds": 0.08, "cycles": 5_000 + k},
            }
            for k in range(6)
        ]
        payload = {"points": points}

        reference = start_farm_thread(
            workers=2, cache_dir=str(tmp_path / "refcache")
        )
        try:
            with FarmClient(reference.host, reference.port) as client:
                doc = client.submit("sweep", payload, wait=True,
                                    timeout_s=120)
                expected = client.result_bytes(doc["id"])
        finally:
            reference.stop()

        farm = self._boot(tmp_path, recover=False)
        try:
            with FarmClient(farm.host, farm.port) as client:
                doc = client.submit("sweep", payload)
                job_id = doc["id"]
                time.sleep(0.35)  # let some units complete + journal
        finally:
            farm.crash()

        recovered = self._boot(tmp_path, recover=True)
        try:
            with FarmClient(recovered.host, recovered.port) as client:
                doc = client.status(job_id, wait=True, timeout_s=120)
                assert doc["state"] == "done"
                assert client.result_bytes(job_id) == expected
        finally:
            recovered.stop()

    def test_failed_jobs_stay_failed_after_recovery(self, tmp_path):
        farm = self._boot(tmp_path, recover=False)
        try:
            with FarmClient(farm.host, farm.port) as client:
                doc = client.submit("sweep", {"points": []}, wait=True)
                job_id = doc["id"]
                assert doc["state"] == "failed"
        finally:
            farm.crash()

        recovered = self._boot(tmp_path, recover=True)
        try:
            with FarmClient(recovered.host, recovered.port) as client:
                doc = client.status(job_id)
                assert doc["state"] == "failed"
                metrics = client.farm_status()["metrics"]
                assert metrics.get("farm.recovery.failed") == 1
        finally:
            recovered.stop()

    def test_crash_closes_the_journal(self, tmp_path):
        farm = self._boot(tmp_path, recover=False, workers=1)
        journal = farm.gateway.journal
        farm.crash()
        assert journal._fh is None
        written = journal.records_written
        journal.record({"ev": EV_SUBMIT, "id": "after-crash"})
        assert journal.records_written == written  # nothing lands

    def test_recover_requires_journal(self):
        from repro.farm.gateway import FarmGateway

        with pytest.raises(ValueError, match="journal_path"):
            FarmGateway(workers=1, recover=True)


# ----------------------------------------------------------------------
# client resilience (typed errors, idempotent retries)
# ----------------------------------------------------------------------
def _dead_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestClientResilience:
    def test_unreachable_gateway_raises_typed_error(self):
        client = FarmClient("127.0.0.1", _dead_port())
        with pytest.raises(FarmUnavailable) as err:
            client.farm_status()
        assert err.value.status == 0
        assert "unreachable" in str(err.value)
        assert isinstance(err.value, FarmError)  # typed, not a socket error

    def test_retries_respect_deadline(self):
        client = FarmClient(
            "127.0.0.1", _dead_port(),
            retries=1_000, backoff_s=0.01, deadline_s=0.3,
        )
        start = time.monotonic()
        with pytest.raises(FarmUnavailable):
            client.farm_status()
        assert time.monotonic() - start < 5.0

    def test_retry_succeeds_after_dropped_response(self, tmp_path):
        """One-shot response drop (the chaos harness's conn_drop): a
        retrying client resubmits idempotently and still gets the
        result."""
        from repro.farm import httpio

        farm = start_farm_thread(
            workers=1, cache_dir=str(tmp_path / "cache")
        )
        try:
            fired = []

            def fault(request, response):
                httpio.set_response_fault(None)
                fired.append(request.path)
                return ("drop", 0)

            httpio.set_response_fault(fault)
            with FarmClient(
                farm.host, farm.port, retries=4, backoff_s=0.01
            ) as client:
                doc = client.submit(
                    "simulate", synth_payload(cycles=246_810), wait=True
                )
            assert doc["state"] == "done"
            assert fired  # the fault really hit this exchange
        finally:
            httpio.set_response_fault(None)
            farm.stop()

    def test_truncated_response_retries(self, tmp_path):
        from repro.farm import httpio

        farm = start_farm_thread(
            workers=1, cache_dir=str(tmp_path / "cache")
        )
        try:
            def fault(request, response):
                httpio.set_response_fault(None)
                return ("truncate", max(1, len(response) // 2))

            httpio.set_response_fault(fault)
            with FarmClient(
                farm.host, farm.port, retries=4, backoff_s=0.01
            ) as client:
                status = client.farm_status()
            assert status["workers"]["total"] == 1
        finally:
            httpio.set_response_fault(None)
            farm.stop()

    def test_load_shedding_becomes_typed_after_retries(self, tmp_path):
        farm = start_farm_thread(
            workers=1,
            cache_dir=str(tmp_path / "cache"),
            max_queue=0,  # shed everything
        )
        try:
            with FarmClient(
                farm.host, farm.port, retries=2, backoff_s=0.01
            ) as client:
                with pytest.raises(FarmUnavailable) as err:
                    client.submit("simulate", synth_payload())
            assert err.value.status == 503
        finally:
            farm.stop()

    def test_default_client_keeps_plain_503_behavior(self, tmp_path):
        farm = start_farm_thread(
            workers=1,
            cache_dir=str(tmp_path / "cache"),
            max_queue=0,
        )
        try:
            with FarmClient(farm.host, farm.port) as client:
                with pytest.raises(FarmError) as err:
                    client.submit("simulate", synth_payload())
            assert err.value.status == 503
            assert not isinstance(err.value, FarmUnavailable)
        finally:
            farm.stop()
