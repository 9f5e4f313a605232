"""The shared durable-artifact layer: envelope framing, crash-safe
writes, verified reads with quarantine, sealed journal records — and
the migration of checkpoints and sweep caches onto it."""

from __future__ import annotations

import json
import os

import pytest

from repro.runapi.durable import (
    MAGIC,
    QUARANTINE_DIR,
    REASON_BAD_HEADER,
    REASON_CORRUPT,
    REASON_TRUNCATED,
    DurableError,
    ResultCache,
    decode_envelope,
    durable_write,
    encode_envelope,
    is_envelope,
    quarantine_file,
    read_verified,
    record_intact,
    scavenge_tmp,
    seal_record,
    set_write_fault,
)


class TestEnvelope:
    def test_round_trip(self):
        payload = b"some result bytes \x00\xff" * 100
        assert decode_envelope(encode_envelope(payload)) == payload

    def test_empty_payload_round_trips(self):
        assert decode_envelope(encode_envelope(b"")) == b""

    def test_is_envelope(self):
        assert is_envelope(encode_envelope(b"x"))
        assert not is_envelope(b'{"legacy": "json"}')
        assert not is_envelope(b"")

    def test_truncation_classified(self):
        blob = encode_envelope(b"0123456789abcdef")
        with pytest.raises(DurableError) as err:
            decode_envelope(blob[:-5])
        assert err.value.reason == REASON_TRUNCATED

    def test_bitflip_classified_corrupt(self):
        blob = bytearray(encode_envelope(b"0123456789abcdef"))
        blob[-1] ^= 0x01
        with pytest.raises(DurableError) as err:
            decode_envelope(bytes(blob))
        assert err.value.reason == REASON_CORRUPT

    def test_garbled_header_classified(self):
        with pytest.raises(DurableError) as err:
            decode_envelope(MAGIC + b" not a header\npayload")
        assert err.value.reason == REASON_BAD_HEADER

    def test_unsupported_version_rejected(self):
        blob = encode_envelope(b"x").replace(b" 1 ", b" 99 ", 1)
        with pytest.raises(DurableError) as err:
            decode_envelope(blob)
        assert err.value.reason == REASON_BAD_HEADER

    def test_trailing_bytes_beyond_length_ignored(self):
        # a torn *read* can also over-read; length bounds the payload
        blob = encode_envelope(b"payload") + b"garbage-after"
        assert decode_envelope(blob) == b"payload"


class TestDurableWrite:
    def test_write_read_round_trip(self, tmp_path):
        target = tmp_path / "entry.json"
        durable_write(target, b'{"x": 1}')
        assert read_verified(target) == b'{"x": 1}'
        assert is_envelope(target.read_bytes())

    def test_no_staging_files_left(self, tmp_path):
        durable_write(tmp_path / "a.json", b"a")
        durable_write(tmp_path / "b.json", b"b", fsync=False)
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_overwrite_is_atomic_replace(self, tmp_path):
        target = tmp_path / "entry.json"
        durable_write(target, b"old")
        durable_write(target, b"new")
        assert read_verified(target) == b"new"

    def test_legacy_file_is_quarantined_miss(self, tmp_path):
        target = tmp_path / "legacy.json"
        target.write_bytes(b'{"pre": "envelope"}')
        qdir = tmp_path / QUARANTINE_DIR
        assert read_verified(target, quarantine_dir=qdir) is None
        assert not target.exists()
        assert [p.name for p in qdir.iterdir()] == ["legacy.json"]

    def test_missing_file_is_none(self, tmp_path):
        assert read_verified(tmp_path / "nope.json") is None

    def test_damaged_file_quarantined_and_reported(self, tmp_path):
        target = tmp_path / "entry.json"
        durable_write(target, b"payload")
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0x01
        target.write_bytes(bytes(blob))

        reasons: list[str] = []
        qdir = tmp_path / QUARANTINE_DIR
        assert read_verified(
            target, quarantine_dir=qdir, on_damage=reasons.append
        ) is None
        assert reasons == [REASON_CORRUPT]
        assert not target.exists()  # moved, not deleted
        assert len(list(qdir.iterdir())) == 1

    def test_quarantine_collisions_keep_every_specimen(self, tmp_path):
        qdir = tmp_path / "q"
        for _ in range(3):
            specimen = tmp_path / "same-name.json"
            specimen.write_bytes(b"damaged")
            quarantine_file(specimen, qdir)
        assert len(list(qdir.iterdir())) == 3

    def test_write_fault_hook_makes_entry_unreadable(self, tmp_path):
        target = tmp_path / "entry.json"
        try:
            set_write_fault(lambda path, blob: blob[: len(blob) // 2])
            durable_write(target, b"payload bytes that will be torn")
        finally:
            set_write_fault(None)
        assert target.exists()
        assert read_verified(
            target, quarantine_dir=tmp_path / "q"
        ) is None


class TestScavenge:
    def test_scavenges_orphans(self, tmp_path):
        (tmp_path / "entry.json.tmp.12345").write_bytes(b"orphan")
        (tmp_path / "other.json.tmp.9").write_bytes(b"orphan")
        (tmp_path / "entry.json").write_bytes(b"live")
        assert scavenge_tmp(tmp_path) == 2
        assert (tmp_path / "entry.json").exists()

    def test_age_threshold_spares_young_files(self, tmp_path):
        young = tmp_path / "young.json.tmp.1"
        young.write_bytes(b"")
        old = tmp_path / "old.json.tmp.2"
        old.write_bytes(b"")
        stale = (3600.0 + 60.0)
        os.utime(old, (old.stat().st_atime,
                       old.stat().st_mtime - 2 * stale))
        assert scavenge_tmp(tmp_path, older_than_s=stale) == 1
        assert young.exists() and not old.exists()


class TestSealedRecords:
    def test_seal_and_verify(self):
        rec = seal_record({"ev": "submit", "id": "j1", "n": [1, 2]})
        assert record_intact(rec)
        assert record_intact(json.loads(json.dumps(rec)))

    def test_tampered_record_detected(self):
        rec = seal_record({"ev": "submit", "id": "j1"})
        rec["id"] = "j2"
        assert not record_intact(rec)

    def test_legacy_record_without_sha_accepted(self):
        assert record_intact({"ev": "old-journal-line"})

    def test_non_dict_rejected(self):
        assert not record_intact("torn line")
        assert not record_intact(None)

    def test_resealing_is_idempotent(self):
        rec = {"a": 1}
        once = seal_record(rec)
        assert seal_record(once) == once


class TestCheckpointEnvelope:
    """repro.cosim.checkpoint rides the shared durable layer."""

    def _sim(self):
        from repro.conformance.oracle import _make_sim
        from repro.conformance.scenario import (
            ScenarioGenerator,
            build_program,
        )

        scenario = ScenarioGenerator(seed=11, max_cycles=30_000).scenario(0)
        program = build_program(scenario)
        sim, _trace = _make_sim(scenario, program, fast_forward=False)
        sim.run(until=50)
        return scenario, program, sim

    def test_checkpoint_is_enveloped_and_loads(self, tmp_path):
        from repro.conformance.oracle import _make_sim
        from repro.cosim.checkpoint import load_checkpoint, save_checkpoint

        scenario, program, sim = self._sim()
        path = tmp_path / "c.ckpt"
        save_checkpoint(sim, str(path), label="durable")
        assert is_envelope(path.read_bytes())

        fresh, _ = _make_sim(scenario, program, fast_forward=False)
        load_checkpoint(fresh, str(path))
        assert fresh.cpu.cycle == sim.cpu.cycle

    def test_damaged_checkpoint_classified(self, tmp_path):
        from repro.cosim.checkpoint import CheckpointError, save_checkpoint

        _scenario, _program, sim = self._sim()
        path = tmp_path / "c.ckpt"
        save_checkpoint(sim, str(path), label="durable")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))

        from repro.conformance.oracle import _make_sim
        from repro.conformance.scenario import (
            ScenarioGenerator,
            build_program,
        )
        from repro.cosim.checkpoint import load_checkpoint

        scenario = ScenarioGenerator(seed=11, max_cycles=30_000).scenario(0)
        fresh, _ = _make_sim(
            scenario, build_program(scenario), fast_forward=False
        )
        with pytest.raises(CheckpointError, match="damaged"):
            load_checkpoint(fresh, str(path))

    def test_legacy_raw_json_checkpoint_loads(self, tmp_path):
        from repro.conformance.oracle import _make_sim
        from repro.cosim.checkpoint import (
            checkpoint_to_dict,
            load_checkpoint,
        )

        scenario, program, sim = self._sim()
        path = tmp_path / "legacy.ckpt"
        path.write_text(json.dumps(checkpoint_to_dict(sim, "legacy")))

        fresh, _ = _make_sim(scenario, program, fast_forward=False)
        load_checkpoint(fresh, str(path))
        assert fresh.cpu.cycle == sim.cpu.cycle


class TestSweepCacheEnvelope:
    """The sweep cache serves no damaged entry: corruption is a miss."""

    def _cached_entry(self, tmp_path):
        from repro.cosim.partition import DesignSpec
        from repro.cosim.sweep import _evaluate, cache_store

        spec = DesignSpec(
            name="p0",
            factory="repro.cosim.sweep:SyntheticDesign",
            params={"seconds": 0.0, "cycles": 777},
        )
        cache = ResultCache(tmp_path / "cache")
        payload = _evaluate(spec, None, None, False)
        # any stable fingerprint works for the cache
        payload["fingerprint"] = fp = "cafef00d" * 8
        cache_store(cache, payload)
        return cache, fp

    def test_round_trip(self, tmp_path):
        from repro.cosim.sweep import cache_lookup

        cache, fp = self._cached_entry(tmp_path)
        hit = cache_lookup(cache, fp)
        assert hit is not None
        assert hit[0].cycles == 777

    def test_corrupt_entry_is_a_miss_and_quarantines(self, tmp_path):
        cache, fp = self._cached_entry(tmp_path)
        (entry,) = list(cache.path.glob("*.json"))
        blob = bytearray(entry.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        entry.write_bytes(bytes(blob))

        assert cache.get(fp) is None
        assert not entry.exists()
        qdir = cache.path / QUARANTINE_DIR
        assert len(list(qdir.iterdir())) == 1

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache, fp = self._cached_entry(tmp_path)
        (entry,) = list(cache.path.glob("*.json"))
        entry.write_bytes(entry.read_bytes()[:40])
        assert cache.get(fp) is None
