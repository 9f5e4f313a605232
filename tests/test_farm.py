"""Farm gateway tests: protocol, cache, dedup, accounting, shedding,
drain, worker-death resilience and the CLI surface.

Checkpoint preempt/migrate bit-identity lives in
``tests/test_farm_migrate.py``.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.farm import (
    FarmCache,
    FarmClient,
    FarmError,
    JobSpec,
    job_fingerprint,
    start_farm_thread,
)
from repro.farm.httpio import json_body
from repro.farm.protocol import ProtocolError

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def synth_payload(seconds: float = 0.0, cycles: int = 1234) -> dict:
    return {
        "design": {
            "factory": "repro.cosim.sweep:SyntheticDesign",
            "params": {"seconds": seconds, "cycles": cycles},
        }
    }


@pytest.fixture(scope="module")
def farm(tmp_path_factory):
    handle = start_farm_thread(
        workers=3,
        cache_dir=str(tmp_path_factory.mktemp("farmcache")),
    )
    yield handle
    handle.stop()


@pytest.fixture()
def client(farm):
    with FarmClient(farm.host, farm.port, tenant="tests") as c:
        yield c


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError):
            JobSpec(kind="transmogrify")

    def test_fingerprint_ignores_routing_metadata(self):
        a = JobSpec(kind="simulate", payload=synth_payload(),
                    tenant="alice", priority=3, cacheable=True)
        b = JobSpec(kind="simulate", payload=synth_payload(),
                    tenant="bob", priority=0, cacheable=False)
        assert job_fingerprint(a) == job_fingerprint(b)

    def test_fingerprint_covers_kind_and_payload(self):
        base = JobSpec(kind="simulate", payload=synth_payload())
        other_payload = JobSpec(
            kind="simulate", payload=synth_payload(cycles=99)
        )
        other_kind = JobSpec(kind="sweep", payload=synth_payload())
        assert job_fingerprint(base) != job_fingerprint(other_payload)
        assert job_fingerprint(base) != job_fingerprint(other_kind)

    def test_json_body_is_deterministic(self):
        assert json_body({"b": 1, "a": [2, {"d": 3, "c": 4}]}) == \
            json_body({"a": [2, {"c": 4, "d": 3}], "b": 1})


# ----------------------------------------------------------------------
# content-addressed store
# ----------------------------------------------------------------------
class TestFarmCache:
    def test_round_trip_verbatim(self, tmp_path):
        cache = FarmCache(tmp_path / "c")
        body = json_body({"x": 1})
        cache.put("a" * 64, body)
        assert cache.get("a" * 64) == body
        assert "a" * 64 in cache
        assert len(cache) == 1

    def test_miss_and_clear(self, tmp_path):
        cache = FarmCache(tmp_path / "c")
        assert cache.get("b" * 64) is None
        cache.put("b" * 64, b"{}")
        assert cache.clear() == 1
        assert cache.get("b" * 64) is None

    def test_bad_fingerprint_rejected(self, tmp_path):
        cache = FarmCache(tmp_path / "c")
        for bad in ("", "../evil", "x.y"):
            with pytest.raises(ValueError):
                cache.get(bad)


# ----------------------------------------------------------------------
# gateway behavior over HTTP
# ----------------------------------------------------------------------
class TestGateway:
    def test_healthz_and_status(self, client):
        assert client.healthz()
        status = client.farm_status()
        assert status["workers"]["total"] == 3
        assert not status["draining"]

    def test_simulate_job_done(self, client):
        doc = client.submit("simulate", synth_payload(cycles=777),
                            wait=True)
        assert doc["state"] == "done"
        assert doc["executions"] == 1
        result = doc["result"]
        assert result["family"] == "simulate"
        assert result["status"] == "ok"
        assert result["result"]["cycles"] == 777
        assert doc["cycles"] == 777

    def test_cache_hit_is_byte_identical_and_fast(self, client):
        payload = synth_payload(cycles=4242)
        first = client.submit("simulate", payload, wait=True)
        assert first["state"] == "done" and not first["cache_hit"]
        second = client.submit("simulate", payload, wait=True)
        assert second["cache_hit"]
        assert second["executions"] == 0  # never touched a worker
        assert second["wall_ms"] < 10  # the acceptance bound
        assert client.result_bytes(first["id"]) == \
            client.result_bytes(second["id"])

    def test_concurrent_duplicates_execute_once(self, farm):
        """N concurrent identical submissions: one execution, N
        byte-identical result payloads (in-flight coalescing)."""
        payload = synth_payload(seconds=0.3, cycles=31337)

        def submit_one(_):
            with FarmClient(farm.host, farm.port, tenant="dup") as c:
                doc = c.submit("simulate", payload, wait=True,
                               timeout_s=60)
                return doc["id"], c.result_bytes(doc["id"])

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(submit_one, range(8)))
        ids = {job_id for job_id, _ in outcomes}
        bodies = {body for _, body in outcomes}
        assert len(ids) == 1  # all coalesced onto one job
        assert len(bodies) == 1  # all byte-identical
        with FarmClient(farm.host, farm.port) as c:
            final = c.status(ids.pop())
        assert final["executions"] == 1

    def test_unknown_job_404(self, client):
        with pytest.raises(FarmError) as err:
            client.status("j999999")
        assert err.value.status == 404

    def test_bad_kind_400(self, farm):
        # the client validates kinds locally, so go in raw to prove
        # the gateway rejects them too
        conn = http.client.HTTPConnection(farm.host, farm.port,
                                          timeout=10)
        try:
            conn.request(
                "POST", "/v1/jobs",
                body=json.dumps({"kind": "transmogrify"}).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert "unknown job kind" in body["error"]
        finally:
            conn.close()

    def test_malformed_json_400(self, farm):
        conn = http.client.HTTPConnection(farm.host, farm.port,
                                          timeout=10)
        try:
            conn.request("POST", "/v1/jobs", body=b"this is not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            response.read()
        finally:
            conn.close()

    def test_result_before_done_404(self, client):
        doc = client.submit("simulate", synth_payload(seconds=0.5),
                            cacheable=False)
        with pytest.raises(FarmError) as err:
            client.result_bytes(doc["id"])
        assert err.value.status == 404
        final = client.status(doc["id"], wait=True, timeout_s=60)
        assert final["state"] == "done"

    def test_tenant_accounting(self, farm):
        payload = synth_payload(cycles=515)
        with FarmClient(farm.host, farm.port, tenant="alice") as a:
            a.submit("simulate", payload, wait=True)
        with FarmClient(farm.host, farm.port, tenant="bob") as b:
            doc = b.submit("simulate", payload, wait=True)
            tenants = b.farm_status()["tenants"]
        assert doc["cache_hit"]  # same work, second tenant pays nothing
        assert tenants["alice"]["submitted"] >= 1
        assert tenants["bob"]["cache_hits"] >= 1
        assert tenants["alice"]["cycles"] >= 515

    def test_metrics_exposed(self, client):
        metrics = client.farm_status()["metrics"]
        assert metrics["farm.jobs.submitted"] >= 1
        assert metrics["farm.jobs.completed"] >= 1
        assert "farm.latency_ms" in metrics
        assert "farm.queue_depth" in metrics

    def test_worker_death_redispatches_job(self, farm, client):
        """Kill a busy worker mid-job: the job still completes and the
        pool heals back to full strength."""
        gateway = farm.gateway
        doc = client.submit("simulate", synth_payload(seconds=1.0),
                            cacheable=False)
        victim = None
        deadline = time.time() + 10
        while victim is None and time.time() < deadline:
            for handle in list(gateway._workers.values()):
                if handle.task is not None:
                    victim = handle
                    break
            time.sleep(0.01)
        assert victim is not None, "job never reached a worker"
        os.kill(victim.process.pid, signal.SIGKILL)
        final = client.status(doc["id"], wait=True, timeout_s=60)
        assert final["state"] == "done"
        deadline = time.time() + 10
        while time.time() < deadline:
            if len(gateway._workers) == 3:
                break
            time.sleep(0.05)
        assert len(gateway._workers) == 3  # replacement spawned


# ----------------------------------------------------------------------
# load shedding + drain (dedicated farms: they change global state)
# ----------------------------------------------------------------------
class TestSheddingAndDrain:
    def test_load_shedding_503(self):
        handle = start_farm_thread(workers=1, max_queue=0)
        try:
            with FarmClient(handle.host, handle.port, tenant="shed") as c:
                with pytest.raises(FarmError) as err:
                    c.submit("simulate", synth_payload())
                assert err.value.status == 503
                assert c.farm_status()["tenants"]["shed"]["shed"] == 1
        finally:
            handle.stop()

    def test_drain_finishes_jobs_then_stops(self):
        handle = start_farm_thread(workers=2)
        try:
            with FarmClient(handle.host, handle.port) as client:
                slow = client.submit("simulate", synth_payload(seconds=0.4),
                                     cacheable=False)
            with FarmClient(handle.host, handle.port) as drainer:
                outcome = drainer.drain()
            assert outcome["drained"]
            assert outcome["jobs_completed"] >= 1
            # the in-flight job finished before shutdown
            final = handle.gateway.jobs[slow["id"]]
            assert final.state == "done"
            # and the listener is gone
            with FarmClient(handle.host, handle.port) as probe:
                assert not probe.healthz()
        finally:
            handle.stop()


    def test_stop_and_crash_after_the_loop_closed(self):
        # A finished drain closes the loop before its thread exits:
        # stop() and crash() in that window find the thread alive and
        # the loop closed, and must read it as already stopped.
        handle = start_farm_thread(workers=1)
        handle.stop()
        assert handle.loop.is_closed()
        thread = handle._thread
        handle._thread = types.SimpleNamespace(is_alive=lambda: True,
                                               join=thread.join)
        handle.stop()
        handle.crash()
        assert not thread.is_alive()

    def test_stop_on_a_loop_that_closes_without_running_it(self):
        # The loop thread may close its loop just after stop() queued
        # the shutdown: that loop never runs the callback, and no
        # shutdown coroutine may be left un-awaited.
        import asyncio
        import gc
        import threading
        import warnings

        from repro.farm.gateway import FarmThread

        queued = threading.Event()

        class ClosingLoop(asyncio.SelectorEventLoop):
            def call_soon_threadsafe(self, *args, **kwargs):
                handle = super().call_soon_threadsafe(*args, **kwargs)
                queued.set()
                return handle

        def loop_thread():
            queued.wait()
            farm.loop.close()

        async def shutdown():
            pass

        farm = FarmThread.__new__(FarmThread)
        farm.loop = ClosingLoop()
        farm._thread = threading.Thread(target=loop_thread)
        farm._thread.start()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            farm._end(shutdown, timeout=2)
            gc.collect()
        assert not farm._thread.is_alive()
        assert not [w for w in caught if "never awaited" in str(w.message)]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestFarmCLI:
    def test_serve_submit_status_drain(self, tmp_path, capsys):
        from repro.cli import farm_main

        port_file = tmp_path / "port"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "farm", "serve",
             "--workers", "2", "--port-file", str(port_file)],
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO, "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.time() + 30
            while time.time() < deadline and not port_file.exists():
                time.sleep(0.1)
            port = port_file.read_text().strip()
            assert port.isdigit()

            job = tmp_path / "job.json"
            job.write_text(json.dumps(synth_payload(cycles=88)))
            rc = farm_main(["submit", "--port", port, "simulate",
                            str(job), "--wait"])
            out = capsys.readouterr().out
            assert rc == 0
            doc = json.loads(out)
            assert doc["state"] == "done"
            assert doc["result"]["result"]["cycles"] == 88

            rc = farm_main(["status", "--port", port])
            status = json.loads(capsys.readouterr().out)
            assert rc == 0
            assert status["workers"]["total"] == 2

            rc = farm_main(["drain", "--port", port])
            drained = json.loads(capsys.readouterr().out)
            assert rc == 0 and drained["drained"]
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()


class TestGdbServerCLI:
    def test_port_file_and_sigint(self, tmp_path):
        """--port 0 writes the actual port machine-readably and SIGINT
        shuts the server down with exit code 0."""
        from repro.cli import cc_main

        src = tmp_path / "hello.c"
        src.write_text("int main() { return 7; }\n")
        img = tmp_path / "hello.img"
        cc_main([str(src), "-o", str(img)])

        port_file = tmp_path / "port"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "gdbserver", str(img),
             "--port-file", str(port_file)],
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO, "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            deadline = time.time() + 30
            while time.time() < deadline and not port_file.exists():
                time.sleep(0.1)
            port = int(port_file.read_text().strip())
            assert port > 0
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0
            assert f"mb32-gdbserver: port {port}" in out
            assert "shut down cleanly" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
