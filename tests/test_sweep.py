"""Tests for the parallel fault-tolerant design-space sweep engine.

Covers cache hit/miss behavior, structured failure statuses (a
deadlocking point must not kill the sweep), parallel/sequential result
equality, per-point timeouts and bounded retry.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.apps.cordic.design import cordic_design_specs
from repro.cosim import CoSimulation, MicroBlazeBlock
from repro.cosim.dse import (
    STATUS_DEADLOCK,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SELF_CHECK,
    STATUS_TIMEOUT,
)
from repro.cosim.environment import CoSimTimeout, run_timeout
from repro.cosim.partition import DesignSpec, PartitionKind
from repro.cosim.sweep import (
    SweepCache,
    SyntheticDesign,
    sweep,
    synthetic_specs,
)
from repro.mcc import build_executable
from repro.runapi import RunPolicy, design_fingerprint
from repro.resources.estimator import estimate_design
from repro.sysgen import Model


# ----------------------------------------------------------------------
# Module-level design factories (picklable for worker processes)
# ----------------------------------------------------------------------
def _cosim(source: str) -> tuple:
    model = Model("sweep_fixture")
    mb = MicroBlazeBlock(model)
    mb.master_fsl(0)  # FSLRead with read tied low: nobody ever drains
    program = build_executable(source)
    return program, model, mb


class DeadlockDesign:
    """Software keeps writing an FSL nobody drains — the classic FIFO
    overflow deadlock the paper warns about."""

    SOURCE = "int main(void) { while (1) { putfsl(1, 0); } return 0; }"

    def __init__(self):
        self.program, self.model, self.mb = _cosim(self.SOURCE)

    def run(self):
        return CoSimulation(self.program, self.model, self.mb).run()

    def estimate(self):
        return estimate_design(program=self.program,
                               n_fsl_links=self.mb.n_links)


class SpinDesign:
    """Runs forever while retiring instructions: never deadlocks, only
    a wall-clock budget stops it."""

    SOURCE = "int main(void) { while (1) { } return 0; }"

    def __init__(self):
        self.program, self.model, self.mb = _cosim(self.SOURCE)

    def run(self):
        return CoSimulation(self.program, self.model, self.mb).run()

    def estimate(self):
        return estimate_design(program=self.program)


class FailingDesign:
    """Completes but fails its self-check (nonzero exit code)."""

    def __init__(self):
        from repro.apps.common import run_software_only

        self._run = run_software_only
        self.program = build_executable("int main(void) { return 3; }")

    def run(self):
        result, _ = self._run(self.program)
        return result

    def estimate(self):
        return estimate_design(program=self.program)


class FlakyDesign:
    """Raises on the first attempt (recorded via a marker file), then
    succeeds — exercises the bounded-retry path across processes."""

    def __init__(self, marker: str):
        self.marker = pathlib.Path(marker)
        self.program = build_executable("int main(void) { return 0; }")

    def run(self):
        from repro.apps.common import run_software_only

        if not self.marker.exists():
            self.marker.write_text("tried")
            raise RuntimeError("transient failure (first attempt)")
        result, _ = run_software_only(self.program)
        return result

    def estimate(self):
        return estimate_design(program=self.program)


class ExitingDesign(SyntheticDesign):
    """Takes its worker process down mid-run, as a crash would."""

    def run(self):
        os._exit(7)


class PidRecordingDesign(SyntheticDesign):
    """A quick point that writes the pid of the process evaluating it
    to ``path``."""

    def __init__(self, path: str):
        super().__init__(seconds=0.0, cycles=1_000)
        self.path = pathlib.Path(path)

    def run(self):
        self.path.write_text(str(os.getpid()))
        return super().run()


def _spec(cls, name: str, **params) -> DesignSpec:
    return DesignSpec(
        name=name, factory=f"{__name__}:{cls.__name__}", params=params
    )


TINY = dict(iters=8, ndata=8)


# ----------------------------------------------------------------------
# Statuses: failures are data, not sweep-killing exceptions
# ----------------------------------------------------------------------
class TestSweepStatuses:
    def test_deadlock_and_failure_do_not_kill_the_sweep(self):
        points = [
            cordic_design_specs(ps=(2,), **TINY)[0],
            _spec(DeadlockDesign, "deadlocker"),
            _spec(FailingDesign, "self-check-fail"),
        ]
        report = sweep(points, workers=0)
        statuses = {r.point.name: r.status for r in report.results}
        assert statuses["cordic-p2-8it"] == STATUS_OK
        assert statuses["deadlocker"] == STATUS_DEADLOCK
        assert statuses["self-check-fail"] == STATUS_SELF_CHECK
        healthy = report.results[0]
        assert healthy.ok and healthy.cycles > 0
        assert healthy.estimate is not None
        deadlocked = report.results[1]
        assert "FSL occupancies" in deadlocked.error
        assert deadlocked.result is None
        failed = report.results[2]
        assert "exit code 3" in failed.error
        assert report.failed == report.results[1:]

    def test_timeout_status_in_process(self):
        report = sweep([_spec(SpinDesign, "spinner")], workers=0,
                       timeout_s=0.05)
        (r,) = report.results
        assert r.status == STATUS_TIMEOUT
        assert "wall-clock budget" in r.error

    def test_timeout_kills_hung_parallel_worker(self):
        report = sweep(
            [_spec(SpinDesign, "spinner")],
            workers=1, timeout_s=0.05, kill_grace_s=30.0,
        )
        (r,) = report.results
        assert r.status == STATUS_TIMEOUT

    def test_build_failure_reported_as_error(self):
        bad = DesignSpec(name="bad", factory="repro.nosuch:Thing")
        report = sweep([bad], workers=0)
        assert report.results[0].status == "error"
        assert "build failed" in report.results[0].error

    def test_retry_recovers_transient_failures(self, tmp_path):
        marker = tmp_path / "tried"
        flaky = _spec(FlakyDesign, "flaky", marker=str(marker))
        report = sweep([flaky], workers=0, retries=1)
        (r,) = report.results
        assert r.ok and r.attempts == 2

    def test_no_retry_for_deterministic_failures(self):
        report = sweep([_spec(DeadlockDesign, "deadlocker")], workers=0,
                       retries=3)
        assert report.results[0].attempts == 1


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
class TestSweepCache:
    def test_cache_miss_then_hit(self, tmp_path):
        specs = cordic_design_specs(ps=(0, 2), **TINY)
        cold = sweep(specs, workers=0, cache_dir=tmp_path)
        warm = sweep(specs, workers=0, cache_dir=tmp_path)
        assert [r.cache_hit for r in cold.results] == [False, False]
        assert [r.cache_hit for r in warm.results] == [True, True]
        assert [r.cycles for r in cold.results] == \
            [r.cycles for r in warm.results]
        assert [r.slices for r in cold.results] == \
            [r.slices for r in warm.results]
        assert warm.cache_hits == 2
        assert len(SweepCache(tmp_path)) == 2

    def test_changed_point_misses(self, tmp_path):
        sweep(cordic_design_specs(ps=(2,), **TINY), workers=0,
              cache_dir=tmp_path)
        other = sweep(cordic_design_specs(ps=(2,), iters=12, ndata=8),
                      workers=0, cache_dir=tmp_path)
        assert other.results[0].cache_hit is False

    def test_failures_are_not_cached(self, tmp_path):
        sweep([_spec(DeadlockDesign, "deadlocker")], workers=0,
              cache_dir=tmp_path)
        assert len(SweepCache(tmp_path)) == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        specs = cordic_design_specs(ps=(2,), **TINY)
        report = sweep(specs, workers=0, cache_dir=tmp_path)
        entry = tmp_path / f"{report.results[0].fingerprint}.json"
        entry.write_text("{not json")
        again = sweep(specs, workers=0, cache_dir=tmp_path)
        assert again.results[0].status == STATUS_OK
        assert again.results[0].cache_hit is False

    def test_fingerprint_depends_on_cpu_config(self):
        a, = cordic_design_specs(ps=(2,), **TINY)
        b, = cordic_design_specs(
            ps=(2,), cpu_config={"use_hw_multiplier": False}, **TINY
        )
        fa = design_fingerprint(a, a.build())
        fb = design_fingerprint(b, b.build())
        assert fa != fb


# ----------------------------------------------------------------------
# Parallel vs sequential
# ----------------------------------------------------------------------
class TestParallelSweep:
    def test_parallel_matches_sequential(self):
        specs = cordic_design_specs(ps=(0, 2, 4), **TINY)
        seq = sweep(specs, workers=0)
        par = sweep(specs, workers=4)
        assert [r.point.name for r in par.results] == \
            [r.point.name for r in seq.results]
        assert [r.cycles for r in par.results] == \
            [r.cycles for r in seq.results]
        assert [r.status for r in par.results] == \
            [r.status for r in seq.results]
        assert [r.slices for r in par.results] == \
            [r.slices for r in seq.results]

    def test_workers_overlap_wait_bound_points(self):
        specs = synthetic_specs(4, seconds=0.2)
        seq = sweep(specs, workers=0)
        par = sweep(specs, workers=4)
        assert par.wall_seconds < seq.wall_seconds / 1.5

    def test_failures_isolated_to_their_worker(self):
        points = [
            _spec(DeadlockDesign, "deadlocker"),
            *cordic_design_specs(ps=(2,), **TINY),
            _spec(FailingDesign, "self-check-fail"),
        ]
        report = sweep(points, workers=2)
        assert [r.status for r in report.results] == \
            [STATUS_DEADLOCK, STATUS_OK, STATUS_SELF_CHECK]

    def test_design_points_rejected_in_parallel_mode(self):
        from repro.apps.cordic.design import cordic_design_points

        with pytest.raises(TypeError, match="DesignSpec"):
            sweep(cordic_design_points(ps=(0,)), workers=2)

    def test_progress_callback(self):
        events = []
        specs = synthetic_specs(3, seconds=0.01)
        sweep(specs, workers=2, progress=events.append)
        assert len(events) == 3
        assert events[-1].done == 3 and events[-1].total == 3
        assert events[-1].cycles_done > 0
        assert events[-1].cycles_per_second >= 0


class TestWorkerPoolFailures:
    """The pool's failure paths: a worker killed at its hard deadline,
    a worker that dies mid-point, and worker reuse across points."""

    def test_hung_worker_killed_at_deadline_and_replaced(self):
        points = [
            _spec(SyntheticDesign, "hung", seconds=30.0),
            *synthetic_specs(2, seconds=0.0),
        ]
        report = sweep(points, workers=1, timeout_s=0.2, kill_grace_s=0.3,
                       retries=1)
        hung, *quick = report.results
        assert hung.status == STATUS_TIMEOUT
        assert hung.attempts == 2
        assert hung.error == ("worker killed after exceeding the 0.2s "
                              "point budget (+0.3s grace)")
        assert [r.status for r in quick] == [STATUS_OK, STATUS_OK]

    def test_crashed_worker_reported_and_replaced(self):
        points = [
            _spec(ExitingDesign, "crasher"),
            *synthetic_specs(1, seconds=0.0),
        ]
        report = sweep(points, workers=1, retries=1)
        crashed, after = report.results
        assert crashed.status == STATUS_ERROR
        assert crashed.attempts == 2
        assert crashed.error == "worker exited without a result (exit code 7)"
        assert after.status == STATUS_OK

    def test_workers_persist_across_points(self, tmp_path):
        points = [
            _spec(PidRecordingDesign, f"pid-{i}",
                  path=str(tmp_path / f"pid-{i}"))
            for i in range(4)
        ]
        report = sweep(points, workers=2)
        assert all(r.ok for r in report.results)
        pids = {(tmp_path / f"pid-{i}").read_text() for i in range(4)}
        assert len(pids) <= 2


# ----------------------------------------------------------------------
# The run-with-timeout hook
# ----------------------------------------------------------------------
class TestRunTimeout:
    def test_ambient_budget_raises(self):
        design = SpinDesign()
        with pytest.raises(CoSimTimeout, match="wall-clock budget"):
            with run_timeout(0.05):
                design.run()

    def test_explicit_argument_wins(self):
        program, model, mb = _cosim("int main(void) { return 0; }")
        with run_timeout(0.0):
            # a generous explicit budget overrides the ambient zero
            result = CoSimulation(program, model, mb).run(
                policy=RunPolicy(wall_timeout_s=60.0)
            )
        assert result.exit_code == 0

    def test_budget_restored_after_block(self):
        program, model, mb = _cosim("int main(void) { return 0; }")
        with run_timeout(0.05):
            pass
        assert CoSimulation(program, model, mb).run().exit_code == 0


# ----------------------------------------------------------------------
# Spec round trips
# ----------------------------------------------------------------------
class TestSpecsAndShim:
    def test_spec_json_round_trip(self):
        spec = cordic_design_specs(ps=(4,), **TINY)[0]
        clone = DesignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.kind is PartitionKind.HW_ACCELERATED

    def test_result_to_dict(self):
        report = sweep(cordic_design_specs(ps=(2,), **TINY), workers=0)
        d = report.results[0].to_dict()
        assert d["status"] == "ok"
        assert d["cycles"] > 0 and d["slices"] > 0
        assert d["kind"] == "hw-accelerated"
        assert d["halt_reason"] == "exit"
        json.dumps(d)  # must be JSON-serializable


# ----------------------------------------------------------------------
# mb32-dse CLI round trip
# ----------------------------------------------------------------------
class TestMb32DseSweepCli:
    def test_sweep_roundtrip_to_json_report(self, tmp_path, capsys):
        from repro.cli import dse_main

        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(json.dumps({
            "generate": {"app": "cordic", "ps": [0, 2], "iters": 8,
                         "ndata": 8},
            "constraints": {"max_slices": 2000},
            "cache": str(tmp_path / "cache"),
        }))
        out = tmp_path / "report.json"
        md = tmp_path / "report.md"
        rc = dse_main([str(spec_file), "-o", str(out),
                       "--markdown", str(md), "--quiet"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "2/2 ok" in text
        assert "fastest within" in text

        data = json.loads(out.read_text())
        assert data["points"] == 2 and data["ok"] == 2
        assert {r["name"] for r in data["results"]} == \
            {"cordic-sw-8it", "cordic-p2-8it"}
        assert all(r["status"] == "ok" for r in data["results"])
        assert md.read_text().startswith("# Design-space sweep report")

        # second run hits the cache named in the spec file
        rc = dse_main([str(spec_file), "-o", str(out), "--quiet"])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["cache_hits"] == 2

    def test_explicit_points_and_failure_exit_code(self, tmp_path, capsys):
        from repro.cli import dse_main

        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(json.dumps({
            "points": [
                {"name": "deadlocker",
                 "factory": f"{__name__}:DeadlockDesign"},
            ],
        }))
        rc = dse_main([str(spec_file), "--quiet"])
        assert rc == 1
        assert "deadlock" in capsys.readouterr().out

    def test_bad_spec_file(self, tmp_path, capsys):
        from repro.cli import dse_main

        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert dse_main([str(bad)]) == 2
        assert "spec error" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The lockstep vector engine: sweep_batched mirrors the scalar sweep
# ----------------------------------------------------------------------
def _cordic_spec(name: str, **params) -> DesignSpec:
    return DesignSpec(
        name=name, factory="repro.apps.cordic.design:CordicDesign",
        params=params,
    )


def _comparable(result):
    """Everything but wall-clock fields, which are not conformance
    observables (the batch shares one clock across lanes)."""
    r = result.result
    return (
        result.point.name,
        result.status,
        result.error,
        result.fingerprint,
        result.cache_hit,
        None if r is None else (
            r.exit_code, r.cycles, r.instructions, r.stall_cycles,
            r.halt_reason,
        ),
        None if result.estimate is None else result.estimate.total,
    )


class TestSweepBatched:
    # software-only, one 4-lane lockstep group with per-lane programs,
    # a structural singleton, and a self-check failure (iters=48
    # overruns the fixed-point gain)
    POINTS = [
        dict(name="sw", p=0, **TINY),
        dict(name="p2-a", p=2, **TINY),
        dict(name="p2-b", p=2, iters=8, ndata=6),
        dict(name="p2-c", p=2, iters=12, ndata=8),
        dict(name="p2-bad", p=2, iters=48, ndata=8),
        dict(name="p4", p=4, **TINY),
    ]

    def _points(self):
        return [_cordic_spec(**dict(kw)) for kw in self.POINTS]

    def test_matches_scalar_sweep_per_point(self):
        from repro.cosim.sweep_batched import sweep_batched

        scalar = sweep(self._points(), workers=0)
        batched = sweep_batched(self._points(), batch_width=3)
        assert [r.status for r in batched.results] == \
            ["ok", "ok", "ok", "ok", "self-check-failed", "ok"]
        for ref, got in zip(scalar.results, batched.results):
            assert _comparable(got) == _comparable(ref)

    def test_shares_the_scalar_result_cache(self, tmp_path):
        from repro.cosim.sweep_batched import sweep_batched

        cache = tmp_path / "cache"
        first = sweep_batched(self._points(), batch_width=3,
                              cache_dir=str(cache))
        assert first.cache_hits == 0
        # the scalar sweep re-reads what the batched sweep wrote
        second = sweep(self._points(), workers=0, cache_dir=str(cache))
        ok = [r for r in second.results if r.status == STATUS_OK]
        assert ok and all(r.cache_hit for r in ok)

    def test_width_one_and_bad_width(self):
        from repro.cosim.sweep_batched import sweep_batched

        with pytest.raises(ValueError, match="batch_width"):
            sweep_batched(self._points(), batch_width=0)
        report = sweep_batched(self._points()[1:3], batch_width=1)
        assert [r.status for r in report.results] == ["ok", "ok"]

    def test_build_failure_reported_as_error(self):
        from repro.cosim.sweep_batched import sweep_batched

        bad = DesignSpec(name="bad", factory="repro.nosuch:Thing")
        report = sweep_batched([bad])
        assert report.results[0].status == STATUS_ERROR
        assert "build failed" in report.results[0].error
