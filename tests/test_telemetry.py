"""Tests for the unified telemetry subsystem.

Covers the event bus, the metrics pipeline, the exporters, the
profilers, the mode-invariance contract (per-cycle and fast-forward
runs must produce identical design-level metrics) and the
``mb32-profile`` CLI.
"""

import contextlib
import io
import json

import pytest

from repro.apps.cordic.design import CordicDesign
from repro.cli import profile_main
from repro.cosim.environment import CoSimulation
from repro.cosim.multicpu import CPUNode, MultiCoSimulation
from repro.cosim.topology import TopologySpec
from repro.iss.run import make_cpu
from repro.mcc import build_executable
from repro.sysgen.model import Model
from repro.telemetry import (
    FSL_PUSH,
    RETIRE,
    STALL_END,
    EventBus,
    MetricsRegistry,
    Telemetry,
    TelemetryEvent,
    current_telemetry,
    telemetry_scope,
)
from repro.telemetry.export import ChromeTraceExporter, CosimVCDExporter

LOOP_SRC = """
int main(void) {
    int sum = 0;
    for (int i = 0; i < 10; i++) sum += i;
    return sum;
}
"""


# ----------------------------------------------------------------------
# Event bus
# ----------------------------------------------------------------------
class TestEventBus:
    def test_any_subscriber_sees_every_kind(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(TelemetryEvent(RETIRE, 1, "cpu"))
        bus.emit(TelemetryEvent(FSL_PUSH, 2, "ch"))
        assert [e.kind for e in seen] == [RETIRE, FSL_PUSH]

    def test_kind_filter(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds=(STALL_END,))
        bus.emit(TelemetryEvent(RETIRE, 1, "cpu"))
        bus.emit(TelemetryEvent(STALL_END, 2, "ch", aux=5))
        assert len(seen) == 1 and seen[0].aux == 5

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds=(RETIRE,))
        bus.unsubscribe(seen.append)
        bus.emit(TelemetryEvent(RETIRE, 1, "cpu"))
        assert seen == []
        assert bus.subscriber_count == 0

    def test_subscriber_count(self):
        bus = EventBus()
        bus.subscribe(lambda e: None)
        bus.subscribe(lambda e: None, kinds=(RETIRE, STALL_END))
        assert bus.subscriber_count == 2


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_and_gauge_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        gauge = reg.gauge("b")
        gauge.set(7)
        gauge.set(2)
        snap = reg.snapshot()
        assert snap["a"] == 3
        assert snap["b"] == {"value": 2, "high_water": 7}

    def test_histogram_snapshot(self):
        reg = MetricsRegistry()
        h = reg.histogram("d", bounds=(1, 4))
        for v in (1, 2, 100):
            h.observe(v)
        snap = reg.snapshot()["d"]
        assert snap["buckets"] == {"<=1": 1, "<=4": 1, "inf": 1}
        assert snap["total"] == 3 and snap["sum"] == 103

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert reg.snapshot() == {}


# ----------------------------------------------------------------------
# No-op fast path
# ----------------------------------------------------------------------
class TestDisabledByDefault:
    def test_cpu_has_no_bus_without_telemetry(self):
        cpu = make_cpu(build_executable(LOOP_SRC))
        assert cpu.events is None
        cpu.run()
        assert cpu.exit_code == 45

    def test_cosim_has_no_telemetry_outside_scope(self):
        design = CordicDesign(p=2, iters=4, ndata=2)
        sim = CoSimulation(design.program, design.model, design.mb,
                           cpu_config=design.cpu_config)
        assert sim.telemetry is None
        assert sim.cpu.events is None

    def test_ambient_scope_attaches_and_restores(self):
        assert current_telemetry() is None
        tel = Telemetry()
        with telemetry_scope(tel):
            assert current_telemetry() is tel
            design = CordicDesign(p=2, iters=4, ndata=2)
            sim = CoSimulation(design.program, design.model, design.mb,
                               cpu_config=design.cpu_config)
            assert sim.telemetry is tel
            assert sim.cpu.events is tel.bus
        assert current_telemetry() is None


# ----------------------------------------------------------------------
# Mode invariance: the acceptance contract
# ----------------------------------------------------------------------
def run_instrumented(fast_forward: bool, *, fifo_depth=2, regions=False,
                     phases=False):
    tel = Telemetry()
    design = CordicDesign(p=8, iters=24, ndata=16, fifo_depth=fifo_depth,
                          fast_forward=fast_forward)
    if regions:
        tel.enable_regions(design.program)
    if phases:
        tel.enable_phases()
    with telemetry_scope(tel):
        result = design.run()
    return tel, result


class TestModeInvariance:
    def test_invariant_snapshot_identical_across_modes(self):
        tel_ff, res_ff = run_instrumented(True)
        tel_pc, res_pc = run_instrumented(False)
        assert res_ff.cycles == res_pc.cycles
        assert tel_ff.invariant_snapshot() == tel_pc.invariant_snapshot()

    def test_snapshot_counts_match_cosim_result(self):
        for fast_forward in (True, False):
            tel, result = run_instrumented(fast_forward)
            snap = tel.snapshot(result)
            assert snap["run"]["cycles"] == result.cycles
            assert snap["run"]["instructions"] == result.instructions
            assert snap["cpu"]["cycles"] == result.cycles
            assert snap["cpu"]["instructions"] == result.instructions

    def test_stall_metrics_sum_to_cpu_stall_cycles(self):
        tel, result = run_instrumented(True)
        stalls = tel.collector.stalls_by_channel()
        assert result.stall_cycles > 0
        assert sum(stalls.values()) == result.stall_cycles

    def test_fast_forward_metrics_only_in_ff_mode(self):
        tel_ff, res_ff = run_instrumented(True)
        tel_pc, _ = run_instrumented(False)
        ff = tel_ff.collector.fast_forward_stats(res_ff.cycles)
        assert ff["windows"] > 0 and ff["skipped_cycles"] > 0
        assert tel_pc.collector.fast_forward_stats(1)["windows"] == 0

    def test_snapshot_is_json_safe(self):
        tel, result = run_instrumented(True)
        json.dumps(tel.snapshot(result))


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestChromeTraceExporter:
    def run_traced(self, fast_forward=True):
        tel = Telemetry()
        tracer = ChromeTraceExporter(tel.bus)
        design = CordicDesign(p=4, iters=24, ndata=8, fifo_depth=2,
                              fast_forward=fast_forward)
        with telemetry_scope(tel):
            design.run()
        return tracer

    def test_document_shape(self):
        tracer = self.run_traced()
        doc = json.loads(tracer.to_json())
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        events = doc["traceEvents"]
        assert events, "trace must be non-empty"
        for e in events:
            assert e["ph"] in ("M", "X", "i", "C")
            if e["ph"] != "M":
                assert e["ts"] >= 0
            if e["ph"] == "X":
                assert e["dur"] >= 1

    def test_tracks_cover_cpu_channels_and_blocks(self):
        tracer = self.run_traced()
        doc = json.loads(tracer.to_json())
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"cpu", "mb_out0", "mb_in0", "fsl_in0", "fsl_out0"} <= names

    def test_fast_forward_slices_present(self):
        tracer = self.run_traced(fast_forward=True)
        doc = json.loads(tracer.to_json())
        slices = [e for e in doc["traceEvents"]
                  if e["name"] == "fast-forward"]
        assert slices
        assert all(e["dur"] == e["args"]["skipped_cycles"] for e in slices)

    def test_max_events_bounds_memory(self):
        tel = Telemetry()
        tracer = ChromeTraceExporter(tel.bus, max_events=10)
        design = CordicDesign(p=2, iters=24, ndata=8)
        with telemetry_scope(tel):
            design.run()
        assert len(tracer.trace_events()) <= 10 + len(tracer._tids) + 1
        assert tracer.dropped > 0
        assert json.loads(tracer.to_json())["otherData"]["dropped_events"] \
            == tracer.dropped


class TestCosimVCDExporter:
    def test_writes_cycle_faithful_vcd(self):
        tel = Telemetry()
        design = CordicDesign(p=2, iters=24, ndata=8, fifo_depth=2)
        out = io.StringIO()
        vcd = CosimVCDExporter(tel.bus, out, design.mb.channels())
        with telemetry_scope(tel):
            result = design.run()
        text = out.getvalue()
        assert vcd.changes > 0
        assert "$timescale 20 ns $end" in text
        assert "cpu_pc" in text and "cpu_stall" in text
        assert "mb_out0_occupancy" in text
        times = [int(line[1:]) for line in text.splitlines()
                 if line.startswith("#")]
        assert times == sorted(times)
        assert times[-1] <= result.cycles


# ----------------------------------------------------------------------
# Profilers
# ----------------------------------------------------------------------
class TestProfilers:
    def test_region_cycles_sum_to_total(self):
        for fast_forward in (True, False):
            tel, result = run_instrumented(fast_forward, regions=True)
            tel.regions.finalize(result.cycles)
            report = tel.regions.report()
            assert sum(r["cycles"] for r in report) == result.cycles
            assert sum(r["instructions"] for r in report) \
                == result.instructions
            assert abs(sum(r["share"] for r in report) - 1.0) < 1e-9

    def test_region_attribution_is_mode_invariant(self):
        tel_ff, res = run_instrumented(True, regions=True)
        tel_pc, _ = run_instrumented(False, regions=True)
        tel_ff.regions.finalize(res.cycles)
        tel_pc.regions.finalize(res.cycles)
        assert tel_ff.regions.report() == tel_pc.regions.report()

    def test_phase_timer_accounts_the_run_loop(self):
        tel, result = run_instrumented(True, phases=True)
        report = tel.phases.report(result.wall_seconds)
        assert set(report) >= {"cpu_step", "fast_forward_scan", "other"}
        accounted = sum(row["seconds"] for row in report.values())
        assert accounted == pytest.approx(result.wall_seconds, rel=0.05)

    def test_phases_off_means_plain_loop(self):
        tel, _ = run_instrumented(True)
        assert tel.phases is None

    def test_phase_timer_profiles_the_production_loop(self, monkeypatch):
        """The timer wraps the loop production runs — hardware-idle
        caching included — so enabling it must not change which hooks
        the loop calls, or how often."""
        calls = []
        original = Model.idle_horizon

        def counted(model):
            calls.append(model)
            return original(model)

        monkeypatch.setattr(Model, "idle_horizon", counted)
        _, plain = run_instrumented(True)
        plain_calls = len(calls)
        calls.clear()
        tel, timed = run_instrumented(True, phases=True)
        assert (timed.cycles, timed.instructions) \
            == (plain.cycles, plain.instructions)
        assert plain_calls > 0
        assert len(calls) == plain_calls
        assert tel.phases.calls["fast_forward_scan"] >= plain_calls
        # the shadows are gone once the run returns
        assert "tick" not in vars(tel.cpu)

    def test_phase_timer_covers_multicpu(self):
        producer = build_executable(
            "int main(void) {"
            " for (int i = 0; i < 40; i++) putfsl(i, 0);"
            " return 0; }")
        consumer = build_executable(
            "int main(void) { int sum = 0;"
            " for (int i = 0; i < 40; i++) sum += getfsl(0);"
            " return sum == 780 ? 0 : 1; }")
        tel = Telemetry()
        tel.enable_phases()
        sim = MultiCoSimulation(
            [CPUNode(program=producer), CPUNode(program=consumer)],
            TopologySpec.pipeline(2), link_depth=2, telemetry=tel)
        result = sim.run()
        assert result.exit_code == 0
        report = tel.phases.report(result.wall_seconds)
        assert report["cpu_step"]["calls"] > 0
        assert report["fast_forward_scan"]["calls"] > 0
        for cpu in sim.cpus:
            assert "tick" not in vars(cpu)


# ----------------------------------------------------------------------
# mb32-profile CLI
# ----------------------------------------------------------------------
class TestProfileCLI:
    def metrics(self, args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = profile_main(args)
        assert rc == 0
        return json.loads(buf.getvalue())

    def test_metrics_match_result_in_both_modes(self):
        base = ["cordic", "--p", "4", "--iters", "24", "--ndata", "8",
                "--fifo-depth", "2", "--metrics", "-"]
        ff = self.metrics(base)
        pc = self.metrics(base + ["--per-cycle"])
        for snap in (ff, pc):
            assert snap["run"]["exit_code"] == 0
            assert snap["run"]["cycles"] == snap["cpu"]["cycles"]
            assert snap["run"]["instructions"] == snap["cpu"]["instructions"]
        assert ff["run"]["cycles"] == pc["run"]["cycles"]
        assert ff["cpu"] == pc["cpu"]
        assert ff["fast_forward"]["windows"] > 0
        assert pc["fast_forward"]["windows"] == 0

    def test_trace_and_vcd_outputs(self, tmp_path):
        trace = tmp_path / "out.json"
        vcd = tmp_path / "out.vcd"
        rc = profile_main(["cordic", "--p", "2", "--iters", "8",
                           "--ndata", "4", "--trace", str(trace),
                           "--vcd", str(vcd), "--metrics",
                           str(tmp_path / "m.json")])
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        assert "$dumpvars" in vcd.read_text()

    def test_software_only_run(self, tmp_path):
        src = tmp_path / "p.c"
        src.write_text(LOOP_SRC)
        snap = self.metrics(["run", str(src), "--metrics", "-"])
        assert snap["run"]["exit_code"] == 45
        assert snap["run"]["cycles"] == snap["cpu"]["cycles"] > 0

    def test_matmul_app(self):
        snap = self.metrics(["matmul", "--block", "2", "--matn", "4",
                             "--metrics", "-"])
        assert snap["run"]["exit_code"] == 0
        assert snap["run"]["cycles"] == snap["cpu"]["cycles"]


# ----------------------------------------------------------------------
# Sweep integration
# ----------------------------------------------------------------------
class TestSweepTelemetry:
    def specs(self):
        from repro.cosim.partition import DesignSpec

        return [DesignSpec(
            name="cordic-p2",
            factory="repro.apps.cordic.design:CordicDesign",
            params={"p": 2, "iters": 8, "ndata": 4},
        )]

    def test_sweep_attaches_metrics(self):
        from repro.cosim.sweep import sweep

        report = sweep(self.specs(), workers=0, telemetry=True)
        (r,) = report.results
        assert r.ok and r.metrics is not None
        assert r.metrics["run"]["cycles"] == r.result.cycles
        assert "metrics" in r.to_dict()
        json.dumps(report.to_dict())

    def test_sweep_without_telemetry_has_none(self):
        from repro.cosim.sweep import sweep

        report = sweep(self.specs(), workers=0)
        assert report.results[0].metrics is None
        assert "metrics" not in report.results[0].to_dict()

    def test_cache_hits_carry_no_metrics(self, tmp_path):
        from repro.cosim.sweep import sweep

        sweep(self.specs(), workers=0, cache_dir=tmp_path)
        report = sweep(self.specs(), workers=0, cache_dir=tmp_path,
                       telemetry=True)
        (r,) = report.results
        assert r.cache_hit and r.metrics is None


# ----------------------------------------------------------------------
# Tracer adapters share the telemetry bus
# ----------------------------------------------------------------------
class TestSharedBus:
    def test_instruction_tracer_reuses_telemetry_bus(self):
        from repro.iss.trace import InstructionTracer

        tel = Telemetry()
        cpu = make_cpu(build_executable(LOOP_SRC))
        tel.attach_cpu(cpu)
        tracer = InstructionTracer(cpu).install()
        cpu.run()
        assert cpu.events is tel.bus
        assert len(tracer.entries) == cpu.stats.instructions
        # the metrics pipeline saw the same stream
        assert tel.snapshot()["cpu"]["instructions"] \
            == cpu.stats.instructions

    def test_fsl_trace_and_metrics_agree(self):
        from repro.cosim.trace import FSLTrace

        tel = Telemetry()
        design = CordicDesign(p=2, iters=8, ndata=4, fifo_depth=2)
        with telemetry_scope(tel):
            sim = CoSimulation(design.program, design.model, design.mb,
                               cpu_config=design.cpu_config)
            trace = FSLTrace(design.mb,
                             clock=lambda: sim.cpu.cycle).install()
            sim.run()
        pushed = sum(1 for t in trace.transactions
                     if t.channel == "mb_out0" and t.direction == "push")
        (out_channel,) = [ch for ch in design.mb.channels()
                          if ch.name == "mb_out0"]
        assert pushed == out_channel.total_pushed
