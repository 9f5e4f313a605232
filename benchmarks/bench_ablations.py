"""Ablation benches for the design choices DESIGN.md calls out.

These quantify the knobs the paper's environment exposes (or that our
implementation adds):

* FSL FIFO depth — deeper FIFOs allow larger data sets per pass,
  amortizing pass overhead (paper Section IV-A sizes sets to the FIFO),
* ISS decode cache — the standard instruction-simulator memoization,
  which also carries the translated basic blocks bursts run,
* compiler register allocation — register-homed locals vs a pure
  stack machine,
* blocking vs non-blocking FSL access styles for the same transfer,
* parallel vs sequential design-space sweeps over the same points.
"""

from __future__ import annotations

import os
import time

import pytest
from conftest import emit

from repro.apps.cordic.design import CordicDesign
from repro.cosim.report import format_table
from repro.iss.cpu import CPUConfig
from repro.iss.run import make_cpu
from repro.mcc import CompileOptions, build_executable


def test_ablation_fsl_fifo_depth(once):
    """CORDIC P=4 cycles as a function of FSL FIFO depth."""

    def sweep():
        rows = []
        for depth in (4, 8, 16, 32):
            design = CordicDesign(p=4, iters=24, ndata=32, fifo_depth=depth)
            result = design.run()
            rows.append((depth, result.cycles, result.stall_cycles))
        return rows

    rows = once(sweep)
    cycles = [r[1] for r in rows]
    assert cycles[-1] <= cycles[0], "deeper FIFOs must not be slower"
    emit(
        "ablation_fsl_depth",
        "Ablation: FSL FIFO depth (CORDIC P=4, 24 iters, 32 divisions)",
        format_table(["FIFO depth", "cycles", "stall cycles"], rows),
    )


def test_ablation_decode_cache(once):
    """ISS wall-clock speed with and without the decode cache; "on"
    includes the translated basic blocks, which need its write hook."""
    design = CordicDesign(p=0, iters=24, ndata=32, verify=False)

    def run_with(cache: bool) -> float:
        cpu = make_cpu(design.program, config=CPUConfig(decode_cache=cache))
        t0 = time.perf_counter()
        cpu.run(max_cycles=10_000_000)
        assert cpu.exit_code == 0
        return cpu.cycle / (time.perf_counter() - t0)

    speeds = once(lambda: {True: run_with(True), False: run_with(False)})
    assert speeds[True] > speeds[False], "decode cache must speed up the ISS"
    emit(
        "ablation_decode_cache",
        "Ablation: ISS decode cache (on = decode cache + translated "
        "basic blocks)",
        format_table(
            ["decode cache", "cycles / wall second"],
            [("on", f"{speeds[True]:,.0f}"), ("off", f"{speeds[False]:,.0f}")],
        )
        + f"\n\nspeedup from caching: {speeds[True] / speeds[False]:.2f}x",
    )


def test_ablation_register_locals(once):
    """Compiler register allocation: cycle count impact on both the
    software CORDIC and the FSL driver."""

    def measure(register_locals: bool):
        out = {}
        for p in (0, 4):
            design = CordicDesign(p=p, iters=24, ndata=16)
            # rebuild the program with the ablated compiler option
            from repro.apps.cordic.software import (
                cordic_hw_source,
                cordic_sw_source,
            )

            source = cordic_sw_source(24, 16) if p == 0 else \
                cordic_hw_source(4, 24, 16)
            design.program = build_executable(
                source, CompileOptions(register_locals=register_locals)
            )
            result = design.run()
            out[p] = result.cycles
        return out

    on = once(lambda: measure(True))
    off = measure(False)
    rows = [
        ("software (P=0)", on[0], off[0], f"{off[0] / on[0]:.2f}x"),
        ("P=4 pipeline", on[4], off[4], f"{off[4] / on[4]:.2f}x"),
    ]
    assert on[0] < off[0] and on[4] < off[4]
    emit(
        "ablation_register_locals",
        "Ablation: compiler register allocation (cycles)",
        format_table(["design", "reg-alloc on", "off", "penalty"], rows),
    )


def _doubler_cosim(source: str):
    """A small echo-doubler design used by the blocking-style ablation."""
    from repro.cosim import CoSimulation, MicroBlazeBlock
    from repro.sysgen import Model
    from repro.sysgen.blocks import Delay, Inverter, Logical, Shift

    model = Model("doubler")
    mb = MicroBlazeBlock(model)
    rd = mb.master_fsl(0)
    wr = mb.slave_fsl(0)
    shl = model.add(Shift("shl", width=32, amount=1, direction="left"))
    notfull = model.add(Inverter("notfull", width=1))
    strobe = model.add(Logical("strobe", width=1, op="and"))
    model.connect(wr.o("full"), notfull.i("a"))
    model.connect(rd.o("exists"), strobe.i("d0"))
    model.connect(notfull.o("out"), strobe.i("d1"))
    model.connect(rd.o("data"), shl.i("a"))
    model.connect(strobe.o("out"), rd.i("read"))
    dly_d = model.add(Delay("dly_d", width=32, n=4))
    dly_v = model.add(Delay("dly_v", width=1, n=4))
    model.connect(shl.o("s"), dly_d.i("d"))
    model.connect(strobe.o("out"), dly_v.i("d"))
    model.connect(dly_d.o("q"), wr.i("data"))
    model.connect(dly_v.o("q"), wr.i("write"))
    program = build_executable(source)
    return CoSimulation(program, model, mb)


_BLOCKING_SRC = """
int main(void) {
    int sum = 0;
    for (int i = 0; i < 64; i++) { putfsl(i, 0); sum += getfsl(0); }
    return sum == 64 * 63;
}
"""

_POLLING_SRC = """
int main(void) {
    int sum = 0;
    for (int i = 0; i < 64; i++) {
        putfsl(i, 0);
        int v = ngetfsl(0);
        while (fsl_isinvalid()) { v = ngetfsl(0); }
        sum += v;
    }
    return sum == 64 * 63;
}
"""


@pytest.mark.sweep
def test_ablation_sweep_parallel(once, sweep_smoke):
    """Parallel vs sequential DSE sweep over a CORDIC P-sweep.

    Records per-point equality (ordering and cycle counts must be
    identical), the CPU-bound wall-clock speedup on this host, and a
    wait-bound overlap measurement that isolates the scheduler from
    host core count (a sleeping point occupies a worker slot without
    competing for CPU).
    """
    from repro.apps.cordic.design import cordic_design_specs
    from repro.cosim.sweep import sweep, synthetic_specs

    # 9 points: P in {2,4,6,8} x FIFO depth {8,16}, plus pure software
    specs = cordic_design_specs(ps=(0,), iters=24, ndata=32)
    for depth in (8, 16):
        specs += cordic_design_specs(ps=(2, 4, 6, 8), iters=24, ndata=32,
                                     fifo_depth=depth)
    for spec, suffix in zip(specs[1:], ["-d8"] * 4 + ["-d16"] * 4):
        spec.name += suffix
    workers = 4
    n_empty = 200
    cores = len(os.sched_getaffinity(0))

    def measure():
        seq = sweep(specs, workers=0)
        par = sweep(specs, workers=workers)
        waits = synthetic_specs(8, seconds=0.4)
        wait_seq = sweep(waits, workers=0)
        wait_par = sweep(waits, workers=workers)
        # zero-second points: what the engine itself costs per point
        empty = synthetic_specs(n_empty, seconds=0.0)
        empty_seq = sweep(empty, workers=0)
        empty_par = sweep(empty, workers=workers)
        return seq, par, wait_seq, wait_par, empty_seq, empty_par

    seq, par, wait_seq, wait_par, empty_seq, empty_par = once(measure)

    # parallel evaluation must be invisible in the results
    assert [r.point.name for r in par.results] == \
        [r.point.name for r in seq.results]
    assert [r.cycles for r in par.results] == \
        [r.cycles for r in seq.results]
    assert all(r.ok for r in seq.results)

    overlap = wait_seq.wall_seconds / wait_par.wall_seconds
    assert overlap >= 2.0, "4 workers must overlap wait-bound points >=2x"
    speedup = seq.wall_seconds / par.wall_seconds
    if cores >= workers:
        assert speedup >= 2.0, \
            f"expected >=2x CPU-bound speedup on {cores} cores"

    rows = [
        (s.point.name, s.cycles, p.cycles, "yes" if s.cycles == p.cycles
         else "NO")
        for s, p in zip(seq.results, par.results)
    ]
    emit(
        "ablation_sweep_parallel",
        f"Ablation: parallel DSE sweep ({len(specs)} CORDIC points, "
        f"{workers} workers, {cores} usable core(s))",
        format_table(
            ["design", "seq cycles", "par cycles", "identical"], rows
        )
        + f"\n\nCPU-bound:  sequential {seq.wall_seconds:.2f}s, "
          f"{workers} workers {par.wall_seconds:.2f}s "
          f"-> {speedup:.2f}x on {cores} usable core(s)"
        + f"\nwait-bound: sequential {wait_seq.wall_seconds:.2f}s, "
          f"{workers} workers {wait_par.wall_seconds:.2f}s "
          f"-> {overlap:.2f}x worker overlap (8 x 0.4s points)"
        + f"\nper-point overhead ({n_empty} zero-second points): "
          f"sequential {1e3 * empty_seq.wall_seconds / n_empty:.2f} "
          f"ms/point, {workers} workers "
          f"{1e3 * empty_par.wall_seconds / n_empty:.2f} ms/point"
          f" (persistent workers, started once per sweep)"
        + "\n\nCPU-bound speedup tracks available cores; wait-bound"
          "\noverlap shows the scheduler itself sustains >=2x with 4"
          "\nworkers even on one core.",
    )


def test_ablation_blocking_vs_nonblocking(once):
    def measure():
        blocking = _doubler_cosim(_BLOCKING_SRC).run()
        polling = _doubler_cosim(_POLLING_SRC).run()
        assert blocking.exit_code == 1 and polling.exit_code == 1
        return blocking, polling

    blocking, polling = once(measure)
    rows = [
        ("blocking get", blocking.cycles, blocking.stall_cycles),
        ("non-blocking poll", polling.cycles, polling.stall_cycles),
    ]
    # Blocking waits stall the pipe; polling spends instructions instead.
    assert blocking.stall_cycles > 0
    assert polling.instructions > blocking.instructions
    emit(
        "ablation_blocking",
        "Ablation: blocking vs non-blocking FSL round trips (64 words, "
        "4-cycle peripheral latency)",
        format_table(["style", "cycles", "stall cycles"], rows),
    )
