"""The native C step kernel of the lockstep schedule.

* Every standard design builds a kernel when ``gcc`` is present: the
  five designs pinned in ``tests/test_batched.py`` (each cycle in one
  C call) and the seed-0 conformance scenarios.
* Lane tables — an ``(N, depth)`` array read by the gather
  ``T[ar, i]`` and written by the masked scatter ``T[m, p[m]] =
  (v)[m]`` (delay lines, FIFOs, RAMs, per-lane ROMs) — run the same in
  the scalar engine and the C kernel, with lanes frozen and thawed
  mid-run.
* A rebuilt batch of one design reuses the translation of its cycle
  body (no ``ast.parse``) but binds its own arrays; the compiled
  library is cached apart from it, so clearing that cache still pays
  ``gcc``.
* Each process that builds a kernel compiles it into a private
  temporary directory, which must be gone once the process exits,
  whether it is a main process or a forked worker of
  :mod:`repro.runapi.pool` (which leaves through ``os._exit`` and
  skips ``atexit``).
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import textwrap

import pytest

np = pytest.importorskip("numpy")

from repro.conformance.scenario import ScenarioGenerator, build_model
from repro.sysgen.batched import BatchedModel, BatchUnsupported
from repro.sysgen.blocks.control import Constant, Counter
from repro.sysgen.blocks.logic import Relational, Slice
from repro.sysgen.blocks.memory import FIFO, RAM, ROM, Delay
from repro.sysgen import ckernel
from repro.sysgen.ckernel import build_step_kernel
from repro.sysgen.model import Model
from tests.conftest import needs_gcc
from tests.test_batched import PINNED_SOURCES

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@needs_gcc
@pytest.mark.parametrize("build,param", list(PINNED_SOURCES))
def test_pinned_designs_build_a_kernel(build, param):
    # a batch whose kernel cannot be built raises BatchUnsupported
    BatchedModel([build(param), build(param)])


@needs_gcc
@pytest.mark.parametrize("build,param", list(PINNED_SOURCES))
def test_pinned_designs_run_a_cycle_in_one_c_call(build, param):
    # the FSL endpoints are lane tables too: nothing in the cycle body
    # is left to python, so no python line splits the kernel
    batch = BatchedModel([build(param), build(param)])
    assert batch.ckernel.seg_count == 1
    assert batch.fallback_blocks == []


@needs_gcc
def test_conformance_scenarios_build_a_kernel():
    gen = ScenarioGenerator(seed=0)
    missing = []
    for index in range(25):
        scenario = gen.scenario(index)
        try:
            BatchedModel([build_model(scenario)[0] for _ in range(2)])
        except BatchUnsupported as exc:
            missing.append(f"{scenario.name}: {exc}")
    assert missing == []


def build_rom_of(contents: list[int]) -> Model:
    m = Model("rom")
    cnt = m.add(Counter("cnt", width=8))
    rom = m.add(ROM("rom", contents, width=8))
    m.connect(cnt.o("q"), rom.i("addr"))
    m.probe(rom.o("data"))
    return m


def build_rom(words: int) -> Model:
    return build_rom_of([7 * i + 3 for i in range(words)])


@needs_gcc
@pytest.mark.parametrize("words", [3, 4, 5])
def test_shared_rom_as_long_as_the_batch_builds_a_kernel(words):
    # a ROM of four words in a batch of four is a shared table, not a
    # lane vector, although its shape is (N,)
    ref = build_rom(words)
    ref.step(12)
    batch = BatchedModel([build_rom(words) for _ in range(4)])
    batch.step(12)
    for model in batch.models:
        assert model.probes[0].samples == ref.probes[0].samples


def _spy_translation(monkeypatch) -> dict[str, int]:
    calls = {"parse": 0, "gcc": 0}
    parse, compile_ = ast.parse, ckernel._compile

    def counting_parse(*args, **kwargs):
        calls["parse"] += 1
        return parse(*args, **kwargs)

    def counting_compile(*args, **kwargs):
        calls["gcc"] += 1
        return compile_(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(ckernel, "_compile", counting_compile)
    return calls


@needs_gcc
def test_rebuilt_batch_reuses_the_translation_with_its_own_arrays(
        monkeypatch):
    # Equal contents length, so equal cycle bodies: the second batch
    # reuses the translation and must read its own (shared) ROM table.
    first, second = [5, 9, 13, 17, 21], [2, 4, 6, 8, 10]
    BatchedModel([build_rom_of(first) for _ in range(3)])
    calls = _spy_translation(monkeypatch)
    batch = BatchedModel([build_rom_of(second) for _ in range(3)])
    assert calls == {"parse": 0, "gcc": 0}
    ref = build_rom_of(second)
    ref.step(12)
    batch.step(12)
    for model in batch.models:
        assert model.probes[0].samples == ref.probes[0].samples
    # the library cache alone holds compiled code: clearing it pays gcc
    ckernel._LIB_CACHE.clear()
    BatchedModel([build_rom_of(second) for _ in range(3)])
    assert calls == {"parse": 0, "gcc": 1}


@needs_gcc
def test_translation_is_redone_when_an_inlined_constant_changes():
    n = 4
    act = np.ones(n, dtype=np.bool_)
    for k in (3, 5, 3):
        ports = [np.arange(n, dtype=np.int64)]
        kernel, body = build_step_kernel(
            n, ["v0 = v0 + K"], ports, [], {"v0": 0}, {},
            {"K": k}, "_act", "_ar", "_z")
        assert body == [0]
        kernel.runner()(0, act)
        assert ports[0].tolist() == [k + i for i in range(n)]


@needs_gcc
def test_temporaries_only_carry_lane_arrays_across_segments():
    # A temporary only its own segment names is a C local; one that a
    # later segment reads, after a python line, keeps a lane array.
    n = 3
    act = np.ones(n, dtype=np.bool_)
    ports = [np.arange(n, dtype=np.int64), np.zeros(n, np.int64)]
    kernel, body = build_step_kernel(
        n, ["_t1 = v0 + 1", "_t2 = _t1 * 2", "for _l in _ln: pass",
            "v1 = _t2 + _t1 * 0"], ports, [], {"v0": 0, "v1": 1}, {}, {},
        "_act", "_ar", "_z")
    assert body == [0, "for _l in _ln: pass", 1]
    assert len(kernel.arrays) == 2 + 2  # both read in segment 1
    kernel, body = build_step_kernel(
        n, ["_t1 = v0 + 1", "_t2 = _t1 * 2", "for _l in _ln: pass",
            "v1 = _t2"], ports, [], {"v0": 0, "v1": 1}, {}, {},
        "_act", "_ar", "_z")
    assert len(kernel.arrays) == 2 + 1 and "i64 _s0;" in kernel.source
    run = kernel.runner()
    run(0, act)
    run(1, act)
    assert ports[1].tolist() == [2, 4, 6]


def build_tables(step: int = 1, limit: int = 40, rom_base: int = 3) -> Model:
    """Every lane-table block, fed so that its edge cases come up:
    delay lines of one word and of three (the head wraps), one of them
    fed runs of equal words, a depth-3
    FIFO whose pushes meet a full FIFO and whose pops meet an empty one,
    a RAM written under a per-lane enable, and a ROM with per-lane
    contents."""
    m = Model("tables")
    cnt = m.add(Counter("cnt", width=8, step=step))
    bit0 = m.add(Slice("bit0", 0, 0))
    bit2 = m.add(Slice("bit2", 2, 2))
    bit3 = m.add(Slice("bit3", 3, 3))
    bit4 = m.add(Slice("bit4", 4, 4))
    low = m.add(Slice("low", 2, 0))
    for s in (bit0, bit2, bit3, bit4, low):
        m.connect(cnt.o("q"), s.i("a"))
    d1 = m.add(Delay("d1", width=8, n=1))
    m.connect(cnt.o("q"), d1.i("d"))
    d3 = m.add(Delay("d3", width=1, n=3))
    m.connect(bit2.o("out"), d3.i("d"))
    dc = m.add(Delay("dc", width=8, n=3))
    m.connect(cnt.o("q"), dc.i("d"))
    fifo = m.add(FIFO("fifo", width=8, depth=3))
    m.connect(cnt.o("q"), fifo.i("din"))
    m.connect(bit3.o("out"), fifo.i("push"))
    m.connect(bit4.o("out"), fifo.i("pop"))
    k = m.add(Constant("k", limit, width=8))
    we = m.add(Relational("we", width=8, op="lt"))
    m.connect(cnt.o("q"), we.i("a"))
    m.connect(k.o("out"), we.i("b"))
    ram = m.add(RAM("ram", depth=8, width=8))
    m.connect(low.o("out"), ram.i("addr"))
    m.connect(cnt.o("q"), ram.i("din"))
    m.connect(we.o("out"), ram.i("we"))
    rom = m.add(ROM("rom", [rom_base * (i + 1) + i * i for i in range(8)],
                    width=8))
    m.connect(low.o("out"), rom.i("addr"))
    for ref in (d1.o("q"), d3.o("q"), dc.o("q"), fifo.o("dout"), fifo.o("count"),
                fifo.o("full"), fifo.o("empty"), ram.o("dout"),
                rom.o("data")):
        m.probe(ref)
    return m


TABLE_PARAMS = [
    {"step": 1, "limit": 40, "rom_base": 3},
    {"step": 3, "limit": 200, "rom_base": 5},
    {"step": 1, "limit": 0, "rom_base": 7},
    {"step": 5, "limit": 90, "rom_base": 11},
]

#: (lane, freeze at batch cycle, thaw at batch cycle)
FREEZES = [(1, 10, 34), (2, 25, 61), (3, 0, 7)]
CYCLES = 80


def _state_rows(batch, lane: int) -> list:
    return [a[lane].tolist() for a in batch.state_store]


@needs_gcc
@pytest.mark.parametrize("engine", ["c"])
def test_lane_tables_match_scalar_across_freezes(engine):
    batch = BatchedModel([build_tables(**p) for p in TABLE_PARAMS])
    assert batch.fallback_blocks == []
    frozen_rows = {}
    for cycle in range(CYCLES):
        for lane, stop, go in FREEZES:
            if cycle == stop:
                batch.deactivate(lane)
                frozen_rows[lane] = _state_rows(batch, lane)
            if cycle == go:
                # no masked update — the tables' scatters included —
                # wrote the lane while it was frozen
                assert _state_rows(batch, lane) == frozen_rows.pop(lane)
                batch.activate(lane)
        batch.step(1)
    for lane, params in enumerate(TABLE_PARAMS):
        frozen = sum(go - stop for ln, stop, go in FREEZES if ln == lane)
        ref = build_tables(**params)
        ref.step(CYCLES - frozen)
        batch.write_back(lane)
        assert batch.models[lane].state_dict() == ref.state_dict(), lane
    # the FIFO filled up, and the lanes' ROMs answered differently
    samples = [p.samples for m in batch.models for p in m.probes]
    assert any(1 in s for s in samples[5::9])  # fifo.full
    assert len({tuple(m.probes[8].samples[:8]) for m in batch.models}) > 1


SCRIPT = textwrap.dedent("""
    import os
    from repro.apps.cordic.hardware import build_cordic_model
    from repro.runapi.pool import Worker
    from repro.sysgen import ckernel
    from repro.sysgen.batched import BatchedModel

    def build_kernel():
        batch = BatchedModel([build_cordic_model(2)[0] for _ in range(2)])
        assert batch.ckernel is not None, "no kernel was built"
        assert os.listdir(ckernel._WORK_DIR)
        return ckernel._WORK_DIR

    if __name__ == "__main__":
        worker = Worker()
        worker.send(build_kernel)
        reply = worker.recv()
        worker.exit()
        assert reply["ok"], reply
        print(reply["value"])
        print(build_kernel())
""")


@needs_gcc
def test_build_directories_removed_at_exit(tmp_path):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO, "src"),
             "TMPDIR": str(scratch)},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    worker_dir, main_dir = proc.stdout.split()
    assert worker_dir != main_dir
    for path in (worker_dir, main_dir):
        assert os.path.dirname(path) == str(scratch)
        assert not os.path.exists(path), f"{path} outlived its process"
    assert os.listdir(scratch) == []
