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

import os
import subprocess
import sys
import textwrap

import pytest

np = pytest.importorskip("numpy")

from repro.conformance.scenario import ScenarioGenerator, build_model
from repro.sysgen.batched import BatchedModel, BatchUnsupported
from repro.sysgen.block import CombBlock, SeqBlock
from repro.sysgen.blocks.arith import Add, AddSub, Shift
from repro.sysgen.blocks.control import Constant, Counter
from repro.sysgen.blocks.logic import Concat, Mux, Relational, Slice
from repro.sysgen.blocks.memory import FIFO, RAM, ROM, Delay, Register
from repro.sysgen import ckernel
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


@needs_gcc
def test_a_slot_array_of_another_layout_is_refused():
    # the kernel addresses cells directly: it takes only contiguous
    # int64 arrays of its slots' shapes
    batch = BatchedModel([build_rom(4) for _ in range(2)])
    arrays = list(batch.ckernel.arrays)
    for wrong in (arrays[0].astype(np.int32), np.zeros(3, np.int64),
                  np.zeros(4, np.int64)[::2]):
        with pytest.raises(ValueError, match="int64"):
            batch.ckernel.point_at(arrays[:1] + [wrong] + arrays[2:])


def _count_gcc(monkeypatch) -> list[str]:
    """The source hash of every library ``gcc`` builds from now on."""
    builds: list[str] = []
    compile_ = ckernel._compile

    def counting_compile(source, key):
        builds.append(key)
        return compile_(source, key)

    monkeypatch.setattr(ckernel, "_compile", counting_compile)
    return builds


@needs_gcc
def test_rebuilt_batch_runs_no_gcc_and_reads_its_own_arrays(monkeypatch):
    # Equal contents length, so equal C sources: the second batch loads
    # the first one's library and must read its own (shared) ROM table.
    first, second = [5, 9, 13, 17, 21], [2, 4, 6, 8, 10]
    BatchedModel([build_rom_of(first) for _ in range(3)])
    builds = _count_gcc(monkeypatch)
    batch = BatchedModel([build_rom_of(second) for _ in range(3)])
    assert builds == []
    ref = build_rom_of(second)
    ref.step(12)
    batch.step(12)
    for model in batch.models:
        assert model.probes[0].samples == ref.probes[0].samples
    # the library cache alone holds compiled code: clearing it pays gcc
    ckernel._LIB_CACHE.clear()
    BatchedModel([build_rom_of(second) for _ in range(3)])
    assert len(builds) == 1


def build_offset(offset: int) -> Model:
    """A counter plus ``offset``, an unconnected input's default that
    the C source holds as a literal."""
    m = Model("offset")
    cnt = m.add(Counter("cnt", width=8))
    add = m.add(Add("add", width=8))
    add.inputs["b"].default = offset
    m.connect(cnt.o("q"), add.i("a"))
    m.probe(add.o("s"))
    return m


@needs_gcc
def test_a_changed_constant_gives_the_right_lanes(monkeypatch):
    builds = _count_gcc(monkeypatch)
    for offset in (3, 5, 3):
        ref = build_offset(offset)
        ref.step(6)
        batch = BatchedModel([build_offset(offset) for _ in range(2)])
        batch.step(6)
        for model in batch.models:
            assert model.probes[0].samples == ref.probes[0].samples
    # one library per literal: the second offset 3 reuses the first's
    assert len(builds) == len(set(builds)) == 2


class Doubler(SeqBlock):
    """``q`` presents the state; the edge stores ``2 * state + 1 + d``.
    Its lane emitter computes ``2 * state + 1`` into a temporary at the
    present and reads it at the edge, so a python line (the probe loop)
    sits between the two, and another temporary that only the present
    names."""

    def __init__(self, name: str):
        super().__init__(name)
        self.add_input("d")
        self.add_output("q", 8)
        self._state = 0
        self.temps: tuple[str, str] = ("", "")

    def present(self) -> None:
        self.outputs["q"].value = self._state

    def clock(self) -> None:
        self._state = (2 * self._state + 1 + self.in_value("d")) & 0xFF

    def emit_batched(self, ctx) -> bool:
        st = ctx.state_slot(self, "_state", "db")
        across, local = ctx.tmp(), ctx.tmp()
        self.temps = (across, local)
        ctx.present(f"{local} = 2 * {st}")
        ctx.present(f"{across} = {local} + 1")
        ctx.drive(ctx.out(self, "q"), st)
        ctx.clock(f"{st} = {ctx.act} ? ({across} + "
                  f"{ctx.inp(self, 'd')}) & 255 : {st}")
        return True


def build_doubler() -> Model:
    m = Model("doubler")
    cnt = m.add(Counter("cnt", width=8))
    dbl = m.add(Doubler("dbl"))
    m.connect(cnt.o("q"), dbl.i("d"))
    m.probe(dbl.o("q"))
    return m


@needs_gcc
def test_a_temporary_read_across_a_python_line_is_a_lane_array():
    ref = build_doubler()
    ref.step(10)
    batch = BatchedModel([build_doubler() for _ in range(3)])
    across, local = batch.template.block("dbl").temps
    source = batch.ckernel.source
    assert batch.ckernel.seg_count == 2
    assert f"i64 {local};" in source  # a C local of its one segment
    assert f"i64 {across};" not in source
    assert f"[_i] = {across};" in source  # stored in its lane array
    batch.step(10)
    for model in batch.models:
        assert model.probes[0].samples == ref.probes[0].samples


class OverShift(CombBlock):
    """Emits ``1 << 40`` on a C ``int``: undefined behaviour."""

    def __init__(self, name: str):
        super().__init__(name)
        self.add_input("a")
        self.add_output("out", 8)

    def emit_batched(self, ctx) -> bool:
        ctx.evaluate(f"{ctx.out(self, 'out')} = "
                     f"({ctx.inp(self, 'a')} + (1 << 40)) & 255")
        return True


@needs_gcc
def test_an_over_wide_shift_refuses_the_batch():
    def build():
        m = Model("overshift")
        cnt = m.add(Counter("cnt", width=8))
        shl = m.add(OverShift("shl"))
        m.connect(cnt.o("q"), shl.i("a"))
        return m

    with pytest.raises(BatchUnsupported, match="shift-count-overflow"):
        BatchedModel([build(), build()])


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


def build_zoo(step: int = 1, value: int = 9, init: int = 0,
              rom_base: int = 3) -> Model:
    """The other lane emitters and the literal cases: muxes of two,
    three and four inputs, one of them on literals alone; a concat and
    two shifts; a two-stage AddSub; a register fed only literals; a
    ROM with per-lane contents and one with the same contents on every
    lane; a delay line, a FIFO with guarded pop and push, and a RAM."""
    m = Model("zoo")
    cnt = m.add(Counter("cnt", width=8, step=step))
    k = m.add(Constant("k", value, width=8))
    bit0, bit1 = m.add(Slice("bit0", 0, 0)), m.add(Slice("bit1", 1, 1))
    sel = m.add(Slice("sel", 1, 0))
    for s in (bit0, bit1, sel):
        m.connect(cnt.o("q"), s.i("a"))
    mux2 = m.add(Mux("mux2", width=8, n=2))
    m.connect(bit0.o("out"), mux2.i("sel"))
    m.connect(cnt.o("q"), mux2.i("d0"))
    m.connect(k.o("out"), mux2.i("d1"))
    mux3 = m.add(Mux("mux3", width=8, n=3))
    mux4 = m.add(Mux("mux4", width=8, n=4))
    for mux in (mux3, mux4):
        m.connect(sel.o("out"), mux.i("sel"))
        for i, src in enumerate((cnt, k, mux2, mux3)[:mux.n]):
            m.connect(src.o("out" if src is not cnt else "q"),
                      mux.i(f"d{i}"))
    muxk = m.add(Mux("muxk", width=8, n=3))  # every input a literal
    muxk.inputs["sel"].default = 1
    muxk.inputs["d1"].default = 77
    cat = m.add(Concat("cat", [3, 5]))
    m.connect(sel.o("out"), cat.i("d0"))
    m.connect(mux4.o("out"), cat.i("d1"))
    shl = m.add(Shift("shl", width=8, amount=2, direction="left"))
    m.connect(cat.o("out"), shl.i("a"))
    shr = m.add(Shift("shr", width=8, amount=3, direction="right"))
    m.connect(mux3.o("out"), shr.i("a"))
    addsub = m.add(AddSub("addsub", width=8, latency=2))
    m.connect(shl.o("s"), addsub.i("a"))
    m.connect(shr.o("s"), addsub.i("b"))
    m.connect(bit0.o("out"), addsub.i("sub"))
    reg = m.add(Register("reg", width=8, init=init))  # literal-fed
    romp = m.add(ROM("romp", [rom_base * i + 1 for i in range(6)], width=8))
    m.connect(mux4.o("out"), romp.i("addr"))
    roms = m.add(ROM("roms", [9, 2, 7, 4, 5], width=8))
    m.connect(addsub.o("s"), roms.i("addr"))
    dly = m.add(Delay("dly", width=8, n=2))
    m.connect(roms.o("data"), dly.i("d"))
    fifo = m.add(FIFO("fifo", width=8, depth=2))
    m.connect(romp.o("data"), fifo.i("din"))
    m.connect(bit0.o("out"), fifo.i("push"))
    m.connect(bit1.o("out"), fifo.i("pop"))
    ram = m.add(RAM("ram", depth=4, width=8))
    m.connect(sel.o("out"), ram.i("addr"))
    m.connect(addsub.o("s"), ram.i("din"))
    m.connect(bit1.o("out"), ram.i("we"))
    for ref in (mux2.o("out"), mux3.o("out"), mux4.o("out"),
                muxk.o("out"), cat.o("out"), shl.o("s"), shr.o("s"),
                addsub.o("s"), reg.o("q"), romp.o("data"), roms.o("data"),
                dly.o("q"), fifo.o("dout"), fifo.o("count"), ram.o("dout")):
        m.probe(ref)
    return m


ZOO_PARAMS = [
    {"step": 1, "value": 9, "init": 0, "rom_base": 3},
    {"step": 3, "value": 200, "init": 17, "rom_base": 5},
    {"step": 5, "value": 0, "init": 255, "rom_base": 3},
    {"step": 7, "value": 31, "init": 4, "rom_base": 11},
]

#: (lane, freeze at batch cycle, thaw at batch cycle)
FREEZES = [(1, 10, 34), (2, 25, 61), (3, 0, 7)]
CYCLES = 80


def _state_rows(batch, lane: int) -> list:
    return [a[lane].tolist() for a in batch.state_store]


@needs_gcc
@pytest.mark.parametrize("engine", ["c"])
def test_lane_tables_match_scalar_across_freezes(engine):
    # the lane tables, then every other lane emitter (the block zoo)
    batches = {}
    for build, lane_params in ((build_tables, TABLE_PARAMS),
                               (build_zoo, ZOO_PARAMS)):
        batch = BatchedModel([build(**p) for p in lane_params])
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
        for lane, params in enumerate(lane_params):
            frozen = sum(go - stop for ln, stop, go in FREEZES if ln == lane)
            ref = build(**params)
            ref.step(CYCLES - frozen)
            batch.write_back(lane)
            model = batch.models[lane]
            assert model.state_dict() == ref.state_dict(), lane
            for got, want in zip(model.probes, ref.probes):
                assert got.samples == want.samples, (lane, want.name)
        batches[build] = batch
    # the FIFO filled up, and the lanes' ROMs answered differently
    batch = batches[build_tables]
    samples = [p.samples for m in batch.models for p in m.probes]
    assert any(1 in s for s in samples[5::9])  # fifo.full
    assert len({tuple(m.probes[8].samples[:8]) for m in batch.models}) > 1
    # one ROM of the zoo is a shared table, the other has lane rows
    source = batches[build_zoo].ckernel.source
    assert "[_i * 6 + " in source and "[_i * 5 + " not in source


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
