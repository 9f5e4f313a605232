"""Unit tests for the lockstep batched model engine.

A kitchen-sink model exercises every vectorized block class plus a
user-defined fallback block; N parameter variants run scalar
(compiled engine) and batched, and every probe trace and port value
must match bit for bit — including after lane deactivation and reset.
"""

import builtins
import hashlib

import pytest

np = pytest.importorskip("numpy")

from repro.apps.cordic.hardware import build_cordic_model
from repro.apps.matmul.hardware import build_matmul_model
from repro.sysgen.batched import (
    BatchedModel,
    BatchUnsupported,
    lockstep_signature,
)
from repro.sysgen.block import SeqBlock
from repro.sysgen.compiled import exec_generated
from repro.sysgen.blocks.arith import Accumulator, Add, AddSub, Mult, Negate, Shift
from repro.sysgen.blocks.control import Constant, Counter
from repro.sysgen.blocks.logic import Concat, Inverter, Logical, Mux, Relational, Slice
from repro.sysgen.blocks.memory import FIFO, RAM, ROM, Delay, Register
from repro.sysgen.model import Model
from tests.conftest import needs_gcc
from tests.folded import FOLDED_FALLBACK, build_folded


class Scrambler(SeqBlock):
    """User block with no emitters: forces per-lane fallback dispatch."""

    def __init__(self, name: str):
        super().__init__(name)
        self.add_input("d")
        self.add_output("q", 16)
        self._acc = 0

    def present(self) -> None:
        self.outputs["q"].value = self._acc

    def clock(self) -> None:
        self._acc = (self._acc * 5 + self.in_value("d") + 1) & 0xFFFF

    def reset(self) -> None:
        super().reset()
        self._acc = 0

    def extra_state(self) -> dict:
        return {"acc": self._acc}

    def load_extra_state(self, extra: dict) -> None:
        self._acc = extra["acc"]


def build_sink(value: int = 5, step: int = 1, init: int = 0) -> Model:
    """One model touching every vectorized block class."""
    m = Model("sink")
    cnt = m.add(Counter("cnt", width=8, step=step))
    k = m.add(Constant("k", value, width=16))
    add = m.add(Add("add", width=16, latency=2))
    m.connect(cnt.o("q"), add.i("a"))
    m.connect(k.o("out"), add.i("b"))
    mult = m.add(Mult("mult", width_a=16, width_b=8, latency=3))
    m.connect(add.o("s"), mult.i("a"))
    m.connect(cnt.o("q"), mult.i("b"))
    bit0 = m.add(Slice("bit0", 0, 0))
    m.connect(cnt.o("q"), bit0.i("a"))
    bit1 = m.add(Slice("bit1", 1, 1))
    m.connect(cnt.o("q"), bit1.i("a"))
    asb = m.add(AddSub("asb", width=16))
    m.connect(add.o("s"), asb.i("a"))
    m.connect(k.o("out"), asb.i("b"))
    m.connect(bit0.o("out"), asb.i("sub"))
    mux = m.add(Mux("mux", width=16, n=3))
    m.connect(cnt.o("q"), mux.i("sel"))
    m.connect(add.o("s"), mux.i("d0"))
    m.connect(asb.o("s"), mux.i("d1"))
    m.connect(k.o("out"), mux.i("d2"))
    rel = m.add(Relational("rel", width=16, op="lt", signed=True))
    m.connect(mux.o("out"), rel.i("a"))
    m.connect(k.o("out"), rel.i("b"))
    logi = m.add(Logical("logi", width=16, op="xnor"))
    m.connect(add.o("s"), logi.i("d0"))
    m.connect(asb.o("s"), logi.i("d1"))
    inv = m.add(Inverter("inv", width=16))
    m.connect(logi.o("out"), inv.i("a"))
    cat = m.add(Concat("cat", [8, 8]))
    m.connect(cnt.o("q"), cat.i("d0"))
    m.connect(inv.o("out"), cat.i("d1"))
    neg = m.add(Negate("neg", width=16))
    m.connect(mux.o("out"), neg.i("a"))
    shl = m.add(Shift("shl", width=16, amount=3, direction="left"))
    m.connect(cat.o("out"), shl.i("a"))
    shr = m.add(Shift("shr", width=16, amount=2, direction="right",
                      arithmetic=True))
    m.connect(neg.o("n"), shr.i("a"))
    reg = m.add(Register("reg", width=16, init=init))
    m.connect(mux.o("out"), reg.i("d"))
    m.connect(rel.o("out"), reg.i("en"))
    m.connect(bit1.o("out"), reg.i("rst"))
    dly = m.add(Delay("dly", width=16, n=3))
    m.connect(reg.o("q"), dly.i("d"))
    acc = m.add(Accumulator("acc", width=24))
    m.connect(mux.o("out"), acc.i("d"))
    m.connect(bit1.o("out"), acc.i("rst"))
    addr = m.add(Slice("addr", 3, 0))
    m.connect(cnt.o("q"), addr.i("a"))
    ram = m.add(RAM("ram", depth=16, width=16))
    m.connect(addr.o("out"), ram.i("addr"))
    m.connect(mux.o("out"), ram.i("din"))
    m.connect(rel.o("out"), ram.i("we"))
    rom = m.add(ROM("rom", [7, 1, 2, 9, 4, 11], width=16))
    m.connect(cnt.o("q"), rom.i("addr"))
    fifo = m.add(FIFO("fifo", width=16, depth=4))
    m.connect(cnt.o("q"), fifo.i("din"))
    m.connect(bit0.o("out"), fifo.i("push"))
    m.connect(rel.o("out"), fifo.i("pop"))
    scr = m.add(Scrambler("scr"))
    m.connect(mux.o("out"), scr.i("d"))
    for ref in (mult.o("p"), mux.o("out"), reg.o("q"), dly.o("q"),
                acc.o("q"), ram.o("dout"), rom.o("data"), fifo.o("dout"),
                fifo.o("count"), cat.o("out"), shl.o("s"), shr.o("s"),
                rel.o("out"), scr.o("q")):
        m.probe(ref)
    return m


PARAMS = [
    {"value": 5, "step": 1, "init": 0},
    {"value": 40000, "step": 3, "init": 7},
    {"value": 17, "step": 5, "init": 1},
    {"value": 0, "step": 7, "init": 65535},
    {"value": 255, "step": 2, "init": 12},
]


def scalar_runs(cycles: int, build=build_sink, params=PARAMS):
    """Per-cycle scalar (compiled-engine) reference traces."""
    runs = []
    for p in params:
        m = build(**p)
        m.step(cycles)
        runs.append(m)
    return runs


def assert_lanes_match(batched, refs, cycles_per_lane=None):
    for lane, ref in enumerate(refs):
        want = cycles_per_lane[lane] if cycles_per_lane else None
        for k, probe in enumerate(ref.probes):
            got = batched.models[lane].probes[k].samples
            expect = probe.samples if want is None else probe.samples[:want]
            assert got == expect, (
                f"lane {lane} probe {probe.name} diverged: "
                f"{got[:10]}... != {expect[:10]}..."
            )


@needs_gcc
def test_lockstep_matches_scalar():
    cycles = 200
    # a negative counter step wraps to the same pattern in both engines
    params = PARAMS + [{"value": 9, "step": -1, "init": 3}]
    for build, fallback in ((build_sink, ["scr"]),
                            (build_folded, FOLDED_FALLBACK)):
        refs = scalar_runs(cycles, build, params)
        batch = BatchedModel([build(**p) for p in params])
        assert batch.fallback_blocks == fallback
        batch.step(cycles)
        assert batch.cycle == cycles
        assert_lanes_match(batch, refs)
        # port arrays match the scalar ports too
        for lane, ref in enumerate(refs):
            for block in ref.blocks:
                for port in block.outputs.values():
                    got = int(batch.peek(block.name, port.name)[lane])
                    assert got == port.value, (
                        f"{build.__name__} lane {lane} port "
                        f"{block.name}.{port.name}: {got} != {port.value}"
                    )
        # probe samples are plain ints (JSON-safe), not numpy scalars
        sample = batch.models[0].probes[0].samples[5]
        assert type(sample) is int


@needs_gcc
def test_lane_masking_freezes_deactivated_lanes():
    refs = scalar_runs(200)
    batch = BatchedModel([build_sink(**p) for p in PARAMS])
    stops = [200, 60, 125, 200, 1]
    for cycle in range(200):
        if not batch.lanes:
            break
        batch.step(1)
        for lane, stop in enumerate(stops):
            if cycle + 1 == stop and batch.active[lane]:
                batch.deactivate(lane)
    assert_lanes_match(batch, refs, cycles_per_lane=stops)
    # frozen lanes hold their final port values
    for lane, stop in enumerate(stops):
        ref = build_sink(**PARAMS[lane])
        ref.step(stop)
        got = int(batch.peek("reg", "q")[lane])
        assert got == ref.block("reg").outputs["q"].value
        assert batch.models[lane].cycle == stop


@needs_gcc
def test_reset_reruns_identically():
    batch = BatchedModel([build_sink(**p) for p in PARAMS])
    batch.step(150)
    first = [list(p.samples) for m in batch.models for p in m.probes]
    batch.reset()
    assert batch.cycle == 0
    assert all(not p.samples for m in batch.models for p in m.probes)
    batch.step(150)
    second = [list(p.samples) for m in batch.models for p in m.probes]
    assert first == second


@needs_gcc
def test_poke_is_copy_on_write():
    batch = BatchedModel([build_sink(**p) for p in PARAMS])
    batch.step(10)
    before = batch.peek("reg", "q")
    batch.poke("reg", "q", 2, 0x1234)
    after = batch.peek("reg", "q")
    assert int(after[2]) == 0x1234
    others = [lane for lane in range(len(PARAMS)) if lane != 2]
    assert [int(after[i]) for i in others] == [int(before[i]) for i in others]


def test_structural_mismatch_rejected():
    a = build_sink(**PARAMS[0])
    b = build_sink(**PARAMS[1])
    extra = Model("sink")
    extra.add(Counter("cnt", width=8))
    with pytest.raises(BatchUnsupported, match="lane 1"):
        BatchedModel([a, extra])
    # value-like parameters do NOT break structural identity
    assert lockstep_signature(a) == lockstep_signature(b)


def test_wide_ports_rejected():
    def wide():
        m = Model("wide")
        c = m.add(Counter("c", width=61))
        r = m.add(Register("r", width=61))
        m.connect(c.o("q"), r.i("d"))
        return m

    with pytest.raises(BatchUnsupported, match="too wide"):
        BatchedModel([wide(), wide()])


class BadScrambler(Scrambler):
    """User block whose emit_batched() writes a statement that is not
    C."""

    def emit_batched(self, ctx):
        ctx.clock(f"{ctx.out(self, 'q')} = np.where(")
        return True


@needs_gcc
def test_uncompilable_emit_batched_refuses_the_batch():
    def build():
        m = Model("badvec")
        c = m.add(Counter("c", width=8))
        s = m.add(BadScrambler("s"))
        m.connect(c.o("q"), s.i("d"))
        return m

    # gcc's complaint names the model; every build refuses again
    for _ in range(2):
        with pytest.raises(BatchUnsupported,
                           match="model 'badvec': gcc exited"):
            BatchedModel([build(), build()])


@needs_gcc
def test_single_lane_batch():
    ref = build_sink(**PARAMS[0])
    ref.step(50)
    batch = BatchedModel([build_sink(**PARAMS[0])])
    batch.step(50)
    assert_lanes_match(batch, [ref])


def build_literal_register(init: int = 0) -> Model:
    """A register with every input unconnected beside a counter: the
    register's update is a literal on every lane."""
    m = Model("literal")
    cnt = m.add(Counter("cnt", width=8))
    reg = m.add(Register("reg", width=8, init=init))
    m.probe(cnt.o("q"))
    m.probe(reg.o("q"))
    return m


@needs_gcc
def test_literal_fed_register_on_the_all_lanes_path():
    # With every lane active the literal update must still produce a
    # lane array, which the kernel steps like any other.
    params = [{"init": 5}, {"init": 0}, {"init": 200}]
    refs = scalar_runs(5, build_literal_register, params)
    batch = BatchedModel([build_literal_register(**p) for p in params])
    batch.step(5)
    assert_lanes_match(batch, refs)
    for lane, ref in enumerate(refs):
        assert int(batch.peek("reg", "q")[lane]) == \
            ref.block("reg").outputs["q"].value


# ----------------------------------------------------------------------
# Process-wide code cache
# ----------------------------------------------------------------------
def _state_image(batch) -> "np.ndarray":
    """Every port and state array of ``batch``, flattened."""
    return np.concatenate(batch.port_store
                          + [a.ravel() for a in batch.state_store])


def _images_equal(a, b) -> bool:
    return np.array_equal(a, b)


def build_native(value: int = 5, step: int = 1, init: int = 0) -> Model:
    """A design the C kernel runs whole: no fallback block."""
    m = Model("native")
    cnt = m.add(Counter("cnt", width=8, step=step))
    k = m.add(Constant("k", value, width=16))
    add = m.add(Add("add", width=16))
    m.connect(cnt.o("q"), add.i("a"))
    m.connect(k.o("out"), add.i("b"))
    mult = m.add(Mult("mult", width_a=16, width_b=8))
    m.connect(add.o("s"), mult.i("a"))
    m.connect(cnt.o("q"), mult.i("b"))
    rel = m.add(Relational("rel", width=16, op="lt"))
    m.connect(add.o("s"), rel.i("a"))
    m.connect(k.o("out"), rel.i("b"))
    reg = m.add(Register("reg", width=16, init=init))
    m.connect(mult.o("p"), reg.i("d"))
    m.connect(rel.o("out"), reg.i("en"))
    acc = m.add(Accumulator("acc", width=24))
    m.connect(reg.o("q"), acc.i("d"))
    for ref in (mult.o("p"), reg.o("q"), acc.o("q")):
        m.probe(ref)
    return m


def _assert_share_code_not_state(build, fns: tuple[str, ...]):
    a = BatchedModel([build(**p) for p in PARAMS])
    b = BatchedModel([build(**p) for p in PARAMS])
    for fn in fns:
        fa, fb = getattr(a, fn), getattr(b, fn)
        assert fa is not None and fb is not None, fn
        assert fa.__code__ is fb.__code__, fn
        assert fa is not fb, fn
    untouched = _state_image(b)
    a.step(60)
    assert not _images_equal(_state_image(a), untouched)
    assert _images_equal(_state_image(b), untouched)
    assert all(not p.samples for m in b.models for p in m.probes)
    b.step(60)
    assert _images_equal(_state_image(a), _state_image(b))
    assert ([p.samples for m in a.models for p in m.probes]
            == [p.samples for m in b.models for p in m.probes])


@needs_gcc
def test_rebuilt_batches_share_code_not_state():
    _assert_share_code_not_state(build_sink, ("step_c",))


@needs_gcc
def test_rebuilt_batches_share_c_driver_code_not_state():
    _assert_share_code_not_state(build_native, ("step_c",))


def _cordic(p: int) -> Model:
    return build_cordic_model(p)[0]


def _matmul(block: int) -> Model:
    return build_matmul_model(block)[0]


#: sha256 of the generated scalar (``sysgen-compiled``) and C-driver
#: (``sysgen-batched-c``) sources of each design.  A pinned hash may
#: change only together with a line in CHANGES.md stating why that
#: generated source had to change.
PINNED_SOURCES = {
    (_cordic, 2): {
        "sysgen-compiled": "d9e96df2a11849c80cf27146720e29a92dcaf58e0dc934d9c66b21ced17ea8d0",
        "sysgen-batched-c": "7e0f1a59c4a61c5d5a114ac7c2d4ca5e4233ed7e3b193b48868c0f689226c33a",
        "sysgen-c-kernel": "25f62cbc444d073385dd5310bf2513d20190ff91331c5175fe6a42efb0c18273",
    },
    (_cordic, 4): {
        "sysgen-compiled": "9050dd53d22c527dc6c9ac5b3bc26cf3f42a2273e49212a506a4d3eb8e3b6198",
        "sysgen-batched-c": "cff9688da10ca2b232126957b9a842e716f8ba7c6b2f0d3e2e46c3af0b5ebaa3",
        "sysgen-c-kernel": "8c7f917d517abdd84a95876b534a4f4764d82166141415a79e1c3d0de4f1fe43",
    },
    (_cordic, 8): {
        "sysgen-compiled": "bb32f76d232e7caf008428bce952f96f81eee5a41210dbc72340a8bd0a2e3c5f",
        "sysgen-batched-c": "ebb450ea51bb5a57160a281234bfb95580fb9de962dfea2170027c5709f98f32",
        "sysgen-c-kernel": "c30321cf9bbc6e555fadf3cf2afcf4a9406e010961c6a88569dd290981f6c8cd",
    },
    (_matmul, 2): {
        "sysgen-compiled": "e1b106d2edd9545a60ebe53820f2389e6b21643d63d60d7537fdfd8a70dde55c",
        "sysgen-batched-c": "6a4ef51ee6bab18ac2bb5ca858edb1d47abdbae5d955896167b5056ecdaa6180",
        "sysgen-c-kernel": "a7c86e7a48db871af904b2cb28f29d5330f7631998eea54fc2246e5866d818c8",
    },
    (_matmul, 4): {
        "sysgen-compiled": "4fc5dbd2af3ac03a7ec8a461c7dbb9725f382c2cc68db8bd0b320b8a279bedbc",
        "sysgen-batched-c": "b659a1c54a9f53957b113f92e9eef2b8d29c20e130884515b6f34c37ecd67544",
        "sysgen-c-kernel": "28a04eaa3bd1cd172094625db7f42b578b3f7172df871fb5861393a1954a9c01",
    },
}


@needs_gcc
@pytest.mark.parametrize("build,param", list(PINNED_SOURCES))
def test_generated_source_is_deterministic(monkeypatch, build, param):
    """Two builds of one design from fresh hardware emit byte-identical
    scalar, C-driver and C-kernel sources, so the second build compiles
    nothing.  An emitter that embeds an ``id()`` or iterates a set
    would silently defeat the code cache.

    Each recorded source also matches its hash in
    :data:`PINNED_SOURCES`, so an emitter refactor that changes what
    any design generates fails here; a pinned hash may change only
    with a stated reason in CHANGES.md.  No block falls back per
    lane."""
    sources: list[tuple[str, str]] = []
    compiles: list[str] = []
    real_compile = builtins.compile

    def recording_exec(source, filename, ns, what):
        sources.append((filename, source))
        return exec_generated(source, filename, ns, what)

    def counting_compile(source, filename, *args, **kwargs):
        if str(filename).startswith("<sysgen"):
            compiles.append(filename)
        return real_compile(source, filename, *args, **kwargs)

    monkeypatch.setattr("repro.sysgen.compiled.exec_generated",
                        recording_exec)
    monkeypatch.setattr("repro.sysgen.batched.exec_generated",
                        recording_exec)
    monkeypatch.setattr(builtins, "compile", counting_compile)
    build(param).compile()
    batch = BatchedModel([build(param), build(param)])
    first = sources + [("<sysgen-c-kernel", batch.ckernel.source)]
    sources.clear()
    compiles.clear()
    build(param).compile()
    batch = BatchedModel([build(param), build(param)])
    second = sources + [("<sysgen-c-kernel", batch.ckernel.source)]
    kinds = {name.partition(":")[0] for name, _ in first}
    assert kinds == {"<sysgen-compiled", "<sysgen-batched-c",
                     "<sysgen-c-kernel"}
    assert second == first
    assert compiles == []
    pins = PINNED_SOURCES[(build, param)]
    for filename, source in first:
        kind = filename.partition(":")[0].lstrip("<")
        digest = hashlib.sha256(source.encode()).hexdigest()
        assert digest == pins[kind], f"{filename} changed"
    assert BatchedModel([build(param), build(param)]).fallback_blocks == []


# ----------------------------------------------------------------------
# Batch lifetime
# ----------------------------------------------------------------------
def _cordic_design():
    from repro.faults.campaign import build_design

    return build_design("cordic", {"p": 2, "iters": 8, "ndata": 4})


def _model_batch():
    """A batch over 4 CORDIC models and the channels its lanes move."""
    design = _cordic_design()
    batch = BatchedModel([design.fresh_hardware()[0] for _ in range(4)])
    channels = [b.channel for m in batch.models for b in m.blocks
                if hasattr(b, "channel")]
    return batch, batch, channels


def _template_batch():
    """A template batch advanced 500 cycles and its lanes' channels."""
    from repro.cosim.batch import BatchedCoSimulation

    design = _cordic_design()
    sim = BatchedCoSimulation.from_template(
        design.program, design.fresh_hardware, 4,
        cpu_config=design.cpu_config)
    sim.advance({lane: 500 for lane in range(4)})
    channels = [ch for lane in sim.sims for ch in lane.mb_block.channels()]
    return sim, sim.batched, channels


def _weak_batch(make):
    """Weak references to a dropped batch and to each of its port and
    state arrays, each array's with those to the channels that adopted
    one of its rows (only they may keep it alive)."""
    import weakref

    owner, batch, channels = make()
    arrays = []
    for arr in batch.port_store + batch.state_store:
        holders = [weakref.ref(ch) for ch in channels
                   if np.shares_memory(arr, np.asarray(ch._row))]
        arrays.append((weakref.ref(arr), holders))
    return weakref.ref(batch), arrays


@needs_gcc
@pytest.mark.parametrize("make", [_model_batch, _template_batch])
@pytest.mark.parametrize("engine", ["c"])
def test_a_dropped_batch_is_freed_without_the_cycle_collector(engine, make):
    # Nothing the batch generates points back at it, so dropping the
    # last reference frees it and every array no live channel adopted.
    import gc

    gc.collect()
    gc.disable()
    try:
        batch, arrays = _weak_batch(make)
        assert batch() is None
        assert arrays
        for arr, holders in arrays:
            assert arr() is None or any(ch() is not None for ch in holders)
    finally:
        gc.enable()
