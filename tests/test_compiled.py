"""Compiled-schedule engine: selection surface and bit-exact
equivalence with the per-cycle interpreter.

The "zoo" model used throughout wires one instance of (almost) every
block type into a single design — pipelined arithmetic, literal-guarded
registers, FIFOs/RAM/ROM with non-power-of-two sizes, FSL endpoints
with real channel traffic, and an OPB register bank poked between
cycles — and is driven by a stateless pseudo-random stimulus so a run
can be reproduced (or resumed from a checkpoint) from the cycle index
alone.
"""

from __future__ import annotations

import pytest

from repro.bus.fsl import FSLChannel
from repro.sysgen import Model, compiled
from repro.sysgen.block import CombBlock
from repro.sysgen.blocks import (
    FIFO,
    RAM,
    ROM,
    Accumulator,
    Add,
    AddSub,
    Concat,
    Constant,
    Convert,
    Counter,
    Delay,
    FSLRead,
    FSLWrite,
    GatewayIn,
    GatewayOut,
    Inverter,
    Logical,
    Mult,
    Mux,
    Negate,
    OPBRegisterBank,
    Register,
    Relational,
    Shift,
    Slice,
    Sub,
)
from repro.sysgen.compiled import CompileError
from tests.folded import build_folded


def build_zoo():
    """One model exercising every emit() path plus the channels that
    feed it.  Returns ``(model, (g1, g2, ctl), (ch_in, ch_out), bank)``.
    """
    m = Model("zoo")
    g1 = m.add(GatewayIn("g1", width=16))
    g2 = m.add(GatewayIn("g2", width=16))
    ctl = m.add(GatewayIn("ctl", width=4))
    bits = []
    for k in range(4):
        s = m.add(Slice(f"ctl{k}", msb=k, lsb=k))
        m.connect(ctl.o("out"), s.i("a"))
        bits.append(s)

    add = m.add(Add("add", width=16))
    m.connect(g1.o("out"), add.i("a"))
    m.connect(g2.o("out"), add.i("b"))
    sub = m.add(Sub("sub", width=16, latency=1))
    m.connect(g1.o("out"), sub.i("a"))
    m.connect(g2.o("out"), sub.i("b"))
    addsub = m.add(AddSub("addsub", width=16, latency=1))
    m.connect(g1.o("out"), addsub.i("a"))
    m.connect(g2.o("out"), addsub.i("b"))
    m.connect(bits[0].o("out"), addsub.i("sub"))
    mult = m.add(Mult("mult", 16, 16, latency=2))
    m.connect(g1.o("out"), mult.i("a"))
    m.connect(g2.o("out"), mult.i("b"))
    neg = m.add(Negate("neg", width=16))
    m.connect(g2.o("out"), neg.i("a"))
    shl = m.add(Shift("shl", width=16, amount=3, direction="left"))
    m.connect(g1.o("out"), shl.i("a"))
    sar = m.add(Shift("sar", width=16, amount=2, direction="right",
                      arithmetic=True))
    m.connect(g2.o("out"), sar.i("a"))
    conv = m.add(Convert("conv", in_width=16, in_frac=8, out_width=8,
                         out_frac=4, latency=1))
    m.connect(g1.o("out"), conv.i("in"))
    acc = m.add(Accumulator("acc", width=16))
    m.connect(g2.o("out"), acc.i("d"))
    ctr = m.add(Counter("ctr", width=8, step=3))
    k = m.add(Constant("k", 0x1F, width=16))

    reg = m.add(Register("reg", width=16, init=7))
    m.connect(add.o("s"), reg.i("d"))
    m.connect(bits[1].o("out"), reg.i("en"))
    m.connect(bits[2].o("out"), reg.i("rst"))
    dly = m.add(Delay("dly", width=16, n=3))
    m.connect(sub.o("d"), dly.i("d"))
    fifo = m.add(FIFO("fifo", width=16, depth=3))
    m.connect(mult.o("p"), fifo.i("din"))
    m.connect(bits[0].o("out"), fifo.i("push"))
    m.connect(bits[3].o("out"), fifo.i("pop"))
    ram = m.add(RAM("ram", depth=5, width=16))
    m.connect(ctr.o("q"), ram.i("addr"))
    m.connect(g1.o("out"), ram.i("din"))
    m.connect(bits[1].o("out"), ram.i("we"))
    rom = m.add(ROM("rom", contents=[3, 1, 4, 1, 5], width=16))
    m.connect(ctr.o("q"), rom.i("addr"))

    mux = m.add(Mux("mux", width=16, n=3))
    m.connect(ctr.o("q"), mux.i("sel"))
    m.connect(add.o("s"), mux.i("d0"))
    m.connect(rom.o("data"), mux.i("d1"))
    m.connect(k.o("out"), mux.i("d2"))
    rel = m.add(Relational("rel", width=16, op="le", signed=True))
    m.connect(g1.o("out"), rel.i("a"))
    m.connect(g2.o("out"), rel.i("b"))
    lg = m.add(Logical("lg", width=16, op="xnor"))
    m.connect(add.o("s"), lg.i("d0"))
    m.connect(shl.o("s"), lg.i("d1"))
    inv = m.add(Inverter("inv", width=16))
    m.connect(mux.o("out"), inv.i("a"))
    cat = m.add(Concat("cat", widths=[8, 8]))
    m.connect(conv.o("out"), cat.i("d0"))
    m.connect(ctr.o("q"), cat.i("d1"))
    go = m.add(GatewayOut("go", width=16))
    m.connect(lg.o("out"), go.i("in"))

    rd = m.add(FSLRead("rd"))
    m.connect(bits[2].o("out"), rd.i("read"))
    wr = m.add(FSLWrite("wr"))
    m.connect(dly.o("q"), wr.i("data"))
    m.connect(rd.o("exists"), wr.i("write"))
    m.connect(rd.o("control"), wr.i("control"))
    ch_in = FSLChannel(depth=4, name="to_hw")
    ch_out = FSLChannel(depth=4, name="from_hw")
    rd.bind(ch_in)
    wr.bind(ch_out)

    bank = m.add(OPBRegisterBank("bank", n_command=2, n_status=1))
    m.connect(inv.o("out"), bank.i("sts0"))

    m.probe(add.o("s"))
    m.probe(reg.o("q"))
    m.probe(fifo.o("count"))
    m.probe(go.o("out"))
    m.probe(wr.o("full"))
    return m, (g1, g2, ctl), (ch_in, ch_out), bank


def _stim(i: int) -> int:
    """Stateless per-cycle stimulus word (resumable from any cycle)."""
    return (i * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF


def _apply(i, gates, chans, bank) -> None:
    g1, g2, ctl = gates
    ch_in, ch_out = chans
    x = _stim(i)
    g1.drive_raw(x & 0xFFFF)
    g2.drive_raw((x >> 7) & 0xFFFF)
    ctl.drive_raw((x >> 16) & 0xF)
    if i % 5 == 0:
        ch_in.push(x, bool(x & 1))
    if i % 9 == 0 and ch_out.exists:
        ch_out.pop()
    if i % 13 == 0:
        bank.opb_write(((i // 13) % 2) * 4, x)


def _snapshot(m, chans):
    return (m.state_dict(), [ch.state_dict() for ch in chans])


def _run_zoo(force_interp: bool, cycles: int):
    m, gates, chans, bank = build_zoo()
    m.set_engine("interpreter" if force_interp else "compiled")
    assert m.engine == ("interpreter" if force_interp else "compiled")
    for i in range(cycles):
        _apply(i, gates, chans, bank)
        m.step()
    return _snapshot(m, chans)


# ----------------------------------------------------------------------
# Engine selection surface
# ----------------------------------------------------------------------
def test_compiled_source_is_inspectable():
    m, _, _, _ = build_zoo()
    src = m.compiled_source
    assert src is not None
    assert "def _step" in src and "def _settle" in src
    # every block participates in the generated program
    assert m.engine == "compiled"


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------
def test_engines_bit_identical():
    assert _run_zoo(False, 300) == _run_zoo(True, 300)
    # literal-folded guards and selects (see tests/folded.py)
    runs = []
    for engine in ("compiled", "interpreter"):
        m = build_folded(value=40000, step=-1, init=7)
        m.set_engine(engine)
        m.step(200)
        runs.append((m.state_dict(), [p.samples for p in m.probes]))
    assert runs[0] == runs[1]


def test_step_batching_matches_per_cycle():
    runs = []
    for batched in (True, False):
        m, gates, chans, bank = build_zoo()
        for i in range(40):
            _apply(i, gates, chans, bank)
            m.step()
        if batched:
            m.step(60)
        else:
            for _ in range(60):
                m.step()
        runs.append(_snapshot(m, chans))
    assert runs[0] == runs[1]


def test_probe_added_mid_run(sysgen_engine):
    m = Model()
    c = m.add(Counter("c", width=8))
    m.step(3)
    p = m.probe(c.o("q"))
    m.step(4)
    assert p.samples == [3, 4, 5, 6]


def test_reset_rerun_bit_identical(sysgen_engine):
    m, gates, chans, bank = build_zoo()
    runs = []
    for _ in range(2):
        for i in range(60):
            _apply(i, gates, chans, bank)
            m.step()
        runs.append(_snapshot(m, chans))
        m.reset()
        for ch in chans:
            ch.reset(reset_stats=True)
    assert runs[0] == runs[1]


def test_checkpoint_across_engine_switch():
    """Save under one engine, restore and continue under the other —
    both orders — and land bit-identical with an uninterrupted run."""
    reference = _run_zoo(False, 240)
    assert reference == _run_zoo(True, 240)
    for first, second in ((False, True), (True, False)):
        m1, gates1, chans1, bank1 = build_zoo()
        m1.set_engine("interpreter" if first else "compiled")
        for i in range(120):
            _apply(i, gates1, chans1, bank1)
            m1.step()
        saved_model, saved_chans = _snapshot(m1, chans1)

        m2, gates2, chans2, bank2 = build_zoo()
        m2.set_engine("interpreter" if second else "compiled")
        m2.load_state(saved_model)
        for ch, payload in zip(chans2, saved_chans):
            ch.load_state(payload)
        for i in range(120, 240):
            _apply(i, gates2, chans2, bank2)
            m2.step()
        assert _snapshot(m2, chans2) == reference, (
            f"engine switch {first}->{second} diverged"
        )


# ----------------------------------------------------------------------
# Process-wide code cache
# ----------------------------------------------------------------------
def test_rebuilt_models_share_code_not_state():
    a, gates_a, chans_a, bank_a = build_zoo()
    b, gates_b, chans_b, bank_b = build_zoo()
    assert a.compiled_source == b.compiled_source
    for fn in ("step", "settle", "idle_horizon"):
        fa, fb = getattr(a._compiled, fn), getattr(b._compiled, fn)
        assert fa.__code__ is fb.__code__, fn
        assert fa is not fb, fn
    untouched = _snapshot(b, chans_b)
    for i in range(80):
        _apply(i, gates_a, chans_a, bank_a)
        a.step()
    assert _snapshot(a, chans_a) != untouched
    assert _snapshot(b, chans_b) == untouched
    for i in range(80):
        _apply(i, gates_b, chans_b, bank_b)
        b.step()
    assert _snapshot(a, chans_a) == _snapshot(b, chans_b)


def _chain(name: str, width: int = 8) -> Model:
    m = Model(name)
    c = m.add(Counter("c", width=width))
    r = m.add(Register("r", width=width))
    m.connect(c.o("q"), r.i("d"))
    m.compile()
    return m


def test_code_cache_is_keyed_by_filename_too():
    """Equal source under two model names compiles once per name, so a
    traceback names the model that raised."""
    a, b = _chain("left"), _chain("right")
    assert a.compiled_source == b.compiled_source
    assert a._compiled.step.__code__.co_filename == "<sysgen-compiled:left>"
    assert b._compiled.step.__code__.co_filename == "<sysgen-compiled:right>"


def test_code_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(compiled, "CODE_CACHE_LIMIT", 3)
    monkeypatch.setattr(compiled, "_code_cache", {})
    models = [_chain("bound", width) for width in range(4, 10)]
    assert len({m.compiled_source for m in models}) == len(models)
    assert len(compiled._code_cache) == 3
    # the newest entry survived: rebuilding its model is a hit
    newest = _chain("bound", 9)
    assert newest._compiled.step.__code__ is models[-1]._compiled.step.__code__


# ----------------------------------------------------------------------
# Fallback dispatch and event hooks
# ----------------------------------------------------------------------
class _XorFold(CombBlock):
    """A user block with no emit() — must run through the interpreter
    fallback inside an otherwise compiled schedule."""

    def __init__(self, name):
        super().__init__(name)
        self.add_input("a")
        self.add_output("out", 16)

    def evaluate(self):
        v = self.in_value("a") & 0xFFFF
        self.outputs["out"].value = (v ^ (v >> 3)) & 0xFFFF


def _fallback_model():
    m = Model("fb")
    c = m.add(Counter("c", width=16))
    x = m.add(_XorFold("x"))
    r = m.add(Register("r", width=16))
    m.connect(c.o("q"), x.i("a"))
    m.connect(x.o("out"), r.i("d"))
    m.probe(r.o("q"))
    return m


def test_fallback_block_in_compiled_schedule():
    m1 = _fallback_model()
    assert m1.engine == "compiled"  # fallback splices, doesn't disable
    m1.step(50)
    m2 = _fallback_model()
    m2.set_engine("interpreter")
    m2.step(50)
    assert m1.state_dict() == m2.state_dict()


class _BadEmit(_XorFold):
    """A user block whose emit() writes a line that does not parse."""

    def emit(self, ctx):
        ctx.evaluate(f"{ctx.out(self, 'out')} = ((")
        return True


def test_unparsable_emit_raises_compile_error():
    # a failed compile is never cached: every build raises again
    for _ in range(2):
        m = Model("badgen")
        c = m.add(Counter("c", width=16))
        x = m.add(_BadEmit("x"))
        m.connect(c.o("q"), x.i("a"))
        with pytest.raises(CompileError, match="model 'badgen'"):
            m.compiled_source


class _Recorder:
    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


def test_fsl_telemetry_events_identical():
    """BLOCK_FIRE events from FSL endpoints (emitted from inside the
    generated clock section) match the interpreter's exactly."""
    runs = []
    for force in (False, True):
        m, gates, chans, bank = build_zoo()
        m.set_engine("interpreter" if force else "compiled")
        rec = _Recorder()
        for b in (m.block("rd"), m.block("wr")):
            b.events = rec
        for i in range(120):
            _apply(i, gates, chans, bank)
            m.step()
        runs.append(rec.events)
    assert runs[0] == runs[1]
    assert runs[0], "stimulus never fired an FSL endpoint (vacuous)"


# ----------------------------------------------------------------------
# Lifetime: a dropped model needs no cycle collector
# ----------------------------------------------------------------------
def _cordic_hardware(kind: str):
    """A CORDIC P=2 model and its hub, as ``kind`` leaves them."""
    from repro.apps.cordic.design import CordicDesign
    from repro.apps.cordic.hardware import build_cordic_model
    from repro.cosim import CoSimulation

    if kind == "built":
        return build_cordic_model(2)
    design = CordicDesign(p=2, ndata=4)
    model, hub = design.fresh_hardware()
    if kind == "compiled":
        model.compile()
    elif kind == "run":
        CoSimulation(design.program, model, hub,
                     cpu_config=design.cpu_config).run()
    return model, hub


def _weak_hardware(kind: str) -> list:
    """Weak references to a dropped model, its blocks and its hub's FSL
    channels."""
    import weakref

    model, hub = _cordic_hardware(kind)
    return [weakref.ref(obj)
            for obj in (model, *model.blocks, *hub.channels())]


@pytest.mark.parametrize("kind", ["built", "fresh", "compiled", "run"])
def test_a_dropped_model_is_freed_without_the_cycle_collector(kind):
    # A port names its block instead of pointing back at it, a block
    # does not point at its model, the generated step advances the
    # model's clock, not the model, and compiling leaves no cycle of
    # its own: dropping the last reference frees the model, its blocks
    # and its channels, and leaves the cycle collector nothing.
    import gc

    gc.collect()
    gc.disable()
    try:
        refs = _weak_hardware(kind)
        assert [ref for ref in refs if ref() is not None] == []
        assert gc.collect() == 0
    finally:
        gc.enable()
