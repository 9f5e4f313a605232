"""A design whose guards, selects and addresses are left unconnected.

``build_sink`` (``test_batched.py``) and the compiled-engine zoo wire
almost every input, so the emitters' literal-folded branches -- an
unconnected ``en``/``rst``/``push``/``pop``/``we``/``sub``/``sel`` folded to
its default -- would otherwise go untested.  Shared by the
compiled-vs-interpreter and the lockstep-vs-scalar comparisons.
"""

from __future__ import annotations

from repro.sysgen.blocks import (
    FIFO,
    RAM,
    ROM,
    Accumulator,
    AddSub,
    Concat,
    Constant,
    Counter,
    Inverter,
    Logical,
    Mux,
    Negate,
    Register,
    Relational,
    Shift,
    Slice,
)
from repro.sysgen.model import Model

#: blocks the lockstep engine runs per lane: none, since a block whose
#: inputs are all unconnected (``negk``, ``logk``, ``romk``) computes
#: over int64 literals in the C kernel like any other
FOLDED_FALLBACK: list[str] = []


def build_folded(value: int = 5, step: int = 1, init: int = 0) -> Model:
    m = Model("folded")
    cnt = m.add(Counter("cnt", width=8, step=step))  # en/rst unconnected
    k = m.add(Constant("k", value, width=16))
    bit0 = m.add(Slice("bit0", 0, 0))
    m.connect(cnt.o("q"), bit0.i("a"))
    bit2 = m.add(Slice("bit2", 2, 2))
    m.connect(cnt.o("q"), bit2.i("a"))
    reg = m.add(Register("reg", width=16, init=init))  # en/rst unconnected
    m.connect(cnt.o("q"), reg.i("d"))
    rreg = m.add(Register("rreg", width=8, init=init & 0xFF))  # en unconnected
    m.connect(k.o("out"), rreg.i("d"))
    m.connect(bit2.o("out"), rreg.i("rst"))
    ereg = m.add(Register("ereg", width=16, init=init))  # rst unconnected
    m.connect(k.o("out"), ereg.i("d"))
    m.connect(bit0.o("out"), ereg.i("en"))
    acc = m.add(Accumulator("acc", width=24))  # en/rst unconnected
    m.connect(k.o("out"), acc.i("d"))
    asb = m.add(AddSub("asb", width=16))  # sub unconnected: an add
    m.connect(reg.o("q"), asb.i("a"))
    m.connect(k.o("out"), asb.i("b"))
    mux = m.add(Mux("mux", width=16, n=3))  # sel unconnected: d0
    m.connect(asb.o("s"), mux.i("d0"))
    m.connect(k.o("out"), mux.i("d1"))
    m.connect(cnt.o("q"), mux.i("d2"))
    rel = m.add(Relational("rel", width=8, op="ge", signed=False))
    m.connect(cnt.o("q"), rel.i("a"))
    m.connect(k.o("out"), rel.i("b"))
    lsr = m.add(Shift("lsr", width=16, amount=3, direction="right",
                      arithmetic=False))
    m.connect(acc.o("q"), lsr.i("a"))
    shl = m.add(Shift("shl", width=8, amount=9, direction="left"))
    m.connect(cnt.o("q"), shl.i("a"))
    asr = m.add(Shift("asr", width=8, amount=8, direction="right",
                      arithmetic=True, latency=1))
    m.connect(cnt.o("q"), asr.i("a"))
    inv = m.add(Inverter("inv", width=8))
    m.connect(shl.o("s"), inv.i("a"))
    cat = m.add(Concat("cat", [1, 8, 8]))
    m.connect(rel.o("out"), cat.i("d0"))
    m.connect(inv.o("out"), cat.i("d1"))
    m.connect(asr.o("s"), cat.i("d2"))
    fifo = m.add(FIFO("fifo", width=16, depth=3))  # pop unconnected
    m.connect(mux.o("out"), fifo.i("din"))
    m.connect(bit0.o("out"), fifo.i("push"))
    drain = m.add(FIFO("drain", width=8, depth=2))  # push unconnected
    m.connect(cnt.o("q"), drain.i("din"))
    m.connect(rel.o("out"), drain.i("pop"))
    ram = m.add(RAM("ram", depth=8, width=16))  # we unconnected
    m.connect(cnt.o("q"), ram.i("addr"))
    m.connect(asb.o("s"), ram.i("din"))
    negk = m.add(Negate("negk", width=8, latency=2))  # all unconnected
    logk = m.add(Logical("logk", width=8, op="nor"))  # all unconnected
    romk = m.add(ROM("romk", [3, 5, 7], width=8))  # all unconnected
    for ref in (cnt.o("q"), reg.o("q"), rreg.o("q"), ereg.o("q"),
                acc.o("q"), mux.o("out"), lsr.o("s"), cat.o("out"),
                fifo.o("dout"), fifo.o("count"), drain.o("empty"),
                ram.o("dout"), negk.o("n"), logk.o("out"), romk.o("data")):
        m.probe(ref)
    return m
