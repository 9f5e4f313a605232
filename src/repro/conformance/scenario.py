"""Seeded random co-simulation scenarios.

A :class:`Scenario` is a complete, self-contained co-simulation design:
a hardware model (one or two FSL stream pipelines assembled from the
sysgen block library, with randomized FIFO depths, stage kinds and
pipeline latencies) plus a generated mini-C program that drives it with
a random mix of blocking and non-blocking ``get``/``put``, control-bit
traffic, carry/MSR reads and multi-cycle arithmetic.

Scenarios are *data*: plain frozen dataclasses with a stable dict
round-trip, so the same scenario can be rebuilt in a worker subprocess,
stored in a golden-trace file, or shrunk by dropping parts.  Everything
random is derived from ``random.Random(f"mb32-conformance/{seed}/{i}")``
— the same seed always yields byte-identical scenarios.

The generated designs are safe by construction: blocking bursts never
exceed the FIFO capacity and non-blocking puts pair with bounded
non-blocking drains, so an unintended deadlock cannot occur.  A small
fraction of scenarios deliberately provokes a deadlock (over-full
blocking burst, get from a silent channel) — a deadlock is a perfectly
good *observable* as long as every execution mode reports the same one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.asm.linker import Program
from repro.cosim.mb_block import MicroBlazeBlock
from repro.iss.cpu import CPUConfig
from repro.mcc import CompileOptions, build_executable
from repro.sysgen import Model
from repro.sysgen.blocks import (
    RAM,
    ROM,
    Accumulator,
    Add,
    Counter,
    Delay,
    Inverter,
    Logical,
    Mult,
    Negate,
    Register,
    Shift,
    Slice,
)

# Stage kinds a pipeline may chain (all 32-bit datapath):
#   shl/shr  constant shift              (latency 0..2)
#   add      a + a (doubling adder)      (latency 0..2)
#   neg      two's-complement negate     (latency 0..2)
#   mul      signed 18x18 multiply by a small constant (latency 1..3)
#   inv      bitwise NOT                 (combinational)
#   reg      register                    (latency 1)
#   delay    delay line                  (latency = param)
#   rom      low-nibble ROM lookup       (combinational)
STAGE_KINDS = ("shl", "shr", "add", "neg", "mul", "inv", "reg", "delay", "rom")

OP_KINDS = ("session", "arith", "overflow_put", "starve_get")

OBSERVERS = ("none", "accumulator", "ram")


@dataclass(frozen=True)
class StageSpec:
    """One transform stage in a pipeline datapath."""

    kind: str
    param: int = 0
    latency: int = 0

    def to_dict(self) -> dict:
        return {"kind": self.kind, "param": self.param, "latency": self.latency}

    @classmethod
    def from_dict(cls, data: dict) -> "StageSpec":
        return cls(kind=data["kind"], param=int(data.get("param", 0)),
                   latency=int(data.get("latency", 0)))


@dataclass(frozen=True)
class PipelineSpec:
    """One FSL stream pipeline: FSLRead -> stages -> FSLWrite."""

    channel: int
    stages: tuple[StageSpec, ...] = ()
    gate_full: bool = True
    control_loop: bool = False
    observer: str = "none"

    def latency(self) -> int:
        total = 0
        for stage in self.stages:
            if stage.kind == "reg":
                total += 1
            elif stage.kind == "delay":
                total += max(1, stage.param)
            else:
                total += stage.latency
        return total

    def to_dict(self) -> dict:
        return {
            "channel": self.channel,
            "stages": [s.to_dict() for s in self.stages],
            "gate_full": self.gate_full,
            "control_loop": self.control_loop,
            "observer": self.observer,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineSpec":
        return cls(
            channel=int(data["channel"]),
            stages=tuple(StageSpec.from_dict(s) for s in data.get("stages", [])),
            gate_full=bool(data.get("gate_full", True)),
            control_loop=bool(data.get("control_loop", False)),
            observer=data.get("observer", "none"),
        )


@dataclass(frozen=True)
class OpSpec:
    """One program fragment.

    ``session``       ``count`` words through ``channel`` — interleaved
                      (put one, get one) or burst (put all, get all;
                      the generator caps burst counts at the FIFO
                      depth), with blocking (``put``/``cput``) or
                      non-blocking (``nput``/``ncput``) intrinsics.
                      Non-blocking accesses read ``fsl_isinvalid()``
                      after every attempt (the MSR carry path).
    ``arith``         pure-CPU multi-cycle arithmetic (mul/div/shift
                      chains selected by ``param``).
    ``overflow_put``  deliberate hazard: blocking-put more words than
                      the design can ever drain.
    ``starve_get``    deliberate hazard: blocking get from a channel
                      nothing writes to.
    """

    kind: str
    channel: int = 0
    count: int = 1
    put_mode: str = "put"
    get_mode: str = "get"
    interleaved: bool = True
    param: int = 0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "channel": self.channel,
            "count": self.count,
            "put_mode": self.put_mode,
            "get_mode": self.get_mode,
            "interleaved": self.interleaved,
            "param": self.param,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OpSpec":
        return cls(
            kind=data["kind"],
            channel=int(data.get("channel", 0)),
            count=int(data.get("count", 1)),
            put_mode=data.get("put_mode", "put"),
            get_mode=data.get("get_mode", "get"),
            interleaved=bool(data.get("interleaved", True)),
            param=int(data.get("param", 0)),
        )


@dataclass(frozen=True)
class Scenario:
    """A complete randomized co-simulation design + driver program."""

    name: str
    seed: str
    fifo_depth: int = 16
    hw_multiplier: bool = True
    hw_divider: bool = False
    hw_barrel_shifter: bool = True
    free_counter: bool = False
    pipelines: tuple[PipelineSpec, ...] = ()
    ops: tuple[OpSpec, ...] = ()
    max_cycles: int = 60_000

    def compile_options(self) -> CompileOptions:
        return CompileOptions(
            hw_multiplier=self.hw_multiplier,
            hw_divider=self.hw_divider,
            hw_barrel_shifter=self.hw_barrel_shifter,
        )

    def cpu_config(self) -> CPUConfig:
        return CPUConfig(
            use_hw_multiplier=self.hw_multiplier,
            use_hw_divider=self.hw_divider,
            use_barrel_shifter=self.hw_barrel_shifter,
        )

    def c_source(self) -> str:
        return render_program(self)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "fifo_depth": self.fifo_depth,
            "hw_multiplier": self.hw_multiplier,
            "hw_divider": self.hw_divider,
            "hw_barrel_shifter": self.hw_barrel_shifter,
            "free_counter": self.free_counter,
            "pipelines": [p.to_dict() for p in self.pipelines],
            "ops": [o.to_dict() for o in self.ops],
            "max_cycles": self.max_cycles,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        return cls(
            name=data["name"],
            seed=data["seed"],
            fifo_depth=int(data.get("fifo_depth", 16)),
            hw_multiplier=bool(data.get("hw_multiplier", True)),
            hw_divider=bool(data.get("hw_divider", False)),
            hw_barrel_shifter=bool(data.get("hw_barrel_shifter", True)),
            free_counter=bool(data.get("free_counter", False)),
            pipelines=tuple(PipelineSpec.from_dict(p)
                            for p in data.get("pipelines", [])),
            ops=tuple(OpSpec.from_dict(o) for o in data.get("ops", [])),
            max_cycles=int(data.get("max_cycles", 60_000)),
        )


def scenario_from_dict(data: dict):
    """Load a scenario of either family from its dict form.

    Documents tagged ``family: "multi"`` become
    :class:`~repro.conformance.multicpu.MultiScenario`; everything else
    (including pre-multi-CPU documents with no ``family`` key) loads as
    a single-CPU :class:`Scenario`.
    """
    if data.get("family") == "multi":
        from repro.conformance.multicpu import MultiScenario

        return MultiScenario.from_dict(data)
    return Scenario.from_dict(data)


# --------------------------------------------------------------------------
# hardware builder


def _build_stage(model: Model, prefix: str, stage: StageSpec, src):
    """Instantiate one stage; returns (output PortRef, added latency)."""
    kind = stage.kind
    if kind in ("shl", "shr"):
        amount = max(1, stage.param % 8)
        blk = model.add(Shift(prefix, width=32, amount=amount,
                              direction="left" if kind == "shl" else "right",
                              arithmetic=bool(stage.param % 2),
                              latency=stage.latency))
        model.connect(src, blk.i("a"))
        return blk.o("s"), stage.latency
    if kind == "add":
        blk = model.add(Add(prefix, width=32, latency=stage.latency))
        model.connect(src, blk.i("a"), blk.i("b"))
        return blk.o("s"), stage.latency
    if kind == "neg":
        blk = model.add(Negate(prefix, width=32, latency=stage.latency))
        model.connect(src, blk.i("a"))
        return blk.o("n"), stage.latency
    if kind == "mul":
        latency = max(1, stage.latency)
        blk = model.add(Mult(prefix, width_a=18, width_b=18, out_width=32,
                             latency=latency))
        model.connect(src, blk.i("a"), blk.i("b"))
        return blk.o("p"), latency
    if kind == "inv":
        blk = model.add(Inverter(prefix, width=32))
        model.connect(src, blk.i("a"))
        return blk.o("out"), 0
    if kind == "reg":
        blk = model.add(Register(prefix, width=32))
        model.connect(src, blk.i("d"))
        return blk.o("q"), 1
    if kind == "delay":
        n = max(1, stage.param)
        blk = model.add(Delay(prefix, width=32, n=n))
        model.connect(src, blk.i("d"))
        return blk.o("q"), n
    if kind == "rom":
        sel = model.add(Slice(f"{prefix}_sel", msb=3, lsb=0))
        model.connect(src, sel.i("a"))
        contents = [((stage.param + 1) * 2654435761 * (k + 1)) & 0xFFFFFFFF
                    for k in range(16)]
        blk = model.add(ROM(prefix, contents, width=32))
        model.connect(sel.o("out"), blk.i("addr"))
        return blk.o("data"), 0
    raise ValueError(f"unknown stage kind {kind!r}")


def build_model(scenario: Scenario) -> tuple[Model, MicroBlazeBlock]:
    """Build the hardware side of a scenario (uncompiled)."""
    model = Model(scenario.name)
    mb = MicroBlazeBlock(model, fifo_depth=scenario.fifo_depth)

    for pipe in scenario.pipelines:
        ch = pipe.channel
        rd = mb.master_fsl(ch)
        wr = mb.slave_fsl(ch)

        if pipe.gate_full:
            notfull = model.add(Inverter(f"p{ch}_notfull", width=1))
            model.connect(wr.o("full"), notfull.i("a"))
            strobe_blk = model.add(Logical(f"p{ch}_strobe", width=1, op="and"))
            model.connect(rd.o("exists"), strobe_blk.i("d0"))
            model.connect(notfull.o("out"), strobe_blk.i("d1"))
            strobe = strobe_blk.o("out")
        else:
            strobe = rd.o("exists")
        model.connect(strobe, rd.i("read"))

        data = rd.o("data")
        total_latency = 0
        for idx, stage in enumerate(pipe.stages):
            data, added = _build_stage(
                model, f"p{ch}_s{idx}_{stage.kind}", stage, data)
            total_latency += added

        if total_latency > 0:
            valid_blk = model.add(Delay(f"p{ch}_valid", width=1,
                                        n=total_latency))
            model.connect(strobe, valid_blk.i("d"))
            valid = valid_blk.o("q")
        else:
            valid = strobe
        model.connect(data, wr.i("data"))
        model.connect(valid, wr.i("write"))

        if pipe.control_loop:
            if total_latency > 0:
                ctl_blk = model.add(Delay(f"p{ch}_ctl", width=1,
                                          n=total_latency))
                model.connect(rd.o("control"), ctl_blk.i("d"))
                ctl = ctl_blk.o("q")
            else:
                ctl = rd.o("control")
            model.connect(ctl, wr.i("control"))

        if pipe.observer == "accumulator":
            acc = model.add(Accumulator(f"p{ch}_obs", width=32))
            model.connect(data, acc.i("d"))
            model.connect(valid, acc.i("en"))
            model.probe(acc.o("q"), name=f"p{ch}_obs")
        elif pipe.observer == "ram":
            ptr = model.add(Counter(f"p{ch}_ptr", width=4))
            model.connect(valid, ptr.i("en"))
            ram = model.add(RAM(f"p{ch}_mem", depth=16, width=32))
            model.connect(ptr.o("q"), ram.i("addr"))
            model.connect(data, ram.i("din"))
            model.connect(valid, ram.i("we"))
            model.probe(ram.o("dout"), name=f"p{ch}_mem")

        model.probe(rd.o("exists"), name=f"p{ch}_exists")
        model.probe(wr.o("full"), name=f"p{ch}_full")

    if scenario.free_counter:
        # A free-running counter never reports quiescence: it denies the
        # fast-forward kernel its model-idle windows, exercising the
        # cpu-only skip paths.
        ctr = model.add(Counter("free_ctr", width=16))
        model.probe(ctr.o("q"), name="free_ctr")

    return model, mb


# --------------------------------------------------------------------------
# program rendering


def _render_session(op: OpSpec, k: int, lines: list[str]) -> None:
    put = f"{op.put_mode}fsl"
    get = f"{op.get_mode}fsl"
    mult = (op.param % 7) + 1
    bias = (op.param // 7) % 29
    value = f"i{k} * {mult} + {bias}"
    nonblocking = op.put_mode.startswith("n")
    if op.interleaved and not nonblocking:
        lines += [
            f"    for (int i{k} = 0; i{k} < {op.count}; i{k}++) {{",
            f"        {put}({value}, {op.channel});",
            f"        acc = acc + {get}({op.channel});",
            "    }",
        ]
    elif not nonblocking:
        lines += [
            f"    for (int i{k} = 0; i{k} < {op.count}; i{k}++)",
            f"        {put}({value}, {op.channel});",
            f"    for (int j{k} = 0; j{k} < {op.count}; j{k}++)",
            f"        acc = acc + {get}({op.channel});",
        ]
    else:
        lines += [
            f"    for (int i{k} = 0; i{k} < {op.count}; i{k}++) {{",
            f"        {put}({value}, {op.channel});",
            f"        if (fsl_isinvalid()) acc = acc + 1;",
            "    }",
            f"    for (int j{k} = 0; j{k} < {op.count + 2}; j{k}++) {{",
            f"        int t{k} = {get}({op.channel});",
            f"        if (fsl_isinvalid()) acc = acc + 3;",
            f"        else acc = acc + t{k};",
            "    }",
        ]


def _render_arith(op: OpSpec, k: int, lines: list[str]) -> None:
    variant = op.param % 4
    lines.append(f"    for (int i{k} = 0; i{k} < {op.count}; i{k}++) {{")
    if variant == 0:
        lines.append(f"        acc = acc * 3 + i{k} * i{k};")
    elif variant == 1:
        lines.append(f"        acc = acc + acc / ((i{k} & 7) + 1);")
        lines.append(f"        acc = acc + (acc % ((i{k} & 3) + 2));")
    elif variant == 2:
        lines.append(f"        acc = acc ^ (acc >> {(op.param % 13) + 1});")
        lines.append(f"        acc = acc + (acc << {(op.param % 5) + 1});")
    else:
        lines.append(f"        acc = acc * (i{k} + 7);")
        lines.append(f"        acc = acc ^ (acc >> 5);")
        lines.append(f"        acc = acc + acc / (i{k} + 1);")
    lines.append("    }")


def render_program(scenario: Scenario) -> str:
    """Render the scenario's driver program as mini-C source."""
    lines = [
        f"/* generated by mb32-conformance — scenario {scenario.name} */",
        "int main(void) {",
        "    unsigned acc = 1;",
    ]
    for k, op in enumerate(scenario.ops):
        if op.kind == "session":
            _render_session(op, k, lines)
        elif op.kind == "arith":
            _render_arith(op, k, lines)
        elif op.kind == "overflow_put":
            lines += [
                f"    for (int i{k} = 0; i{k} < {op.count}; i{k}++)",
                f"        putfsl(i{k} + 1, {op.channel});",
            ]
        elif op.kind == "starve_get":
            lines.append(f"    acc = acc + getfsl({op.channel});")
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")
    lines += [
        "    return acc & 255;",
        "}",
        "",
    ]
    return "\n".join(lines)


def build_program(scenario: Scenario) -> Program:
    """Compile the scenario's driver program."""
    return build_executable(scenario.c_source(),
                            options=scenario.compile_options())


# --------------------------------------------------------------------------
# generator


@dataclass
class ScenarioGenerator:
    """Deterministic stream of random scenarios.

    Scenario ``i`` of seed ``s`` depends only on ``(s, i)`` — never on
    how many scenarios were drawn before it — so a corpus can be
    re-generated selectively (``--pin``) and indexes compared across
    runs.
    """

    seed: int = 0
    max_cycles: int = 60_000
    hazard_rate: float = 0.08
    _counter: int = field(default=0, repr=False)

    def scenario(self, index: int) -> Scenario:
        rng = random.Random(f"mb32-conformance/{self.seed}/{index}")
        name = f"s{self.seed}-{index:04d}"

        fifo_depth = rng.choice((2, 3, 4, 8, 16))
        hw_multiplier = rng.random() < 0.8
        hw_divider = rng.random() < 0.4
        hw_barrel_shifter = rng.random() < 0.8
        free_counter = rng.random() < 0.10

        n_pipes = rng.choice((1, 1, 1, 2))
        pipelines = []
        for ch in range(n_pipes):
            n_stages = rng.randint(0, 4)
            stages = tuple(
                StageSpec(kind=rng.choice(STAGE_KINDS),
                          param=rng.randint(0, 63),
                          latency=rng.randint(0, 2))
                for _ in range(n_stages))
            pipelines.append(PipelineSpec(
                channel=ch,
                stages=stages,
                gate_full=rng.random() < 0.7,
                control_loop=rng.random() < 0.3,
                observer=rng.choice(OBSERVERS),
            ))

        n_ops = rng.randint(1, 4)
        ops = []
        for _ in range(n_ops):
            channel = rng.randrange(n_pipes)
            if rng.random() < 0.25:
                ops.append(OpSpec(kind="arith",
                                  count=rng.randint(2, 12),
                                  param=rng.randint(0, 63)))
                continue
            nonblocking = rng.random() < 0.35
            if nonblocking:
                put_mode = rng.choice(("nput", "ncput"))
                get_mode = rng.choice(("nget", "ncget"))
                interleaved = False
                count = rng.randint(1, 2 * fifo_depth)
            else:
                put_mode = rng.choice(("put", "put", "cput"))
                get_mode = rng.choice(("get", "get", "cget"))
                interleaved = rng.random() < 0.6
                count = (rng.randint(1, 24) if interleaved
                         else rng.randint(1, fifo_depth))
            ops.append(OpSpec(kind="session", channel=channel, count=count,
                              put_mode=put_mode, get_mode=get_mode,
                              interleaved=interleaved,
                              param=rng.randint(0, 200)))

        if rng.random() < self.hazard_rate:
            hazard_ch = rng.randrange(n_pipes)
            if rng.random() < 0.5:
                # More words than the in-flight capacity of the whole
                # pipeline (both FIFOs + every pipeline register).
                capacity = 2 * fifo_depth + pipelines[hazard_ch].latency()
                ops.append(OpSpec(kind="overflow_put", channel=hazard_ch,
                                  count=capacity + rng.randint(4, 16)))
            else:
                ops.append(OpSpec(kind="starve_get", channel=hazard_ch))

        return Scenario(
            name=name,
            seed=f"{self.seed}/{index}",
            fifo_depth=fifo_depth,
            hw_multiplier=hw_multiplier,
            hw_divider=hw_divider,
            hw_barrel_shifter=hw_barrel_shifter,
            free_counter=free_counter,
            pipelines=tuple(pipelines),
            ops=tuple(ops),
            max_cycles=self.max_cycles,
        )

    def scenarios(self, count: int, start: int = 0):
        for index in range(start, start + count):
            yield self.scenario(index)
