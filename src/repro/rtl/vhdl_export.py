"""VHDL export — the System Generator / EDK netlisting step.

The paper's flow ends with "the low-level implementation can be
generated automatically using System Generator and EDK".  This module
renders a sysgen :class:`Model` as a behavioral VHDL architecture (the
abstraction ModelSim's *behavioral* simulation consumes): one signal
per block output, concurrent assignments for combinational blocks and
clocked processes for sequential ones, with gateways and FSL interfaces
as entity ports.

The output is syntactically conventional VHDL-93.  It is produced for
inspection and hand-off (and golden-tested for structure); this
repository's own low-level simulations run on the native netlist
lowering (:mod:`repro.rtl.lowering`) instead of re-parsing VHDL.
"""

from __future__ import annotations

from repro.sysgen.blocks import (
    FIFO,
    Accumulator,
    Add,
    AddSub,
    Concat,
    Constant,
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
    Register,
    Relational,
    Shift,
    Slice,
)
from repro.sysgen.model import Model


class VHDLExportError(NotImplementedError):
    """A block has no VHDL rendering."""


def _ident(name: str) -> str:
    out = "".join(ch if ch.isalnum() else "_" for ch in name)
    if not out or out[0].isdigit():
        out = "s_" + out
    return out


def _sig(owner: str, port: str) -> str:
    return f"{_ident(owner)}_{port}"


def _slv(width: int) -> str:
    if width == 1:
        return "std_logic"
    return f"std_logic_vector({width - 1} downto 0)"


class _Exporter:
    def __init__(self, model: Model, entity: str | None = None):
        self.model = model
        self.entity = _ident(entity or model.name)
        self.ports: list[str] = []
        self.decls: list[str] = []
        self.body: list[str] = []

    # ------------------------------------------------------------------
    def src(self, block, port_name: str, width: int | None = None) -> str:
        """VHDL expression for the signal driving an input port."""
        port = block.inputs[port_name]
        if port.source is None:
            default = port.default
            w = width or 32
            if w == 1:
                return f"'{default & 1}'"
            return f'std_logic_vector(to_signed({default}, {w}))'
        name = _sig(port.source.owner, port.source.name)
        src_w = port.source.width
        if width is None or width == src_w:
            return name
        if width < src_w:
            if width == 1:
                return f"{name}({0})"
            return f"{name}({width - 1} downto 0)"
        return f"std_logic_vector(resize(unsigned({name}), {width}))"

    def declare_outputs(self, block) -> None:
        for name, port in block.outputs.items():
            self.decls.append(
                f"  signal {_sig(block.name, name)} : {_slv(port.width)};"
            )

    # ------------------------------------------------------------------
    def export(self) -> str:
        self.model.compile()
        for block in self.model.blocks:
            if isinstance(block, GatewayIn):
                self.ports.append(
                    f"    {_ident(block.name)}_in : in "
                    f"{_slv(block.fmt.word_bits)}"
                )
            elif isinstance(block, GatewayOut):
                self.ports.append(
                    f"    {_ident(block.name)}_out : out "
                    f"{_slv(block.fmt.word_bits)}"
                )
            elif isinstance(block, FSLRead):
                p = _ident(block.name)
                self.ports.append(f"    {p}_data : in {_slv(32)}")
                self.ports.append(f"    {p}_exists : in std_logic")
                self.ports.append(f"    {p}_control : in std_logic")
                self.ports.append(f"    {p}_read : out std_logic")
            elif isinstance(block, FSLWrite):
                p = _ident(block.name)
                self.ports.append(f"    {p}_data : out {_slv(32)}")
                self.ports.append(f"    {p}_write : out std_logic")
                self.ports.append(f"    {p}_full : in std_logic")
            self.declare_outputs(block)
        for block in self.model.blocks:
            fn = getattr(self, f"_emit_{type(block).__name__}", None)
            if fn is None:
                raise VHDLExportError(
                    f"no VHDL rendering for {type(block).__name__}"
                )
            fn(block)
        return self._assemble()

    def _assemble(self) -> str:
        port_block = ""
        ports = ["    clk : in std_logic"] + self.ports
        port_block = "  port (\n" + ";\n".join(ports) + "\n  );\n"
        lines = [
            "-- generated by repro.rtl.vhdl_export",
            "library ieee;",
            "use ieee.std_logic_1164.all;",
            "use ieee.numeric_std.all;",
            "",
            f"entity {self.entity} is",
            port_block.rstrip(),
            f"end entity {self.entity};",
            "",
            f"architecture behavioral of {self.entity} is",
            *self.decls,
            "begin",
            *self.body,
            f"end architecture behavioral;",
            "",
        ]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Combinational blocks: concurrent assignments
    # ------------------------------------------------------------------
    def _emit_Constant(self, b: Constant) -> None:
        if b.width == 1:
            self.body.append(f"  {_sig(b.name, 'out')} <= '{b.value & 1}';")
        else:
            self.body.append(
                f"  {_sig(b.name, 'out')} <= std_logic_vector("
                f"to_signed({b.value - (1 << b.width) if b.value >> (b.width - 1) else b.value}, {b.width}));"
            )

    def _emit_GatewayIn(self, b: GatewayIn) -> None:
        self.body.append(f"  {_sig(b.name, 'out')} <= {_ident(b.name)}_in;")

    def _emit_GatewayOut(self, b: GatewayOut) -> None:
        self.body.append(
            f"  {_sig(b.name, 'out')} <= {self.src(b, 'in', b.fmt.word_bits)};"
        )
        self.body.append(f"  {_ident(b.name)}_out <= {_sig(b.name, 'out')};")

    def _emit_Add(self, b: Add) -> None:
        self._arith2(b, "s", "+")

    def _emit_Sub(self, b) -> None:
        self._arith2(b, "d", "-")

    def _arith2(self, b, out: str, op: str) -> None:
        a = self.src(b, "a", b.width)
        c = self.src(b, "b", b.width)
        expr = f"std_logic_vector(signed({a}) {op} signed({c}))"
        self._registered(b, out, expr)

    def _emit_AddSub(self, b: AddSub) -> None:
        a = self.src(b, "a", b.width)
        c = self.src(b, "b", b.width)
        sub = self.src(b, "sub", 1)
        expr = (f"std_logic_vector(signed({a}) - signed({c})) "
                f"when {sub} = '1' else "
                f"std_logic_vector(signed({a}) + signed({c}))")
        self._registered(b, "s", expr)

    def _emit_Negate(self, b: Negate) -> None:
        a = self.src(b, "a", b.width)
        self._registered(b, "n", f"std_logic_vector(-signed({a}))")

    def _emit_Mult(self, b: Mult) -> None:
        a = self.src(b, "a", b.width_a)
        c = self.src(b, "b", b.width_b)
        expr = (f"std_logic_vector(resize(signed({a}) * signed({c}), "
                f"{b.out_width}))")
        self._registered(b, "p", expr)

    def _emit_Shift(self, b: Shift) -> None:
        a = self.src(b, "a", b.width)
        if b.direction == "left":
            expr = f"std_logic_vector(shift_left(unsigned({a}), {b.amount}))"
        elif b.arithmetic:
            expr = f"std_logic_vector(shift_right(signed({a}), {b.amount}))"
        else:
            expr = f"std_logic_vector(shift_right(unsigned({a}), {b.amount}))"
        self._registered(b, "s", expr)

    def _emit_Mux(self, b: Mux) -> None:
        sel = self.src(b, "sel", max(1, (b.n - 1).bit_length()))
        sig = _sig(b.name, "out")
        arms = []
        for k in range(b.n - 1):
            cond = (f'unsigned({sel}) = {k}' if b.n > 2
                    else f"{sel} = '0'")
            arms.append(f"{self.src(b, f'd{k}', b.width)} when {cond}")
        arms.append(f"{self.src(b, f'd{b.n - 1}', b.width)}")
        self.body.append(f"  {sig} <= " + " else ".join(arms) + ";")

    def _emit_Relational(self, b: Relational) -> None:
        a = self.src(b, "a", b.width)
        c = self.src(b, "b", b.width)
        cast = "signed" if b.signed else "unsigned"
        op = {"eq": "=", "ne": "/=", "lt": "<", "le": "<=",
              "gt": ">", "ge": ">="}[b.op]
        self.body.append(
            f"  {_sig(b.name, 'out')} <= '1' when {cast}({a}) {op} {cast}({c}) "
            f"else '0';"
        )

    _LOGIC_OP = {"and": "and", "or": "or", "xor": "xor",
                 "nand": "and", "nor": "or", "xnor": "xor"}

    def _emit_Logical(self, b: Logical) -> None:
        op = self._LOGIC_OP[b.op]
        expr = self.src(b, "d0", b.width)
        for k in range(1, b.n):
            expr = f"({expr} {op} {self.src(b, f'd{k}', b.width)})"
        if b.op in ("nand", "nor", "xnor"):
            expr = f"not {expr}"
        self.body.append(f"  {_sig(b.name, 'out')} <= {expr};")

    def _emit_Inverter(self, b: Inverter) -> None:
        self.body.append(
            f"  {_sig(b.name, 'out')} <= not {self.src(b, 'a', b.width)};"
        )

    def _emit_Slice(self, b: Slice) -> None:
        a = self.src(b, "a")
        if b.msb == b.lsb:
            self.body.append(f"  {_sig(b.name, 'out')} <= {a}({b.msb});")
        else:
            self.body.append(
                f"  {_sig(b.name, 'out')} <= {a}({b.msb} downto {b.lsb});"
            )

    def _emit_Concat(self, b: Concat) -> None:
        parts = [self.src(b, f"d{i}", w) for i, w in enumerate(b.widths)]
        self.body.append(f"  {_sig(b.name, 'out')} <= {' & '.join(parts)};")

    # ------------------------------------------------------------------
    # Sequential blocks: clocked processes
    # ------------------------------------------------------------------
    def _registered(self, b, out: str, expr: str) -> None:
        """Emit a combinational assignment, pipelined over ``latency``
        stages when the block has them."""
        sig = _sig(b.name, out)
        lat = getattr(b, "latency", 0)
        if lat == 0:
            self.body.append(f"  {sig} <= {expr};")
            return
        comb = f"{sig}_c"
        width = b.outputs[out].width
        self.decls.append(f"  signal {comb} : {_slv(width)};")
        stage_sigs = [comb]
        for i in range(1, lat):
            stage = f"{sig}_p{i}"
            self.decls.append(f"  signal {stage} : {_slv(width)};")
            stage_sigs.append(stage)
        stage_sigs.append(sig)
        self.body.append(f"  {comb} <= {expr};")
        proc = [f"  {_ident(b.name)}_pipe : process (clk) begin",
                "    if rising_edge(clk) then"]
        for src, dst in zip(stage_sigs, stage_sigs[1:]):
            proc.append(f"      {dst} <= {src};")
        proc.append("    end if;")
        proc.append("  end process;")
        self.body.extend(proc)

    def _clocked(self, b, lines: list[str]) -> None:
        self.body.append(f"  {_ident(b.name)}_proc : process (clk) begin")
        self.body.append("    if rising_edge(clk) then")
        self.body.extend(f"      {line}" for line in lines)
        self.body.append("    end if;")
        self.body.append("  end process;")

    def _emit_Register(self, b: Register) -> None:
        q = _sig(b.name, "q")
        d = self.src(b, "d", b.width)
        rst = self.src(b, "rst", 1)
        en = self.src(b, "en", 1)
        self._clocked(b, [
            f"if {rst} = '1' then",
            f"  {q} <= {self._const_bits(b.init, b.width)};",
            f"elsif {en} = '1' then",
            f"  {q} <= {d};",
            "end if;",
        ])

    def _emit_Delay(self, b: Delay) -> None:
        q = _sig(b.name, "q")
        d = self.src(b, "d", b.width)
        if b.n == 1:
            self._clocked(b, [f"{q} <= {d};"])
            return
        stages = []
        for i in range(1, b.n):
            stage = f"{q}_d{i}"
            self.decls.append(f"  signal {stage} : {_slv(b.width)};")
            stages.append(stage)
        chain = [d] + stages + [q]
        self._clocked(b, [f"{dst} <= {src};"
                          for src, dst in zip(chain, chain[1:])])

    def _emit_Counter(self, b: Counter) -> None:
        q = _sig(b.name, "q")
        rst = self.src(b, "rst", 1)
        en = self.src(b, "en", 1)
        self._clocked(b, [
            f"if {rst} = '1' then",
            f"  {q} <= {self._const_bits(0, b.width)};",
            f"elsif {en} = '1' then",
            f"  {q} <= std_logic_vector(unsigned({q}) + {b.step});",
            "end if;",
        ])

    def _emit_Accumulator(self, b: Accumulator) -> None:
        q = _sig(b.name, "q")
        d = self.src(b, "d", b.width)
        rst = self.src(b, "rst", 1)
        en = self.src(b, "en", 1)
        self._clocked(b, [
            f"if {rst} = '1' then",
            f"  {q} <= {self._const_bits(0, b.width)};",
            f"elsif {en} = '1' then",
            f"  {q} <= std_logic_vector(signed({q}) + signed({d}));",
            "end if;",
        ])

    def _emit_FIFO(self, b: FIFO) -> None:
        raise VHDLExportError(
            "FIFO blocks export as core-generator macros, not inline VHDL"
        )

    def _emit_FSLRead(self, b: FSLRead) -> None:
        p = _ident(b.name)
        self.body.append(f"  {_sig(b.name, 'data')} <= {p}_data;")
        self.body.append(f"  {_sig(b.name, 'exists')} <= {p}_exists;")
        self.body.append(f"  {_sig(b.name, 'control')} <= {p}_control;")
        self.body.append(f"  {p}_read <= {self.src(b, 'read', 1)};")

    def _emit_FSLWrite(self, b: FSLWrite) -> None:
        p = _ident(b.name)
        self.body.append(f"  {p}_data <= {self.src(b, 'data', 32)};")
        self.body.append(f"  {p}_write <= {self.src(b, 'write', 1)};")
        self.body.append(f"  {_sig(b.name, 'full')} <= {p}_full;")

    # ------------------------------------------------------------------
    @staticmethod
    def _const_bits(value: int, width: int) -> str:
        if width == 1:
            return f"'{value & 1}'"
        return f"std_logic_vector(to_signed({value}, {width}))"


def export_vhdl(model: Model, entity: str | None = None) -> str:
    """Render ``model`` as a behavioral VHDL architecture."""
    return _Exporter(model, entity).export()
