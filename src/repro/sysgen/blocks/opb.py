"""OPB slave adapter block — memory-mapped peripheral registers.

The paper's environment supports attaching customized hardware over the
IBM On-chip Peripheral Bus in addition to FSL.  This block is the
hardware-side adapter: it is simultaneously

* a sysgen block: ``cmd0..cmd{n-1}`` outputs expose the registers the
  processor writes; ``sts0..sts{m-1}`` inputs are latched every cycle
  into registers the processor reads,
* an OPB slave (:class:`repro.bus.opb.OPBSlave`): word offsets
  ``[0, 4n)`` address the command registers, ``[4n, 4n+4m)`` the status
  registers.

Attach it to a bus with ``bus.attach(base, block.opb_size, block)`` and
map the bus into the processor with ``cpu.mem.map_opb(bus, base, size)``.
"""

from __future__ import annotations

from repro.resources.types import Resources
from repro.sysgen.block import IDLE_FOREVER, SeqBlock, slices_for_bits, wrap


class OPBRegisterBank(SeqBlock):
    """n command (CPU→HW) + m status (HW→CPU) 32-bit registers."""

    def __init__(self, name: str, n_command: int = 4, n_status: int = 4):
        super().__init__(name)
        if n_command < 0 or n_status < 0 or n_command + n_status == 0:
            raise ValueError("need at least one register")
        self.n_command = n_command
        self.n_status = n_status
        self._cmd = [0] * n_command
        self._sts = [0] * n_status
        for i in range(n_command):
            self.add_output(f"cmd{i}", 32)
        for i in range(n_status):
            self.add_input(f"sts{i}")
        #: count of writes observed (handy strobe for control logic)
        self.add_output("wr_count", 16)
        self._writes = 0

    # ------------------------------------------------------------------
    # sysgen side
    # ------------------------------------------------------------------
    def present(self) -> None:
        for i, value in enumerate(self._cmd):
            self.outputs[f"cmd{i}"].value = value
        self.outputs["wr_count"].value = self._writes & 0xFFFF

    def clock(self) -> None:
        for i in range(self.n_status):
            self._sts[i] = wrap(self.in_value(f"sts{i}"), 32)

    def emit(self, ctx) -> bool:
        # The CPU writes _cmd/_writes through opb_write between (or,
        # with an in-model CPU block, during) cycles, so command
        # registers are read per cycle — never cached in locals.
        b = ctx.bind(self)
        cmd = ctx.fresh(self, "_cmd", "cm")
        for i in range(self.n_command):
            ctx.present(f"{ctx.out(self, f'cmd{i}')} = {cmd}[{i}]")
        ctx.present(f"{ctx.out(self, 'wr_count')} = {b}._writes & 65535")
        sts = ctx.fresh(self, "_sts", "st")
        for i in range(self.n_status):
            ctx.clock(
                f"{sts}[{i}] = ({ctx.inp(self, f'sts{i}')}) & 4294967295"
            )
        ctx.busy_if(
            *(f"{ctx.out(self, f'cmd{i}')} != {cmd}[{i}]"
              for i in range(self.n_command)),
            f"{ctx.out(self, 'wr_count')} != {b}._writes & 65535",
            *(f"{sts}[{i}] != ({ctx.inp(self, f'sts{i}')}) & 4294967295"
              for i in range(self.n_status)),
        )
        return True

    def reset(self) -> None:
        super().reset()
        self._cmd = [0] * self.n_command
        self._sts = [0] * self.n_status
        self._writes = 0

    def idle_horizon(self) -> int:
        for i, value in enumerate(self._cmd):
            if self.outputs[f"cmd{i}"].value != value:
                return 0
        if self.outputs["wr_count"].value != self._writes & 0xFFFF:
            return 0
        for i in range(self.n_status):
            if self._sts[i] != wrap(self.in_value(f"sts{i}"), 32):
                return 0
        return IDLE_FOREVER

    def extra_state(self) -> dict:
        return {"cmd": list(self._cmd), "sts": list(self._sts),
                "writes": self._writes}

    def load_extra_state(self, extra: dict) -> None:
        self._cmd = list(extra["cmd"])
        self._sts = list(extra["sts"])
        self._writes = extra["writes"]

    # ------------------------------------------------------------------
    # OPB slave side
    # ------------------------------------------------------------------
    @property
    def opb_size(self) -> int:
        return 4 * (self.n_command + self.n_status)

    def opb_read(self, offset: int) -> int:
        index = offset // 4
        if index < self.n_command:
            return self._cmd[index]
        index -= self.n_command
        if index < self.n_status:
            return self._sts[index]
        raise IndexError(f"OPB read beyond register bank: offset {offset}")

    def opb_write(self, offset: int, value: int) -> None:
        index = offset // 4
        if index >= self.n_command:
            raise IndexError(
                f"OPB write to read-only/status register: offset {offset}"
            )
        self._cmd[index] = value & 0xFFFFFFFF
        self._writes += 1

    # ------------------------------------------------------------------
    def resources(self) -> Resources:
        regs = (self.n_command + self.n_status) * slices_for_bits(32)
        return Resources(slices=regs + 12)  # registers + OPB decode
