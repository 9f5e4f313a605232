"""Memory system for the MB32 ISS.

The paper's configuration stores instructions and data in on-chip
BRAMs reached through two LMB interface controllers with a fixed
one-cycle latency.  :class:`BRAM` models the memory array;
:class:`AddressSpace` decodes addresses to the BRAM or to debug MMIO
devices (exit / console), which substitute for the JTAG-based I/O a
real board would provide.

All multi-byte accesses are big-endian, matching MicroBlaze.
Unaligned accesses raise :class:`BusFault` (MicroBlaze raises an
unaligned-access exception).
"""

from __future__ import annotations

import base64
import zlib
from typing import Callable, Protocol

#: MMIO addresses used by the runtime (crt0 writes the exit code here).
EXIT_ADDR = 0xFFFF_0000
#: MMIO console: a store writes one character (low byte).
CONSOLE_ADDR = 0xFFFF_0004


class BusFault(RuntimeError):
    """Raised for out-of-range or unaligned accesses."""


class Device(Protocol):
    def dev_read(self, offset: int) -> int: ...
    def dev_write(self, offset: int, value: int) -> None: ...


class BRAM:
    """A block-RAM-backed memory array (byte-addressable, big-endian)."""

    def __init__(self, size: int):
        if size <= 0 or size % 4:
            raise ValueError("BRAM size must be a positive multiple of 4")
        self.size = size
        self._mem = bytearray(size)

    # -- loading -------------------------------------------------------
    def load(self, addr: int, data: bytes) -> None:
        if addr < 0 or addr + len(data) > self.size:
            raise BusFault(f"load of {len(data)} bytes at {addr:#x} out of range")
        self._mem[addr : addr + len(data)] = data

    def dump(self, addr: int = 0, length: int | None = None) -> bytes:
        if length is None:
            length = self.size - addr
        return bytes(self._mem[addr : addr + length])

    # -- checkpointing -------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe snapshot (contents compressed + base64-encoded)."""
        return {
            "size": self.size,
            "mem": base64.b64encode(
                zlib.compress(bytes(self._mem))).decode("ascii"),
        }

    def load_state(self, state: dict) -> None:
        if state["size"] != self.size:
            raise BusFault(
                f"checkpoint BRAM size {state['size']:#x} != {self.size:#x}")
        self._mem[:] = zlib.decompress(base64.b64decode(state["mem"]))

    # -- accesses --------------------------------------------------------
    def _check(self, addr: int, size: int) -> None:
        if addr % size:
            raise BusFault(f"unaligned {size}-byte access at {addr:#010x}")
        if addr < 0 or addr + size > self.size:
            raise BusFault(f"access at {addr:#010x} beyond BRAM size {self.size:#x}")

    def read_u8(self, addr: int) -> int:
        self._check(addr, 1)
        return self._mem[addr]

    def read_u16(self, addr: int) -> int:
        self._check(addr, 2)
        return int.from_bytes(self._mem[addr : addr + 2], "big")

    def read_u32(self, addr: int) -> int:
        self._check(addr, 4)
        return int.from_bytes(self._mem[addr : addr + 4], "big")

    def write_u8(self, addr: int, value: int) -> None:
        self._check(addr, 1)
        self._mem[addr] = value & 0xFF

    def write_u16(self, addr: int, value: int) -> None:
        self._check(addr, 2)
        self._mem[addr : addr + 2] = (value & 0xFFFF).to_bytes(2, "big")

    def write_u32(self, addr: int, value: int) -> None:
        self._check(addr, 4)
        self._mem[addr : addr + 4] = (value & 0xFFFFFFFF).to_bytes(4, "big")


class ExitDevice:
    """A store to this device halts the simulation with an exit code."""

    def __init__(self) -> None:
        self.exit_code: int | None = None

    def dev_read(self, offset: int) -> int:
        return self.exit_code or 0

    def dev_write(self, offset: int, value: int) -> None:
        # Interpret as a signed 32-bit exit code.
        self.exit_code = value - (1 << 32) if value & 0x8000_0000 else value


class ConsoleDevice:
    """Byte-oriented debug console (putchar via MMIO store)."""

    def __init__(self, sink: Callable[[str], None] | None = None):
        self.buffer: list[str] = []
        self._sink = sink

    @property
    def text(self) -> str:
        return "".join(self.buffer)

    def dev_read(self, offset: int) -> int:
        return 0

    def dev_write(self, offset: int, value: int) -> None:
        ch = chr(value & 0xFF)
        self.buffer.append(ch)
        if self._sink is not None:
            self._sink(ch)


class AddressSpace:
    """Address decoder: BRAM at 0, MMIO devices at ``0xFFFF_xxxx``.

    A write hook can be installed to invalidate the CPU's code cache
    when code memory is written (self-modifying code support); it is
    called with ``None`` when an OPB window is mapped, since translated
    code reads the memory map.
    """

    DEVICE_BASE = 0xFFFF_0000

    def __init__(self, bram: BRAM):
        self.bram = bram
        self.exit_device = ExitDevice()
        self.console = ConsoleDevice()
        self._devices: dict[int, Device] = {
            EXIT_ADDR: self.exit_device,
            CONSOLE_ADDR: self.console,
        }
        self.write_hook: Callable[[int | None], None] | None = None
        # optional OPB window (memory-mapped peripherals)
        self._opb = None
        self._opb_base = 0
        self._opb_end = 0
        #: extra bus cycles incurred by the most recent access (OPB
        #: transactions take longer than LMB); consumed by the CPU.
        self.extra_latency = 0

    def map_opb(self, bus, base: int, size: int) -> None:
        """Route word accesses in ``[base, base+size)`` to an OPB bus."""
        if base % 4 or size % 4 or size <= 0:
            raise ValueError("OPB window must be word-aligned and non-empty")
        if base < self.bram.size:
            raise ValueError("OPB window overlaps BRAM")
        self._opb = bus
        self._opb_base = base
        self._opb_end = base + size
        if self.write_hook is not None:
            self.write_hook(None)

    def _in_opb(self, addr: int) -> bool:
        return self._opb is not None and self._opb_base <= addr < self._opb_end

    def reset_devices(self) -> None:
        """Clear device state (exit code, console buffer) for a re-run."""
        self.exit_device.exit_code = None
        self.console.buffer.clear()

    def state_dict(self) -> dict:
        """BRAM contents plus debug-device state (checkpointing).

        The OPB window mapping and write hook are wiring, not state —
        a restored simulation re-creates them at construction time.
        """
        return {
            "bram": self.bram.state_dict(),
            "exit_code": self.exit_device.exit_code,
            "console": list(self.console.buffer),
            "extra_latency": self.extra_latency,
        }

    def load_state(self, state: dict) -> None:
        self.bram.load_state(state["bram"])
        self.exit_device.exit_code = state["exit_code"]
        self.console.buffer[:] = state["console"]
        self.extra_latency = state["extra_latency"]

    def add_device(self, addr: int, device: Device) -> None:
        if addr < self.DEVICE_BASE:
            raise ValueError("device addresses must be >= 0xFFFF0000")
        if addr in self._devices:
            raise ValueError(f"device already mapped at {addr:#010x}")
        self._devices[addr] = device

    # -- reads -----------------------------------------------------------
    def read_u8(self, addr: int) -> int:
        if addr >= self.DEVICE_BASE:
            return self._dev(addr).dev_read(0) & 0xFF
        return self.bram.read_u8(addr)

    def read_u16(self, addr: int) -> int:
        if addr >= self.DEVICE_BASE:
            return self._dev(addr).dev_read(0) & 0xFFFF
        return self.bram.read_u16(addr)

    def read_u32(self, addr: int) -> int:
        if addr >= self.DEVICE_BASE:
            return self._dev(addr).dev_read(0) & 0xFFFFFFFF
        if self._in_opb(addr):
            value, latency = self._opb.read_u32(addr)
            self.extra_latency += latency - 1
            return value
        return self.bram.read_u32(addr)

    # -- writes ----------------------------------------------------------
    def write_u8(self, addr: int, value: int) -> None:
        if addr >= self.DEVICE_BASE:
            self._dev(addr).dev_write(0, value & 0xFF)
            return
        self.bram.write_u8(addr, value)
        if self.write_hook is not None:
            self.write_hook(addr)

    def write_u16(self, addr: int, value: int) -> None:
        if addr >= self.DEVICE_BASE:
            self._dev(addr).dev_write(0, value & 0xFFFF)
            return
        self.bram.write_u16(addr, value)
        if self.write_hook is not None:
            self.write_hook(addr)

    def write_u32(self, addr: int, value: int) -> None:
        if addr >= self.DEVICE_BASE:
            self._dev(addr).dev_write(0, value)
            return
        if self._in_opb(addr):
            self.extra_latency += self._opb.write_u32(addr, value) - 1
            return
        self.bram.write_u32(addr, value)
        if self.write_hook is not None:
            self.write_hook(addr)

    def _dev(self, addr: int) -> Device:
        dev = self._devices.get(addr)
        if dev is None:
            raise BusFault(f"no device at {addr:#010x}")
        return dev
