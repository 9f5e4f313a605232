"""RSP server: exposes a :class:`Debugger` over TCP.

This is the "MicroBlaze cycle-accurate simulator" end of the paper's
``mb-gdb`` ↔ simulator TCP link.  Supported packets:

=============  ====================================================
``?``          halt reason (``S05``)
``g`` / ``G``  read / write all registers (r0..r31, pc)
``p`` / ``P``  read / write one register
``m`` / ``M``  read / write memory
``c``          continue (to breakpoint or exit)
``s``          single instruction step
``Z0``/``z0``  insert / remove breakpoint
``qSymbol..``  symbol lookup handshake (acknowledged)
``k``          kill (closes the session)
=============  ====================================================
"""

from __future__ import annotations

import socket
import threading

from repro.gdb.debugger import Debugger, StopReason
from repro.gdb.rsp import encode_packet, extract_packets, hex_decode, u32_to_hex


class GdbServer:
    """Single-client RSP server, usually run in a background thread."""

    def __init__(self, debugger: Debugger, host: str = "127.0.0.1",
                 port: int = 0):
        self.debugger = debugger
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(1)
        self.address = self._listener.getsockname()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._thread = threading.Thread(target=self.serve_one, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass
        if self._thread is not None:
            self._thread.join(timeout=2)

    # ------------------------------------------------------------------
    def serve_one(self) -> None:
        """Accept one client and serve until ``k`` or disconnect; the
        listening socket closes when the session ends."""
        with self._listener:
            self._listener.settimeout(10)
            try:
                conn, _ = self._listener.accept()
            except (OSError, socket.timeout):
                return
            with conn:
                conn.settimeout(10)
                buffer = b""
                while not self._stop.is_set():
                    try:
                        chunk = conn.recv(4096)
                    except (OSError, socket.timeout):
                        break
                    if not chunk:
                        break
                    buffer += chunk
                    packets, buffer = extract_packets(buffer)
                    for payload in packets:
                        conn.sendall(b"+")
                        reply = self.handle(payload)
                        if reply is None:  # kill
                            return
                        conn.sendall(encode_packet(reply))

    # ------------------------------------------------------------------
    def handle(self, payload: str) -> str | None:
        dbg = self.debugger
        try:
            if payload == "?":
                return "S05"
            if payload == "g":
                return "".join(u32_to_hex(dbg.read_register(i))
                               for i in range(33))
            if payload.startswith("G"):
                data = payload[1:]
                for i in range(33):
                    dbg.write_register(i, int(data[8 * i : 8 * i + 8], 16))
                return "OK"
            if payload.startswith("p"):
                return u32_to_hex(dbg.read_register(int(payload[1:], 16)))
            if payload.startswith("P"):
                reg, value = payload[1:].split("=")
                dbg.write_register(int(reg, 16), int(value, 16))
                return "OK"
            if payload.startswith("m"):
                addr, length = payload[1:].split(",")
                return dbg.read_memory(int(addr, 16), int(length, 16)).hex()
            if payload.startswith("M"):
                header, data = payload[1:].split(":")
                addr, _length = header.split(",")
                dbg.write_memory(int(addr, 16), hex_decode(data))
                return "OK"
            if payload.startswith("Z0"):
                _, addr, _kind = payload.split(",")
                dbg.set_breakpoint(int(addr, 16))
                return "OK"
            if payload.startswith("z0"):
                _, addr, _kind = payload.split(",")
                dbg.clear_breakpoint(int(addr, 16))
                return "OK"
            if payload == "c":
                info = dbg.cont()
                return self._stop_reply(info)
            if payload == "s":
                info = dbg.step_instruction()
                return self._stop_reply(info)
            if payload.startswith("qSymbol"):
                return "OK"
            if payload == "k":
                return None
            return ""  # unsupported -> empty response per the protocol
        except Exception as exc:  # protocol-level error reply
            return f"E{abs(hash(str(exc))) % 99:02d}"

    @staticmethod
    def _stop_reply(info) -> str:
        if info.reason is StopReason.EXITED:
            return f"W{(info.exit_code or 0) & 0xFF:02x}"
        return "S05"
