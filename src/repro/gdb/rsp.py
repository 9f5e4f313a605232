"""GDB Remote Serial Protocol framing and helpers.

Packet format: ``$<payload>#<2-hex-digit checksum>`` where the checksum
is the modulo-256 sum of the payload bytes.  The receiver answers with
``+`` (ack) or ``-`` (request retransmission).
"""

from __future__ import annotations


class RspError(ValueError):
    """Malformed packet."""


def checksum(payload: bytes) -> int:
    return sum(payload) % 256


def encode_packet(payload: str | bytes) -> bytes:
    data = payload.encode("ascii") if isinstance(payload, str) else payload
    return b"$" + data + b"#" + f"{checksum(data):02x}".encode("ascii")


def decode_packet(raw: bytes) -> str:
    """Parse one complete ``$...#xx`` packet; returns the payload."""
    if not raw.startswith(b"$"):
        raise RspError(f"packet must start with '$': {raw[:8]!r}")
    try:
        hash_pos = raw.index(b"#")
    except ValueError:
        raise RspError("packet missing '#' terminator") from None
    payload = raw[1:hash_pos]
    check = raw[hash_pos + 1 : hash_pos + 3]
    if len(check) != 2:
        raise RspError("truncated checksum")
    if int(check, 16) != checksum(payload):
        raise RspError(
            f"checksum mismatch: got {check!r}, "
            f"expected {checksum(payload):02x}"
        )
    return payload.decode("ascii")


def extract_packets(buffer: bytes) -> tuple[list[str], bytes]:
    """Pull every complete packet out of ``buffer``; returns
    ``(payloads, remainder)``.  Acks (``+``/``-``) are skipped."""
    payloads: list[str] = []
    pos = 0
    n = len(buffer)
    while pos < n:
        ch = buffer[pos : pos + 1]
        if ch in (b"+", b"-"):
            pos += 1
            continue
        if ch != b"$":
            pos += 1  # garbage; resync
            continue
        hash_pos = buffer.find(b"#", pos)
        if hash_pos == -1 or hash_pos + 3 > n:
            break  # incomplete
        payloads.append(decode_packet(buffer[pos : hash_pos + 3]))
        pos = hash_pos + 3
    return payloads, buffer[pos:]


def hex_decode(text: str) -> bytes:
    return bytes.fromhex(text)


def u32_to_hex(value: int) -> str:
    """Register value as big-endian hex (MicroBlaze is big-endian)."""
    return f"{value & 0xFFFFFFFF:08x}"
