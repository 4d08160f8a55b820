"""The one wire codec: framing and field layout for every colflow socket.

Both channels speak it: the data-server channel (``colstore.server`` and
``RemoteTransport``) and the cluster channel (``proto``). A frame is,
little-endian throughout:

    u32 length   == payload size + 4
    u16 kind     message kind (cluster) or opcode (data server)
    u16 version  == PROTO_VERSION
    payload

Inside payloads, strings are u32-length-prefixed UTF-8 and every count and
id is a u32. A frame whose length word is below 4, whose payload exceeds
the receiver's bound, or whose version differs is a ProtoError, and the
connection is no longer trustworthy.

This module imports nothing from colflow, so the data server (below
``engine``) and the message codecs in ``proto`` (above it) share it.
"""

from __future__ import annotations

import socket
import struct

PROTO_VERSION = 2

MAX_FRAME = 256 * 1024 * 1024
"""The largest payload, in bytes, one frame may carry.

A receiver buffers a whole frame before decoding it, so without a bound
one header could make it allocate up to 4 GiB. 256 MiB sits about three
orders of magnitude above the largest frames colflow sends: a
data-server READ of one column chunk (~350 KiB for a vector column at
10k-entry clusters) or of a payload slice (256 KiB), and a RESULT or
RUN_DONE (~80 KiB for the 31-universe benchmark document). Senders check
it too, so an oversized message fails at encode, naming its size.
"""

HEADER = struct.Struct("<IHH")


class ProtoError(Exception):
    """Malformed or oversized frame or payload."""


def pack_frame(kind: int, payload: bytes) -> bytes:
    """Header plus payload: the only place a frame header is written."""
    if len(payload) > MAX_FRAME:
        raise ProtoError(f"frame payload of {len(payload)} bytes exceeds MAX_FRAME ({MAX_FRAME} bytes)")
    return HEADER.pack(len(payload) + 4, kind, PROTO_VERSION) + payload


def parse_header(head: bytes, limit: int | None = None) -> tuple[int, int]:
    """(payload size, kind) from a frame's first 8 bytes.

    The only place a frame header is read. ``limit`` bounds the payload
    size (default MAX_FRAME), checked before any body byte is read.
    """
    if len(head) < HEADER.size:
        raise ProtoError(f"frame too short: {len(head)} bytes")
    length, kind, version = HEADER.unpack_from(head, 0)
    if length < 4:
        raise ProtoError(f"frame length {length} < 4")
    limit = MAX_FRAME if limit is None else limit
    if length - 4 > limit:
        raise ProtoError(f"frame payload of {length - 4} bytes exceeds the {limit}-byte limit")
    if version != PROTO_VERSION:
        raise ProtoError(f"protocol version {version}, expected {PROTO_VERSION}")
    return length - 4, kind


def send_frame(sock: socket.socket, kind: int, payload: bytes) -> None:
    sock.sendall(pack_frame(kind, payload))


def recv_frame(sock: socket.socket, limit: int | None = None) -> tuple[int, bytes] | None:
    """(kind, payload) of the next frame; None on clean EOF between frames."""
    head = _recv_exact(sock, HEADER.size)
    if head is None:
        return None
    size, kind = parse_header(head, limit)
    body = _recv_exact(sock, size) if size else b""
    if body is None:
        raise ProtoError("connection closed mid-frame")
    return kind, body


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Exactly n bytes; None if the peer closed before sending any."""
    buf = bytearray()
    while len(buf) < n:
        # capped, so a large declared size is never allocated ahead of its bytes
        part = sock.recv(min(n - len(buf), 1 << 20))
        if not part:
            if buf:
                raise ProtoError("connection closed mid-frame")
            return None
        buf += part
    return bytes(buf)


def pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class Reader:
    """Cursor over a payload; reading past its end raises ProtoError."""

    __slots__ = ("buf", "off")

    def __init__(self, buf: bytes, off: int = 0):
        self.buf = buf
        self.off = off

    def unpack(self, fmt: str) -> tuple:
        try:
            values = struct.unpack_from(fmt, self.buf, self.off)
        except struct.error as e:
            raise ProtoError(f"truncated payload at offset {self.off}: {e}") from None
        self.off += struct.calcsize(fmt)
        return values

    def u32(self) -> int:
        return self.unpack("<I")[0]

    def string(self) -> str:
        n = self.u32()
        end = self.off + n
        if end > len(self.buf):
            raise ProtoError(f"truncated string: {n} bytes declared, {len(self.buf) - self.off} left")
        try:
            s = self.buf[self.off : end].decode("utf-8")
        except UnicodeDecodeError as e:
            raise ProtoError(f"string is not UTF-8: {e}") from None
        self.off = end
        return s
