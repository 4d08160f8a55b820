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
Every colflow connection is opened by ``connect`` and accepted by
``accept_forever``.
"""

from __future__ import annotations

import errno
import itertools
import socket
import struct
import threading
from collections.abc import Callable

PROTO_VERSION = 8

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


def connect(address: str, timeout: float | None = None) -> socket.socket:
    """A TCP connection to ``HOST:PORT`` with Nagle's algorithm off: every frame goes out in one sendall."""
    host, _, port = address.rpartition(":")
    sock = socket.create_connection((host, int(port)), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def accept_forever(listener: socket.socket, handle: Callable[[socket.socket], None], name: str) -> None:
    """Accept on ``listener`` until ``stop_accepting`` shuts it down and closes it.

    Each connection, Nagle's algorithm off, gets a daemon thread running
    ``handle(sock)``; ``handle`` owns the socket from then on.
    """
    for k in itertools.count():
        try:
            sock, _ = listener.accept()
        except OSError as e:
            if e.errno in (errno.EINVAL, errno.EBADF):  # shut down or closed
                return
            continue  # this connection failed before it was accepted; keep serving
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        threading.Thread(target=handle, args=(sock,), name=f"{name}-{k}", daemon=True).start()


def stop_accepting(listener: socket.socket) -> None:
    """End ``accept_forever`` on ``listener`` and close it; calling it again does nothing."""
    try:
        listener.shutdown(socket.SHUT_RDWR)  # close() alone does not wake a blocked accept()
    except OSError:  # never listening, or closed already
        pass
    listener.close()


def address_of(sock: socket.socket) -> str:
    """The ``HOST:PORT`` a bound socket answers at."""
    return "%s:%d" % sock.getsockname()[:2]


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

    def take(self, n: int) -> bytes:
        """The next n bytes; n is checked against what is left before anything is copied."""
        left = len(self.buf) - self.off
        if n > left:
            raise ProtoError(f"truncated payload at offset {self.off}: {n} bytes declared, {left} left")
        self.off += n
        return self.buf[self.off - n : self.off]

    def string(self) -> str:
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError as e:
            raise ProtoError(f"string is not UTF-8: {e}") from None

    def finish(self) -> None:
        """The payload must end where its last field does."""
        if self.off != len(self.buf):
            raise ProtoError(f"{len(self.buf) - self.off} trailing bytes after the payload's last field")
