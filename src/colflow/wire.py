"""The one wire codec: framing, and the codecs of every colflow byte layout.

Both channels speak it: the data-server channel (``colstore.server`` and
``RemoteTransport``) and the cluster channel (``proto``). A frame is,
little-endian throughout:

    u32 length   == payload size + 4
    u16 kind     message kind (cluster) or opcode (data server)
    u16 version  == PROTO_VERSION
    payload

A frame whose length word is below 4, whose payload exceeds the
receiver's bound, or whose version differs is a ProtoError, and the
connection is no longer trustworthy.

Every byte layout is declared once with the ``Codec``s below, beside its
owner: ``colstore.server`` (data-server payloads), ``colstore.format`` (file
header, tail, footer), ``proto`` (cluster messages). ``STR`` is u32-length
UTF-8. Malformed values, short payloads and trailing bytes are ProtoErrors.

This module imports nothing from colflow and no numpy, so the data server
(below ``engine``) and every layer above it share it. Every colflow
listening socket is bound by ``listen``, and every connection is opened by
``connect`` and accepted by ``accept_forever``.
"""

from __future__ import annotations

import errno
import itertools
import socket
import struct
import threading
from collections import Counter
from collections.abc import Callable, Iterable
from typing import Any, NamedTuple

PROTO_VERSION = 9

MAX_FRAME = 256 * 1024 * 1024
"""The largest payload, in bytes, one frame may carry.

A receiver holds a whole frame before decoding it, so without a bound
one peer could make it hold up to 4 GiB. 256 MiB sits about three
orders of magnitude above the largest frames colflow sends: a
data-server READ reply of one cluster's chunks (~0.6 MiB for the skim's
four columns at 10k-entry clusters, one vector column among them) or of a
payload slice (256 KiB), and a RESULT or RUN_DONE (~80 KiB for the
31-universe benchmark document). Senders check it too, so an oversized
message fails at encode, naming its size.

Each side moves a frame through one buffer. The receiver fills the body
in place with ``recv_into``, into a buffer that starts at no more than
``RECV_STEP`` bytes and grows by at most that much past the bytes that
have arrived, so a header that declares a large frame and then stops
costs at most one step of memory; the payload it returns is a read-only
view of that buffer. The sender puts the header and the payload on the
socket in one scatter-gather ``sendmsg``, without joining them. Data
channel replies that carry file bytes are the exception: the data server
sends each span from the page cache with ``sendfile`` after the header,
and its client, which knows the spans it asked for, receives a READ
reply's header with ``recv_header`` and each span into its own buffer
with ``recv_into``.
"""

RECV_STEP = 1 << 20
"""How far, in bytes, a receive buffer may run ahead of the bytes that have arrived."""

HEADER = struct.Struct("<IHH")


class ProtoError(Exception):
    """Malformed or oversized frame or payload."""


def pack_header(kind: int, size: int) -> bytes:
    """The 8-byte header of a frame with a ``size``-byte payload: the only place a frame header is written."""
    if size > MAX_FRAME:
        raise ProtoError(f"frame payload of {size} bytes exceeds MAX_FRAME ({MAX_FRAME} bytes)")
    return HEADER.pack(size + 4, kind, PROTO_VERSION)


def pack_frame(kind: int, payload: bytes) -> bytes:
    """Header plus payload as one bytes object."""
    return pack_header(kind, len(payload)) + payload


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
    """A TCP connection to ``HOST:PORT`` with Nagle's algorithm off: every frame goes out in one send call."""
    host, _, port = address.rpartition(":")
    sock = socket.create_connection((host, int(port)), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def listen(address: tuple[str, int] = ("127.0.0.1", 0)) -> socket.socket:
    """A TCP socket listening at ``(host, port)``, port 0 asking the OS for a free one.

    Its backlog is the kernel's largest (``SOMAXCONN``): ``accept_forever``
    starts a thread before it accepts the next connection, and a burst of
    connects that overflows a shorter queue stalls some of them for a
    SYN retransmission (~1 s).
    """
    return socket.create_server(address, backlog=socket.SOMAXCONN)


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


def send_frame(sock: socket.socket, kind: int, payload) -> None:
    """Send one frame: its header and ``payload`` (any bytes-like object) in one
    scatter-gather ``sendmsg``, looping on a partial send; nothing is joined or copied."""
    body = memoryview(payload).cast("B")
    parts = [memoryview(pack_header(kind, len(body))), body]
    while parts:
        sent = sock.sendmsg(parts)
        while parts and sent >= len(parts[0]):
            sent -= len(parts.pop(0))
        if parts:
            parts[0] = parts[0][sent:]


def recv_frame(sock: socket.socket, limit: int | None = None) -> tuple[int, memoryview] | None:
    """(kind, payload) of the next frame; None on clean EOF between frames.

    The body is received in place into one buffer, grown ``RECV_STEP``
    bytes at a time, and the payload is a read-only memoryview over it:
    arrays decoded from it share its bytes and are read-only too.
    """
    header = recv_header(sock, limit)
    if header is None:
        return None
    size, kind = header
    return kind, recv_body(sock, size)


def recv_header(sock: socket.socket, limit: int | None = None) -> tuple[int, int] | None:
    """(payload size, kind) of the next frame, its body left on the socket; None on clean EOF between frames."""
    head = bytearray(HEADER.size)
    got = _fill(sock, memoryview(head))
    if got == 0:
        return None
    if got < HEADER.size:
        raise ProtoError("connection closed mid-frame")
    return parse_header(head, limit)


def recv_body(sock: socket.socket, size: int) -> memoryview:
    """The next ``size`` bytes, as ``recv_frame`` receives a body."""
    body = bytearray(min(size, RECV_STEP))
    got = 0
    while True:
        got += _fill(sock, memoryview(body)[got:])
        if got < len(body):
            raise ProtoError("connection closed mid-frame")
        if got == size:
            return memoryview(body).toreadonly()
        body += bytes(min(size - got, RECV_STEP))  # full, and more is declared: grow by one step


def recv_into(sock: socket.socket, buffers: list[bytearray]) -> None:
    """Fill ``buffers`` in order, each ``recvmsg_into`` scattering into all that are not yet full;
    a hang-up before they are full is a ProtoError."""
    views = [memoryview(b) for b in buffers if b]
    while views:
        n = sock.recvmsg_into(views)[0]
        if n == 0:
            raise ProtoError("connection closed mid-frame")
        while views and n >= len(views[0]):
            n -= len(views.pop(0))
        if views:
            views[0] = views[0][n:]


def _fill(sock: socket.socket, view: memoryview) -> int:
    """Receive into all of ``view``; the count is short only if the peer hung up first."""
    got = 0
    while got < len(view):
        n = sock.recv_into(view[got:])
        if n == 0:
            break
        got += n
    return got


class Reader:
    """Cursor over a payload; reading past its end raises ProtoError."""

    __slots__ = ("buf", "off")

    def __init__(self, buf: bytes, off: int = 0):
        self.buf = buf
        self.off = off

    def unpack(self, fixed: struct.Struct) -> tuple:
        try:
            values = fixed.unpack_from(self.buf, self.off)
        except struct.error as e:
            raise ProtoError(f"truncated payload at offset {self.off}: {e}") from None
        self.off += fixed.size
        return values

    def take(self, n: int) -> bytes:
        """The next n bytes; n is checked against what is left before anything is copied."""
        left = len(self.buf) - self.off
        if n > left:
            raise ProtoError(f"truncated payload at offset {self.off}: {n} bytes declared, {left} left")
        self.off += n
        return self.buf[self.off - n : self.off]

    def finish(self) -> None:
        """The payload must end where its last field does."""
        if self.off != len(self.buf):
            raise ProtoError(f"{len(self.buf) - self.off} trailing bytes after the payload's last field")


# --- codecs: one field type each, packed and unpacked ---------------------------

class Codec(NamedTuple):
    pack: Callable[[Any], bytes]
    unpack: Callable[[Reader], Any]  # raises ProtoError on a malformed value
    fmt: str = ""  # a scalar's struct format, without byte order; "" for any other codec


Layout = tuple[tuple[str, Codec], ...]  # (field name, codec) pairs in wire order


def scalar(fmt: str) -> Codec:
    fixed = struct.Struct("<" + fmt)
    return Codec(fixed.pack, lambda r: r.unpack(fixed)[0], fmt)


U8, U16, U32, U64, F64 = map(scalar, "BHIQd")


def text(length: Codec) -> Codec:
    """UTF-8 after its byte count, packed by ``length``."""

    def pack(s: str) -> bytes:
        raw = s.encode("utf-8")
        return length.pack(len(raw)) + raw

    def unpack(r: Reader) -> str:
        try:
            return str(r.take(length.unpack(r)), "utf-8")
        except UnicodeDecodeError as e:
            raise ProtoError(f"string is not UTF-8: {e}") from None
    return Codec(pack, unpack)


STR = text(U32)
pack_str = STR.pack


def enum(code: Codec, values: dict[Any, Any], what: str) -> Codec:
    """A ``code`` that stands for one of ``values``; any other is a ProtoError."""
    code_of = {v: c for c, v in values.items()}

    def unpack(r: Reader) -> Any:
        c = code.unpack(r)
        if c not in values:
            raise ProtoError(f"{what} {c!r}")
        return values[c]
    return Codec(lambda v: code.pack(code_of[v]), unpack)


FLAG = enum(U8, {0: False, 1: True}, "flag byte")


def by_name(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """Columns, universes and tables are keyed by name: a repeat would silently replace the first."""
    named = dict(pairs)
    if len(named) < len(pairs):
        raise ProtoError(f"duplicate name {next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)!r}")
    return named


def counted(item: Codec, make: Callable[[Iterable], Any] = tuple) -> Codec:
    """A u32 count, then that many items, collected by ``make``."""
    return Codec(
        lambda xs: U32.pack(len(xs)) + b"".join(map(item.pack, xs)),
        lambda r: make(item.unpack(r) for _ in range(U32.unpack(r))),
    )


def fields(*codecs: Codec, make: Callable[[Iterable], Any] = tuple) -> Codec:
    """One value per codec, collected by ``make``; scalars alone pack and unpack through one ``struct.Struct``."""
    if all(c.fmt for c in codecs):
        fixed = struct.Struct("<" + "".join(c.fmt for c in codecs))
        return Codec(lambda values: fixed.pack(*values), lambda r: make(r.unpack(fixed)))
    return Codec(
        lambda values: b"".join([c.pack(v) for c, v in zip(codecs, values)]),
        lambda r: make([c.unpack(r) for c in codecs]),
    )


def mapping(key: Codec, value: Codec) -> Codec:
    """A dict as its u32-counted (key, value) pairs, in order; a repeated key is a ProtoError."""
    pairs = counted(fields(key, value), lambda items: by_name(list(items)))
    return Codec(lambda d: pairs.pack(d.items()), pairs.unpack)


def record(cls: type, layout: Layout) -> Codec:
    """A ``cls`` as its fields in ``layout``, passed to ``cls`` by name."""

    def unpack(r: Reader) -> Any:
        values = {}
        for name, codec in layout:
            try:
                values[name] = codec.unpack(r)
            except ProtoError as e:
                raise ProtoError(f"bad {cls.__name__}.{name}: {e}") from None
        try:
            return cls(**values)
        except ValueError as e:  # field values the class rejects
            raise ProtoError(f"bad {cls.__name__}: {e}") from None
    return Codec(lambda value: b"".join([codec.pack(getattr(value, name)) for name, codec in layout]), unpack)


def unpack_whole(codec: Codec, payload) -> Any:
    """The one value ``payload`` holds, with nothing after it."""
    r = Reader(payload)
    value = codec.unpack(r)
    r.finish()
    return value
