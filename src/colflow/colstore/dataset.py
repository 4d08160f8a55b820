"""Opening and reading columnar files over local or remote transports.

URIs: a plain filesystem path opens locally; ``colsrv://host:port/relpath``
reads that file over a data-server connection. Each handle owns one
transport and one ReadAccount; opening reads only the header and footer.

A remote handle borrows its connection: closing it puts the socket into
this process's idle pool, and the next open of a file on the same
``host:port`` takes it from there and sends OPEN on it, so a process
opening file after file keeps one TCP session per server. The pool holds
at most ``POOL_SIZE`` idle sockets over all servers and closes the oldest
when a newer one comes back; it is emptied at exit and in a forked child.
A socket that failed at socket level (EOF, ``OSError`` or a malformed
reply) is closed and never pooled; an error reply (a missing file, say)
leaves it in step and poolable. If a pooled socket fails on its OPEN (the
server restarted, say), the open is tried once more on a fresh connection.

Reads are chunk-granular: a handle asks its transport for each needed
chunk with one ``read``, and never joins adjacent chunks, so the account's
chunk_bytes is exactly the sum of the fetched chunks' byte lengths. A
remote transport hands out each span the server sends only through
``read``, so the account also counts every byte and span the server served
it. Over a data server, a cluster's needed chunks come in one vector READ
(more than one only past ``MAX_SPANS`` chunks or one frame's bytes), and
an open is two requests: OPEN, whose reply brings the header and tail,
and a READ of the footer. A handle reads all of a cluster's chunks before
it checks any, and the header and the tail before it checks either, so a
check that fails leaves every served byte counted.

A fetched chunk is copied once on its way to the decoded arrays: from the
kernel into a buffer of its own (the data server sends it from the page
cache with ``sendfile``, and the client receives each span of the reply in
place with ``wire.recv_into``; or the bytes a local read returns). Scalar
columns and a vector column's values are read-only numpy views of that
buffer; only a vector column's u32 lengths are copied again, widened to
int64, and a BOOL column is copied once more as it becomes numpy bools.
"""

from __future__ import annotations

import atexit
import functools
import os
import socket
import threading
import zlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from .. import wire
from ..exprlang import Jagged, ValueType
from . import server as srv
from .format import HEADER, HEADER_SIZE, TAIL, TAIL_SIZE, ClusterInfo, FormatError, decode_chunk, decode_footer

REMOTE_SCHEME = "colsrv://"


class TransportError(Exception):
    """Connection or protocol failure while talking to a data server."""


class ConnectionLost(TransportError):
    """The connection failed at socket level (EOF, OSError, a malformed reply) and is closed."""


@dataclass
class ReadAccount:
    """Monotone counters for one reader session."""

    bytes_read: int = 0
    read_calls: int = 0
    chunk_bytes: int = 0  # data bytes only (chunk payloads, no metadata)


class LocalTransport:
    def __init__(self, path: str):
        try:
            self._f = open(path, "rb")
        except FileNotFoundError:
            raise FileNotFoundError(f"no such file: {path}") from None
        self._size = os.fstat(self._f.fileno()).st_size

    def size(self) -> int:
        return self._size

    def will_read(self, spans) -> None:
        """Nothing to fetch ahead: each read is one ``read`` of the file."""

    def read(self, offset: int, length: int) -> bytes:
        self._f.seek(offset)
        return self._f.read(length)

    def close(self) -> None:
        self._f.close()


def _connect(address: str) -> socket.socket:
    try:
        return wire.connect(address, timeout=30)
    except OSError as e:
        raise TransportError(f"cannot connect to data server {address}: {e}") from None


def _exchange(sock: socket.socket, opcode: int, request, receive=None):
    """Send ``request`` and return the reply, each as ``srv.LAYOUTS`` lays it out.

    ``receive(size)``, if given, takes the reply's ``size`` payload bytes
    off ``sock`` and returns what they hold. An error reply is a
    TransportError and leaves the connection in step; any other failure
    closes ``sock`` and is a ConnectionLost.
    """
    request_layout, reply_layout = srv.LAYOUTS[opcode]
    try:
        wire.send_frame(sock, opcode, request_layout.pack(request))
        header = wire.recv_header(sock)
        if header is None:
            raise ConnectionLost("data server closed the connection")
        size, reply_op = header
        if reply_op == srv.OP_ERROR:
            code, message = wire.unpack_whole(srv.ERROR_REPLY, wire.recv_body(sock, size))
        elif reply_op != opcode:
            raise ConnectionLost(f"unexpected reply opcode {reply_op} to request {opcode}")
        elif receive is None:
            return wire.unpack_whole(reply_layout, wire.recv_body(sock, size))
        else:
            return receive(size)
    except (wire.ProtoError, OSError) as e:
        sock.close()
        raise ConnectionLost(f"data server connection failed: {e}") from None
    except BaseException:  # a request cut short leaves the stream out of step
        sock.close()
        raise
    raise TransportError(f"data server error {code}: {message}")


def _batches(spans: list[tuple[int, int]]):
    """``spans`` in order, in READs of at most ``srv.MAX_SPANS`` spans whose
    lengths fit one frame; a span longer than a frame goes alone, and is refused."""
    batch, room = [], 0
    for span in spans:
        if batch and (len(batch) == srv.MAX_SPANS or room + span[1] > wire.MAX_FRAME):
            yield batch
            batch, room = [], 0
        batch.append(span)
        room += span[1]
    if batch:
        yield batch


def _cut_lengths(spans: list[tuple[int, int]], total: int, size: int) -> list[int]:
    """The lengths the server cut ``spans`` to, from the ``total`` it sent.

    The server cuts every span of one reply at the one file size it saw,
    normally ``size``, the file's size at OPEN. Each cut length grows with
    that size, so ``total`` fixes them all: if the file has changed size
    since, the least size that gives ``total`` is bisected for.
    """

    def cut(at: int) -> list[int]:
        return [max(0, min(n, at - off)) for off, n in spans]

    lengths = cut(size)
    if sum(lengths) != total:
        lo, hi = 0, max(off + n for off, n in spans)
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if sum(cut(mid)) < total else (lo, mid)
        lengths = cut(lo)
        if sum(lengths) != total:
            raise wire.ProtoError(f"a READ reply of {total} bytes fits no cut of its {len(spans)} spans")
    return lengths


# The most idle sockets one process keeps over all servers. The engine, a
# worker and the scheduler's planning each hold one handle open at a time.
POOL_SIZE = 8


class _Pool:
    """This process's idle data-server sockets, oldest first."""

    def __init__(self):
        self._lock = threading.Lock()
        self._idle: list[tuple[str, socket.socket]] = []

    def take(self, address: str) -> socket.socket | None:
        """The newest idle socket to ``address``, or None."""
        with self._lock:
            for k in range(len(self._idle) - 1, -1, -1):
                if self._idle[k][0] == address:
                    return self._idle.pop(k)[1]
        return None

    def give(self, address: str, sock: socket.socket) -> None:
        if sock.fileno() < 0:  # closed on a failure: never pooled
            return
        with self._lock:
            self._idle.append((address, sock))
            evicted = self._idle[:-POOL_SIZE]
            del self._idle[:-POOL_SIZE]
        for _, old in evicted:
            old.close()

    def clear(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for _, sock in idle:
            sock.close()

    def forget(self) -> None:
        """In a forked child: its copies of the parent's sockets are never used."""
        self._lock = threading.Lock()  # another thread may have held it at the fork
        self.clear()  # closes only this process's copies: the parent's connections stay up


_POOL = _Pool()
atexit.register(_POOL.clear)
os.register_at_fork(after_in_child=_POOL.forget)


class RemoteTransport:
    """Client side of the data-server protocol: one file read over a pooled connection.

    OPEN asks for the file's first ``head_len`` and last ``tail_len``
    bytes, and a caller names the spans it reads next with ``will_read``:
    the first ``read`` of them fetches them all in one vector READ. The
    transport holds the spans it receives, and ``read`` hands them out in
    the order they came, so every span the server sends reaches a reader
    through ``read``; any other span is a one-span READ. Each span is
    received into a buffer of its own.
    """

    def __init__(self, host: str, port: int, path: str, head_len: int = 0, tail_len: int = 0):
        self._address = f"{host}:{port}"
        self._held: deque[tuple[tuple[int, int], memoryview]] = deque()  # received, not yet read
        self._wanted: list[tuple[int, int]] = []  # named by will_read, not yet fetched
        self._sock = _POOL.take(self._address)
        if self._sock is not None:
            try:
                self._size = self._open(path, head_len, tail_len)
                return
            except ConnectionLost:  # a stale socket: its server restarted, say
                pass
        self._sock = _connect(self._address)
        self._size = self._open(path, head_len, tail_len)

    def _open(self, path: str, head_len: int, tail_len: int) -> int:
        def receive(n: int) -> int:
            reply = wire.Reader(wire.recv_body(self._sock, n))
            size = srv.LAYOUTS[srv.OP_OPEN][1].unpack(reply)
            for off, length in ((0, head_len), (max(size - tail_len, 0), tail_len)):
                if length:
                    self._held.append(((off, length), reply.take(min(length, size - off))))
            reply.finish()
            return size

        self._held.clear()
        try:
            return _exchange(self._sock, srv.OP_OPEN, (path, head_len, tail_len), receive)
        except TransportError:
            self.close()  # pools the socket unless the failure closed it
            raise

    def size(self) -> int:
        return self._size

    def will_read(self, spans) -> None:
        """The spans the next reads ask for, in that order."""
        self._wanted = list(spans)

    def read(self, offset: int, length: int) -> memoryview:
        if self._sock is None:
            raise TransportError("read on a closed transport")
        span = (offset, length)
        if not self._held and self._wanted[:1] == [span]:
            self._held.extend(zip(self._wanted, self._fetch(self._wanted)))
            self._wanted = []
        if self._held and self._held[0][0] == span:
            return self._held.popleft()[1]
        return self._fetch([span])[0]

    def _fetch(self, spans: list[tuple[int, int]]) -> list[memoryview]:
        """Each span's bytes, in as few READs as the request and frame bounds allow."""
        got = []
        for batch in _batches(spans):
            got += _exchange(self._sock, srv.OP_READ, batch, functools.partial(self._receive, batch))
        return got

    def _receive(self, spans: list[tuple[int, int]], total: int) -> list[memoryview]:
        buffers = [bytearray(n) for n in _cut_lengths(spans, total, self._size)]
        wire.recv_into(self._sock, buffers)
        return [memoryview(b).toreadonly() for b in buffers]

    def close(self) -> None:
        """Hand the connection back to the pool; the server keeps the file open until its next OPEN."""
        sock, self._sock = self._sock, None
        self._held.clear()
        self._wanted = []
        if sock is not None:
            _POOL.give(self._address, sock)


def parse_remote_uri(uri: str) -> tuple[str, int, str]:
    rest = uri[len(REMOTE_SCHEME) :]
    hostport, _, path = rest.partition("/")
    host, _, port = hostport.partition(":")
    if not host or not path or not (port.isdecimal() and port.isascii() and 0 < int(port) < 65536):
        raise TransportError(f"malformed remote URI: {uri}")
    return host, int(port), path


def server_totals(address: str) -> tuple[int, int]:
    """Global (bytes_served, read_calls) of the data server at host:port.

    The query itself moves no file data, so polling it never perturbs the
    counters it reports.
    """
    with _connect(address) as sock:
        return _exchange(sock, srv.OP_METRICS, ())


@dataclass
class ColumnBatch:
    """Decoded values of the requested columns for one cluster overlap."""

    entry_start: int
    entry_count: int
    columns: dict[str, np.ndarray | Jagged]  # Jagged for vector columns


class DatasetHandle:
    """An opened columnar file: immutable metadata plus one reader session."""

    def __init__(self, uri: str, transport, schema, total_entries, clusters, account: ReadAccount):
        self.uri = uri
        self._transport = transport
        self.schema: dict[str, ValueType] = schema  # file order
        self.total_entries: int = total_entries
        self.clusters: tuple[ClusterInfo, ...] = clusters
        self.account = account
        self._col_index = {name: i for i, name in enumerate(schema)}

    def column_chunk_bytes(self, columns) -> int:
        """Total chunk bytes of the given columns, computed from the footer."""
        idx = [self._col_index[name] for name in columns]
        return sum(cl.chunks[i].length for cl in self.clusters for i in idx)

    def read_range(self, columns, begin: int, end: int):
        """Yield one trimmed ColumnBatch per cluster overlapping [begin, end).

        Only the requested columns' chunks inside overlapped clusters are
        fetched; the handle's account grows by exactly those chunk lengths.
        """
        names = list(columns)
        for name in names:
            if name not in self._col_index:
                raise KeyError(f"unknown column: {name}")
        if not 0 <= begin <= end <= self.total_entries:
            raise ValueError(f"range [{begin}, {end}) outside [0, {self.total_entries})")
        if begin == end:
            return

        for cl in self.clusters:
            cl_end = cl.entry_start + cl.entry_count
            if cl_end <= begin or cl.entry_start >= end:
                continue
            lo = max(begin, cl.entry_start) - cl.entry_start
            hi = min(end, cl_end) - cl.entry_start
            refs = [cl.chunks[self._col_index[name]] for name in names]
            self._transport.will_read([(ref.offset, ref.length) for ref in refs])
            # every chunk the cluster's READ brought is counted before any is checked
            raws = [_tracked_read(self._transport, self.account, ref.offset, ref.length) for ref in refs]
            decoded: dict[str, np.ndarray | Jagged] = {}
            for name, ref, raw in zip(names, refs, raws):
                if len(raw) != ref.length:
                    raise TransportError(
                        f"short read: wanted {ref.length} bytes at {ref.offset}, got {len(raw)}"
                    )
                self.account.chunk_bytes += len(raw)
                if zlib.crc32(raw) != ref.crc32:
                    raise FormatError(f"{self.uri}: chunk CRC mismatch in column {name}")
                decoded[name] = decode_chunk(self.schema[name], raw, cl.entry_count)[lo:hi]
            yield ColumnBatch(cl.entry_start + lo, hi - lo, decoded)

    def close(self) -> None:
        self._transport.close()

    def __enter__(self) -> "DatasetHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _tracked_read(transport, account: ReadAccount, offset: int, length: int) -> bytes:
    data = transport.read(offset, length)
    account.bytes_read += len(data)
    account.read_calls += 1
    return data


def open_transport(uri: str, head_len: int = 0, tail_len: int = 0):
    """The byte source a URI names: a file on a data server, whose OPEN also
    brings its first ``head_len`` and last ``tail_len`` bytes, or a local file."""
    if uri.startswith(REMOTE_SCHEME):
        return RemoteTransport(*parse_remote_uri(uri), head_len, tail_len)
    return LocalTransport(uri)


def open_dataset(uri: str) -> DatasetHandle:
    """Open a columnar file, reading only its header and footer."""
    transport = open_transport(uri, HEADER_SIZE, TAIL_SIZE)
    account = ReadAccount()
    try:
        size = transport.size()
        # the header and tail came with a remote OPEN: both are counted before either is checked
        head = _tracked_read(transport, account, 0, HEADER_SIZE)
        tail = _tracked_read(transport, account, max(size - TAIL_SIZE, 0), TAIL_SIZE)
        if size < HEADER_SIZE + TAIL_SIZE:
            raise FormatError("file too small to be a columnar file")
        wire.unpack_whole(HEADER, head)  # checks magic and version
        footer_offset, footer_crc, _ = wire.unpack_whole(TAIL, tail)
        if not HEADER_SIZE <= footer_offset <= size - TAIL_SIZE:
            raise FormatError("truncated footer")
        body = _tracked_read(transport, account, footer_offset, size - TAIL_SIZE - footer_offset)
        if zlib.crc32(body) != footer_crc:
            raise FormatError("footer CRC mismatch")
        schema, total_entries, clusters = decode_footer(body)
        pos = 0
        for cl in clusters:
            if cl.entry_start != pos or cl.entry_count < 1:
                raise FormatError("clusters not contiguous")
            if not all(HEADER_SIZE <= ch.offset and ch.offset + ch.length <= footer_offset for ch in cl.chunks):
                raise FormatError("chunk outside the data region")
            pos += cl.entry_count
        if pos != total_entries:
            raise FormatError("cluster entry counts do not sum to total")
    except (FormatError, wire.ProtoError) as e:  # ProtoError: a malformed header or tail
        transport.close()
        raise FormatError(f"{uri}: {e}") from None
    except Exception:
        transport.close()
        raise
    return DatasetHandle(uri, transport, schema, total_entries, clusters, account)
