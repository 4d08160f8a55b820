"""Opening and reading columnar files over local or remote transports.

URIs: a plain filesystem path opens locally; ``colsrv://host:port/relpath``
opens a data-server connection that reads that one file. Each handle owns
one transport and one ReadAccount; opening reads only the header and footer.
Reads are chunk-granular: one transport read per needed chunk, no
coalescing, so the account's chunk_bytes is exactly the sum of the fetched
chunks' byte lengths.

A fetched chunk is copied once on its way to the decoded arrays: from the
kernel into one buffer (the data server's reply frame, received in place
by ``wire.recv_frame``, or the bytes a local read returns). Scalar
columns and a vector column's values are read-only numpy views of that
buffer; only a vector column's u32 lengths are copied again, widened to
int64, and a BOOL column is copied once more as it becomes numpy bools.
"""

from __future__ import annotations

import os
import socket
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .. import wire
from ..exprlang import Jagged, ValueType
from . import server as srv
from .format import (
    FOOTER_MAGIC,
    HEADER_SIZE,
    MAGIC,
    TAIL_SIZE,
    VERSION,
    ClusterInfo,
    FormatError,
    decode_chunk,
    decode_footer,
)

REMOTE_SCHEME = "colsrv://"


class TransportError(Exception):
    """Connection or protocol failure while talking to a data server."""


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


def _exchange(sock: socket.socket, opcode: int, payload: bytes) -> bytes:
    """One request and its reply's payload; every failure is a TransportError."""
    try:
        wire.send_frame(sock, opcode, payload)
        frame = wire.recv_frame(sock)
        if frame is None:
            raise TransportError("data server closed the connection")
        reply_op, reply = frame
        if reply_op == srv.OP_ERROR:
            r = wire.Reader(reply)
            (code,) = r.unpack("<H")
            raise TransportError(f"data server error {code}: {r.string()}")
    except (wire.ProtoError, OSError) as e:
        raise TransportError(f"data server connection failed: {e}") from None
    if reply_op != opcode:
        raise TransportError(f"unexpected reply opcode {reply_op} to request {opcode}")
    return reply


class RemoteTransport:
    """Client side of the data-server protocol: one connection reading one file."""

    def __init__(self, host: str, port: int, path: str):
        self._sock = _connect(f"{host}:{port}")
        try:
            (self._size,) = struct.unpack("<Q", self._request(srv.OP_OPEN, wire.pack_str(path)))
        except TransportError:
            self._sock.close()
            raise

    def _request(self, opcode: int, payload: bytes) -> bytes:
        return _exchange(self._sock, opcode, payload)

    def size(self) -> int:
        return self._size

    def read(self, offset: int, length: int) -> bytes:
        return self._request(srv.OP_READ, struct.pack("<QI", offset, length))

    def close(self) -> None:
        self._sock.close()  # the server closes the file when the connection ends


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
        return struct.unpack("<QQ", _exchange(sock, srv.OP_METRICS, b""))


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
            decoded: dict[str, np.ndarray | Jagged] = {}
            for name in names:
                ref = cl.chunks[self._col_index[name]]
                raw = _tracked_read(self._transport, self.account, ref.offset, ref.length)
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


def open_transport(uri: str):
    """The byte source a URI names: a file on a data server or a local file."""
    if uri.startswith(REMOTE_SCHEME):
        return RemoteTransport(*parse_remote_uri(uri))
    return LocalTransport(uri)


def open_dataset(uri: str) -> DatasetHandle:
    """Open a columnar file, reading only its header and footer."""
    transport = open_transport(uri)
    account = ReadAccount()
    try:
        size = transport.size()
        if size < HEADER_SIZE + TAIL_SIZE:
            raise FormatError(f"{uri}: file too small to be a columnar file")
        header = _tracked_read(transport, account, 0, HEADER_SIZE)
        if header[:4] != MAGIC:
            raise FormatError(f"{uri}: bad magic")
        if header[4] != VERSION:
            raise FormatError(f"{uri}: unsupported version {header[4]}")
        tail = _tracked_read(transport, account, size - TAIL_SIZE, TAIL_SIZE)
        if tail[12:] != FOOTER_MAGIC:
            raise FormatError(f"{uri}: bad footer magic")
        footer_offset, footer_crc = struct.unpack("<QI", tail[:12])
        if not HEADER_SIZE <= footer_offset <= size - TAIL_SIZE:
            raise FormatError(f"{uri}: truncated footer")
        body = _tracked_read(transport, account, footer_offset, size - TAIL_SIZE - footer_offset)
        if zlib.crc32(body) != footer_crc:
            raise FormatError(f"{uri}: footer CRC mismatch")
        schema, total_entries, clusters = decode_footer(body)
        pos = 0
        for cl in clusters:
            if cl.entry_start != pos or cl.entry_count < 1:
                raise FormatError(f"{uri}: clusters not contiguous")
            if not all(HEADER_SIZE <= ch.offset and ch.offset + ch.length <= footer_offset for ch in cl.chunks):
                raise FormatError(f"{uri}: chunk outside the data region")
            pos += cl.entry_count
        if pos != total_entries:
            raise FormatError(f"{uri}: cluster entry counts do not sum to total")
    except Exception:
        transport.close()
        raise
    return DatasetHandle(uri, transport, schema, total_entries, clusters, account)
