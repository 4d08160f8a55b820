"""On-disk layout of columnar event files.

Layout (all integers little-endian):

    header   : magic ``CSTR`` + u8 version=1 + 3 pad bytes
    chunks   : one chunk per (cluster, column), written cluster-major
    footer   : body described below, followed by a 16-byte tail at EOF-16:
               u64 footer_offset + u32 crc32(footer body) + magic ``TOOF``

Footer body: u32 n_columns, per column (u16 name_len, UTF-8 name, u8 dtype),
u64 total_entries, u32 n_clusters, per cluster (u64 entry_start,
u32 entry_count, then per column u64 offset + u64 length + u32 crc32).

The u8 dtype is the column's ``exprlang.ValueType`` value: 1=F64, 2=I64,
3=BOOL, 4=VEC_F64, 5=VEC_I64. A schema is a ``dict[str, ValueType]`` in
file order.

Chunk encodings: F64/I64 packed 8-byte LE, BOOL one byte per entry,
VEC_* as u32 lengths[entry_count] followed by the packed values.
No compression: chunk byte counts are data volume.
"""

from __future__ import annotations

import re
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from ..exprlang import Jagged, ValueType

MAGIC = b"CSTR"
FOOTER_MAGIC = b"TOOF"
VERSION = 1
HEADER_SIZE = 8
TAIL_SIZE = 16
DEFAULT_CLUSTER_SIZE = 10_000

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class FormatError(Exception):
    """Malformed or corrupt columnar file."""


_SCALAR_NP = {ValueType.F64: "<f8", ValueType.I64: "<i8"}
_VEC_NP = {ValueType.VEC_F64: "<f8", ValueType.VEC_I64: "<i8"}


def check_column(name: str, dtype: ValueType) -> None:
    """A stored column needs an identifier name and a storable type."""
    if not _NAME_RE.match(name):
        raise FormatError(f"invalid column name {name!r}")
    if not dtype.storable:
        raise FormatError(f"column {name!r} has non-storable type {dtype.name}")


@dataclass(frozen=True)
class ChunkRef:
    """Location of one column's data within one cluster."""

    offset: int
    length: int
    crc32: int


@dataclass(frozen=True)
class ClusterInfo:
    entry_start: int
    entry_count: int
    chunks: tuple[ChunkRef, ...]  # one per column, schema order


def encode_chunk(dtype: ValueType, values) -> bytes:
    """Encode one cluster's worth of values for a single column."""
    if dtype in _SCALAR_NP:
        arr = np.asarray(values, dtype=_SCALAR_NP[dtype])
        if arr.ndim != 1:
            raise FormatError(f"scalar column data must be one-dimensional, got shape {arr.shape}")
        return arr.tobytes()
    if dtype is ValueType.BOOL:
        arr = np.asarray(values, dtype=bool)
        if arr.ndim != 1:
            raise FormatError(f"bool column data must be one-dimensional, got shape {arr.shape}")
        return arr.astype(np.uint8).tobytes()
    # vector column: u32 lengths then packed values
    if isinstance(values, Jagged):
        return values.lengths.astype("<u4").tobytes() + values.values.astype(_VEC_NP[dtype]).tobytes()
    lengths = np.fromiter((len(v) for v in values), dtype="<u4", count=len(values))
    flat: list = []
    for v in values:
        flat.extend(v)
    packed = np.asarray(flat, dtype=_VEC_NP[dtype])
    return lengths.tobytes() + packed.tobytes()


def decode_chunk(dtype: ValueType, raw, entry_count: int):
    """Decode a chunk back into read-only arrays.

    Scalar/bool columns return one ndarray of length entry_count; vector
    columns return a Jagged. Scalar columns and a Jagged's values are
    views of ``raw`` (any bytes-like object), not copies.
    """
    raw = memoryview(raw).cast("B")
    if dtype in _SCALAR_NP:
        if len(raw) != 8 * entry_count:
            raise FormatError("chunk length does not match entry count")
        return _read_only(np.frombuffer(raw, dtype=_SCALAR_NP[dtype]))
    if dtype is ValueType.BOOL:
        if len(raw) != entry_count:
            raise FormatError("chunk length does not match entry count")
        return _read_only(np.frombuffer(raw, dtype=np.uint8).astype(bool))
    if len(raw) < 4 * entry_count:
        raise FormatError("vector chunk shorter than its lengths array")
    lengths = np.frombuffer(raw[: 4 * entry_count], dtype="<u4")
    if len(raw) != 4 * entry_count + 8 * int(lengths.sum()):
        raise FormatError("vector chunk lengths do not match value count")
    values = np.frombuffer(raw[4 * entry_count :], dtype=_VEC_NP[dtype])
    return Jagged(_read_only(lengths.astype(np.int64)), _read_only(values))


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, no longer writable: decoded values are shared, so nothing may write to them."""
    arr.flags.writeable = False
    return arr


def encode_footer(schema: dict[str, ValueType], total_entries: int, clusters: tuple[ClusterInfo, ...]) -> bytes:
    out = bytearray()
    out += struct.pack("<I", len(schema))
    for name, dtype in schema.items():
        raw = name.encode()
        out += struct.pack("<H", len(raw)) + raw + struct.pack("<B", dtype)
    out += struct.pack("<QI", total_entries, len(clusters))
    for cl in clusters:
        out += struct.pack("<QI", cl.entry_start, cl.entry_count)
        for ch in cl.chunks:
            out += struct.pack("<QQI", ch.offset, ch.length, ch.crc32)
    return bytes(out)


def decode_footer(raw: bytes) -> tuple[dict[str, ValueType], int, tuple[ClusterInfo, ...]]:
    view = memoryview(raw)
    pos = 0

    def take(fmt: str):
        nonlocal pos
        size = struct.calcsize(fmt)
        if pos + size > len(view):
            raise FormatError("truncated footer")
        vals = struct.unpack_from(fmt, view, pos)
        pos += size
        return vals

    (n_columns,) = take("<I")
    schema: dict[str, ValueType] = {}
    for _ in range(n_columns):
        (name_len,) = take("<H")
        if pos + name_len > len(view):
            raise FormatError("truncated footer")
        try:
            name = bytes(view[pos : pos + name_len]).decode()
        except UnicodeDecodeError:
            raise FormatError("column name is not UTF-8") from None
        pos += name_len
        (dtype_code,) = take("<B")
        try:
            dtype = ValueType(dtype_code)
        except ValueError:
            raise FormatError(f"unknown dtype code {dtype_code}") from None
        if name in schema:
            raise FormatError("duplicate column names in footer")
        check_column(name, dtype)
        schema[name] = dtype
    (total_entries, n_clusters) = take("<QI")
    clusters = []
    for _ in range(n_clusters):
        (entry_start, entry_count) = take("<QI")
        chunks = []
        for _ in range(n_columns):
            (offset, length, crc) = take("<QQI")
            chunks.append(ChunkRef(offset, length, crc))
        clusters.append(ClusterInfo(entry_start, entry_count, tuple(chunks)))
    if pos != len(view):
        raise FormatError("trailing bytes after footer body")
    return schema, total_entries, tuple(clusters)


def write_dataset(
    path: str, schema: dict[str, ValueType], columns: dict, cluster_size: int = DEFAULT_CLUSTER_SIZE
) -> None:
    """Write a columnar file.

    ``schema`` maps each column name to its type, in file order; ``columns``
    maps column name to its full value sequence (a Jagged, or a sequence
    of sequences, for vector columns). All columns must have equal length; the
    last cluster may be short.
    """
    if not schema:
        raise FormatError("schema must have at least one column")
    for name, dtype in schema.items():
        check_column(name, dtype)
    if set(columns) != set(schema):
        raise FormatError("columns do not match schema")
    if cluster_size < 1:
        raise FormatError("cluster_size must be >= 1")

    lengths = {name: len(columns[name]) for name in schema}
    total = next(iter(lengths.values()))
    if any(n != total for n in lengths.values()):
        raise FormatError(f"mismatched array lengths: {lengths}")

    clusters: list[ClusterInfo] = []
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<B", VERSION) + b"\x00\x00\x00")
        for start in range(0, total, cluster_size):
            count = min(cluster_size, total - start)
            chunks = []
            for name, dtype in schema.items():
                raw = encode_chunk(dtype, columns[name][start : start + count])
                chunks.append(ChunkRef(f.tell(), len(raw), zlib.crc32(raw)))
                f.write(raw)
            clusters.append(ClusterInfo(start, count, tuple(chunks)))
        footer_offset = f.tell()
        body = encode_footer(schema, total, tuple(clusters))
        f.write(body)
        f.write(struct.pack("<QI", footer_offset, zlib.crc32(body)) + FOOTER_MAGIC)
