"""On-disk layout of columnar event files.

Layout (all integers little-endian):

    header   : magic ``CSTR`` + u8 version=1 + 3 pad bytes
    chunks   : one chunk per (cluster, column), written cluster-major
    footer   : body described below, followed by a 16-byte tail at EOF-16:
               u64 footer_offset + u32 crc32(footer body) + magic ``TOOF``

Footer body: u32 n_columns, per column (u16 name_len, UTF-8 name, u8 dtype),
u64 total_entries, u32 n_clusters, per cluster (u64 entry_start,
u32 entry_count, then per column a ChunkRef: u64 offset + u64 length +
u32 crc32), so a name is at most 65535 bytes. ``HEADER``, ``TAIL`` and the
footer's codecs below declare these once, for the writer and the reader.

The u8 dtype (``DTYPE``, the GRAPH schema's codec too) is the column's
``exprlang.ValueType`` value: 1=F64, 2=I64, 3=BOOL, 4=VEC_F64, 5=VEC_I64.
A schema is a ``dict[str, ValueType]`` in file order.

Chunk encodings: F64/I64 packed 8-byte LE, BOOL one byte per entry,
VEC_* as u32 lengths[entry_count] followed by the packed values.
No compression: chunk byte counts are data volume.
"""

from __future__ import annotations

import functools
import itertools
import os
import re
import struct
import zlib
from typing import NamedTuple

import numpy as np

from .. import wire
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
    if len(name.encode()) > 0xFFFF:
        raise FormatError(f"column name of {len(name.encode())} bytes exceeds the footer's u16 length")
    if not dtype.storable:
        raise FormatError(f"column {name!r} has non-storable type {dtype.name}")


class ChunkRef(NamedTuple):
    """Location of one column's data within one cluster."""

    offset: int
    length: int
    crc32: int


class ClusterInfo(NamedTuple):
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


HEADER = wire.fields(  # magic, version, 3 pad bytes
    wire.enum(wire.scalar("4s"), {MAGIC: MAGIC}, "bad magic"),
    wire.enum(wire.U8, {VERSION: VERSION}, "unsupported version"),
    wire.scalar("3s"),
)
TAIL = wire.fields(  # footer offset, CRC32 of the footer body, magic
    wire.U64, wire.U32, wire.enum(wire.scalar("4s"), {FOOTER_MAGIC: FOOTER_MAGIC}, "bad footer magic")
)
DTYPE = wire.enum(wire.U8, {t.value: t for t in ValueType if t.storable}, "unknown dtype byte")
_COLUMNS = wire.mapping(wire.text(wire.U16), DTYPE)


@functools.lru_cache(maxsize=16)
def _clusters(n_columns: int) -> wire.Codec:
    """The footer's clusters; each holds one ChunkRef per column, and no count of them.

    A cluster row is all scalars, so it packs and unpacks through one
    ``struct.Struct``, built once per column count.
    """
    row = struct.Struct("<QI" + "QQI" * n_columns)

    def pack(cl: ClusterInfo) -> bytes:
        return row.pack(cl.entry_start, cl.entry_count, *itertools.chain(*cl.chunks))

    def unpack(r: wire.Reader) -> ClusterInfo:
        v = r.unpack(row)
        return ClusterInfo(v[0], v[1], tuple(itertools.starmap(ChunkRef, zip(v[2::3], v[3::3], v[4::3]))))
    return wire.counted(wire.Codec(pack, unpack))


def encode_footer(schema: dict[str, ValueType], total_entries: int, clusters: tuple[ClusterInfo, ...]) -> bytes:
    return _COLUMNS.pack(schema) + wire.U64.pack(total_entries) + _clusters(len(schema)).pack(clusters)


def decode_footer(raw: bytes) -> tuple[dict[str, ValueType], int, tuple[ClusterInfo, ...]]:
    r = wire.Reader(raw)
    try:
        schema = _COLUMNS.unpack(r)
        total_entries, clusters = wire.U64.unpack(r), _clusters(len(schema)).unpack(r)
        r.finish()
    except wire.ProtoError as e:
        raise FormatError(f"bad footer: {e}") from None
    for name, dtype in schema.items():
        check_column(name, dtype)
    return schema, total_entries, clusters


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
    f = open(path, "wb")
    try:
        with f:
            f.write(HEADER.pack((MAGIC, VERSION, bytes(3))))
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
            f.write(TAIL.pack((footer_offset, zlib.crc32(body), FOOTER_MAGIC)))
    except BaseException:
        os.remove(path)  # a file cut off part-way is no columnar file
        raise
