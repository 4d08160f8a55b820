"""Scheduler/worker/client messages and the result payloads they carry.

Every message travels as one self-delimiting ``wire`` frame. ``LAYOUTS`` is
the wire spec of the payloads: each kind's class and fields in wire order,
with the codec that both ``encode`` and ``decode`` use. PartialResult and
JobRecord, which also make up the legacy jobs' result files, are laid out the
same way; a PartialResult's tables, one per result stage whose row u is
universe u (see ``hist``), follow its other fields, each with its entries,
sumw and sumw2 arrays whole.

Kinds 1..7 form the worker channel: a worker sends REGISTER and takes part in
every run submitted after the scheduler echoes it; GRAPH, TASK, RESULT and
FAIL carry their run's number. Kinds 8..10 form the client channel. Version
mismatches, unknown kinds, malformed values, repeated column, universe or
table names, and bytes past the last field are ProtoErrors; the connection
must be dropped.
"""

from __future__ import annotations

import socket
import struct
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from .engine import EntryRange, PartialResult
from .exprlang import ValueType
from .hist import ResultKind, ResultTable
from .metrics import JobRecord, MetricsError
# PROTO_VERSION and ProtoError are re-exported for the cluster side
from .wire import PROTO_VERSION, ProtoError, Reader, pack_frame, pack_str, parse_header, recv_frame


@dataclass(frozen=True)
class Register:
    name: str


@dataclass(frozen=True)
class Graph:
    run: int
    document: str
    schema: dict[str, ValueType]  # file order


@dataclass(frozen=True)
class Task:
    task_id: int
    entry_range: EntryRange
    multi_pass: bool = False  # the baseline's per-file job (run_multi_pass)
    payload_uri: str = ""  # junk blob fetched before work, "" for none
    payload_bytes: int = 0
    result_file: str = ""  # also write the partial here; the RESULT is sent either way
    run: int = 0  # set by the scheduler; a client leaves it 0


@dataclass(frozen=True)
class Result:
    task_id: int
    t_total: float
    partial: PartialResult
    run: int = 0


@dataclass(frozen=True)
class Fail:
    task_id: int
    error: str
    run: int = 0


@dataclass(frozen=True)
class Heartbeat:
    name: str


@dataclass(frozen=True)
class Shutdown:
    pass


@dataclass(frozen=True)
class Submit:
    """A run request: with no tasks the scheduler partitions the document's dataset itself (factor x the
    live workers); a task list is dispatched exactly as given (the baseline's one-job-per-file runs)."""

    run_id: str
    document: str
    max_retries: int = 2
    factor: int = 3
    tasks: tuple[Task, ...] = ()


@dataclass(frozen=True)
class RunDone:
    run_id: str
    wall_time: float
    partial: PartialResult
    records: tuple[JobRecord, ...] = ()
    planning_bytes: int = 0  # metadata reads done while planning


@dataclass(frozen=True)
class RunFail:
    run_id: str
    error: str


Message = Register | Graph | Task | Result | Fail | Heartbeat | Shutdown | Submit | RunDone | RunFail


# --- codecs: one field type each, packed and unpacked ---------------------------

class Codec(NamedTuple):
    pack: Callable[[Any], bytes]
    unpack: Callable[[Reader], Any]  # raises ProtoError on a malformed value


Layout = tuple[tuple[str, Codec], ...]  # (field name, codec) pairs in wire order


def _scalar(fmt: str) -> Codec:
    return Codec(struct.Struct(fmt).pack, lambda r: r.unpack(fmt)[0])


U32, U64, F64 = _scalar("<I"), _scalar("<Q"), _scalar("<d")
STR = Codec(pack_str, Reader.string)


def _byte(values: dict[int, Any], what: str) -> Codec:
    """A u8 that stands for one of ``values``; any other byte is a ProtoError."""
    byte_of = {v: b for b, v in values.items()}

    def unpack(r: Reader) -> Any:
        (byte,) = r.unpack("<B")
        if byte not in values:
            raise ProtoError(f"{what} byte {byte}")
        return values[byte]
    return Codec(lambda v: struct.pack("<B", byte_of[v]), unpack)


FLAG = _byte({0: False, 1: True}, "flag")
DTYPE = _byte({t.value: t for t in ValueType if t.storable}, "unknown dtype")
RESULT_KIND = _byte({k.value: k for k in ResultKind}, "unknown result kind")


def _by_name(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """Columns, universes and tables are keyed by name: a repeat would silently replace the first."""
    named = dict(pairs)
    if len(named) < len(pairs):
        raise ProtoError(f"duplicate name {next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)!r}")
    return named


def _list(item: Codec, make: Callable[[Iterable], Any] = tuple) -> Codec:
    """A u32 count, then that many items, collected by ``make``."""
    return Codec(
        lambda xs: struct.pack("<I", len(xs)) + b"".join(map(item.pack, xs)),
        lambda r: make(item.unpack(r) for _ in range(r.u32())),
    )


SCHEMA = Codec(  # (column name, dtype) pairs in file order
    lambda schema: struct.pack("<I", len(schema)) + b"".join(STR.pack(c) + DTYPE.pack(t) for c, t in schema.items()),
    lambda r: _by_name([(r.string(), DTYPE.unpack(r)) for _ in range(r.u32())]),
)


def _pack(layout: Layout, value: Any) -> bytes:
    return b"".join([codec.pack(getattr(value, name)) for name, codec in layout])


def _read(cls: type, layout: Layout, r: Reader) -> dict[str, Any]:
    values = {}
    for name, codec in layout:
        try:
            values[name] = codec.unpack(r)
        except ProtoError as e:
            raise ProtoError(f"bad {cls.__name__}.{name}: {e}") from None
    return values


def _unpack(cls: type, layout: Layout, r: Reader) -> Any:
    values = _read(cls, layout, r)
    try:
        return cls(**values)
    except (ValueError, MetricsError) as e:  # field values the constructor rejects
        raise ProtoError(f"bad {cls.__name__}: {e}") from None


def _record(cls: type, layout: Layout) -> Codec:
    return Codec(lambda value: _pack(layout, value), lambda r: _unpack(cls, layout, r))


_PARTIAL: Layout = (
    ("events", U64), ("t_loop", F64), ("bytes_read", U64), ("chunk_bytes", U64), ("mem_peak", U64),
    ("snapshots", _list(STR, list)), ("labels", _list(STR, lambda labels: list(_by_name([(u, u) for u in labels])))),
)
_TABLE: Layout = (("name", STR), ("kind", RESULT_KIND), ("nbins", U32), ("xmin", F64), ("xmax", F64))


def pack_partial(p: PartialResult) -> bytes:
    out = [_pack(_PARTIAL, p), struct.pack("<I", len(p.tables))]
    for t in p.tables.values():
        out += (_pack(_TABLE, t), t.entries.tobytes(), t.sumw.tobytes(), t.sumw2.tobytes())
    return b"".join(out)


def unpack_partial(r: Reader) -> PartialResult:
    p = _unpack(PartialResult, _PARTIAL, r)
    rows, tables = len(p.labels), []
    try:
        for _ in range(r.u32()):
            head = _read(ResultTable, _TABLE, r)
            width = head["nbins"] + 2 if head["kind"] is ResultKind.HISTO else 1
            raw = r.take(rows * (8 + 16 * width))  # the declared size, checked before allocating
            t = ResultTable(rows=rows, **head)  # ValueError: an axis it rejects
            at = 0
            for a in (t.entries, t.sumw, t.sumw2):
                a[...] = np.frombuffer(raw, a.dtype, a.size, at).reshape(a.shape)
                at += a.nbytes
            tables.append((t.name, t))
        p.tables = _by_name(tables)
    except (ProtoError, ValueError) as e:
        raise ProtoError(f"bad PartialResult.tables: {e}") from None
    return p


PARTIAL = Codec(pack_partial, unpack_partial)


_TASK: Layout = (
    ("task_id", U32), ("run", U32), ("entry_range", _record(EntryRange, (("file", STR), ("begin", U64), ("end", U64)))),
    ("multi_pass", FLAG), ("payload_uri", STR), ("payload_bytes", U64), ("result_file", STR),
)
_JOB_RECORDS = _list(_record(JobRecord, (
    ("task_id", U32), ("worker", STR), ("events", U64), ("t_total", F64), ("t_loop", F64), ("bytes_read", U64),
    ("chunk_bytes", U64), ("attempt", U32), ("phase", STR), ("passes", U32), ("mem_peak", U64),
)))

LAYOUTS: dict[int, tuple[type, Layout]] = {
    1: (Register, (("name", STR),)),
    2: (Graph, (("run", U32), ("document", STR), ("schema", SCHEMA))),
    3: (Task, _TASK),
    4: (Result, (("task_id", U32), ("run", U32), ("t_total", F64), ("partial", PARTIAL))),
    5: (Fail, (("task_id", U32), ("run", U32), ("error", STR))),
    6: (Heartbeat, (("name", STR),)),
    7: (Shutdown, ()),
    8: (Submit, (
        ("run_id", STR), ("document", STR), ("max_retries", U32), ("factor", U32),
        ("tasks", _list(_record(Task, _TASK))),
    )),
    9: (RunDone, (
        ("run_id", STR), ("wall_time", F64), ("planning_bytes", U64), ("partial", PARTIAL), ("records", _JOB_RECORDS),
    )),
    10: (RunFail, (("run_id", STR), ("error", STR))),
}
_KIND_OF = {cls: (kind, layout) for kind, (cls, layout) in LAYOUTS.items()}


def encode(msg: Message) -> bytes:
    """Message to one self-delimiting frame."""
    try:
        kind, layout = _KIND_OF[type(msg)]
        payload = _pack(layout, msg)
    except (KeyError, struct.error) as e:  # KeyError: not a message, or a value no byte stands for
        raise ProtoError(f"cannot encode {type(msg).__name__}: {e}") from None
    return pack_frame(kind, payload)


def _decode_payload(kind: int, payload: bytes) -> Message:
    if kind not in LAYOUTS:
        raise ProtoError(f"unknown message kind {kind}")
    r = Reader(payload)
    msg = _unpack(*LAYOUTS[kind], r)
    r.finish()
    return msg


def decode(frame: bytes) -> Message:
    """One complete frame (length word included) to a message."""
    size, kind = parse_header(frame)
    if size != len(frame) - 8:
        raise ProtoError(f"frame length {size + 4} does not match body {len(frame) - 4}")
    return _decode_payload(kind, frame[8:])


def send_message(sock: socket.socket, msg: Message) -> None:
    sock.sendall(encode(msg))


def recv_message(sock: socket.socket) -> Message | None:
    """One message off a socket; None on clean EOF at a frame boundary."""
    frame = recv_frame(sock)
    return None if frame is None else _decode_payload(*frame)
