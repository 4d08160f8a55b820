"""Scheduler/worker/client messages and the result payloads they carry.

Every message travels as one self-delimiting ``wire`` frame. ``LAYOUTS`` is
the wire spec of the payloads: each kind's class and fields in wire order,
with the codec that both ``encode`` and ``decode`` use. The codecs are
``wire``'s; the GRAPH schema's dtype byte is ``colstore.format.DTYPE``, the
one the file footer uses. PartialResult and JobRecord, which also make up
the legacy jobs' result files, are laid out the same way; a PartialResult's
tables, one per result stage whose row u is universe u (see ``hist``),
follow its other fields, each with its entries, sumw and sumw2 arrays whole.

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
from dataclasses import dataclass

import numpy as np

from .colstore.format import DTYPE
from .engine import EntryRange, PartialResult
from .exprlang import ValueType
from .hist import ResultKind, ResultTable, table_bytes
from .metrics import JobRecord
# PROTO_VERSION and ProtoError are re-exported for the cluster side
from .wire import (
    F64, FLAG, PROTO_VERSION, STR, U8, U32, U64, Codec, Layout, ProtoError, Reader, by_name, counted, enum, fields,
    mapping, pack_frame, parse_header, record, recv_frame, unpack_whole,
)


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


HEARTBEAT_INTERVAL = 2.0  # seconds between a worker's HEARTBEATs


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


# --- payload layouts, declared with wire's codecs -------------------------------

RESULT_KIND = enum(U8, {k.value: k for k in ResultKind}, "unknown result kind byte")
SCHEMA = mapping(STR, DTYPE)  # (column name, dtype) pairs in file order

_PARTIAL = record(PartialResult, (
    ("events", U64), ("t_loop", F64), ("bytes_read", U64), ("chunk_bytes", U64), ("mem_peak", U64),
    ("snapshots", counted(STR, list)), ("labels", counted(STR, lambda labels: list(by_name([(u, u) for u in labels])))),
))
_TABLE = fields(STR, RESULT_KIND, U32, F64, F64)  # name, kind, nbins, xmin, xmax


def pack_partial(p: PartialResult) -> bytes:
    out = [_PARTIAL.pack(p), U32.pack(len(p.tables))]
    for t in p.tables.values():
        out += (_TABLE.pack((t.name, *t.axis)), t.entries.tobytes(), t.sumw.tobytes(), t.sumw2.tobytes())
    return b"".join(out)


def unpack_partial(r: Reader) -> PartialResult:
    p = _PARTIAL.unpack(r)
    rows, tables = len(p.labels), []
    try:
        for _ in range(U32.unpack(r)):
            name, kind, nbins, xmin, xmax = _TABLE.unpack(r)
            raw = r.take(table_bytes(kind, rows, nbins))  # the declared size, checked before allocating
            t = ResultTable(name, kind, rows, nbins, xmin, xmax)  # ValueError: an axis it rejects
            at = 0
            for a in (t.entries, t.sumw, t.sumw2):
                a[...] = np.frombuffer(raw, a.dtype, a.size, at).reshape(a.shape)
                at += a.nbytes
            tables.append((t.name, t))
        p.tables = by_name(tables)
    except (ProtoError, ValueError) as e:
        raise ProtoError(f"bad PartialResult.tables: {e}") from None
    return p


PARTIAL = Codec(pack_partial, unpack_partial)
RESULT_FILE = fields(STR, PARTIAL)  # a legacy job's output file: its graph id, then its partial


_TASK: Layout = (
    ("task_id", U32), ("run", U32), ("entry_range", record(EntryRange, (("file", STR), ("begin", U64), ("end", U64)))),
    ("multi_pass", FLAG), ("payload_uri", STR), ("payload_bytes", U64), ("result_file", STR),
)
_JOB_RECORDS = counted(record(JobRecord, (
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
        ("tasks", counted(record(Task, _TASK))),
    )),
    9: (RunDone, (
        ("run_id", STR), ("wall_time", F64), ("planning_bytes", U64), ("partial", PARTIAL), ("records", _JOB_RECORDS),
    )),
    10: (RunFail, (("run_id", STR), ("error", STR))),
}
_CODECS = {kind: record(cls, layout) for kind, (cls, layout) in LAYOUTS.items()}
_KIND_OF = {cls: kind for kind, (cls, _) in LAYOUTS.items()}


def encode(msg: Message) -> bytes:
    """Message to one self-delimiting frame."""
    try:
        kind = _KIND_OF[type(msg)]
        payload = _CODECS[kind].pack(msg)
    except (KeyError, struct.error, UnicodeEncodeError) as e:  # KeyError: not a message, or a value no byte
        # stands for; UnicodeEncodeError: a string strict UTF-8 cannot hold, such as a lone surrogate
        raise ProtoError(f"cannot encode {type(msg).__name__}: {e}") from None
    return pack_frame(kind, payload)


def _decode_payload(kind: int, payload: bytes) -> Message:
    if kind not in _CODECS:
        raise ProtoError(f"unknown message kind {kind}")
    return unpack_whole(_CODECS[kind], payload)


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
