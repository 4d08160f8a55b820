"""Scheduler/worker/client messages and the result payloads they carry.

Every message travels as one ``wire`` frame (u32 length, u16 kind, u16
version, payload); this module owns the payload layouts on top of it,
including those of PartialResult and JobRecord, which also make up the
legacy jobs' result files. Version mismatches, unknown kinds, malformed
payloads and payloads with bytes past their last field are ProtoErrors;
the connection must be dropped. Messages are self-delimiting, so a stream cut
at arbitrary boundaries reads back as the same message sequence.

Kinds 1..7 form the worker channel (REGISTER, GRAPH, TASK, RESULT, FAIL,
HEARTBEAT, SHUTDOWN). Kinds 8..10 form the client channel (SUBMIT,
RUN_DONE, RUN_FAIL): a client submits a planned run and eventually receives
the merged result with its per-task records.

A worker opens its channel with REGISTER, which carries only its name
(since version 6: a worker process is one slot, so there is no slot
count), and the scheduler echoes that frame back once it has recorded
the worker (since version 5): a worker that has read the echo takes part
in every run submitted after it.

The worker channel is scoped to runs: GRAPH carries the run number, the
document and the schema the scheduler typed it against ((name, u8
ValueType) pairs in file order); TASK names its run; RESULT and FAIL echo it.

Since version 7 a PartialResult travels as its universe labels once, then
one table per result stage whose row u is universe u (see ``hist``):
name, kind byte, axis, and the entries, sumw and sumw2 arrays whole.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass

import numpy as np

from .engine import EntryRange, PartialResult
from .exprlang import ValueType
from .hist import ResultKind, ResultTable
from .metrics import JobRecord, MetricsError
# PROTO_VERSION and ProtoError are re-exported for the cluster side
from .wire import PROTO_VERSION, ProtoError, Reader, pack_frame, pack_str, parse_header, recv_frame

MSG_REGISTER = 1
MSG_GRAPH = 2
MSG_TASK = 3
MSG_RESULT = 4
MSG_FAIL = 5
MSG_HEARTBEAT = 6
MSG_SHUTDOWN = 7
MSG_SUBMIT = 8
MSG_RUN_DONE = 9
MSG_RUN_FAIL = 10


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
    """A run request.

    Two flavors: tasks empty means the scheduler partitions the document's
    dataset itself (factor x the live workers); a non-empty task list is
    dispatched exactly as given (the baseline's one-job-per-file runs).
    """

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


Message = (
    Register | Graph | Task | Result | Fail | Heartbeat | Shutdown | Submit | RunDone | RunFail
)

_KIND_OF = {
    Register: MSG_REGISTER,
    Graph: MSG_GRAPH,
    Task: MSG_TASK,
    Result: MSG_RESULT,
    Fail: MSG_FAIL,
    Heartbeat: MSG_HEARTBEAT,
    Shutdown: MSG_SHUTDOWN,
    Submit: MSG_SUBMIT,
    RunDone: MSG_RUN_DONE,
    RunFail: MSG_RUN_FAIL,
}


# --- result payloads ----------------------------------------------------------

def pack_partial(p: PartialResult) -> bytes:
    out = [
        struct.pack("<QdQQQI", p.events, p.t_loop, p.bytes_read, p.chunk_bytes, p.mem_peak, len(p.snapshots)),
        *map(pack_str, p.snapshots),
        struct.pack("<I", len(p.labels)),
        *map(pack_str, p.labels),
        struct.pack("<I", len(p.tables)),
    ]
    for name, t in p.tables.items():
        out += (pack_str(name), struct.pack("<BIdd", t.kind.value, t.nbins, t.xmin, t.xmax))
        out += (t.entries.tobytes(), t.sumw.tobytes(), t.sumw2.tobytes())
    return b"".join(out)


def unpack_partial(r: Reader) -> PartialResult:
    events, t_loop, bytes_read, chunk_bytes, mem_peak, n_snaps = r.unpack("<QdQQQI")
    snapshots = [r.string() for _ in range(n_snaps)]
    labels = [r.string() for _ in range(r.u32())]
    tables = {}
    for _ in range(r.u32()):
        name = r.string()
        tag, nbins, xmin, xmax = r.unpack("<BIdd")
        try:
            kind = ResultKind(tag)
        except ValueError:
            raise ProtoError(f"unknown result kind byte {tag}") from None
        width = nbins + 2 if kind is ResultKind.HISTO else 1
        raw = r.take(len(labels) * (8 + 16 * width))  # the declared size, checked before allocating
        t = tables[name] = ResultTable(name, kind, len(labels), nbins, xmin, xmax)
        at = 0
        for a in (t.entries, t.sumw, t.sumw2):
            a[...] = np.frombuffer(raw, a.dtype, a.size, at).reshape(a.shape)
            at += a.nbytes
    return PartialResult(events, t_loop, bytes_read, chunk_bytes, mem_peak, snapshots, labels, tables)


def _pack_record(rec: JobRecord) -> bytes:
    return b"".join(
        (
            struct.pack("<I", rec.task_id),
            pack_str(rec.worker),
            struct.pack("<QddQQI", rec.events, rec.t_total, rec.t_loop, rec.bytes_read, rec.chunk_bytes, rec.attempt),
            pack_str(rec.phase),
            struct.pack("<IQ", rec.passes, rec.mem_peak),
        )
    )


def _unpack_record(r: Reader) -> JobRecord:
    task_id = r.u32()
    worker = r.string()
    events, t_total, t_loop, bytes_read, chunk_bytes, attempt = r.unpack("<QddQQI")
    phase = r.string()
    passes, mem_peak = r.unpack("<IQ")
    return JobRecord(task_id, worker, events, t_total, t_loop, bytes_read, chunk_bytes, attempt, phase, passes, mem_peak)


# --- messages ---------------------------------------------------------------


def _pack_task(t: Task) -> bytes:
    return b"".join(
        (
            struct.pack("<II", t.task_id, t.run),
            pack_str(t.entry_range.file),
            struct.pack("<QQB", t.entry_range.begin, t.entry_range.end, t.multi_pass),
            pack_str(t.payload_uri),
            struct.pack("<Q", t.payload_bytes),
            pack_str(t.result_file),
        )
    )


def _unpack_task(r: Reader) -> Task:
    task_id, run = r.unpack("<II")
    file = r.string()
    begin, end, multi_pass = r.unpack("<QQB")
    if multi_pass > 1:
        raise ProtoError(f"bad multi_pass byte {multi_pass}")
    payload_uri = r.string()
    (payload_bytes,) = r.unpack("<Q")
    result_file = r.string()
    return Task(
        task_id, EntryRange(file, begin, end), bool(multi_pass), payload_uri, payload_bytes, result_file, run
    )


def _encode_payload(msg: Message) -> bytes:
    if isinstance(msg, Register):
        return pack_str(msg.name)
    if isinstance(msg, Graph):
        head = struct.pack("<I", msg.run) + pack_str(msg.document) + struct.pack("<I", len(msg.schema))
        return head + b"".join(pack_str(c) + struct.pack("<B", t) for c, t in msg.schema.items())
    if isinstance(msg, Task):
        return _pack_task(msg)
    if isinstance(msg, Result):
        return struct.pack("<IId", msg.task_id, msg.run, msg.t_total) + pack_partial(msg.partial)
    if isinstance(msg, Fail):
        return struct.pack("<II", msg.task_id, msg.run) + pack_str(msg.error)
    if isinstance(msg, Heartbeat):
        return pack_str(msg.name)
    if isinstance(msg, Shutdown):
        return b""
    if isinstance(msg, Submit):
        head = pack_str(msg.run_id) + pack_str(msg.document)
        head += struct.pack("<III", msg.max_retries, msg.factor, len(msg.tasks))
        return head + b"".join(map(_pack_task, msg.tasks))
    if isinstance(msg, RunDone):
        head = pack_str(msg.run_id) + struct.pack("<dQ", msg.wall_time, msg.planning_bytes)
        head += pack_partial(msg.partial) + struct.pack("<I", len(msg.records))
        return head + b"".join(map(_pack_record, msg.records))
    if isinstance(msg, RunFail):
        return pack_str(msg.run_id) + pack_str(msg.error)
    raise ProtoError(f"cannot encode {type(msg).__name__}")


def encode(msg: Message) -> bytes:
    """Message to one self-delimiting frame."""
    try:
        payload = _encode_payload(msg)
    except struct.error as e:
        raise ProtoError(f"cannot encode {type(msg).__name__}: {e}") from None
    return pack_frame(_KIND_OF[type(msg)], payload)


def _decode_payload(kind: int, payload: bytes) -> Message:
    r = Reader(payload)
    try:
        if kind == MSG_REGISTER:
            msg = Register(r.string())
        elif kind == MSG_GRAPH:
            run, document = r.u32(), r.string()
            schema = {r.string(): ValueType(r.unpack("<B")[0]) for _ in range(r.u32())}  # ValueError: unknown code
            if not all(t.storable for t in schema.values()):
                raise ProtoError(f"GRAPH schema holds a non-storable type: {schema}")
            msg = Graph(run, document, schema)
        elif kind == MSG_TASK:
            msg = _unpack_task(r)
        elif kind == MSG_RESULT:
            task_id, run, t_total = r.unpack("<IId")
            msg = Result(task_id, t_total, unpack_partial(r), run)
        elif kind == MSG_FAIL:
            task_id, run = r.unpack("<II")
            msg = Fail(task_id, r.string(), run)
        elif kind == MSG_HEARTBEAT:
            msg = Heartbeat(r.string())
        elif kind == MSG_SHUTDOWN:
            msg = Shutdown()
        elif kind == MSG_SUBMIT:
            run_id, document = r.string(), r.string()
            max_retries, factor, n_tasks = r.unpack("<III")
            tasks = tuple(_unpack_task(r) for _ in range(n_tasks))
            msg = Submit(run_id, document, max_retries, factor, tasks)
        elif kind == MSG_RUN_DONE:
            run_id = r.string()
            wall_time, planning_bytes = r.unpack("<dQ")
            partial = unpack_partial(r)
            records = tuple(_unpack_record(r) for _ in range(r.u32()))
            msg = RunDone(run_id, wall_time, partial, records, planning_bytes)
        elif kind == MSG_RUN_FAIL:
            msg = RunFail(r.string(), r.string())
        else:
            raise ProtoError(f"unknown message kind {kind}")
    except (ValueError, MetricsError) as e:  # field values a constructor rejects
        raise ProtoError(f"malformed payload for kind {kind}: {e}") from None
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
