"""Scheduler/worker/client messages and the result payloads they carry.

Every message travels as one ``wire`` frame (u32 length, u16 kind, u16
version, payload); this module owns the payload layouts on top of it,
including those of PartialResult, Histo1D, ScalarAccumulator and
JobRecord, which also make up the legacy jobs' result files. Version
mismatches, unknown kinds and malformed payloads are ProtoErrors; the
connection must be dropped. Messages are self-delimiting, so a stream cut
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
"""

from __future__ import annotations

import socket
import struct
from array import array
from dataclasses import dataclass

from .engine import EntryRange, PartialResult
from .exprlang import ValueType
from .hist import AccumKind, Histo1D, ScalarAccumulator
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

_HISTO_TAG = 1
_ACCUM_TAG = {AccumKind.COUNT: 2, AccumKind.SUM: 3}
_ACCUM_OF_TAG = {tag: kind for kind, tag in _ACCUM_TAG.items()}


def pack_histo(h: Histo1D) -> bytes:
    """Axis and contents; the name travels with the result map entry."""
    n = h.nbins + 2
    return struct.pack(f"<IddQ{n}d{n}d", h.nbins, h.xmin, h.xmax, h.entries, *h.sumw, *h.sumw2)


def unpack_histo(r: Reader, name: str) -> Histo1D:
    nbins, xmin, xmax, entries = r.unpack("<IddQ")
    sumw = r.unpack(f"<{nbins + 2}d")  # bounds nbins by the payload before allocating
    sumw2 = r.unpack(f"<{nbins + 2}d")
    h = Histo1D(name, nbins, xmin, xmax)
    h.entries = entries
    h.sumw = array("d", sumw)
    h.sumw2 = array("d", sumw2)
    return h


def pack_partial(p: PartialResult) -> bytes:
    out = [
        struct.pack("<QdQQQI", p.events, p.t_loop, p.bytes_read, p.chunk_bytes, p.mem_peak, len(p.snapshots)),
        *map(pack_str, p.snapshots),
        struct.pack("<I", len(p.universes)),
    ]
    for label, results in p.universes.items():
        out.append(pack_str(label) + struct.pack("<I", len(results)))
        for name, res in results.items():
            out.append(pack_str(name))
            if isinstance(res, Histo1D):
                out.append(struct.pack("<B", _HISTO_TAG) + pack_histo(res))
            else:
                out.append(struct.pack("<Bd", _ACCUM_TAG[res.kind], res.value))
    return b"".join(out)


def unpack_partial(r: Reader) -> PartialResult:
    events, t_loop, bytes_read, chunk_bytes, mem_peak, n_snaps = r.unpack("<QdQQQI")
    snapshots = [r.string() for _ in range(n_snaps)]
    universes = {}
    for _ in range(r.u32()):
        label = r.string()
        results = {}
        for _ in range(r.u32()):
            name = r.string()
            (tag,) = r.unpack("<B")
            if tag == _HISTO_TAG:
                results[name] = unpack_histo(r, name)
            elif tag in _ACCUM_OF_TAG:
                results[name] = ScalarAccumulator(_ACCUM_OF_TAG[tag], r.unpack("<d")[0])
            else:
                raise ProtoError(f"unknown result kind byte {tag}")
        universes[label] = results
    return PartialResult(events, t_loop, bytes_read, chunk_bytes, mem_peak, snapshots, universes)


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
            return Register(r.string())
        if kind == MSG_GRAPH:
            run, document = r.u32(), r.string()
            schema = {r.string(): ValueType(r.unpack("<B")[0]) for _ in range(r.u32())}  # ValueError: unknown code
            if not all(t.storable for t in schema.values()):
                raise ProtoError(f"GRAPH schema holds a non-storable type: {schema}")
            return Graph(run, document, schema)
        if kind == MSG_TASK:
            return _unpack_task(r)
        if kind == MSG_RESULT:
            task_id, run, t_total = r.unpack("<IId")
            return Result(task_id, t_total, unpack_partial(r), run)
        if kind == MSG_FAIL:
            task_id, run = r.unpack("<II")
            return Fail(task_id, r.string(), run)
        if kind == MSG_HEARTBEAT:
            return Heartbeat(r.string())
        if kind == MSG_SHUTDOWN:
            return Shutdown()
        if kind == MSG_SUBMIT:
            run_id, document = r.string(), r.string()
            max_retries, factor, n_tasks = r.unpack("<III")
            tasks = tuple(_unpack_task(r) for _ in range(n_tasks))
            return Submit(run_id, document, max_retries, factor, tasks)
        if kind == MSG_RUN_DONE:
            run_id = r.string()
            wall_time, planning_bytes = r.unpack("<dQ")
            partial = unpack_partial(r)
            records = tuple(_unpack_record(r) for _ in range(r.u32()))
            return RunDone(run_id, wall_time, partial, records, planning_bytes)
        if kind == MSG_RUN_FAIL:
            return RunFail(r.string(), r.string())
    except (ValueError, MetricsError) as e:  # field values a constructor rejects
        raise ProtoError(f"malformed payload for kind {kind}: {e}") from None
    raise ProtoError(f"unknown message kind {kind}")


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
