"""Push scheduler: dispatch, retry, heartbeat tracking, incremental merge.

One thread (the state loop) owns every piece of mutable run state. Each
connection gets a reader thread that does nothing but decode frames and
push events into the state loop's queue, so no lock discipline is needed
beyond the queue itself. The state loop is also the only writer on any
socket.

A run is finished when every task id has exactly one accepted RESULT.
Results are merged in task-id order (buffering whatever arrives early), so
the merged output is independent of scheduling and arrival order, not just
up to float rounding. Duplicate RESULTs (a worker declared lost that later
answers anyway) are discarded.

Workers are declared lost after 3 missed heartbeat intervals or on
disconnect; their inflight tasks are requeued, each requeue consuming one
attempt from the task's budget of max_retries + 1.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace

from ..colstore import open_dataset
from ..engine import MODE_MULTI_PASS, PartialResult
from ..graph import PipelineError, VaryStage, load_spec, spec_graph_id
from ..metrics import JobRecord
from ..proto import (
    Fail,
    Graph,
    Heartbeat,
    Message,
    ProtoError,
    Register,
    Result,
    RunDone,
    RunFail,
    Shutdown,
    Submit,
    Task,
    encode,
    recv_message,
)
from .planner import plan_partitions

HEARTBEAT_INTERVAL = 2.0
LOSS_FACTOR = 3.0  # silent for > interval * factor -> lost


@dataclass
class _Worker:
    conn_id: int
    sock: socket.socket
    name: str
    slots: int
    inflight: set[int] = field(default_factory=set)
    last_beat: float = field(default_factory=time.monotonic)
    graphs_sent: set[str] = field(default_factory=set)

    @property
    def free_slots(self) -> int:
        return self.slots - len(self.inflight)


@dataclass
class _Run:
    run_id: str
    client_conn: int
    document: str
    graph_id: str
    max_retries: int
    factor: int
    tasks: dict[int, Task] | None  # None until planned
    multi_passes: int  # pass count a MULTI_PASS task performs
    t0: float
    deadline: float
    planning_bytes: int = 0
    pending: deque = field(default_factory=deque)
    attempts: dict = field(default_factory=dict)  # task_id -> attempts started
    inflight: dict = field(default_factory=dict)  # task_id -> conn_id
    done: set = field(default_factory=set)
    records: list = field(default_factory=list)
    buffer: dict = field(default_factory=dict)  # task_id -> PartialResult
    merged: PartialResult | None = None
    merge_order: list = field(default_factory=list)  # ascending task ids
    next_merge: int = 0  # index into merge_order


class Scheduler:
    """Listens for workers and clients; owns at most one active run."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, startup_timeout: float = 10.0):
        self._listener = socket.create_server((host, port))
        self._host = host
        self._port = self._listener.getsockname()[1]
        self._startup_timeout = startup_timeout
        self._events: queue.Queue = queue.Queue()
        self._conns: dict[int, socket.socket] = {}
        self._workers: dict[int, _Worker] = {}
        self._run: _Run | None = None
        self._next_conn = 0
        self._threads: list[threading.Thread] = []

    @property
    def address(self) -> str:
        return f"{self._host}:{self._port}"

    def start(self) -> "Scheduler":
        accept = threading.Thread(target=self._accept_loop, name="sched-accept", daemon=True)
        state = threading.Thread(target=self._state_loop, name="sched-state", daemon=True)
        self._threads = [accept, state]
        accept.start()
        state.start()
        return self

    def stop(self) -> None:
        self._events.put(("stop", None, None))
        self._close_listener()
        for t in self._threads:
            t.join(timeout=5.0)

    def _close_listener(self) -> None:
        # shutdown() first: close() alone does not wake a blocked accept()
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass

    def wait(self, timeout: float | None = None) -> None:
        """Block until the state loop exits (a client sent SHUTDOWN)."""
        self._threads[1].join(timeout)

    def __enter__(self) -> "Scheduler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- connection plumbing --------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn_id = self._next_conn
            self._next_conn += 1
            self._conns[conn_id] = sock
            threading.Thread(
                target=self._reader, args=(conn_id, sock), name=f"sched-read-{conn_id}", daemon=True
            ).start()

    def _reader(self, conn_id: int, sock: socket.socket) -> None:
        try:
            while True:
                msg = recv_message(sock)
                if msg is None:
                    break
                self._events.put(("msg", conn_id, msg))
        except (ProtoError, OSError):
            pass
        self._events.put(("gone", conn_id, None))

    def _send(self, conn_id: int, msg: Message) -> None:
        sock = self._conns.get(conn_id)
        if sock is None:
            return
        try:
            frame = encode(msg)
        except ProtoError as e:
            # an unframeable message (e.g. a RunDone over MAX_FRAME) fails the
            # run; it must never end the state loop
            if isinstance(msg, RunFail):
                self._events.put(("gone", conn_id, None))
            else:
                self._fail_run(f"cannot send {type(msg).__name__}: {e}")
            return
        try:
            sock.sendall(frame)
        except OSError:
            self._events.put(("gone", conn_id, None))

    # -- state loop ------------------------------------------------------------

    def _state_loop(self) -> None:
        while True:
            try:
                kind, conn_id, msg = self._events.get(timeout=0.25)
            except queue.Empty:
                self._tick()
                continue
            if kind == "stop":
                self._broadcast_shutdown()
                self._close_listener()
                return
            if kind == "gone":
                self._on_gone(conn_id)
            else:
                self._on_message(conn_id, msg)
            self._tick()

    def _tick(self) -> None:
        now = time.monotonic()
        for worker in list(self._workers.values()):
            if now - worker.last_beat > HEARTBEAT_INTERVAL * LOSS_FACTOR:
                self._lose_worker(worker, "heartbeat timeout")
        run = self._run
        if run is not None:
            if run.tasks is None:
                if self._workers:
                    self._plan_run(run)
                elif now >= run.deadline:
                    self._fail_run("no workers registered within startup timeout")
            run = self._run  # planning may have failed the run
            if run is not None and run.tasks is not None and not run.tasks:
                self._finish_run(run)  # nothing to read: every file was empty
                return
            self._dispatch()

    def _on_message(self, conn_id: int, msg: Message) -> None:
        if isinstance(msg, Register):
            self._workers[conn_id] = _Worker(conn_id, self._conns[conn_id], msg.name, max(1, msg.slots))
        elif isinstance(msg, Heartbeat):
            worker = self._workers.get(conn_id)
            if worker is not None:
                worker.last_beat = time.monotonic()
        elif isinstance(msg, Submit):
            self._on_submit(conn_id, msg)
        elif isinstance(msg, Result):
            self._on_result(conn_id, msg)
        elif isinstance(msg, Fail):
            self._on_fail(conn_id, msg)
        elif isinstance(msg, Shutdown):
            self._events.put(("stop", None, None))

    def _on_gone(self, conn_id: int) -> None:
        sock = self._conns.pop(conn_id, None)
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        worker = self._workers.get(conn_id)
        if worker is not None:
            self._lose_worker(worker, "disconnected")
        run = self._run
        if run is not None and run.client_conn == conn_id:
            self._run = None  # client vanished; abandon the run

    # -- run lifecycle ---------------------------------------------------------

    def _on_submit(self, conn_id: int, msg: Submit) -> None:
        if self._run is not None:
            self._send(conn_id, RunFail(msg.run_id, "another run is active"))
            return
        try:
            spec = load_spec(msg.document)
        except PipelineError as e:
            self._send(conn_id, RunFail(msg.run_id, f"bad pipeline document: {e}"))
            return
        n_topology = sum(
            len(s.tags) for s in spec.stages if isinstance(s, VaryStage) and s.kind.value == "topology"
        )
        graph_id = spec_graph_id(spec)
        now = time.monotonic()
        run = _Run(
            run_id=msg.run_id,
            client_conn=conn_id,
            document=msg.document,
            graph_id=graph_id,
            max_retries=msg.max_retries,
            factor=max(1, msg.factor),
            tasks=None,
            multi_passes=1 + n_topology,
            t0=now,
            deadline=now + self._startup_timeout,
        )
        if msg.tasks:
            ids = [t.task_id for t in msg.tasks]
            if len(set(ids)) != len(ids) or any(i < 0 for i in ids):
                self._send(conn_id, RunFail(msg.run_id, "task ids must be unique and non-negative"))
                return
            run.tasks = {
                t.task_id: replace(t, graph_id=graph_id) for t in msg.tasks
            }
            run.pending = deque(sorted(run.tasks))
            run.merge_order = sorted(run.tasks)
        self._run = run

    def _plan_run(self, run: _Run) -> None:
        spec = load_spec(run.document)
        handles = []
        try:
            for uri in spec.dataset:
                handles.append(open_dataset(uri))
            nslots = max(1, sum(w.slots for w in self._workers.values()))
            planned = plan_partitions(handles, nslots, run.factor)
            run.planning_bytes = sum(h.account.bytes_read for h in handles)
        except Exception as e:
            self._fail_run(f"planning failed: {e}")
            return
        finally:
            for h in handles:
                h.close()
        run.tasks = {
            t.task_id: Task(t.task_id, run.graph_id, t.entry_range, t.mode) for t in planned
        }
        run.pending = deque(sorted(run.tasks))
        run.merge_order = sorted(run.tasks)

    def _dispatch(self) -> None:
        run = self._run
        if run is None or run.tasks is None:
            return
        while run.pending and self._run is run:  # a failed send may end the run
            worker = self._pick_worker()
            if worker is None:
                return
            task_id = run.pending.popleft()
            if run.graph_id not in worker.graphs_sent:
                self._send(worker.conn_id, Graph(run.graph_id, run.document))
                worker.graphs_sent.add(run.graph_id)
            run.attempts[task_id] = run.attempts.get(task_id, 0) + 1
            task = replace(run.tasks[task_id], attempt=run.attempts[task_id])
            run.inflight[task_id] = worker.conn_id
            worker.inflight.add(task_id)
            self._send(worker.conn_id, task)

    def _pick_worker(self) -> _Worker | None:
        best = None
        for worker in self._workers.values():
            if worker.free_slots > 0 and (best is None or worker.free_slots > best.free_slots):
                best = worker
        return best

    def _on_result(self, conn_id: int, msg: Result) -> None:
        run = self._run
        worker = self._workers.get(conn_id)
        if worker is not None:
            worker.inflight.discard(msg.task_id)
            worker.last_beat = time.monotonic()
        if run is None or run.tasks is None or msg.task_id not in run.tasks:
            return
        if msg.task_id in run.done:
            return  # duplicate after reassignment; first result wins
        run.done.add(msg.task_id)
        assigned = run.inflight.pop(msg.task_id, None)
        if assigned is not None and assigned != conn_id:
            other = self._workers.get(assigned)
            if other is not None:
                other.inflight.discard(msg.task_id)

        task = run.tasks[msg.task_id]
        passes = run.multi_passes if task.mode.kind == MODE_MULTI_PASS else 1
        partial = msg.partial
        run.records.append(
            JobRecord(
                task_id=msg.task_id,
                worker=worker.name if worker is not None else "?",
                events=partial.events,
                t_total=msg.t_total,
                t_loop=partial.t_loop,
                bytes_read=partial.bytes_read,
                chunk_bytes=partial.chunk_bytes,
                attempt=run.attempts.get(msg.task_id, 1),
                phase="task",
                passes=passes,
                mem_peak=partial.mem_peak,
            )
        )
        run.buffer[msg.task_id] = partial
        while run.next_merge < len(run.merge_order) and run.merge_order[run.next_merge] in run.buffer:
            part = run.buffer.pop(run.merge_order[run.next_merge])
            if run.merged is None:
                run.merged = part
            else:
                run.merged.merge_in(part)
            run.next_merge += 1

        if len(run.done) == len(run.tasks):
            self._finish_run(run)

    def _on_fail(self, conn_id: int, msg: Fail) -> None:
        run = self._run
        worker = self._workers.get(conn_id)
        if worker is not None:
            worker.inflight.discard(msg.task_id)
        if run is None or run.tasks is None or msg.task_id in run.done:
            return
        run.inflight.pop(msg.task_id, None)
        if run.attempts.get(msg.task_id, 0) >= run.max_retries + 1:
            self._fail_run(f"task {msg.task_id} exhausted retries: {msg.error}")
            return
        run.pending.appendleft(msg.task_id)

    def _lose_worker(self, worker: _Worker, why: str) -> None:
        self._workers.pop(worker.conn_id, None)
        try:
            worker.sock.close()
        except OSError:
            pass
        run = self._run
        if run is None:
            return
        for task_id in sorted(worker.inflight):
            if task_id in run.done:
                continue
            run.inflight.pop(task_id, None)
            if run.attempts.get(task_id, 0) >= run.max_retries + 1:
                self._fail_run(f"task {task_id} lost with retries exhausted (worker {worker.name} {why})")
                return
            run.pending.appendleft(task_id)

    def _finish_run(self, run: _Run) -> None:
        wall = time.monotonic() - run.t0
        records = sorted(run.records, key=lambda r: r.task_id)
        merged = run.merged if run.merged is not None else PartialResult()
        self._send(
            run.client_conn,
            RunDone(run.run_id, wall, merged, tuple(records), run.planning_bytes),
        )
        self._run = None

    def _fail_run(self, error: str) -> None:
        run = self._run
        self._run = None
        if run is not None:
            self._send(run.client_conn, RunFail(run.run_id, error))

    def _broadcast_shutdown(self) -> None:
        for worker in self._workers.values():
            self._send(worker.conn_id, Shutdown())
        for sock in self._conns.values():
            try:
                sock.close()
            except OSError:
                pass
        self._workers.clear()


def serve_scheduler(host: str = "127.0.0.1", port: int = 0, startup_timeout: float = 10.0) -> Scheduler:
    return Scheduler(host, port, startup_timeout).start()
