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
answers anyway) are discarded. A worker process is one slot: it is sent
a TASK only while it has none in flight, and it is freed only by its own
answer or by its loss. Idle workers take tasks in registration order. A
task's record names the worker that ran it and that attempt, even when
the answer comes from a worker already declared lost; such a worker's
FAIL is dropped, since its loss requeued the task. An answer for a task
its connection was not sent is dropped.

A run is planned in the state-loop step that handles its SUBMIT, with
the workers registered at that moment, or it is refused with a RUN_FAIL
and never exists: a SUBMIT that arrives with no worker registered is
refused at once. Planning types the run once, against the first file of
its dataset, and checks the column types of every file it opened. Each
worker gets one GRAPH (run number, document, that schema) before its
first TASK of the run. An answer from another run only frees its worker;
a RESULT whose shape does not fit the run's graph fails its task.

A worker is recorded, and its REGISTER echoed back, in one step of the
state loop, so every SUBMIT that reaches the scheduler after a worker has
read its echo plans with that worker.

Workers are declared lost after 3 missed heartbeat intervals or on
disconnect; a lost worker's task in flight is requeued, each requeue
consuming one attempt from the task's budget of max_retries + 1.
Heartbeat loss is judged only once the event queue is drained, so beats
that queued up while a long step (planning a large dataset) held the
state loop count.
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace

from ..colstore import open_dataset
from ..engine import EngineError, PartialResult, check_columns, pass_plan
from ..graph import ComputationGraph, PipelineError, PipelineSpec, build, load_spec
from ..metrics import JobRecord
from ..proto import (
    HEARTBEAT_INTERVAL,
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
from ..wire import accept_forever, address_of, listen, stop_accepting
from .planner import plan_partitions

LOSS_FACTOR = 3.0  # silent for > interval * factor -> lost


@dataclass
class _Worker:
    conn_id: int
    sock: socket.socket
    name: str
    task: tuple[int, int] | None = None  # (run, task_id) in flight
    last_beat: float = field(default_factory=time.monotonic)
    graph_run: int = 0  # the run whose GRAPH this worker was sent last


@dataclass
class _Run:
    run_id: str
    number: int  # names the run on the worker channel
    client_conn: int
    spec: PipelineSpec
    max_retries: int
    t0: float
    graph: ComputationGraph
    tasks: dict[int, Task]  # task_id -> TASK
    shape: tuple  # the PartialResult.shape() every RESULT must have
    planning_bytes: int
    pending: deque
    merge_order: list  # ascending task ids
    attempts: dict = field(default_factory=dict)  # task_id -> attempts started
    assigned: dict = field(default_factory=dict)  # (conn_id, task_id) -> (worker name, attempt) until answered
    done: set = field(default_factory=set)
    records: list = field(default_factory=list)
    buffer: dict = field(default_factory=dict)  # task_id -> PartialResult
    merged: PartialResult | None = None
    next_merge: int = 0  # index into merge_order


class Scheduler:
    """Listens for workers and clients; owns at most one active run.

    It accepts on ``listener``, a listening TCP socket it then owns, or
    else on a fresh one at 127.0.0.1 on a free port.
    """

    def __init__(self, listener: socket.socket | None = None):
        self._listener = listener or listen()
        self.address = address_of(self._listener)
        self._events: queue.Queue = queue.Queue()
        self._conns: dict[int, socket.socket] = {}
        self._workers: dict[int, _Worker] = {}
        self._run: _Run | None = None
        self._runs_started = 0
        self._conn_ids = itertools.count()
        self._threads: list[threading.Thread] = []

    def start(self) -> "Scheduler":
        accept = threading.Thread(
            target=accept_forever,
            args=(self._listener, self._reader, "sched-read"),
            name="sched-accept",
            daemon=True,
        )
        state = threading.Thread(target=self._state_loop, name="sched-state", daemon=True)
        self._threads = [accept, state]
        accept.start()
        state.start()
        return self

    def stop(self) -> None:
        self._events.put(("stop", None, None))
        stop_accepting(self._listener)
        for t in self._threads:
            t.join(timeout=5.0)

    def wait(self, timeout: float | None = None) -> None:
        """Block until the state loop exits (a client sent SHUTDOWN)."""
        self._threads[1].join(timeout)

    def __enter__(self) -> "Scheduler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- connection plumbing --------------------------------------------------

    def _reader(self, sock: socket.socket) -> None:
        conn_id = next(self._conn_ids)
        self._conns[conn_id] = sock  # before any event of this connection reaches the state loop
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
                stop_accepting(self._listener)
                return
            if kind == "gone":
                self._on_gone(conn_id)
            else:
                self._on_message(conn_id, msg)
            self._tick()

    def _tick(self) -> None:
        now = time.monotonic()
        if self._events.empty():  # a beat still queued is not a missed beat
            for worker in list(self._workers.values()):
                if now - worker.last_beat > HEARTBEAT_INTERVAL * LOSS_FACTOR:
                    self._lose_worker(worker, "heartbeat timeout")
        self._dispatch()

    def _on_message(self, conn_id: int, msg: Message) -> None:
        if isinstance(msg, Register):
            self._workers[conn_id] = _Worker(conn_id, self._conns[conn_id], msg.name)
            self._send(conn_id, msg)  # the echo: any SUBMIT the state loop meets later plans with it
        elif isinstance(msg, Heartbeat):
            worker = self._workers.get(conn_id)
            if worker is not None:
                worker.last_beat = time.monotonic()
        elif isinstance(msg, Submit):
            self._on_submit(conn_id, msg)
        elif isinstance(msg, (Result, Fail)):
            self._on_answer(conn_id, msg)
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
        """Check, type and cut the run into tasks with the registered workers,
        or refuse it. A run with explicit tasks opens only its first file, the
        one it is typed against, since its tasks are already cut and each
        worker checks its own task's file."""

        def refuse(error: str) -> None:
            self._send(conn_id, RunFail(msg.run_id, error))

        if self._run is not None:
            return refuse("another run is active")
        if msg.factor < 1:
            return refuse(f"partition factor must be >= 1, got {msg.factor}")
        try:
            spec = load_spec(msg.document)
        except PipelineError as e:
            return refuse(f"bad pipeline document: {e}")
        ids = [t.task_id for t in msg.tasks]
        if len(set(ids)) != len(ids):
            return refuse("task ids must be unique")
        if not self._workers:
            return refuse("no workers registered")
        t0 = time.monotonic()  # the run's wall time includes its planning
        handles = []
        try:
            for uri in spec.dataset[:1] if msg.tasks else spec.dataset:
                with open_dataset(uri) as h:  # planning reads only h.uri, h.schema and h.clusters
                    handles.append(h)
            graph = build(spec, handles[0].schema)
            for h in handles:
                check_columns(graph, h.uri, h.schema)
            tasks = msg.tasks or plan_partitions(handles, len(self._workers), msg.factor)
            shape = PartialResult.empty(graph).shape()
        except PipelineError as e:
            return refuse(f"bad pipeline document: {e}")
        except EngineError as e:
            return refuse(f"bad dataset: {e}")
        except Exception as e:
            return refuse(f"planning failed: {e}")
        self._runs_started += 1
        number = self._runs_started
        order = sorted(t.task_id for t in tasks)
        run = self._run = _Run(
            run_id=msg.run_id,
            number=number,
            client_conn=conn_id,
            spec=spec,
            max_retries=msg.max_retries,
            t0=t0,
            graph=graph,
            tasks={t.task_id: replace(t, run=number) for t in tasks},
            shape=shape,
            planning_bytes=sum(h.account.bytes_read for h in handles),
            pending=deque(order),
            merge_order=order,
        )
        if not tasks:
            self._finish_run(run)  # nothing to read: every file was empty

    def _dispatch(self) -> None:
        run = self._run
        if run is None:
            return
        while run.pending and self._run is run:  # a failed send may end the run
            worker = self._pick_worker()
            if worker is None:
                return
            task_id = run.pending.popleft()
            if worker.graph_run != run.number:
                self._send(worker.conn_id, Graph(run.number, run.spec.document, run.graph.base_schema))
                worker.graph_run = run.number
            run.attempts[task_id] = run.attempts.get(task_id, 0) + 1
            run.assigned[(worker.conn_id, task_id)] = (worker.name, run.attempts[task_id])
            worker.task = (run.number, task_id)
            self._send(worker.conn_id, run.tasks[task_id])
            if self._run is not run:  # the TASK could not be framed, so the worker never got it
                worker.task = None

    def _pick_worker(self) -> _Worker | None:
        return next((w for w in self._workers.values() if w.task is None), None)

    def _on_answer(self, conn_id: int, msg: Result | Fail) -> None:
        worker = self._workers.get(conn_id)
        if worker is not None:
            if worker.task == (msg.run, msg.task_id):
                worker.task = None
            worker.last_beat = time.monotonic()
        run = self._run
        if run is None or msg.run != run.number:
            return  # another run's answer
        assigned = run.assigned.pop((conn_id, msg.task_id), None)
        if assigned is None or msg.task_id in run.done:
            return  # not this connection's task, or a duplicate after reassignment: first result wins
        if isinstance(msg, Result) and msg.partial.shape() == run.shape:
            self._accept(run, assigned, msg)
        elif worker is not None:  # a lost worker's tasks were requeued when it was lost
            error = msg.error if isinstance(msg, Fail) else "result does not fit the run's graph"
            self._retry(run, msg.task_id, error)

    def _accept(self, run: _Run, assigned: tuple[str, int], msg: Result) -> None:
        """Record and merge a result; assigned names the worker that ran it and the attempt."""
        run.done.add(msg.task_id)
        name, attempt = assigned
        task = run.tasks[msg.task_id]
        passes = len(pass_plan(run.graph)) if task.multi_pass else 1
        partial = msg.partial
        run.records.append(
            JobRecord(
                task_id=msg.task_id,
                worker=name,
                events=partial.events,
                t_total=msg.t_total,
                t_loop=partial.t_loop,
                bytes_read=partial.bytes_read,
                chunk_bytes=partial.chunk_bytes,
                attempt=attempt,
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

    def _retry(self, run: _Run, task_id: int, error: str) -> None:
        """Requeue a failed task, or fail the run once its attempts are spent."""
        if run.attempts.get(task_id, 0) >= run.max_retries + 1:
            self._fail_run(f"task {task_id} exhausted retries: {error}")
            return
        run.pending.appendleft(task_id)

    def _lose_worker(self, worker: _Worker, why: str) -> None:
        self._workers.pop(worker.conn_id, None)
        try:
            worker.sock.close()
        except OSError:
            pass
        run = self._run
        if run is not None and worker.task is not None:
            number, task_id = worker.task
            if number == run.number and task_id not in run.done:
                self._retry(run, task_id, f"worker {worker.name} {why}")

    def _finish_run(self, run: _Run) -> None:
        wall = time.monotonic() - run.t0
        records = sorted(run.records, key=lambda r: r.task_id)
        merged = run.merged if run.merged is not None else PartialResult.empty(run.graph)
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
