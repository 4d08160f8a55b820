"""Push scheduler: a core that makes every decision, in a thin socket shell.

``Core`` holds all run state and decides every dispatch, retry, loss and
merge. It has no socket, thread, queue or clock: each call of
``Core.step`` passes the time and one event (a message from a connection,
a hang-up, a tick or a stop) and returns the effects, each a frame to send
on a connection or a connection to close. It plans a run in one
synchronous call of the ``plan`` function it is given; the default,
``plan_run``, opens the dataset. So a test drives the core in virtual
time, with a fake planner.

``Scheduler`` is the shell. Each connection gets a reader thread that does
nothing but decode frames and push events into a queue. One thread (the
state loop) hands each event to the core with the clock's time and
carries out the effects, so it is the only writer on any socket and no
lock discipline is needed beyond the queue itself.

A run is finished when every task id has exactly one accepted RESULT.
The accepted results are merged once, in task-id order, when the last one
is accepted, so the merged output is independent of scheduling and
arrival order, not just up to float rounding. Duplicate RESULTs (a worker
declared lost that later answers anyway) are discarded, and an accepted
task is never dispatched again. A worker process is one slot: it is sent
a TASK only while it has none in flight, and it is freed only by its own
answer or by its loss. Idle workers take tasks in registration order. A
task's record names the worker that ran it and that attempt, even when
the answer comes from a worker already declared lost; such a worker's
FAIL is dropped, since its loss requeued the task. An answer for a task
its connection was not sent is dropped.

A run is planned in the step that handles its SUBMIT, with the workers
registered at that moment, or it is refused with a RUN_FAIL and never
exists: a SUBMIT that arrives with no worker registered is refused at
once. Planning types the run once, against the first file of its
dataset, and checks the column types of every file it opened. Each
worker gets one GRAPH (run number, document, that schema) before its
first TASK of the run. An answer from another run only frees its worker;
a RESULT whose shape does not fit the run's graph fails its task.

A worker is recorded, and its REGISTER echoed back, in one step, so every
SUBMIT that reaches the scheduler after a worker has read its echo plans
with that worker.

Workers are declared lost after 3 missed heartbeat intervals or on
disconnect; a lost worker's task in flight is requeued, each requeue
consuming one attempt from the task's budget of max_retries + 1.
Heartbeat loss is judged only on a tick that finds the shell's queue
empty, so beats that queued up while a long step (planning a large
dataset) held the state loop count.
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


def plan_run(spec: PipelineSpec, tasks: tuple, n_workers: int, factor: int) -> tuple:
    """Type a run against its first file, check the column types of every file
    it opens and cut it into tasks: ``(graph, tasks, bytes read)``. A run with
    explicit tasks opens only its first file, since its tasks are already cut
    and each worker checks its own task's file."""
    handles = []
    for uri in spec.dataset[:1] if tasks else spec.dataset:
        with open_dataset(uri) as h:  # planning reads only h.uri, h.schema and h.clusters
            handles.append(h)
    graph = build(spec, handles[0].schema)
    for h in handles:
        check_columns(graph, h.uri, h.schema)
    tasks = tasks or plan_partitions(handles, n_workers, factor)
    return graph, tasks, sum(h.account.bytes_read for h in handles)


@dataclass
class _Worker:
    name: str
    last_beat: float
    task: tuple[int, int] | None = None  # (run, task_id) in flight
    graph_run: int = 0  # the run whose GRAPH this worker was sent last


@dataclass
class _Run:
    run_id: str
    number: int  # names the run on the worker channel
    client_conn: int
    max_retries: int
    t0: float
    graph: ComputationGraph
    tasks: dict[int, Task]  # task_id -> TASK
    shape: tuple  # the PartialResult.shape() every RESULT must have
    planning_bytes: int
    pending: deque  # task ids waiting for a worker, none of them accepted
    attempts: dict = field(default_factory=dict)  # task_id -> attempts started
    assigned: dict = field(default_factory=dict)  # (conn_id, task_id) -> (worker name, attempt) until answered
    accepted: dict = field(default_factory=dict)  # task_id -> (JobRecord, PartialResult)


class Core:
    """The scheduler's state and decisions, with no I/O.

    ``step`` returns a list of effects, each ``(conn_id, frame)`` to send a
    frame or ``(conn_id, None)`` to close the connection.
    """

    def __init__(self, plan=plan_run):
        self.plan = plan
        self.workers: dict[int, _Worker] = {}  # by connection, in registration order
        self.run: _Run | None = None
        self.runs_started = 0

    def step(self, now: float, event: tuple) -> list:
        """Handle ``event`` at time ``now``. An event is ``("msg", conn_id,
        message)``, ``("gone", conn_id, None)``, ``("stop", None, None)`` or
        ``("tick", None, idle)``, where idle says the shell's queue is empty:
        a beat still queued is not a missed beat."""
        kind, conn_id, payload = event
        self.now, self.effects = now, []
        if kind == "msg":
            self._on_message(conn_id, payload)
        elif kind == "gone":
            if self.run is not None and self.run.client_conn == conn_id:
                self.run = None  # client vanished; abandon the run
            self._lose(conn_id, "disconnected")
        elif kind == "stop":
            for conn_id in self.workers:
                self._send(conn_id, Shutdown())
            self.workers.clear()
        else:
            for conn_id, worker in list(self.workers.items()):
                if payload and now - worker.last_beat > HEARTBEAT_INTERVAL * LOSS_FACTOR:
                    self._lose(conn_id, "heartbeat timeout")
            self._dispatch()
        return self.effects

    def _send(self, conn_id: int, msg: Message) -> None:
        try:
            self.effects.append((conn_id, encode(msg)))
        except ProtoError as e:
            # an unframeable message (e.g. a RunDone over MAX_FRAME) fails the
            # run; it must never end the state loop
            if isinstance(msg, RunFail):
                self.effects.append((conn_id, None))
            else:
                self._fail_run(f"cannot send {type(msg).__name__}: {e}")

    def _on_message(self, conn_id: int, msg: Message) -> None:
        if isinstance(msg, Register):
            self.workers[conn_id] = _Worker(msg.name, self.now)
            self._send(conn_id, msg)  # the echo: any SUBMIT met later plans with it
        elif isinstance(msg, Heartbeat):
            if conn_id in self.workers:
                self.workers[conn_id].last_beat = self.now
        elif isinstance(msg, Submit):
            self._on_submit(conn_id, msg)
        elif isinstance(msg, (Result, Fail)):
            self._on_answer(conn_id, msg)

    # -- run lifecycle ---------------------------------------------------------

    def _on_submit(self, conn_id: int, msg: Submit) -> None:
        """Check, type and cut the run into tasks with the registered workers,
        or refuse it."""

        def refuse(error: str) -> None:
            self._send(conn_id, RunFail(msg.run_id, error))

        if self.run is not None:
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
        if not self.workers:
            return refuse("no workers registered")
        try:
            graph, tasks, planning_bytes = self.plan(spec, msg.tasks, len(self.workers), msg.factor)
            shape = PartialResult.empty(graph).shape()
        except PipelineError as e:
            return refuse(f"bad pipeline document: {e}")
        except EngineError as e:
            return refuse(f"bad dataset: {e}")
        except Exception as e:
            return refuse(f"planning failed: {e}")
        self.runs_started += 1
        number = self.runs_started
        run = self.run = _Run(
            run_id=msg.run_id,
            number=number,
            client_conn=conn_id,
            max_retries=msg.max_retries,
            t0=self.now,  # the run's wall time includes its planning
            graph=graph,
            tasks={t.task_id: replace(t, run=number) for t in tasks},
            shape=shape,
            planning_bytes=planning_bytes,
            pending=deque(sorted(t.task_id for t in tasks)),
        )
        if not tasks:
            self._finish_run(run)  # nothing to read: every file was empty

    def _dispatch(self) -> None:
        run = self.run
        while run is not None and run.pending and self.run is run:  # a failed send may end the run
            conn_id = next((c for c, w in self.workers.items() if w.task is None), None)
            if conn_id is None:
                return
            worker = self.workers[conn_id]
            task_id = run.pending.popleft()
            if worker.graph_run != run.number:
                self._send(conn_id, Graph(run.number, run.graph.spec.document, run.graph.base_schema))
                worker.graph_run = run.number
            run.attempts[task_id] = run.attempts.get(task_id, 0) + 1
            run.assigned[(conn_id, task_id)] = (worker.name, run.attempts[task_id])
            worker.task = (run.number, task_id)
            self._send(conn_id, run.tasks[task_id])
            if self.run is not run:  # the TASK could not be framed, so the worker never got it
                worker.task = None

    def _on_answer(self, conn_id: int, msg: Result | Fail) -> None:
        worker = self.workers.get(conn_id)
        if worker is not None:
            if worker.task == (msg.run, msg.task_id):
                worker.task = None
            worker.last_beat = self.now
        run = self.run
        if run is None or msg.run != run.number:
            return  # another run's answer
        assigned = run.assigned.pop((conn_id, msg.task_id), None)
        if assigned is None or msg.task_id in run.accepted:
            return  # not this connection's task, or a duplicate after reassignment: first result wins
        if isinstance(msg, Result) and msg.partial.shape() == run.shape:
            self._accept(run, assigned, msg)
        elif worker is not None:  # a lost worker's tasks were requeued when it was lost
            error = msg.error if isinstance(msg, Fail) else "result does not fit the run's graph"
            self._retry(run, msg.task_id, error)

    def _accept(self, run: _Run, assigned: tuple[str, int], msg: Result) -> None:
        """Record a result; assigned names the worker that ran it and the attempt."""
        name, attempt = assigned
        task = run.tasks[msg.task_id]
        partial = msg.partial
        record = JobRecord(
            task_id=msg.task_id,
            worker=name,
            events=partial.events,
            t_total=msg.t_total,
            t_loop=partial.t_loop,
            bytes_read=partial.bytes_read,
            chunk_bytes=partial.chunk_bytes,
            attempt=attempt,
            phase="task",
            passes=len(pass_plan(run.graph)) if task.multi_pass else 1,
            mem_peak=partial.mem_peak,
        )
        run.accepted[msg.task_id] = (record, partial)
        if msg.task_id in run.pending:  # a lost worker's late answer: its task was requeued
            run.pending.remove(msg.task_id)
        if len(run.accepted) == len(run.tasks):
            self._finish_run(run)

    def _retry(self, run: _Run, task_id: int, error: str) -> None:
        """Requeue a failed task, or fail the run once its attempts are spent."""
        if run.attempts.get(task_id, 0) >= run.max_retries + 1:
            self._fail_run(f"task {task_id} exhausted retries: {error}")
            return
        run.pending.appendleft(task_id)

    def _lose(self, conn_id: int, why: str) -> None:
        """Close a connection; a worker on it is lost, and its task in flight requeued."""
        self.effects.append((conn_id, None))
        worker = self.workers.pop(conn_id, None)
        run = self.run
        if run is not None and worker is not None and worker.task is not None:
            number, task_id = worker.task
            if number == run.number and task_id not in run.accepted:
                self._retry(run, task_id, f"worker {worker.name} {why}")

    def _finish_run(self, run: _Run) -> None:
        done = [run.accepted[t] for t in sorted(run.accepted)]
        merged = done[0][1] if done else PartialResult.empty(run.graph)
        for _, partial in done[1:]:
            merged.merge_in(partial)
        records = tuple(record for record, _ in done)
        self._send(run.client_conn, RunDone(run.run_id, self.now - run.t0, merged, records, run.planning_bytes))
        self.run = None

    def _fail_run(self, error: str) -> None:
        run = self.run
        self.run = None
        if run is not None:
            self._send(run.client_conn, RunFail(run.run_id, error))


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
        self._core = Core()
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

    def _reader(self, sock: socket.socket) -> None:
        conn_id = next(self._conn_ids)
        self._conns[conn_id] = sock  # before any event of this connection reaches the state loop
        try:
            while True:
                msg = recv_message(sock)
                if msg is None:
                    break
                self._events.put(("stop", None, None) if isinstance(msg, Shutdown) else ("msg", conn_id, msg))
        except (ProtoError, OSError):
            pass
        self._events.put(("gone", conn_id, None))

    def _state_loop(self) -> None:
        while True:
            try:
                event = self._events.get(timeout=0.25)
            except queue.Empty:
                event = ("tick", None, True)
            self._apply(event)
            if event[0] == "stop":
                for sock in self._conns.values():
                    try:
                        sock.close()
                    except OSError:
                        pass
                stop_accepting(self._listener)
                return
            if event[0] != "tick":
                self._apply(("tick", None, self._events.empty()))

    def _apply(self, event: tuple) -> None:
        """Step the core with the clock's time and carry out its effects."""
        for conn_id, frame in self._core.step(time.monotonic(), event):
            sock = self._conns.pop(conn_id, None) if frame is None else self._conns.get(conn_id)
            if sock is None:
                continue  # closed already
            try:
                if frame is None:
                    sock.close()
                else:
                    sock.sendall(frame)
            except OSError:
                self._events.put(("gone", conn_id, None))
