"""Worker daemon: executes tasks from the scheduler via the engine.

A worker process is one slot: its receive loop runs each TASK to the end
before it reads the next frame, and the scheduler sends it a TASK only
while it has none in flight. Two slots are two worker processes, so an
analysis spreads over as many cores as it has slots; threads in one
process would share its interpreter lock.

One socket to the scheduler; a heartbeat thread and the receive loop
share the write side under a lock. Registration waits for the scheduler
to echo REGISTER before anything else. The receive loop compiles each
GRAPH frame's document against the schema the frame carries and holds
only the latest run's graph: a task of another run, or of a run whose
graph did not build, fails. So does a task whose file holds a needed
column with another type; the worker survives either way.

A task names its data by path or URI and is read as named. It may also
name a payload URI: the worker then downloads payload_bytes from it
before opening the data, and those bytes count into the task's
bytes_read (download is part of t_total, never of t_loop).
"""

from __future__ import annotations

import os
import threading
import time

from ..colstore.dataset import open_transport
from ..engine import CompiledPipeline, run_multi_pass, run_range
from ..graph import build, load_spec
from ..proto import (
    HEARTBEAT_INTERVAL,
    RESULT_FILE,
    Fail,
    Graph,
    Heartbeat,
    ProtoError,
    Register,
    Result,
    Shutdown,
    Task,
    recv_message,
    send_message,
)
from ..wire import connect, unpack_whole

_DOWNLOAD_CHUNK = 256 * 1024


def download_payload(uri: str, n_bytes: int) -> int:
    """Fetch n_bytes of junk from uri (wrapping around short files).

    Returns the byte count actually transferred, which equals n_bytes for
    any non-empty source.
    """
    if n_bytes <= 0:
        return 0
    transport = open_transport(uri)
    try:
        size = transport.size()
        if size == 0:
            raise ValueError(f"payload source {uri} is empty")
        got = 0
        while got < n_bytes:
            offset = got % size
            want = min(_DOWNLOAD_CHUNK, n_bytes - got, size - offset)
            data = transport.read(offset, want)
            if not data:
                raise ValueError(f"payload source {uri} returned no data")
            got += len(data)
        return got
    finally:
        transport.close()


class Worker:
    def __init__(self, scheduler_address: str, name: str | None = None):
        self._sock = connect(scheduler_address)
        self.name = name or f"worker-{os.getpid()}"
        self._send_lock = threading.Lock()
        self._held: tuple = (0, RuntimeError("no graph received"))  # (run, CompiledPipeline or build error)
        self._stop = threading.Event()
        self._announced = False

    def _send(self, msg) -> None:
        with self._send_lock:
            send_message(self._sock, msg)

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(HEARTBEAT_INTERVAL):
            try:
                self._send(Heartbeat(self.name))
            except OSError:
                return

    @staticmethod
    def _build(msg: Graph) -> tuple:
        try:
            return msg.run, CompiledPipeline(build(load_spec(msg.document), msg.schema))
        except Exception as e:  # kept as the run's answer to every task
            return msg.run, e

    def _execute(self, task: Task) -> None:
        t_start = time.perf_counter()
        run, compiled = self._held
        try:
            if run != task.run:
                raise RuntimeError(f"no graph for run {task.run} (holding run {run})")
            if isinstance(compiled, Exception):
                raise compiled.with_traceback(None)  # raised once per task; keep its traceback short
            payload_read = download_payload(task.payload_uri, task.payload_bytes) if task.payload_uri else 0
            partial = (run_multi_pass if task.multi_pass else run_range)(
                compiled.graph, task.entry_range, range_id=str(task.task_id), compiled=compiled
            )
            partial.bytes_read += payload_read
            t_total = time.perf_counter() - t_start
            if task.result_file:
                write_result_file(task.result_file, compiled.graph.graph_id, partial)
            self._send(Result(task.task_id, t_total, partial, task.run))
        except Exception as e:  # error containment: the task fails, not the worker
            try:
                self._send(Fail(task.task_id, f"{type(e).__name__}: {e}", task.run))
            except OSError:
                pass

    def announce(self) -> None:
        """Register and wait for the scheduler's echo; idempotent, run() calls it if nobody did.

        Once it returns, the scheduler has recorded this worker, so every run
        submitted afterwards plans with it. Any answer but the echo is a
        ProtoError.
        """
        if self._announced:
            return
        self._announced = True
        register = Register(self.name)
        self._send(register)
        echo = recv_message(self._sock)
        if echo is None:
            raise ProtoError("scheduler closed the connection before confirming REGISTER")
        if echo != register:
            raise ProtoError(f"scheduler answered REGISTER with {type(echo).__name__}, not its echo")

    def run(self) -> int:
        """Serve until SHUTDOWN (0) or lost scheduler connection (1)."""
        self.announce()
        beat = threading.Thread(target=self._heartbeat_loop, name="worker-beat", daemon=True)
        beat.start()
        code = 1
        try:
            while True:
                try:
                    msg = recv_message(self._sock)
                except (ProtoError, OSError):
                    break
                if msg is None:
                    break  # scheduler vanished
                if isinstance(msg, Graph):
                    self._held = self._build(msg)
                elif isinstance(msg, Task):
                    self._execute(msg)
                elif isinstance(msg, Shutdown):
                    code = 0
                    break
        finally:
            self._stop.set()
            try:
                self._sock.close()
            except OSError:
                pass
        return code


def write_result_file(path: str, graph_id: str, partial) -> None:
    """Job output file: ``proto.RESULT_FILE``."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wb") as f:
        f.write(RESULT_FILE.pack((graph_id, partial)))


def read_result_file(path: str):
    """Returns (graph_id, PartialResult)."""
    with open(path, "rb") as f:
        return unpack_whole(RESULT_FILE, f.read())
