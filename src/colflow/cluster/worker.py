"""Worker daemon: executes tasks from the scheduler via the engine.

One socket to the scheduler, read by the main loop; a heartbeat thread and
the task executor share the write side under a lock. Graph documents are
cached by graph_id and compiled once per worker against the schema of the
first file a task touches (datasets are schema-uniform here; a mismatched
file fails the task, not the worker).

A task may name a payload URI: the worker then downloads payload_bytes
from it before opening the data, and those bytes count into the task's
bytes_read (download is part of t_total, never of t_loop).
"""

from __future__ import annotations

import os
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from ..colstore.dataset import (
    REMOTE_SCHEME,
    LocalTransport,
    RemoteTransport,
    parse_remote_uri,
)
from ..engine import CompiledPipeline, run_multi_pass, run_range
from ..graph import build, load_spec, schema_types
from ..proto import (
    Fail,
    Graph,
    Heartbeat,
    ProtoError,
    Register,
    Result,
    Shutdown,
    Task,
    pack_partial,
    recv_message,
    send_message,
    unpack_partial,
)
from ..wire import Reader, pack_str
from .scheduler import HEARTBEAT_INTERVAL

_DOWNLOAD_CHUNK = 256 * 1024


def download_payload(uri: str, n_bytes: int) -> int:
    """Fetch n_bytes of junk from uri (wrapping around short files).

    Returns the byte count actually transferred, which equals n_bytes for
    any non-empty source.
    """
    if n_bytes <= 0:
        return 0
    if uri.startswith(REMOTE_SCHEME):
        host, port, path = parse_remote_uri(uri)
        transport = RemoteTransport(host, port, path)
    else:
        transport = LocalTransport(uri)
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
    def __init__(
        self,
        scheduler_address: str,
        slots: int = 1,
        name: str | None = None,
        data_base: str = "",
    ):
        if slots < 1:
            raise ValueError(f"a worker needs at least 1 slot, got {slots}")
        host, _, port = scheduler_address.rpartition(":")
        self._sock = socket.create_connection((host, int(port)), timeout=None)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.name = name or f"worker-{os.getpid()}"
        self.slots = slots
        self._data_base = data_base.strip()
        self._send_lock = threading.Lock()
        self._specs: dict[str, str] = {}  # graph_id -> document
        self._compiled: dict[str, tuple] = {}  # graph_id -> (graph, CompiledPipeline)
        self._compile_lock = threading.Lock()
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

    def _graph_for(self, task: Task):
        """Returns (graph, compiled, meta_bytes).

        meta_bytes is nonzero only for the task that triggered compilation:
        reading the schema costs one metadata fetch, and charging it to that
        task keeps the run's byte accounting closed against the data server.
        """
        with self._compile_lock:
            cached = self._compiled.get(task.graph_id)
            if cached is not None:
                return (*cached, 0)
            document = self._specs.get(task.graph_id)
            if document is None:
                raise RuntimeError(f"no graph {task.graph_id!r} received before task {task.task_id}")
            from ..colstore import open_dataset

            with open_dataset(task.entry_range.file) as h:
                schema = schema_types(h)
                meta_bytes = h.account.bytes_read
            graph = build(load_spec(document), schema)
            if graph.graph_id != task.graph_id:
                raise RuntimeError("graph identity mismatch between document and task")
            cached = (graph, CompiledPipeline(graph))
            self._compiled[task.graph_id] = cached
            return (*cached, meta_bytes)

    def _resolve(self, task: Task) -> Task:
        """Point schemeless relative task paths at the configured data server."""
        f = task.entry_range.file
        if not self._data_base or "://" in f or os.path.isabs(f):
            return task
        resolved = f"{REMOTE_SCHEME}{self._data_base}/{f}"
        return replace(task, entry_range=replace(task.entry_range, file=resolved))

    def _execute(self, task: Task) -> None:
        t_start = time.perf_counter()
        try:
            task = self._resolve(task)
            graph, compiled, meta_bytes = self._graph_for(task)
            payload_read = download_payload(task.payload_uri, task.payload_bytes) if task.payload_uri else 0
            partial = (run_multi_pass if task.multi_pass else run_range)(
                graph, task.entry_range, range_id=str(task.task_id), compiled=compiled
            )
            partial.bytes_read += payload_read + meta_bytes
            t_total = time.perf_counter() - t_start
            if task.result_file:
                write_result_file(task.result_file, task.graph_id, partial)
            self._send(Result(task.task_id, t_total, partial))
        except Exception as e:  # error containment: the task fails, not the worker
            try:
                self._send(Fail(task.task_id, f"{type(e).__name__}: {e}"))
            except OSError:
                pass

    def announce(self) -> None:
        """Send registration; idempotent, run() calls it if nobody did."""
        if not self._announced:
            self._announced = True
            self._send(Register(self.name, self.slots))

    def run(self) -> int:
        """Serve until SHUTDOWN (0) or lost scheduler connection (1)."""
        self.announce()
        beat = threading.Thread(target=self._heartbeat_loop, name="worker-beat", daemon=True)
        beat.start()
        code = 1
        pool = ThreadPoolExecutor(max_workers=self.slots, thread_name_prefix="worker-task")
        try:
            while True:
                try:
                    msg = recv_message(self._sock)
                except (ProtoError, OSError):
                    break
                if msg is None:
                    break  # scheduler vanished
                if isinstance(msg, Graph):
                    self._specs[msg.graph_id] = msg.document
                elif isinstance(msg, Task):
                    pool.submit(self._execute, msg)
                elif isinstance(msg, Shutdown):
                    code = 0
                    break
        finally:
            self._stop.set()
            pool.shutdown(wait=True, cancel_futures=True)
            try:
                self._sock.close()
            except OSError:
                pass
        return code


def write_result_file(path: str, graph_id: str, partial) -> None:
    """Job output file: the graph id as a wire string, then the partial."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wb") as f:
        f.write(pack_str(graph_id) + pack_partial(partial))


def read_result_file(path: str):
    """Returns (graph_id, PartialResult)."""
    with open(path, "rb") as f:
        r = Reader(f.read())
    return r.string(), unpack_partial(r)
