"""Self-hosted local facility: data server, scheduler, and workers.

Children are separate interpreter processes running the command-line
entrypoints, so every byte and timing crosses real process and socket
boundaries. Each child announces itself with one stdout line; stderr goes
to per-process log files.

Every child starts at once. As in systemd's socket activation
(`sd_listen_fds`), the facility binds the data server's and the
scheduler's listening sockets itself and hands each service only its own
(`--listen fd:N`), closing its copies once they are spawned; so the
workers know the scheduler's address before it runs, and a worker's
connect waits in the listen backlog until the scheduler accepts. A worker
announces itself only after the scheduler has confirmed its registration,
so once `start()` returns, the next run plans with every worker. A failed
start stops every child it spawned before raising, and then neither
address accepts connections.

A slot is a worker process: n workers of s slots each are n x s worker
processes, named w0, w1, ... in start order.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from typing import TextIO

from .cluster.client import shutdown_cluster


_LOG_TAIL_LINES = 10


class FacilityError(Exception):
    pass


def _drain(proc: subprocess.Popen) -> None:
    # keep reading so the child never blocks on a full stdout pipe
    def pump() -> None:
        for _ in proc.stdout:
            pass

    threading.Thread(target=pump, daemon=True).start()


def _address_of(sock: socket.socket) -> str:
    host, port = sock.getsockname()[:2]
    return f"{host}:{port}"


class MiniFacility:
    """One data server, one scheduler, and n_workers x slots worker processes on localhost."""

    def __init__(
        self,
        data_root: str,
        log_dir: str,
        n_workers: int = 4,
        slots: int = 1,
        startup_timeout: float = 30.0,
    ):
        if n_workers < 1 or slots < 1:
            raise FacilityError("need at least one worker of at least one slot")
        self.data_root = os.path.abspath(data_root)
        self.log_dir = os.path.abspath(log_dir)
        self.n_workers = n_workers
        self.slots = slots
        self.startup_timeout = startup_timeout
        self.data_address = ""
        self.scheduler_address = ""
        self.data_proc: subprocess.Popen | None = None
        self.scheduler_proc: subprocess.Popen | None = None
        self.worker_procs: list[subprocess.Popen] = []
        self._logs: dict[subprocess.Popen, TextIO] = {}  # child -> its stderr log file
        self._announced: set[subprocess.Popen] = set()

    def _spawn(
        self, args: list[str], log_name: str, listener: socket.socket | None = None
    ) -> subprocess.Popen:
        """Start a child without waiting for it; a service inherits its listener and no other socket."""
        pass_fds: tuple[int, ...] = ()
        if listener is not None:
            pass_fds = (listener.fileno(),)
            args = [*args, "--listen", f"fd:{listener.fileno()}"]
        os.makedirs(self.log_dir, exist_ok=True)
        log = open(os.path.join(self.log_dir, log_name), "w")
        proc = subprocess.Popen(
            [sys.executable, "-m", "colflow.cli", *args],
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
            pass_fds=pass_fds,
        )
        self._logs[proc] = log
        return proc

    def _await(self, children: list[tuple[subprocess.Popen, str]]) -> None:
        """Wait until children started together have announced themselves.

        They share one startup_timeout; the first that exits or times out
        without announcing raises FacilityError.
        """
        lines: dict[subprocess.Popen, str] = {}

        def read(proc: subprocess.Popen) -> None:
            lines[proc] = proc.stdout.readline()

        readers = [threading.Thread(target=read, args=(proc,), daemon=True) for proc, _ in children]
        for t in readers:
            t.start()
        deadline = time.monotonic() + self.startup_timeout
        for (proc, what), t in zip(children, readers):
            t.join(max(0.0, deadline - time.monotonic()))
            if not lines.get(proc):
                raise self._failure(proc, what, timed_out=t.is_alive())
            self._announced.add(proc)
            _drain(proc)

    def _failure(self, proc: subprocess.Popen, what: str, timed_out: bool) -> FacilityError:
        """The error for a child that did not announce itself."""
        if timed_out:
            proc.kill()
            proc.wait()
            return FacilityError(f"{what} did not announce itself within {self.startup_timeout}s")
        try:  # stdout closed without a line: the child is exiting
            code = proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        log_path = self._logs[proc].name
        with open(log_path, errors="replace") as f:
            tail = "".join(f.readlines()[-_LOG_TAIL_LINES:])
        return FacilityError(
            f"{what} exited with code {code} before announcing itself; {log_path} ends with:\n{tail}"
        )

    def start(self) -> "MiniFacility":
        try:
            self._start()
        except BaseException:
            self.stop()
            raise
        return self

    def _start(self) -> None:
        local = ("127.0.0.1", 0)
        with socket.create_server(local) as data_sock, socket.create_server(local) as scheduler_sock:
            self.data_address = _address_of(data_sock)
            self.scheduler_address = _address_of(scheduler_sock)
            self.data_proc = self._spawn(["serve-data", "--root", self.data_root], "data-server.log", data_sock)
            self.scheduler_proc = self._spawn(["scheduler"], "scheduler.log", scheduler_sock)
            for k in range(self.n_workers * self.slots):
                self.worker_procs.append(
                    self._spawn(
                        ["worker", "--scheduler", self.scheduler_address, "--name", f"w{k}"], f"worker-{k}.log"
                    )
                )
        # the services now hold the only listening copies; a worker's
        # line follows the scheduler's echo of its REGISTER
        self._await(
            [(self.data_proc, "data server"), (self.scheduler_proc, "scheduler")]
            + [(proc, f"worker w{k}") for k, proc in enumerate(self.worker_procs)]
        )

    def stop(self) -> None:
        children = [p for p in (self.data_proc, self.scheduler_proc, *self.worker_procs) if p is not None]
        for proc in children:
            if proc not in self._announced and proc.poll() is None:
                proc.terminate()  # nothing else would tell it to stop
        if self.scheduler_address:
            shutdown_cluster(self.scheduler_address)
        deadline = time.monotonic() + 10.0
        for proc in [self.scheduler_proc, *self.worker_procs]:
            if proc is None or proc.poll() is not None:
                continue
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.terminate()
        if self.data_proc is not None and self.data_proc.poll() is None:
            self.data_proc.terminate()
        for proc in children:
            if proc.poll() is not None:
                continue
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
        for log in self._logs.values():
            try:
                log.close()
            except OSError:
                pass
        self._logs.clear()
        self.scheduler_address = ""
        self.data_address = ""

    def __enter__(self) -> "MiniFacility":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
