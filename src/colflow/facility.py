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
so once `start()` returns, the next run plans with every worker.

Each child has one watcher thread, the only reader of its stdout: it
reads the announcement line, drains the rest so the child never blocks
on a full pipe, and closes the pipe at EOF. The facility keeps no log
file open. `stop()`, which a failed start also runs before raising, asks
the scheduler to shut the cluster down, terminates the data server and
any child that never announced, waits for every child against one
deadline (killing any that outlive it) and joins the watchers; after it,
every child has exited, every pipe is closed, and neither address
accepts connections.

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

from .cluster.client import shutdown_cluster
from .wire import address_of, listen

STARTUP_TIMEOUT = 30.0  # seconds: one deadline for every child's announcement line
_LOG_TAIL_LINES = 10


class FacilityError(Exception):
    pass


class _Child:
    """One child process, its log path, and the watcher that owns its stdout."""

    def __init__(self, proc: subprocess.Popen, what: str, log_path: str):
        self.proc = proc
        self.what = what
        self.log_path = log_path
        self.line = ""  # the announcement, "" until read or if stdout ended without one
        self.answered = threading.Event()  # set once the line, or EOF, has been read
        self.watcher = threading.Thread(target=self._watch, name=f"watch-{what}", daemon=True)
        self.watcher.start()

    def _watch(self) -> None:
        with self.proc.stdout as out:
            self.line = out.readline()
            self.answered.set()
            for _ in out:  # keep reading so the child never blocks on a full pipe
                pass


class MiniFacility:
    """One data server, one scheduler, and n_workers x slots worker processes on localhost."""

    def __init__(
        self,
        data_root: str,
        log_dir: str,
        n_workers: int = 4,
        slots: int = 1,
    ):
        if n_workers < 1 or slots < 1:
            raise FacilityError("need at least one worker of at least one slot")
        self.data_root = os.path.abspath(data_root)
        self.log_dir = os.path.abspath(log_dir)
        self.n_workers = n_workers
        self.slots = slots
        self.data_address = ""
        self.scheduler_address = ""
        self.data_proc: subprocess.Popen | None = None
        self.scheduler_proc: subprocess.Popen | None = None
        self.worker_procs: list[subprocess.Popen] = []
        self._children: list[_Child] = []  # in start order

    def _spawn(
        self, args: list[str], what: str, log_name: str, listener: socket.socket | None = None
    ) -> subprocess.Popen:
        """Start a child without waiting for it; a service inherits its listener and no other socket."""
        pass_fds: tuple[int, ...] = ()
        if listener is not None:
            pass_fds = (listener.fileno(),)
            args = [*args, "--listen", f"fd:{listener.fileno()}"]
        os.makedirs(self.log_dir, exist_ok=True)
        log_path = os.path.join(self.log_dir, log_name)
        with open(log_path, "w") as log:  # the child writes to its own copy
            proc = subprocess.Popen(
                [sys.executable, "-m", "colflow.cli", *args],
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
                pass_fds=pass_fds,
            )
        self._children.append(_Child(proc, what, log_path))
        return proc

    def _await(self) -> None:
        """Wait until every child has announced itself.

        They share one STARTUP_TIMEOUT; the first that exits or times out
        without announcing raises FacilityError.
        """
        deadline = time.monotonic() + STARTUP_TIMEOUT
        for child in self._children:
            if not child.answered.wait(max(0.0, deadline - time.monotonic())):
                raise FacilityError(f"{child.what} did not announce itself within {STARTUP_TIMEOUT}s")
            if not child.line:
                raise self._exited(child)

    def _exited(self, child: _Child) -> FacilityError:
        """The error for a child whose stdout ended without an announcement: it is exiting."""
        try:
            code = child.proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            child.proc.kill()
            code = child.proc.wait()
        with open(child.log_path, errors="replace") as f:
            tail = "".join(f.readlines()[-_LOG_TAIL_LINES:])
        return FacilityError(
            f"{child.what} exited with code {code} before announcing itself; {child.log_path} ends with:\n{tail}"
        )

    def start(self) -> "MiniFacility":
        try:
            self._start()
        except BaseException:
            self.stop()
            raise
        return self

    def _start(self) -> None:
        with listen() as data_sock, listen() as scheduler_sock:
            self.data_address = address_of(data_sock)
            self.scheduler_address = address_of(scheduler_sock)
            self.data_proc = self._spawn(
                ["serve-data", "--root", self.data_root], "data server", "data-server.log", data_sock
            )
            self.scheduler_proc = self._spawn(["scheduler"], "scheduler", "scheduler.log", scheduler_sock)
            for k in range(self.n_workers * self.slots):
                self.worker_procs.append(
                    self._spawn(
                        ["worker", "--scheduler", self.scheduler_address, "--name", f"w{k}"],
                        f"worker w{k}",
                        f"worker-{k}.log",
                    )
                )
        # the services now hold the only listening copies; a worker's
        # line follows the scheduler's echo of its REGISTER
        self._await()

    def stop(self) -> None:
        if self.scheduler_address:
            shutdown_cluster(self.scheduler_address)
        for child in self._children:
            if child.proc is self.data_proc or not child.line:
                child.proc.terminate()  # nothing else would tell it to stop
        deadline = time.monotonic() + 10.0
        for child in self._children:
            try:
                child.proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                child.proc.kill()
                child.proc.wait()
        for child in self._children:
            child.watcher.join()  # the pipe reaches EOF once its child has exited
        self.scheduler_address = ""
        self.data_address = ""

    def __enter__(self) -> "MiniFacility":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
