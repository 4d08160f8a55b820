"""Self-hosted local facility: data server, scheduler, and workers.

Children are separate interpreter processes running the command-line
entrypoints, so every byte and timing crosses real process and socket
boundaries. Each child announces itself with one stdout line ending in
its bound address; stderr goes to per-process log files.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

from .cluster.client import shutdown_cluster


_LOG_TAIL_LINES = 10


class FacilityError(Exception):
    pass


def _await_line(proc: subprocess.Popen, timeout: float, what: str, log_path: str) -> str:
    """First stdout line of a child, or FacilityError on timeout/exit."""
    box: dict[str, str] = {}

    def read() -> None:
        box["line"] = proc.stdout.readline()

    t = threading.Thread(target=read, daemon=True)
    t.start()
    t.join(timeout)
    line = box.get("line", "")
    if line:
        return line.strip()
    if t.is_alive():
        proc.kill()
        proc.wait()
        raise FacilityError(f"{what} did not announce itself within {timeout}s")
    try:  # stdout closed without a line: the child is exiting
        code = proc.wait(timeout=5.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait()
    with open(log_path, errors="replace") as f:
        tail = "".join(f.readlines()[-_LOG_TAIL_LINES:])
    raise FacilityError(
        f"{what} exited with code {code} before announcing itself; {log_path} ends with:\n{tail}"
    )


def _drain(proc: subprocess.Popen) -> None:
    # keep reading so the child never blocks on a full stdout pipe
    def pump() -> None:
        for _ in proc.stdout:
            pass

    threading.Thread(target=pump, daemon=True).start()


def _address_of(line: str, what: str) -> str:
    address = line.rsplit(" ", 1)[-1]
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise FacilityError(f"{what} announced no usable address: {line!r}")
    return address


class MiniFacility:
    """One data server, one scheduler, and n workers on localhost."""

    def __init__(
        self,
        data_root: str,
        log_dir: str,
        n_workers: int = 4,
        slots: int = 1,
        startup_timeout: float = 30.0,
    ):
        if n_workers < 1:
            raise FacilityError("need at least one worker")
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
        self._logs: list = []

    def _launch(self, args: list[str], log_name: str, what: str) -> tuple[subprocess.Popen, str]:
        """Start a child and wait for its announcement line."""
        os.makedirs(self.log_dir, exist_ok=True)
        log_path = os.path.join(self.log_dir, log_name)
        log = open(log_path, "w")
        self._logs.append(log)
        proc = subprocess.Popen(
            [sys.executable, "-m", "colflow.cli", *args],
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
        )
        line = _await_line(proc, self.startup_timeout, what, log_path)
        _drain(proc)
        return proc, line

    def start(self) -> "MiniFacility":
        try:
            self._start()
        except BaseException:
            self.stop()
            raise
        return self

    def _start(self) -> None:
        self.data_proc, line = self._launch(
            ["serve-data", "--root", self.data_root, "--listen", "127.0.0.1:0"],
            "data-server.log",
            "data server",
        )
        self.data_address = _address_of(line, "data server")

        self.scheduler_proc, line = self._launch(
            ["scheduler", "--listen", "127.0.0.1:0"], "scheduler.log", "scheduler"
        )
        self.scheduler_address = _address_of(line, "scheduler")

        for k in range(self.n_workers):
            proc, _ = self._launch(
                [
                    "worker",
                    "--scheduler",
                    self.scheduler_address,
                    "--slots",
                    str(self.slots),
                    "--data",
                    self.data_address,
                    "--name",
                    f"w{k}",
                ],
                f"worker-{k}.log",
                f"worker w{k}",
            )
            self.worker_procs.append(proc)
        # registrations are already in flight once every worker has printed;
        # the scheduler additionally grants submits a startup grace period
        time.sleep(0.2)

    def stop(self) -> None:
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
        for proc in [self.data_proc, self.scheduler_proc, *self.worker_procs]:
            if proc is None or proc.poll() is not None:
                continue
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
        for log in self._logs:
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
