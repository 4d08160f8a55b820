"""Client side of a run: submit, wait, collect the merged result."""

from __future__ import annotations

import socket
import uuid
from dataclasses import dataclass

from ..engine import PartialResult
from ..metrics import JobRecord
from ..proto import (
    ProtoError,
    RunDone,
    RunFail,
    Shutdown,
    Submit,
    Task,
    recv_message,
    send_message,
)
from ..wire import connect


class ClusterError(Exception):
    """Run rejected or failed by the scheduler."""


@dataclass
class RunResult:
    """The outcome of one run of either workflow.

    ``wall_time`` is task execution end to end: the scheduler's clock for a
    distributed run, the job waves (queue waits included) for the baseline.
    ``planning_bytes`` are the metadata reads done outside any task: the
    scheduler's planning (which types every run, explicit tasks or not),
    plus, for the baseline, the client's sizing of its inputs.
    ``merge_duration`` is the baseline's local merge of its result files;
    a distributed run has no such step.
    """

    run_id: str
    partial: PartialResult
    records: tuple[JobRecord, ...]
    wall_time: float
    planning_bytes: int
    merge_duration: float = 0.0

    @property
    def total_events(self) -> int:
        return self.partial.events

    @property
    def network_read(self) -> int:
        """Every byte this run pulled: task reads plus planning reads."""
        return sum(r.bytes_read for r in self.records) + self.planning_bytes

    @property
    def total_time(self) -> float:
        return self.wall_time + self.merge_duration


def submit_run(
    scheduler_address: str,
    document: str,
    *,
    run_id: str | None = None,
    max_retries: int = 2,
    factor: int = 3,
    tasks: tuple[Task, ...] = (),
    timeout: float = 600.0,
) -> RunResult:
    """Submit a run and block until it completes or fails."""
    run_id = run_id or f"run-{uuid.uuid4().hex[:8]}"
    sock = connect(scheduler_address)
    sock.settimeout(timeout)
    try:
        send_message(sock, Submit(run_id, document, max_retries, factor, tasks))
        while True:
            try:
                msg = recv_message(sock)
            except socket.timeout:
                raise ClusterError(f"run {run_id} timed out after {timeout}s") from None
            if msg is None:
                raise ClusterError(f"scheduler closed the connection during run {run_id}")
            if isinstance(msg, RunDone) and msg.run_id == run_id:
                return RunResult(
                    run_id, msg.partial, msg.records, msg.wall_time, msg.planning_bytes
                )
            if isinstance(msg, RunFail) and msg.run_id == run_id:
                raise ClusterError(msg.error)
    finally:
        sock.close()


def run_distributed(
    document: str,
    scheduler_address: str,
    *,
    factor: int = 3,
    max_retries: int = 2,
    timeout: float = 600.0,
) -> RunResult:
    """Single-event-loop distributed execution of a pipeline document."""
    return submit_run(
        scheduler_address, document, max_retries=max_retries, factor=factor, timeout=timeout
    )


def shutdown_cluster(scheduler_address: str) -> None:
    """Ask the scheduler to stop itself and all its workers."""
    try:
        sock = connect(scheduler_address)
    except OSError:
        return  # already down
    try:
        send_message(sock, Shutdown())
    except (OSError, ProtoError):
        pass
    finally:
        sock.close()
