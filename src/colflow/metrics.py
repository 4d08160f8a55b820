"""Run bookkeeping: per-job records, rate formulas, CSV outputs.

Two rates, deliberately distinct:

    job rate      = sum(events_i) / sum(t_i)        t_i = whole job duration
    job loop rate = sum(events_i) / sum(t_loop_i)   event loop only

and the overall rate = total events / wall clock of the full run. Loop rate
is never below job rate since t_loop <= t per record.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass


class MetricsError(Exception):
    pass


@dataclass
class JobRecord:
    task_id: int
    worker: str
    events: int
    t_total: float
    t_loop: float
    bytes_read: int
    chunk_bytes: int = 0
    attempt: int = 1
    phase: str = "task"
    passes: int = 1
    mem_peak: int = 0

    def __post_init__(self):
        if self.events < 0:
            raise MetricsError("events must be >= 0")
        if not 0.0 <= self.t_loop <= self.t_total:
            raise MetricsError(
                f"need 0 <= t_loop <= t_total, got t_loop={self.t_loop} t_total={self.t_total}"
            )


def job_rate(records: list[JobRecord], use_loop_time: bool = False) -> float:
    """Events per second summed over jobs: sum(events) / sum(t)."""
    if not records:
        raise MetricsError("no job records")
    total_t = sum(r.t_loop if use_loop_time else r.t_total for r in records)
    if total_t <= 0.0:
        raise MetricsError("zero total job time")
    return sum(r.events for r in records) / total_t


def overall_rate(total_events: int, wall_seconds: float) -> float:
    if wall_seconds <= 0.0:
        raise MetricsError("wall time must be positive")
    return total_events / wall_seconds


@dataclass
class RunMetrics:
    overall_time: float
    overall_rate: float
    job_rate: float
    job_loop_rate: float
    network_read: int
    total_events: int
    n_jobs: int
    mem_peak: int = 0


def aggregate(records: list[JobRecord], wall_time: float, network_read: int) -> RunMetrics:
    """Run-level figures; network_read is the run's own total, planning included."""
    total_events = sum(r.events for r in records)
    return RunMetrics(
        overall_time=wall_time,
        overall_rate=overall_rate(total_events, wall_time),
        job_rate=job_rate(records),
        job_loop_rate=job_rate(records, use_loop_time=True),
        network_read=network_read,
        total_events=total_events,
        n_jobs=len(records),
        mem_peak=max((r.mem_peak for r in records), default=0),
    )


# --- CSV outputs ------------------------------------------------------------

RECORD_COLUMNS = [
    "task_id", "worker", "events", "t_total_s", "t_loop_s", "bytes_read", "attempt", "phase", "passes"
]
METRICS_COLUMNS = [
    "run_id",
    "mode",
    "phase",
    "overall_time_s",
    "overall_rate_hz",
    "job_rate_hz",
    "job_loop_rate_hz",
    "network_read_bytes",
    "total_events",
    "n_jobs",
    "mem_peak_bytes",  # a proxy: peak engine column-buffer bytes of one task, not RSS
]


def _record_row(r: JobRecord) -> dict:
    return {
        "task_id": r.task_id,
        "worker": r.worker,
        "events": r.events,
        "t_total_s": repr(r.t_total),
        "t_loop_s": repr(r.t_loop),
        "bytes_read": r.bytes_read,
        "attempt": r.attempt,
        "phase": r.phase,
        "passes": r.passes,
    }


def write_records_csv(path: str, records: list[JobRecord]) -> None:
    _write(path, RECORD_COLUMNS, [_record_row(r) for r in records])


def append_records_csv(path: str, records: list[JobRecord]) -> None:
    """Append record rows, writing the header only when the file is new."""
    new = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=RECORD_COLUMNS, extrasaction="ignore")
        if new:
            writer.writeheader()
        writer.writerows(_record_row(r) for r in records)


def metrics_row(run_id: str, mode: str, phase: str, m: RunMetrics) -> dict:
    return {
        "run_id": run_id,
        "mode": mode,
        "phase": phase,
        "overall_time_s": repr(m.overall_time),
        "overall_rate_hz": repr(m.overall_rate),
        "job_rate_hz": repr(m.job_rate),
        "job_loop_rate_hz": repr(m.job_loop_rate),
        "network_read_bytes": m.network_read,
        "total_events": m.total_events,
        "n_jobs": m.n_jobs,
        "mem_peak_bytes": m.mem_peak,
    }


def write_metrics_csv(path: str, rows: list[dict]) -> None:
    _write(path, METRICS_COLUMNS, rows)


def read_metrics_csv(path: str) -> list[dict]:
    """Rows with numeric fields parsed back to int/float."""
    out = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        missing = set(METRICS_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise MetricsError(f"{path}: missing columns {sorted(missing)}")
        for row in reader:
            parsed = dict(row)
            try:
                for key in ("overall_time_s", "overall_rate_hz", "job_rate_hz", "job_loop_rate_hz"):
                    parsed[key] = float(row[key])
                for key in ("network_read_bytes", "total_events", "n_jobs", "mem_peak_bytes"):
                    parsed[key] = int(row[key])
            except ValueError as e:
                raise MetricsError(f"{path}: bad numeric field: {e}") from None
            out.append(parsed)
    return out


def _write(path: str, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
