"""Run bookkeeping: per-job records, rate formulas, CSV outputs.

A metrics.csv row is a RunMetrics, whose fields are the file's columns;
tasks.csv and jobs.csv share one table of JobRecord columns.

Two rates, deliberately distinct:

    job rate      = sum(events_i) / sum(t_i)        t_i = whole job duration
    job loop rate = sum(events_i) / sum(t_loop_i)   event loop only

and the overall rate = total events / wall clock of the full run. Loop rate
is never below job rate since t_loop <= t per record.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, fields
from typing import get_type_hints


class MetricsError(ValueError):
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


@dataclass(frozen=True)
class RunMetrics:
    """One metrics.csv row: a run's identity and its run-level figures, each field typed as its column."""

    run_id: str
    mode: str
    phase: str
    overall_time_s: float
    overall_rate_hz: float
    job_rate_hz: float
    job_loop_rate_hz: float
    network_read_bytes: int
    total_events: int
    n_jobs: int
    mem_peak_bytes: int  # a proxy: peak engine column-buffer bytes of one task, not RSS

    def __post_init__(self):
        for name, value in vars(self).items():
            if not isinstance(value, str) and not math.isfinite(value):
                raise MetricsError(f"{name} must be finite, got {value}")


METRICS_COLUMNS = [f.name for f in fields(RunMetrics)]
_METRICS_TYPES = get_type_hints(RunMetrics)


def aggregate(
    run_id: str, mode: str, phase: str, records: list[JobRecord], wall_time: float, network_read: int
) -> RunMetrics:
    """The run's metrics row; network_read is the run's own total, planning included."""
    total_events = sum(r.events for r in records)
    return RunMetrics(
        run_id=run_id,
        mode=mode,
        phase=phase,
        overall_time_s=wall_time,
        overall_rate_hz=overall_rate(total_events, wall_time),
        job_rate_hz=job_rate(records),
        job_loop_rate_hz=job_rate(records, use_loop_time=True),
        network_read_bytes=network_read,
        total_events=total_events,
        n_jobs=len(records),
        mem_peak_bytes=max((r.mem_peak for r in records), default=0),
    )


# --- CSV outputs ------------------------------------------------------------

# tasks.csv and jobs.csv: (column, JobRecord attribute), in column order
_RECORD_LAYOUT = (
    ("task_id", "task_id"),
    ("worker", "worker"),
    ("events", "events"),
    ("t_total_s", "t_total"),
    ("t_loop_s", "t_loop"),
    ("bytes_read", "bytes_read"),
    ("attempt", "attempt"),
    ("phase", "phase"),
    ("passes", "passes"),
)
RECORD_COLUMNS = [column for column, _ in _RECORD_LAYOUT]


def _record_row(r: JobRecord) -> dict:
    return {column: getattr(r, attr) for column, attr in _RECORD_LAYOUT}


def write_records_csv(path: str, records: list[JobRecord]) -> None:
    _write(path, RECORD_COLUMNS, [_record_row(r) for r in records])


def check_records_csv(path: str) -> bool:
    """Whether records file ``path`` is new (missing or empty); one headed otherwise is a MetricsError."""
    try:
        with open(path, newline="") as f:
            header = next(csv.reader(f), None)
    except FileNotFoundError:
        return True
    if header not in (None, RECORD_COLUMNS):
        raise MetricsError(f"{path}: header {','.join(header)} is not the record columns {','.join(RECORD_COLUMNS)}")
    return header is None


def append_records_csv(path: str, records: list[JobRecord]) -> None:
    """Append record rows under the file's header, writing it when the file is new."""
    with open(path, "a", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=RECORD_COLUMNS)
        if check_records_csv(path):  # open, so it exists: new means empty
            writer.writeheader()
        writer.writerows(_record_row(r) for r in records)


def write_metrics_csv(path: str, rows: list[RunMetrics]) -> None:
    _write(path, METRICS_COLUMNS, [asdict(row) for row in rows])


def read_metrics_csv(path: str) -> list[RunMetrics]:
    """The file's rows, each value typed as its RunMetrics field; a malformed
    file raises MetricsError naming it."""
    out = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        missing = set(METRICS_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise MetricsError(f"{path}: missing columns {sorted(missing)}")
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if None in row or None in row.values():
                raise MetricsError(f"{where}: field count differs from the header's {len(reader.fieldnames)}")
            try:
                out.append(RunMetrics(**{c: _METRICS_TYPES[c](row[c]) for c in METRICS_COLUMNS}))
            except (ValueError, MetricsError) as e:
                raise MetricsError(f"{where}: {e}") from None
    return out


def _write(path: str, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
