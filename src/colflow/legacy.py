"""Per-file batch baseline: skim jobs, multi-pass jobs, local merge.

The measurement baseline the distributed mode is compared against. Every
input file becomes one batch job, executed on the same cluster workers the
distributed mode uses, with no retries: a failed job fails the run.

Preselection jobs download a payload blob first (the job sandbox, counted
into bytes_read), run their variation-free pipeline once over the whole
file and write a skim. Postselection jobs run the engine's multi-pass
plan: once for nominal plus once per topology variation; weight
variations ride the nominal pass. Each postselection job writes a result
file; a final local merge folds these together in file order and its
duration is reported separately, since the distributed mode has no such
step.

Jobs are throttled client-side in waves of ``parallel_jobs``, mimicking a
fixed-size batch queue. Job ids are global across waves, so skim part
names never collide.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from enum import Enum

from .cluster.client import ClusterError, RunResult, submit_run
from .cluster.worker import read_result_file
from .colstore import open_dataset
from .engine import EntryRange, PartialResult
from .graph import SnapshotStage, VaryStage, load_spec
from .proto import Task


class LegacyError(Exception):
    """Bad job plan, failed job, or mismatched job outputs."""


class Phase(Enum):
    PRESELECTION = "pre"
    POSTSELECTION = "post"


@dataclass(frozen=True)
class LegacyJobSpec:
    """One batch job: a whole input file."""

    job_id: int
    file: str
    phase: Phase


def plan_legacy_jobs(document: str, files: list[str], phase: Phase) -> list[LegacyJobSpec]:
    """One job per file.

    A preselection document must snapshot and may not vary: its jobs are
    single loops, which evaluate every universe the document declares.
    """
    if not files:
        raise LegacyError("no input files")
    spec = load_spec(document)
    if phase is Phase.PRESELECTION:
        if not any(isinstance(s, SnapshotStage) for s in spec.stages):
            raise LegacyError("preselection pipeline must contain a snapshot stage")
        if any(isinstance(s, VaryStage) for s in spec.stages):
            raise LegacyError("preselection pipeline must not contain vary stages")
    return [LegacyJobSpec(i, f, phase) for i, f in enumerate(files)]


def _size_inputs(files: list[str]) -> tuple[list[int], int]:
    """Entry totals per file, and the metadata bytes spent finding out."""
    totals, meta = [], 0
    for uri in files:
        try:
            with open_dataset(uri) as h:
                totals.append(h.total_entries)
                meta += h.account.bytes_read
        except Exception as e:
            raise LegacyError(f"cannot open input {uri}: {e}") from e
    return totals, meta


def _run_jobs(
    document: str,
    tasks: list[Task],
    scheduler_address: str,
    parallel_jobs: int,
    timeout: float,
    phase: Phase,
    planning_bytes: int,
) -> RunResult:
    """Submit the jobs in waves and fold the waves into one run outcome."""
    if parallel_jobs < 1:
        raise LegacyError("parallel_jobs must be >= 1")
    result: RunResult | None = None
    t0 = time.perf_counter()
    for start in range(0, len(tasks), parallel_jobs):
        wave = tuple(tasks[start : start + parallel_jobs])
        try:
            done = submit_run(
                scheduler_address, document, max_retries=0, tasks=wave, timeout=timeout
            )
        except ClusterError as e:
            raise LegacyError(f"{phase.value} job failed: {e}") from e
        planning_bytes += done.planning_bytes  # the scheduler types each wave
        if result is None:
            result = done
        else:
            result.records += done.records
            result.partial.merge_in(done.partial)
    assert result is not None
    result.wall_time = time.perf_counter() - t0
    result.records = tuple(replace(r, phase=phase.value) for r in result.records)
    result.planning_bytes = planning_bytes
    return result


def run_legacy_preselection(
    document: str,
    files: list[str],
    *,
    scheduler_address: str,
    payload_bytes: int = 0,
    payload_uri: str = "",
    parallel_jobs: int = 4,
    timeout: float = 600.0,
) -> tuple[list[str], RunResult]:
    """Skim every file through its own single-loop job.

    Every job first downloads ``payload_bytes`` from ``payload_uri``: the
    sandbox is a setting of the whole run, and a preselection cost only.
    Returns the skim files (one per job, in job order) and the run outcome.
    """
    if payload_bytes < 0:
        raise LegacyError("payload_bytes must be >= 0")
    if payload_bytes > 0 and not payload_uri:
        raise LegacyError("payload_bytes set but no payload_uri to fetch from")
    jobs = plan_legacy_jobs(document, files, Phase.PRESELECTION)
    totals, meta = _size_inputs(files)
    tasks = [
        Task(
            j.job_id,
            EntryRange(j.file, 0, n),
            payload_uri=payload_uri if payload_bytes else "",
            payload_bytes=payload_bytes,
        )
        for j, n in zip(jobs, totals)
    ]
    result = _run_jobs(
        document, tasks, scheduler_address, parallel_jobs, timeout, Phase.PRESELECTION, meta
    )
    skims = list(result.partial.snapshots)
    if len(skims) != len(files):
        raise LegacyError(f"expected one skim per job, got {len(skims)} for {len(files)} jobs")
    return skims, result


def run_legacy_postselection(
    document: str,
    skim_files: list[str],
    *,
    scheduler_address: str,
    out_dir: str,
    parallel_jobs: int = 4,
    timeout: float = 600.0,
) -> tuple[list[str], RunResult]:
    """Multi-pass histogramming jobs over the skims, then a local merge.

    Returns the per-job result files (in job order) and the run outcome,
    whose merged results come from those files, not from the wire.
    """
    jobs = plan_legacy_jobs(document, skim_files, Phase.POSTSELECTION)
    totals, meta = _size_inputs(skim_files)
    os.makedirs(out_dir, exist_ok=True)
    result_files = [os.path.join(out_dir, f"job{j.job_id}.res") for j in jobs]
    tasks = [
        Task(j.job_id, EntryRange(j.file, 0, n), multi_pass=True, result_file=rf)
        for j, n, rf in zip(jobs, totals, result_files)
    ]
    result = _run_jobs(
        document, tasks, scheduler_address, parallel_jobs, timeout, Phase.POSTSELECTION, meta
    )
    result.partial, result.merge_duration = merge_outputs(result_files)
    return result_files, result


def merge_outputs(result_files: list[str]) -> tuple[PartialResult, float]:
    """Fold per-job result files in the given order; timed.

    All files must carry the same graph identity. Returns the merged
    result and the merge duration in seconds.
    """
    if not result_files:
        raise LegacyError("nothing to merge")
    t0 = time.perf_counter()
    merged: PartialResult | None = None
    want: str | None = None
    for path in result_files:
        graph_id, partial = read_result_file(path)
        if want is None:
            want, merged = graph_id, partial
        elif graph_id != want:
            raise LegacyError(
                f"result file {path} belongs to a different pipeline ({graph_id} != {want})"
            )
        else:
            merged.merge_in(partial)
    return merged, time.perf_counter() - t0
