"""Partition planning: split a dataset into entry-range tasks.

The planner targets factor x nworkers tasks, splitting each file's cluster
list into contiguous groups. Tasks never span files and never split a
cluster, so the target is soft in two directions: with fewer clusters than
target slots the plan degrades to one task per cluster, and with more
files than target slots every non-empty file still gets its own task
(coverage requires it, since a task reads exactly one file).
"""

from __future__ import annotations

from ..engine import EntryRange
from ..proto import Task


def plan_partitions(dataset: list, nworkers: int, factor: int = 3) -> list[Task]:
    """Partition open dataset handles into tasks, deterministically.

    Ranges across all tasks cover every (file, entry) pair exactly once,
    in file order then entry order. Group sizes within a file differ by at
    most one cluster.
    """
    if not dataset:
        raise ValueError("empty dataset")
    if nworkers < 1:
        raise ValueError("nworkers must be >= 1")
    if factor < 1:
        raise ValueError("factor must be >= 1")

    files = [(h, len(h.clusters)) for h in dataset if len(h.clusters) > 0]
    total_clusters = sum(c for _, c in files)
    target = factor * nworkers

    if total_clusters <= target:
        counts = [c for _, c in files]  # one task per cluster
    else:
        # proportional largest-remainder allocation, clamped to [1, clusters]
        quotas = [target * c / total_clusters for _, c in files]
        counts = [int(q) for q in quotas]
        deficit = target - sum(counts)
        by_remainder = sorted(
            range(len(files)), key=lambda i: (-(quotas[i] - counts[i]), i)
        )
        for i in by_remainder[:deficit]:
            counts[i] += 1
        counts = [min(max(n, 1), c) for n, (_, c) in zip(counts, files)]

    tasks: list[Task] = []
    for (handle, n_clusters), n_tasks in zip(files, counts):
        base, extra = divmod(n_clusters, n_tasks)
        start = 0
        for g in range(n_tasks):
            size = base + (1 if g < extra else 0)
            group = handle.clusters[start : start + size]
            begin = group[0].entry_start
            end = group[-1].entry_start + group[-1].entry_count
            tasks.append(Task(len(tasks), EntryRange(handle.uri, begin, end)))
            start += size
    return tasks
