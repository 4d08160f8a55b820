"""Traced replay: one workload's plan, run in this process, layer by layer.

The replay does what the facility does for one run, in task order and on
one thread, against the same data server: plan, build and compile the
graph, run every task through the engine, encode and decode each RESULT
frame, merge in task order (and, for the baseline, write the per-job
result files and merge them back). Spans are recorded from outside the
program: around the public calls the replay makes, and around the colstore
and engine entry points the engine calls (`open_dataset`, `write_dataset`,
`run_range`, `DatasetHandle.read_range`/`close`, `RemoteTransport.read`),
which are swapped for timing wrappers only while the traced replay runs.

A layer's self time is its spans' durations minus their children's. The
spans nest on one thread, so the self times of all spans add up to the
replay's wall time; the root's own share is the glue between calls
(`replay.unattributed_s`), which must stay under UNATTRIBUTED_MAX of the
wall time.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

from colflow import engine, proto
from colflow.cluster.planner import plan_partitions
from colflow.cluster.worker import write_result_file
from colflow.colstore import open_dataset, server_totals
from colflow.colstore.dataset import DatasetHandle, RemoteTransport
from colflow.engine import SINGLE_PASS, CompiledPipeline, EntryRange
from colflow.graph import build, load_spec, schema_types
from colflow.legacy import Phase, merge_outputs, plan_legacy_jobs

UNATTRIBUTED_MAX = 0.02

# span name -> layer; a fetch under colstore.open is the open's own I/O
LAYER_OF = {
    "replay": "replay.unattributed",
    "cluster.plan": "cluster.plan",
    "graph.build": "graph.build",
    "exprlang.compile": "exprlang.compile",
    "engine.run_range": "engine.compute",
    "engine.run_multi_pass": "engine.compute",
    "engine.merge": "engine.merge",
    "colstore.open": "colstore.open",
    "colstore.close": "colstore.open",
    "colstore.read": "colstore.decode",
    "colstore.fetch": "colstore.fetch",
    "colstore.write": "colstore.write",
    "proto.encode": "proto.encode",
    "proto.decode": "proto.decode",
    "legacy.result_write": "legacy.result_write",
    "legacy.merge": "legacy.merge",
}


class Tracer:
    """Spans kept in memory: name, start, end and the enclosing span."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[dict] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "parent": None if parent is None else parent["id"],
               "name": name, "t0": time.perf_counter(), "t1": 0.0}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def installed(self):
        """Swap the engine's colstore and engine entry points for timed ones."""
        tracer = self
        patches = []

        def patch(owner, attr, make):
            orig = getattr(owner, attr)
            patches.append((owner, attr, orig))
            setattr(owner, attr, make(orig))

        def timed(name):
            def make(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    with tracer.span(name):
                        return fn(*args, **kwargs)
                return wrapper
            return make

        def run_range(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with tracer.span("engine.run_range"):
                    partial = fn(*args, **kwargs)
                tracer.counts["event_visits"] += partial.events
                tracer.counts["chunk_bytes"] += partial.chunk_bytes
                return partial
            return wrapper

        def write_dataset(fn):
            @functools.wraps(fn)
            def wrapper(path, *args, **kwargs):
                with tracer.span("colstore.write"):
                    handle = fn(path, *args, **kwargs)
                tracer.counts["write_bytes"] += os.path.getsize(path)
                return handle
            return wrapper

        def read_range(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                batches = fn(*args, **kwargs)
                while True:
                    with tracer.span("colstore.read"):
                        batch = next(batches, None)
                    if batch is None:
                        return
                    yield batch
            return wrapper

        def fetch(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with tracer.span("colstore.fetch"):
                    data = fn(*args, **kwargs)
                tracer.counts["read_calls"] += 1
                tracer.counts["fetched_bytes"] += len(data)
                return data
            return wrapper

        patch(engine, "open_dataset", timed("colstore.open"))
        patch(engine, "write_dataset", write_dataset)
        patch(engine, "run_range", run_range)
        patch(DatasetHandle, "read_range", read_range)
        patch(DatasetHandle, "close", timed("colstore.close"))
        patch(RemoteTransport, "read", fetch)
        try:
            yield
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)


def _compile(tracer: Tracer, document: str, first_file: str):
    """What a worker does for its first task of a graph."""
    with tracer.span("graph.build"):
        with tracer.span("colstore.open"):
            handle = open_dataset(first_file)
        schema = schema_types(handle)
        handle.close()
        graph = build(load_spec(document), schema)
    with tracer.span("exprlang.compile"):
        compiled = CompiledPipeline(graph)
    return graph, compiled


def _deliver(tracer: Tracer, task_id: int, t_start: float, partial, merged):
    """RESULT frame out and back in, then the scheduler's ordered merge."""
    with tracer.span("proto.encode"):
        frame = proto.encode(proto.Result(task_id, time.perf_counter() - t_start, partial))
    with tracer.span("proto.decode"):
        msg = proto.decode(frame)
    tracer.counts["result_bytes"] += len(frame)
    with tracer.span("engine.merge"):
        if merged is None:
            return msg.partial
        merged.merge_in(msg.partial)
    return merged


def _replay_new(tracer: Tracer, document: str, nworkers: int, factor: int):
    files = load_spec(document).dataset
    with tracer.span("cluster.plan"):
        handles = []
        for uri in files:
            with tracer.span("colstore.open"):
                handles.append(open_dataset(uri))
        try:
            tasks = plan_partitions(handles, nworkers, factor)
        finally:
            for h in handles:
                h.close()
    graph, compiled = _compile(tracer, document, tasks[0].entry_range.file)
    merged = None
    for task in tasks:
        t_start = time.perf_counter()
        partial = engine.run_range(
            graph, task.entry_range, SINGLE_PASS, range_id=str(task.task_id), compiled=compiled
        )
        merged = _deliver(tracer, task.task_id, t_start, partial, merged)
    return merged


def _replay_legacy(tracer: Tracer, document: str, jobs_dir: str):
    files = load_spec(document).dataset
    with tracer.span("cluster.plan"):
        jobs = plan_legacy_jobs(document, files, Phase.POSTSELECTION)
        totals = []
        for uri in files:
            with tracer.span("colstore.open"):
                handle = open_dataset(uri)
            totals.append(handle.total_entries)
            handle.close()
    graph, compiled = _compile(tracer, document, files[0])
    os.makedirs(jobs_dir, exist_ok=True)
    paths = []
    merged = None
    for job, n in zip(jobs, totals):
        t_start = time.perf_counter()
        with tracer.span("engine.run_multi_pass"):
            partial = engine.run_multi_pass(
                graph, EntryRange(job.file, 0, n), range_id=str(job.job_id), compiled=compiled
            )
        paths.append(os.path.join(jobs_dir, f"job{job.job_id}.res"))
        with tracer.span("legacy.result_write"):
            write_result_file(paths[-1], graph.graph_id, partial)
        merged = _deliver(tracer, job.job_id, t_start, partial, merged)
    with tracer.span("legacy.merge"):
        merged, _ = merge_outputs(paths)
    return merged


def replay(tracer: Tracer, legacy: bool, document: str, nworkers: int, factor: int, jobs_dir: str):
    """Run one workload's plan; returns (merged PartialResult, wall seconds)."""
    t0 = time.perf_counter()
    with tracer.span("replay"):
        if legacy:
            merged = _replay_legacy(tracer, document, jobs_dir)
        else:
            merged = _replay_new(tracer, document, nworkers, factor)
    return merged, time.perf_counter() - t0


def _layer(span: dict, spans: list[dict]) -> str:
    if span["name"] == "colstore.fetch" and spans[span["parent"]]["name"] == "colstore.open":
        return "colstore.open"
    return LAYER_OF[span["name"]]


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per layer: each span's duration minus its children's."""
    children = Counter()
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += s["t1"] - s["t0"]
    out: Counter = Counter()
    for s in spans:
        out[_layer(s, spans)] += s["t1"] - s["t0"] - children[s["id"]]
    return dict(out)


def write_spans(path: str, spans: list[dict]) -> None:
    """One JSON object per line, times in seconds from the replay's start."""
    origin = spans[0]["t0"] if spans else 0.0
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps({
                "id": s["id"], "parent": s["parent"], "name": s["name"],
                "layer": _layer(s, spans),
                "start_s": s["t0"] - origin, "end_s": s["t1"] - origin,
            }) + "\n")


def traced_replay(legacy: bool, document: str, nworkers: int, factor: int,
                  data_address: str, out_dir: str):
    """Untraced run, then traced run; returns (merged result, report dict).

    The report holds each layer's self time and counts, both wall times,
    and the traced run's byte and call closure against the data server.
    """
    jobs_dir = os.path.join(out_dir, "jobs")
    # the first replay in a process runs slower (cold allocator and caches),
    # so one untimed replay goes first
    for _ in range(2):
        _, untraced_wall = replay(Tracer(False), legacy, document, nworkers, factor, jobs_dir)

    tracer = Tracer(True)
    served0, calls0 = server_totals(data_address)
    with tracer.installed():
        merged, wall = replay(tracer, legacy, document, nworkers, factor, jobs_dir)
    served1, calls1 = server_totals(data_address)

    write_spans(os.path.join(out_dir, "spans.jsonl"), tracer.spans)
    layers = layer_self_times(tracer.spans)
    report = {
        "wall_s": wall,
        "untraced_wall_s": untraced_wall,
        "layers_s": layers,
        "counts": dict(tracer.counts),
        "server_bytes": served1 - served0,
        "server_read_calls": calls1 - calls0,
    }
    with open(os.path.join(out_dir, "layers.json"), "w") as f:
        json.dump(report, f, indent=2)
    return merged, report
