"""Graph execution: the event loop over entry ranges.

One run_range call traverses one entry range of one file exactly once and
produces a PartialResult: one table per result stage, with a row per
universe. It evaluates the universes it is given, by name; SINGLE_PASS
(None) means nominal plus every variation universe, and the bytes read do
not depend on how many are listed. run_multi_pass is the baseline's pass
plan: one traversal for nominal plus the WEIGHT universes, then one per
TOPOLOGY universe.

Evaluation is by batch: one cluster's rows at a time, walked through the
stages in lanes. A row-sharing universe, one that affects only histogram,
sum and snapshot stages, keeps nominal's rows: it rides in nominal's lane,
which bins each shared column once for all its universes. Every other
universe walks a lane of its own. Each expression is evaluated once per
batch over the rows still live at its stage. Each batch computes a define
at most once for nominal; a variation universe recomputes only the varied
column and the stages after its vary stage that depend on it, and shares
everything else with nominal. Values are never mutated, so sharing is
safe. Fills and sums add in entry order, which makes merged results
reproducible bit for bit for integer weights.

t_loop covers the stretch from just before the first batch request to the
end of the last processed batch; opening the file, compiling the graph,
and flushing snapshot part files are excluded (they belong to the caller's
t_total).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .colstore import open_dataset, write_dataset
from .exprlang import EvalError, Jagged, compile_expr
from .graph import (
    ComputationGraph,
    CountStage,
    DefineStage,
    FilterStage,
    HistoStage,
    PipelineError,
    SnapshotStage,
    SumStage,
)
from .hist import ResultTable


class EngineError(Exception):
    """Task execution failure (eval error, bad range, broken input)."""


SINGLE_PASS = None  # run_range's universe list meaning "every universe"


@dataclass(frozen=True)
class EntryRange:
    file: str
    begin: int
    end: int


@dataclass
class PartialResult:
    """One table per result stage, a row per universe, plus the counters a task reports upstream."""

    events: int = 0
    t_loop: float = 0.0
    bytes_read: int = 0
    chunk_bytes: int = 0  # data volume only: sum of fetched chunk lengths
    mem_peak: int = 0  # largest single batch, in chunk bytes
    snapshots: list[str] = dataclass_field(default_factory=list)
    labels: list[str] = dataclass_field(default_factory=list)  # the universes, in row order
    tables: dict[str, ResultTable] = dataclass_field(default_factory=dict)

    @classmethod
    def empty(cls, graph: ComputationGraph) -> "PartialResult":
        labels = graph.universes()
        tables = {}
        for name, stage in graph.result_stages.items():
            axis = (stage.nbins, stage.xmin, stage.xmax) if isinstance(stage, HistoStage) else ()
            tables[name] = ResultTable(name, stage.table, len(labels), *axis)
        return cls(labels=labels, tables=tables)

    @property
    def universes(self) -> dict[str, dict]:
        """Universe -> result name -> that universe's Histo1D or ScalarAccumulator."""
        return {u: {name: t.row(i) for name, t in self.tables.items()} for i, u in enumerate(self.labels)}

    def shape(self) -> tuple:
        """The universes, then each table's axis by name: partials merge only if equal."""
        return self.labels, {name: t.axis for name, t in self.tables.items()}

    def merge_in(self, other: "PartialResult") -> None:
        """Ordered reduce: callers must merge partials in task order."""
        if self.shape() != other.shape():
            raise EngineError("cannot merge results with different universe sets or result tables")
        self.events += other.events
        self.t_loop += other.t_loop
        self.bytes_read += other.bytes_read
        self.chunk_bytes += other.chunk_bytes
        self.mem_peak = max(self.mem_peak, other.mem_peak)
        self.snapshots.extend(other.snapshots)
        for name, table in other.tables.items():
            self.tables[name].add(table)


def check_columns(graph: ComputationGraph, uri: str, schema: dict) -> None:
    """Every column the graph reads is in schema, with the graph's type."""
    for c in graph.columns_needed:
        if c not in schema:
            raise EngineError(f"{uri} lacks required column {c!r}")
        if schema[c] is not graph.base_schema[c]:
            want = graph.base_schema[c].name
            raise EngineError(f"{uri} holds column {c!r} as {schema[c].name}, the graph reads it as {want}")


# --- batch views --------------------------------------------------------------


class _Rows:
    """One batch's live rows in one universe, and the values computed for them.

    A name is computed on first use and kept. A filtered child slices what
    its parent already holds. A universe view computes its varied column
    and affected defines itself, and asks `nominal`, the nominal view of
    the same rows, for every other name, so it shares the nominal arrays.
    """

    def __init__(self, pipe, ids, held, up=None, nominal=None, tag=None):
        self.ids = ids
        self._pipe = pipe
        self._held = held
        self._up = up  # (parent's held values, parent's up, mask): holds no view, so views form no cycle
        self._nominal = nominal
        self._tag = tag
        self._variation = pipe.graph.variations.get(tag)  # None for nominal
        self._filtered: dict[int, _Rows] = {}

    def column(self, name: str):
        if self._variation is not None and name not in self._variation.own:
            return self._nominal.column(name)
        value = _lookup(self._held, self._up, name)
        if value is None:
            if self._variation is not None and name == self._variation.target:
                value = self._pipe.vary_fns[self._tag](self._nominal)
            else:
                value = self._pipe.define_fns[name](self)
            self._held[name] = value
        return value

    def where(self, mask, nominal=None) -> "_Rows":
        """The rows mask keeps; a universe view's nominal companion is sliced too,
        and the view shares its companion's entry numbers."""
        if nominal is None and self._nominal is not None:
            nominal = self._nominal.where(mask)
        ids = self.ids[mask] if nominal is None else nominal.ids
        return _Rows(self._pipe, ids, {}, (self._held, self._up, mask), nominal, self._tag)

    def filtered(self, i: int) -> "_Rows":
        """The rows that pass filter stage i, kept so that every universe reuses nominal's."""
        if i not in self._filtered:
            v = self._variation
            if v is None or i in v.affected:
                self._filtered[i] = self.where(self._pipe.filter_fns[i](self))
            else:  # the nominal rows' decision
                nominal = self._nominal.filtered(i)
                self._filtered[i] = self.where(nominal._up[2], nominal)
        return self._filtered[i]


def _lookup(held: dict, up, name: str):
    """name's value if a view or one of its parents holds it, sliced down to the view."""
    value = held.get(name)
    if value is None and up is not None:
        parent_held, parent_up, mask = up
        value = _lookup(parent_held, parent_up, name)
        if value is not None:
            value = held[name] = value[mask]
    return value


# --- compiled pipeline ----------------------------------------------------------


class CompiledPipeline:
    """Per-process compilation of a graph: one evaluator per define, filter and vary tag.

    Immutable and shareable across threads; a worker builds one per run
    and reuses it for every task of that run.
    """

    def __init__(self, graph: ComputationGraph):
        self.graph = graph
        types = graph.column_types  # complete: build rejects forward references
        self.define_fns: dict[str, object] = {}
        self.filter_fns: dict[int, object] = {}  # by stage index
        self.vary_fns = {tag: compile_expr(v.expr, types) for tag, v in graph.variations.items()}
        for i, stage in enumerate(graph.stages):
            if isinstance(stage, DefineStage):
                self.define_fns[stage.name] = compile_expr(stage.expr, types)
            elif isinstance(stage, FilterStage):
                self.filter_fns[i] = compile_expr(stage.expr, types)
        results = (HistoStage, SumStage, SnapshotStage)
        self.row_sharing = frozenset(  # no filter or define reads what these vary: they keep nominal's rows
            t for t, v in graph.variations.items() if all(isinstance(graph.stages[j], results) for j in v.affected)
        )


def _walk(compiled: CompiledPipeline, view: _Rows, members: list, tables: dict, snapshot: list):
    """Walk the stages over one batch's rows in one lane, filling each member's table row.

    members lists the lane's (universe, row) pairs. A universe that is not
    row-sharing walks alone: from its vary stage on, its view is the lane's.
    A row-sharing one rides on the lane's rows with a view of its own for
    the values it varies. Members that read the same x array share its bins.
    """
    variations = compiled.graph.variations
    views = [view] * len(members)  # where each member reads its values
    for i, stage in enumerate(compiled.graph.stages):
        for k, (u, _) in enumerate(members):
            if u in variations and i == variations[u].stage_index:
                views[k] = _Rows(compiled, view.ids, {}, nominal=view, tag=u)
                if u not in compiled.row_sharing:
                    view = views[k]
        if not len(view.ids):
            return
        if isinstance(stage, FilterStage):
            view = view.filtered(i)
            views = [v.filtered(i) for v in views]
        elif isinstance(stage, HistoStage):
            groups: dict[int, tuple] = {}
            for (_, row), v in zip(members, views):
                x = v.column(stage.column)
                _, rows, weights = groups.setdefault(id(x), (x, [], []))
                rows.append(row)
                weights.append(1.0 if stage.weight is None else v.column(stage.weight))
            for x, rows, weights in groups.values():
                tables[stage.name].fill(rows, x, weights)
        elif isinstance(stage, SumStage):
            for (_, row), v in zip(members, views):
                tables[stage.name].accumulate(row, v.column(stage.column))
        elif isinstance(stage, CountStage):
            for _, row in members:
                tables[stage.name].count(row, len(view.ids))
        elif isinstance(stage, SnapshotStage) and any(u == "nominal" for u, _ in members):
            snapshot.append([view.column(c) for c in stage.columns])


def run_range(
    graph: ComputationGraph,
    entry_range: EntryRange,
    universes: list[str] | None = SINGLE_PASS,
    *,
    range_id: str = "0",
    compiled: CompiledPipeline | None = None,
) -> PartialResult:
    """Evaluate the listed universes over one entry range in one data traversal."""
    if compiled is None:
        compiled = CompiledPipeline(graph)
    if universes is SINGLE_PASS:
        universes = graph.universes()
    for k, u in enumerate(universes):
        if u != "nominal":
            graph.variation(u)  # raises on unknown
        if u in universes[:k]:
            raise PipelineError(f"universe {u!r} listed twice")
    partial = PartialResult.empty(graph)
    members = [(u, partial.labels.index(u)) for u in universes]
    nominal_lane = [m for m in members if m[0] == "nominal" or m[0] in compiled.row_sharing]
    lanes = ([nominal_lane] if nominal_lane else []) + [[m] for m in members if m not in nominal_lane]

    handle = open_dataset(entry_range.file)
    try:
        if not 0 <= entry_range.begin <= entry_range.end <= handle.total_entries:
            raise EngineError(
                f"range [{entry_range.begin}, {entry_range.end}) outside "
                f"[0, {handle.total_entries}) in {entry_range.file}"
            )
        check_columns(graph, entry_range.file, handle.schema)

        snapshot: list[list] = []  # per batch, the snapshot columns' nominal values
        mem_peak = 0
        prev_chunk_bytes = 0
        batches = handle.read_range(graph.columns_needed, entry_range.begin, entry_range.end)

        t0 = time.perf_counter()
        for batch in batches:
            batch_bytes = handle.account.chunk_bytes - prev_chunk_bytes
            prev_chunk_bytes = handle.account.chunk_bytes
            mem_peak = max(mem_peak, batch_bytes)

            ids = np.arange(batch.entry_start, batch.entry_start + batch.entry_count)
            root = _Rows(compiled, ids, dict(batch.columns))
            try:
                for lane in lanes:
                    _walk(compiled, root, lane, partial.tables, snapshot)
            except EvalError as e:
                raise EngineError(f"event {e.entry} in {entry_range.file}: {e}") from None
        partial.t_loop = time.perf_counter() - t0

        if compiled.graph.snapshot is not None and "nominal" in universes:
            partial.snapshots.append(_write_snapshot(compiled, snapshot, range_id))
        partial.events = entry_range.end - entry_range.begin  # the batches cover the range
        partial.bytes_read = handle.account.bytes_read
        partial.chunk_bytes = handle.account.chunk_bytes
        partial.mem_peak = mem_peak
    finally:
        handle.close()
    return partial


def _write_snapshot(compiled: CompiledPipeline, batches: list[list], range_id: str) -> str:
    """One part file of the nominal rows that reached the snapshot, in entry order."""
    stage = compiled.graph.snapshot
    types = compiled.graph.column_types
    schema = {c: types[c] for c in stage.columns}
    columns: dict = {c: [] for c in schema}  # an empty part when no row reached the snapshot
    for k, c in enumerate(schema if batches else ()):
        parts = [b[k] for b in batches]
        if isinstance(parts[0], Jagged):
            columns[c] = Jagged(np.concatenate([p.lengths for p in parts]), np.concatenate([p.values for p in parts]))
        else:
            columns[c] = np.concatenate(parts)
    path = f"{stage.out}.part{range_id}.col"
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    write_dataset(path, schema, columns)
    return path


def pass_plan(graph: ComputationGraph) -> list[list[str]]:
    """The baseline's passes, each a list of universes: nominal with every WEIGHT
    universe (weight substitution costs no extra reads), then one per TOPOLOGY tag."""
    return [["nominal", *graph.weight_tags()], *([tag] for tag in graph.topology_tags())]


def run_multi_pass(
    graph: ComputationGraph,
    entry_range: EntryRange,
    *,
    range_id: str = "0",
    compiled: CompiledPipeline | None = None,
) -> PartialResult:
    """The baseline's sequential traversals, one per entry of pass_plan(graph).

    Each pass re-reads the range in full with a fresh handle. Events are
    counted once; time and byte counters accumulate across passes.
    """
    if compiled is None:
        compiled = CompiledPipeline(graph)
    first, *rest = pass_plan(graph)
    combined = run_range(graph, entry_range, first, range_id=range_id, compiled=compiled)
    for universes in rest:
        p = run_range(graph, entry_range, universes, range_id=range_id, compiled=compiled)
        p.events = 0  # every pass visits the same events
        combined.merge_in(p)
    return combined


def run_local(
    graph: ComputationGraph,
    dataset: list[str],
    nworkers: int = 1,
    *,
    factor: int = 3,
) -> PartialResult:
    """Run the whole dataset in the calling thread, task by task, as planned for nworkers."""
    from .cluster.planner import plan_partitions

    if nworkers < 1:
        raise ValueError("nworkers must be >= 1")
    if not dataset:
        return PartialResult.empty(graph)

    handles = []
    for u in dataset:
        with open_dataset(u) as h:  # planning reads only h.uri and h.clusters
            handles.append(h)
    compiled = CompiledPipeline(graph)
    merged = PartialResult.empty(graph)
    for t in plan_partitions(handles, nworkers, factor=factor):
        merged.merge_in(run_range(graph, t.entry_range, SINGLE_PASS, range_id=str(t.task_id), compiled=compiled))
    return merged
