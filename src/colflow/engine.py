"""Graph execution: the event loop over entry ranges.

One run_range call traverses one entry range of one file exactly once and
produces a PartialResult carrying every universe's result slots. Modes:

    SINGLE_PASS       evaluate nominal plus every variation universe in the
                      same traversal (bytes read do not depend on the
                      universe count)
    only_universe(u)  evaluate exactly one universe (baseline runs)
    NOMINAL_WEIGHTS   nominal plus all WEIGHT-kind universes in one
                      traversal (the baseline's first postselection pass)

Universe evaluation is memoized per event at node granularity: the nominal
row computes each define at most once, and a variation universe recomputes
only the stages downstream of its vary stage that transitively depend on
the varied column; everything else is shared with nominal. Row values are
never mutated, so sharing is safe. Reductions run in entry order, which
makes merged results reproducible bit for bit for integer weights.

t_loop covers the stretch from just before the first batch request to the
end of the last processed batch; opening the file, compiling the graph,
and flushing snapshot part files are excluded (they belong to the caller's
t_total).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field as dataclass_field

from .colstore import ColumnSchema, open_dataset, write_dataset
from .exprlang import EvalError, compile_expr
from .graph import (
    ComputationGraph,
    CountStage,
    DefineStage,
    FilterStage,
    HistoStage,
    PipelineError,
    SnapshotStage,
    SumStage,
    VaryStage,
    storable_dtype,
)
from .hist import AccumKind, Histo1D, ScalarAccumulator


class EngineError(Exception):
    """Task execution failure (eval error, bad range, broken input)."""


# --- execution modes ---------------------------------------------------------

MODE_SINGLE_PASS = 1
MODE_ONLY_UNIVERSE = 2
MODE_NOMINAL_WEIGHTS = 3
MODE_MULTI_PASS = 4  # executed above run_range: one pass per topology tag


@dataclass(frozen=True)
class Mode:
    kind: int
    universe: str = ""


SINGLE_PASS = Mode(MODE_SINGLE_PASS)
NOMINAL_WEIGHTS = Mode(MODE_NOMINAL_WEIGHTS)
MULTI_PASS = Mode(MODE_MULTI_PASS)


def only_universe(universe: str) -> Mode:
    return Mode(MODE_ONLY_UNIVERSE, universe)


@dataclass(frozen=True)
class EntryRange:
    file: str
    begin: int
    end: int


ResultMap = dict[str, Histo1D | ScalarAccumulator]


@dataclass
class PartialResult:
    """Per-universe results plus the counters a task reports upstream."""

    events: int = 0
    t_loop: float = 0.0
    bytes_read: int = 0
    chunk_bytes: int = 0  # data volume only: sum of fetched chunk lengths
    mem_peak: int = 0  # largest single batch, in chunk bytes
    snapshots: list[str] = dataclass_field(default_factory=list)
    universes: dict[str, ResultMap] = dataclass_field(default_factory=dict)

    @classmethod
    def empty(cls, graph: ComputationGraph) -> "PartialResult":
        out = cls()
        for u in graph.universes():
            out.universes[u] = _fresh_slots(graph)
        return out

    def merge_in(self, other: "PartialResult") -> None:
        """Ordered reduce: callers must merge partials in task order."""
        if set(self.universes) != set(other.universes):
            raise EngineError("cannot merge results with different universe sets")
        self.events += other.events
        self.t_loop += other.t_loop
        self.bytes_read += other.bytes_read
        self.chunk_bytes += other.chunk_bytes
        self.mem_peak = max(self.mem_peak, other.mem_peak)
        self.snapshots.extend(other.snapshots)
        for u, results in other.universes.items():
            mine = self.universes[u]
            for name, r in results.items():
                mine[name].add(r)


def _fresh_slots(graph: ComputationGraph) -> ResultMap:
    slots: ResultMap = {}
    for name, stage in graph.result_stages.items():
        if isinstance(stage, HistoStage):
            slots[name] = Histo1D(name, stage.nbins, stage.xmin, stage.xmax)
        elif isinstance(stage, SumStage):
            slots[name] = ScalarAccumulator(AccumKind.SUM)
        else:
            slots[name] = ScalarAccumulator(AccumKind.COUNT)
    return slots


# --- row contexts -------------------------------------------------------------


class _NominalRow(dict):
    """Base columns plus lazily computed defines, cached per event."""

    __slots__ = ("_defs",)

    def __init__(self, base: dict, defs: dict):
        super().__init__(base)
        self._defs = defs

    def __missing__(self, name):
        value = self._defs[name](self)
        self[name] = value
        return value


class _UniverseRow(dict):
    """Overlay for one variation universe.

    The varied column and the defines downstream of the vary stage are
    computed here; every other name falls through to the shared nominal
    row. The vary expression sees the nominal context, matching its
    declared position in the stage list.
    """

    __slots__ = ("_nom", "_defs", "_affected", "_target", "_vary_fn")

    def __init__(self, nominal: _NominalRow, defs: dict, affected: frozenset, target: str, vary_fn):
        super().__init__()
        self._nom = nominal
        self._defs = defs
        self._affected = affected
        self._target = target
        self._vary_fn = vary_fn

    def __missing__(self, name):
        if name == self._target:
            value = self._vary_fn(self._nom)
        elif name in self._affected:
            value = self._defs[name](self)
        else:
            value = self._nom[name]
        self[name] = value
        return value


# --- compiled pipeline ----------------------------------------------------------

_OP_FILTER = 0
_OP_HIST_SCALAR = 1
_OP_HIST_VECTOR = 2
_OP_SUM = 3
_OP_COUNT = 4
_OP_SNAPSHOT = 5


class CompiledPipeline:
    """Per-process compilation of a graph: closures plus universe overlays.

    Immutable and shareable across threads; a worker caches one per
    graph_id and reuses it for every task.
    """

    def __init__(self, graph: ComputationGraph):
        self.graph = graph
        working = dict(graph.base_schema)
        self.define_fns: dict[str, object] = {}
        self.filter_fns: list = []  # by filter ordinal
        self.vary_fns: dict[str, object] = {}  # tag -> compiled expr
        steps: list[tuple] = []  # (stage_idx, op, *payload)

        for i, stage in enumerate(graph.stages):
            if isinstance(stage, DefineStage):
                fn = compile_expr(stage.expr, working)
                working[stage.name] = fn.type
                self.define_fns[stage.name] = fn
            elif isinstance(stage, FilterStage):
                ordinal = len(self.filter_fns)
                self.filter_fns.append(compile_expr(stage.expr, working))
                steps.append((i, _OP_FILTER, ordinal))
            elif isinstance(stage, VaryStage):
                for tag, expr in zip(stage.tags, stage.exprs):
                    self.vary_fns[tag] = compile_expr(expr, working)
            elif isinstance(stage, HistoStage):
                vec = working[stage.column].is_vector
                op = _OP_HIST_VECTOR if vec else _OP_HIST_SCALAR
                steps.append((i, op, stage.name, stage.column, stage.weight))
            elif isinstance(stage, SumStage):
                steps.append((i, _OP_SUM, stage.name, stage.column))
            elif isinstance(stage, CountStage):
                steps.append((i, _OP_COUNT, stage.name))
            elif isinstance(stage, SnapshotStage):
                steps.append((i, _OP_SNAPSHOT))
        self.steps = tuple(steps)
        self.snapshot_stage = graph.snapshot

        # per-universe overlay descriptors
        self.overlays: dict[str, tuple[str, object, frozenset, frozenset]] = {}
        for tag in graph.universes():
            if tag == "nominal":
                continue
            vs, _ = graph.variation_of(tag)
            affected = graph.affected_nodes(tag)
            affected_defines = frozenset(
                graph.stages[i].name for i in affected if isinstance(graph.stages[i], DefineStage)
            )
            affected_stages = affected
            self.overlays[tag] = (vs.target, self.vary_fns[tag], affected_defines, affected_stages)


def _resolve_universes(graph: ComputationGraph, mode: Mode) -> list[str]:
    if mode.kind == MODE_SINGLE_PASS:
        return graph.universes()
    if mode.kind == MODE_ONLY_UNIVERSE:
        if mode.universe != "nominal":
            graph.variation_of(mode.universe)  # raises on unknown
        return [mode.universe]
    if mode.kind == MODE_NOMINAL_WEIGHTS:
        return ["nominal"] + graph.weight_tags()
    raise EngineError(f"mode kind {mode.kind} is not a single-traversal mode")


def run_range(
    graph: ComputationGraph,
    entry_range: EntryRange,
    mode: Mode = SINGLE_PASS,
    *,
    range_id: str = "0",
    compiled: CompiledPipeline | None = None,
) -> PartialResult:
    """Execute the graph over one entry range in a single data traversal."""
    if compiled is None:
        compiled = CompiledPipeline(graph)
    universes = _resolve_universes(graph, mode)
    partial = PartialResult.empty(graph)

    handle = open_dataset(entry_range.file)
    try:
        if not 0 <= entry_range.begin <= entry_range.end <= handle.total_entries:
            raise EngineError(
                f"range [{entry_range.begin}, {entry_range.end}) outside "
                f"[0, {handle.total_entries}) in {entry_range.file}"
            )
        columns = [c for c in graph.columns_needed]
        file_types = handle.schema_types()
        for c in columns:
            if c not in file_types:
                raise EngineError(f"{entry_range.file} lacks required column {c!r}")

        defs = compiled.define_fns
        filter_fns = compiled.filter_fns
        snapshot = compiled.snapshot_stage if "nominal" in universes else None
        snap_buffers: dict[str, list] | None = (
            {c: [] for c in snapshot.columns} if snapshot is not None else None
        )

        # bind result slots into flat per-universe step lists
        plans = []
        for u in universes:
            results = partial.universes[u]
            overlay = None if u == "nominal" else compiled.overlays[u]
            bound: list[tuple] = []
            for step in compiled.steps:
                stage_idx, op = step[0], step[1]
                if op == _OP_FILTER:
                    ordinal = step[2]
                    affected = overlay is not None and stage_idx in overlay[3]
                    bound.append((_OP_FILTER, ordinal, affected))
                elif op in (_OP_HIST_SCALAR, _OP_HIST_VECTOR):
                    _, _, name, column, weight = step
                    bound.append((op, results[name], column, weight))
                elif op == _OP_SUM:
                    bound.append((_OP_SUM, results[step[2]], step[3]))
                elif op == _OP_COUNT:
                    bound.append((_OP_COUNT, results[step[2]]))
                elif op == _OP_SNAPSHOT:
                    if u == "nominal" and snap_buffers is not None:
                        bound.append((_OP_SNAPSHOT,))
            plans.append((u, overlay, bound))

        mem_peak = 0
        events = 0
        prev_chunk_bytes = 0
        batches = handle.read_range(columns, entry_range.begin, entry_range.end)

        t0 = time.perf_counter()
        for batch in batches:
            buffers = {}
            for name, data in batch.columns.items():
                buffers[name] = data.tolists() if file_types[name].is_vector else data.tolist()
            batch_bytes = handle.account.chunk_bytes - prev_chunk_bytes
            prev_chunk_bytes = handle.account.chunk_bytes
            mem_peak = max(mem_peak, batch_bytes)

            names = list(buffers)
            cols = [buffers[n] for n in names]
            for j in range(batch.entry_count):
                events += 1
                base = {name: col[j] for name, col in zip(names, cols)}
                nom_row = _NominalRow(base, defs)
                filter_cache: list = [None] * len(filter_fns)
                try:
                    for u, overlay, bound in plans:
                        if overlay is None:
                            row = nom_row
                        else:
                            row = _UniverseRow(nom_row, defs, overlay[2], overlay[0], overlay[1])
                        for step in bound:
                            op = step[0]
                            if op == _OP_FILTER:
                                _, ordinal, affected = step
                                if affected:
                                    passed = filter_fns[ordinal](row)
                                else:
                                    passed = filter_cache[ordinal]
                                    if passed is None:
                                        passed = filter_fns[ordinal](nom_row)
                                        filter_cache[ordinal] = passed
                                if not passed:
                                    break
                            elif op == _OP_HIST_SCALAR:
                                _, h, column, weight = step
                                h.fill(row[column], 1.0 if weight is None else row[weight])
                            elif op == _OP_HIST_VECTOR:
                                _, h, column, weight = step
                                w = 1.0 if weight is None else row[weight]
                                for x in row[column]:
                                    h.fill(x, w)
                            elif op == _OP_SUM:
                                step[1].accumulate(row[step[2]])
                            elif op == _OP_COUNT:
                                step[1].count()
                            else:  # snapshot, nominal only
                                for c, buf in snap_buffers.items():
                                    buf.append(row[c])
                except EvalError as e:
                    raise EngineError(
                        f"event {batch.entry_start + j} in {entry_range.file}: {e}"
                    ) from None
        partial.t_loop = time.perf_counter() - t0

        if snap_buffers is not None:
            partial.snapshots.append(
                _write_snapshot(compiled, snapshot, snap_buffers, range_id)
            )
        partial.events = events
        partial.bytes_read = handle.account.bytes_read
        partial.chunk_bytes = handle.account.chunk_bytes
        partial.mem_peak = mem_peak
    finally:
        handle.close()
    return partial


def _write_snapshot(
    compiled: CompiledPipeline,
    stage: SnapshotStage,
    buffers: dict[str, list],
    range_id: str,
) -> str:
    types = dict(compiled.graph.base_schema)
    types.update(compiled.graph.defines)
    schema = [ColumnSchema(c, storable_dtype(types[c])) for c in stage.columns]
    path = f"{stage.out}.part{range_id}.col"
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    write_dataset(path, schema, buffers).close()
    return path


def run_multi_pass(
    graph: ComputationGraph,
    entry_range: EntryRange,
    *,
    range_id: str = "0",
    compiled: CompiledPipeline | None = None,
) -> PartialResult:
    """The baseline's sequential traversals: 1 + one per topology tag.

    The first pass covers nominal and all WEIGHT universes (weight
    substitution costs no extra reads); each TOPOLOGY universe then re-reads
    the range in full with a fresh handle. Events are counted once; time and
    byte counters accumulate across passes.
    """
    if compiled is None:
        compiled = CompiledPipeline(graph)
    modes = [NOMINAL_WEIGHTS] + [only_universe(t) for t in graph.topology_tags()]
    combined: PartialResult | None = None
    for mode in modes:
        p = run_range(graph, entry_range, mode, range_id=range_id, compiled=compiled)
        if combined is None:
            combined = p
            continue
        combined.t_loop += p.t_loop
        combined.bytes_read += p.bytes_read
        combined.chunk_bytes += p.chunk_bytes
        combined.mem_peak = max(combined.mem_peak, p.mem_peak)
        combined.snapshots.extend(p.snapshots)
        for u, results in p.universes.items():
            mine = combined.universes[u]
            for name, r in results.items():
                mine[name].add(r)
    assert combined is not None
    return combined


def run_local(
    graph: ComputationGraph,
    dataset: list[str],
    nthreads: int = 1,
    *,
    factor: int = 3,
) -> PartialResult:
    """Run the whole dataset on a local thread pool and merge in task order."""
    from concurrent.futures import ThreadPoolExecutor

    from .cluster.planner import plan_partitions

    if nthreads < 1:
        raise ValueError("nthreads must be >= 1")
    if not dataset:
        return PartialResult.empty(graph)

    handles = [open_dataset(u) for u in dataset]
    try:
        tasks = plan_partitions(handles, nthreads, factor=factor)
    finally:
        for h in handles:
            h.close()

    compiled = CompiledPipeline(graph)
    merged = PartialResult.empty(graph)
    with ThreadPoolExecutor(max_workers=nthreads) as pool:
        futures = [
            pool.submit(
                run_range,
                graph,
                t.entry_range,
                SINGLE_PASS,
                range_id=str(t.task_id),
                compiled=compiled,
            )
            for t in tasks
        ]
        for f in futures:  # task order, not completion order
            merged.merge_in(f.result())
    return merged
