"""Event-loop execution: universe lists, the multi-pass plan, counters, snapshots.

The reference oracle here is a deliberately naive walk: for every universe
it rebuilds the row context from scratch and re-evaluates every expression
per event, with its own copy of the binning rule. The engine's memoized
overlay execution must agree with it bin for bin.
"""

import math
import os

import pytest

from colflow.bench import default_post_document
from colflow.colstore import open_dataset
from colflow.engine import (
    SINGLE_PASS,
    CompiledPipeline,
    EngineError,
    EntryRange,
    PartialResult,
    run_local,
    run_multi_pass,
    run_range,
)
from colflow.exprlang import ValueType
from colflow.graph import (
    DefineStage,
    FilterStage,
    HistoStage,
    PipelineError,
    SumStage,
    VaryStage,
    build,
    load_spec,
    schema_types,
)
from colflow.proto import pack_partial, unpack_partial
from colflow.wire import Reader
from conftest import STANDARD_SCHEMA, eval_row, vector_rows

RICH_DOC = {
    "dataset": ["unused.col"],
    "stages": [
        {"op": "vary", "column": "Jet_pt", "kind": "topology",
         "tags": ["jes_up", "jes_down"], "exprs": ["Jet_pt * 1.05", "Jet_pt * 0.95"]},
        {"op": "vary", "column": "MET_pt", "kind": "topology",
         "tags": ["met_up"], "exprs": ["MET_pt + 5.0"]},
        {"op": "vary", "column": "event_weight", "kind": "weight",
         "tags": ["w_up", "w_down"],
         "exprs": ["event_weight * 1.01", "event_weight * 0.99"]},
        {"op": "define", "name": "ht", "expr": "sum(Jet_pt)"},
        {"op": "define", "name": "lead_pt", "expr": "nJet > 0 ? Jet_pt[0] : 0.0"},
        {"op": "filter", "expr": "lead_pt > 20.0"},
        {"op": "histo1d", "name": "h_ht", "column": "ht", "weight": "event_weight",
         "nbins": 20, "xmin": 0.0, "xmax": 800.0},
        {"op": "histo1d", "name": "h_met", "column": "MET_pt", "weight": "event_weight",
         "nbins": 20, "xmin": 0.0, "xmax": 200.0},
        {"op": "filter", "expr": "MET_pt > 30.0"},
        {"op": "histo1d", "name": "h_lead", "column": "lead_pt", "weight": "event_weight",
         "nbins": 20, "xmin": 0.0, "xmax": 300.0},
        {"op": "histo1d", "name": "h_jets", "column": "Jet_pt",
         "nbins": 20, "xmin": 0.0, "xmax": 300.0},
        {"op": "sum", "name": "s_ht", "column": "ht"},
        {"op": "count", "name": "n_all"},
    ],
}


@pytest.fixture(scope="module")
def rich_file(tmp_path_factory):
    from colflow.colstore import write_dataset
    from conftest import STANDARD_SCHEMA, standard_columns

    path = tmp_path_factory.mktemp("engine") / "rich.col"
    write_dataset(str(path), STANDARD_SCHEMA, standard_columns(300, seed=7), cluster_size=64)
    return str(path)


@pytest.fixture(scope="module")
def rich_graph(rich_file):
    with open_dataset(rich_file) as h:
        schema = schema_types(h)
    return build(load_spec(RICH_DOC), schema)


def read_all_rows(path):
    rows = []
    with open_dataset(path) as h:
        names = list(h.schema)
        for batch in h.read_range(names, 0, h.total_entries):
            cols = {
                n: (vector_rows(d) if h.schema[n].is_vector else d.tolist())
                for n, d in batch.columns.items()
            }
            for j in range(batch.entry_count):
                rows.append({n: cols[n][j] for n in names})
    return rows


class NaiveHist:
    """Independent binning: same rule, separate code path."""

    def __init__(self, nbins, lo, hi):
        self.nbins, self.lo, self.hi = nbins, lo, hi
        self.sumw = [0.0] * (nbins + 2)
        self.sumw2 = [0.0] * (nbins + 2)
        self.entries = 0

    def fill(self, x, w=1.0):
        x = float(x)
        if math.isnan(x) or x < self.lo:
            idx = 0
        elif x >= self.hi:
            idx = self.nbins + 1
        else:
            b = int((x - self.lo) / (self.hi - self.lo) * self.nbins)
            if b >= self.nbins:
                b = self.nbins - 1
            idx = b + 1
        self.sumw[idx] += w
        self.sumw2[idx] += w * w
        self.entries += 1


def naive_run(rows, graph):
    """Full per-event, per-universe recompute with zero value sharing."""
    out = {}
    for u in graph.universes():
        vary_at = {}
        if u != "nominal":
            v = graph.variation(u)
            vary_at[v.stage_index] = (v.target, v.expr)
        results = {}
        for name, stage in graph.result_stages.items():
            if isinstance(stage, HistoStage):
                results[name] = NaiveHist(stage.nbins, stage.xmin, stage.xmax)
            elif isinstance(stage, SumStage):
                results[name] = [0.0]
            else:
                results[name] = [0.0]
        for row in rows:
            ctx = dict(row)
            for i, stage in enumerate(graph.stages):
                if i in vary_at:
                    target, expr = vary_at[i]
                    ctx[target] = eval_row(expr, graph.column_types, ctx)
                if isinstance(stage, VaryStage):
                    continue
                if isinstance(stage, DefineStage):
                    ctx[stage.name] = eval_row(stage.expr, graph.column_types, ctx)
                elif isinstance(stage, FilterStage):
                    if not eval_row(stage.expr, graph.column_types, ctx):
                        break
                elif isinstance(stage, HistoStage):
                    w = 1.0 if stage.weight is None else ctx[stage.weight]
                    value = ctx[stage.column]
                    if isinstance(value, list):
                        for x in value:
                            results[stage.name].fill(x, w)
                    else:
                        results[stage.name].fill(value, w)
                elif isinstance(stage, SumStage):
                    results[stage.name][0] += float(ctx[stage.column])
                else:  # count
                    results[stage.name][0] += 1.0
        out[u] = results
    return out


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestOracle:
    def test_every_universe_matches_naive_recompute(self, rich_file, rich_graph):
        partial = run_range(rich_graph, EntryRange(rich_file, 0, 300), SINGLE_PASS)
        rows = read_all_rows(rich_file)
        assert len(rows) == 300
        expected = naive_run(rows, rich_graph)

        assert set(partial.universes) == set(expected)
        for u, results in expected.items():
            got = partial.universes[u]
            for name, ref in results.items():
                mine = got[name]
                if isinstance(ref, NaiveHist):
                    assert mine.entries == ref.entries, (u, name)
                    for i in range(ref.nbins + 2):
                        assert close(mine.sumw[i], ref.sumw[i]), (u, name, i)
                        assert close(mine.sumw2[i], ref.sumw2[i]), (u, name, i)
                else:
                    assert close(mine.value, ref[0]), (u, name)

    def test_universes_actually_differ(self, rich_file, rich_graph):
        partial = run_range(rich_graph, EntryRange(rich_file, 0, 300), SINGLE_PASS)
        nom = partial.universes["nominal"]
        assert partial.universes["jes_up"]["h_ht"] != nom["h_ht"]
        assert partial.universes["w_up"]["h_ht"] != nom["h_ht"]
        assert partial.universes["met_up"]["h_met"] != nom["h_met"]
        # weight universes reweight but never move events between bins
        assert partial.universes["w_up"]["h_ht"].entries == nom["h_ht"].entries
        # count is unweighted, so weight universes agree with nominal
        assert partial.universes["w_up"]["n_all"].value == nom["n_all"].value


    def test_result_stage_before_its_vary_stage_reads_the_nominal_column(self, make_dataset):
        """The substitution applies from the vary stage on, never to earlier stages."""
        path = make_dataset(name="x.col", schema={"x": ValueType.F64}, columns={"x": [1.0, 2.0, 3.0, 4.0]})
        doc = {"dataset": [path], "stages": [
            {"op": "sum", "name": "s_before", "column": "x"},
            {"op": "histo1d", "name": "h_before", "column": "x", "nbins": 4, "xmin": 0.0, "xmax": 50.0},
            {"op": "vary", "column": "x", "kind": "topology", "tags": ["up"], "exprs": ["x * 10.0"]},
            {"op": "sum", "name": "s_after", "column": "x"},
        ]}
        graph = build(load_spec(doc), {"x": ValueType.F64})
        partial = run_range(graph, EntryRange(path, 0, 4), SINGLE_PASS)
        nom, up = partial.universes["nominal"], partial.universes["up"]
        assert (nom["s_before"].value, nom["s_after"].value) == (10.0, 10.0)
        assert (up["s_before"].value, up["s_after"].value) == (10.0, 100.0)
        assert up["h_before"] == nom["h_before"]
        expected = naive_run(read_all_rows(path), graph)
        assert expected["up"]["s_before"] == [10.0] and expected["up"]["s_after"] == [100.0]


    def test_a_finished_range_leaves_no_views_behind(self, rich_file, rich_graph):
        """Batch views form no reference cycle, so each batch's arrays go at once,
        not at the next garbage collection."""
        import gc

        from colflow import engine

        gc.collect()
        gc.disable()
        try:
            run_range(rich_graph, EntryRange(rich_file, 0, 300), SINGLE_PASS)
            alive = sum(isinstance(o, engine._Rows) for o in gc.get_objects())
        finally:
            gc.enable()
        assert alive == 0


def assert_matches_naive(partial, graph, rows):
    expected = naive_run(rows, graph)
    assert set(partial.universes) == set(expected)
    for u, results in expected.items():
        for name, ref in results.items():
            mine = partial.universes[u][name]
            if isinstance(ref, NaiveHist):
                assert mine.entries == ref.entries, (u, name)
                assert all(close(a, b) for a, b in zip(mine.sumw, ref.sumw)), (u, name)
                assert all(close(a, b) for a, b in zip(mine.sumw2, ref.sumw2)), (u, name)
            else:
                assert close(mine.value, ref[0]), (u, name)


RIDER_ROWS = {  # event 0 fails the cut; event 1 passes it with two jets
    "event_weight": [1.0, 0.5, 2.0, 1.5],
    "MET_pt": [10.0, 20.0, 30.0, 40.0],
    "nJet": [1, 2, 4, 5],
    "Jet_pt": [[10.0], [60.0, 10.0], [50.0, 40.0, 30.0, 20.0], [90.0, 80.0, 70.0, 60.0, 50.0]],
    "Jet_eta": [[0.0], [0.0, 0.0], [0.0] * 4, [0.0] * 5],
    "Jet_phi": [[0.0], [0.0, 0.0], [0.0] * 4, [0.0] * 5],
}


def rider_graph(path, weight_exprs):
    doc = {"dataset": [path], "stages": [
        {"op": "vary", "column": "event_weight", "kind": "weight",
         "tags": [f"w{k}" for k in range(len(weight_exprs))], "exprs": weight_exprs},
        {"op": "vary", "column": "MET_pt", "kind": "topology", "tags": ["met_up"], "exprs": ["MET_pt + 15.0"]},
        {"op": "define", "name": "lead_pt", "expr": "nJet > 0 ? Jet_pt[0] : 0.0"},
        {"op": "filter", "expr": "lead_pt > 25.0"},
        {"op": "histo1d", "name": "h_lead", "column": "lead_pt", "weight": "event_weight",
         "nbins": 10, "xmin": 0.0, "xmax": 100.0},
        {"op": "histo1d", "name": "h_met", "column": "MET_pt", "weight": "event_weight",
         "nbins": 10, "xmin": 0.0, "xmax": 100.0},
        {"op": "sum", "name": "s_met", "column": "MET_pt"},
        {"op": "count", "name": "n"},
    ]}
    return build(load_spec(doc), STANDARD_SCHEMA)


class TestRowSharing:
    """Universes that no filter or define reads ride on nominal's walk."""

    def test_post_document_rides_the_weight_and_met_universes(self):
        graph = build(load_spec(default_post_document(["x.col"])), STANDARD_SCHEMA)
        met = {"met_jes_up", "met_jes_down", "met_unclust_up", "met_unclust_down"}
        assert len(graph.weight_tags()) == 22
        assert CompiledPipeline(graph).row_sharing == set(graph.weight_tags()) | met

    def test_a_topology_vary_that_a_filter_reads_walks_alone(self, rich_graph):
        assert CompiledPipeline(rich_graph).row_sharing == {"w_up", "w_down"}  # a cut reads MET_pt

    def test_a_weight_vary_that_a_filter_reads_walks_alone(self, rich_file, rich_graph):
        stages = [dict(s) for s in RICH_DOC["stages"]]
        stages.insert(3, {"op": "filter", "expr": "event_weight > 0.98"})
        graph = build(load_spec({**RICH_DOC, "stages": stages}), rich_graph.base_schema)
        assert graph.weight_tags() == ["w_up", "w_down"]
        assert CompiledPipeline(graph).row_sharing == set()
        partial = run_range(graph, EntryRange(rich_file, 0, 300), SINGLE_PASS)
        nominal, up, down = (partial.universes[u]["n_all"].value for u in ("nominal", "w_up", "w_down"))
        assert down < nominal < up  # the weight moved events across the cut
        assert_matches_naive(partial, graph, read_all_rows(rich_file))

    def test_riders_match_the_naive_recompute(self, make_dataset):
        path = make_dataset(n=4, name="riders.col", columns=RIDER_ROWS)
        graph = rider_graph(path, ["event_weight * 2.0", "event_weight * nJet"])
        assert CompiledPipeline(graph).row_sharing == {"w0", "w1", "met_up"}
        partial = run_range(graph, EntryRange(path, 0, 4), SINGLE_PASS)
        assert partial.universes["met_up"]["h_met"] != partial.universes["nominal"]["h_met"]
        assert_matches_naive(partial, graph, read_all_rows(path))

    def test_a_failing_rider_reports_its_event(self, make_dataset):
        """The varied weight is computed on the rows that reach the histogram:
        event 0, which has one jet, never gets there."""
        path = make_dataset(n=4, name="riders.col", columns=RIDER_ROWS)
        graph = rider_graph(path, ["event_weight * 2.0", "event_weight * Jet_pt[3]"])
        for universes in (SINGLE_PASS, ["w1"], ["w1", "nominal"]):
            with pytest.raises(EngineError) as e:
                run_range(graph, EntryRange(path, 0, 4), universes)
            assert str(e.value) == f"event 1 in {path}: 1:22: index 3 out of range for length 2"

    def test_a_rider_with_a_non_finite_weight_names_the_histogram(self, make_dataset):
        path = make_dataset(n=4, name="riders.col", columns=RIDER_ROWS)
        graph = rider_graph(path, ["event_weight * 2.0", "event_weight / 0.0"])
        for universes in (SINGLE_PASS, ["w1"]):
            with pytest.raises(ValueError) as e:
                run_range(graph, EntryRange(path, 0, 4), universes)
            assert str(e.value) == "non-finite weight inf in histogram 'h_lead'"


class TestModes:
    def test_only_universe_equals_single_pass_slice(self, rich_file, rich_graph):
        full = run_range(rich_graph, EntryRange(rich_file, 0, 300), SINGLE_PASS)
        for u in rich_graph.universes():
            alone = run_range(rich_graph, EntryRange(rich_file, 0, 300), [u])
            assert alone.universes[u] == full.universes[u], u
            # other slots stay zeroed
            for other, results in alone.universes.items():
                if other != u:
                    assert all(
                        r.entries == 0 if hasattr(r, "entries") else r.value == 0.0
                        for r in results.values()
                    )

    def test_unknown_universe_rejected(self, rich_file, rich_graph):
        from colflow.graph import PipelineError

        with pytest.raises(PipelineError, match="unknown universe"):
            run_range(rich_graph, EntryRange(rich_file, 0, 10), ["bogus"])

    def test_duplicate_universe_rejected(self, rich_file, rich_graph):
        from colflow.graph import PipelineError

        tag = rich_graph.weight_tags()[0]
        for listed in (["nominal", "nominal"], ["nominal", tag, tag]):
            with pytest.raises(PipelineError, match=f"universe '{listed[-1]}' listed twice"):
                run_range(rich_graph, EntryRange(rich_file, 0, 10), listed)

    def test_nominal_weights_mode(self, rich_file, rich_graph):
        full = run_range(rich_graph, EntryRange(rich_file, 0, 300), SINGLE_PASS)
        nw = run_range(
            rich_graph, EntryRange(rich_file, 0, 300), ["nominal", *rich_graph.weight_tags()]
        )
        for u in ["nominal"] + rich_graph.weight_tags():
            assert nw.universes[u] == full.universes[u], u
        for u in rich_graph.topology_tags():
            assert nw.universes[u]["h_ht"].entries == 0

    def test_bytes_do_not_depend_on_universe_count(self, rich_file, rich_graph):
        full = run_range(rich_graph, EntryRange(rich_file, 0, 300), SINGLE_PASS)
        one = run_range(rich_graph, EntryRange(rich_file, 0, 300), ["nominal"])
        assert full.bytes_read == one.bytes_read
        assert full.chunk_bytes == one.chunk_bytes


class TestMultiPass:
    def test_one_read_per_pass_and_single_loop_results(self, rich_file, rich_graph):
        """The baseline's plan: nominal with the weight universes, then one
        traversal per topology tag. With small-integer weights every bin is
        a sum of integers, so each universe must equal the single loop's
        bit for bit."""
        stages = [dict(s) for s in RICH_DOC["stages"]]
        stages[2] = {"op": "vary", "column": "w", "kind": "weight",
                     "tags": ["w_up", "w_down"], "exprs": ["w * 2", "w * 3"]}
        stages.insert(2, {"op": "define", "name": "w", "expr": "nJet + 1"})
        for s in stages:
            if s.get("weight") == "event_weight":
                s["weight"] = "w"
        graph = build(load_spec({**RICH_DOC, "stages": stages}), rich_graph.base_schema)
        assert len(graph.topology_tags()) == 3 and len(graph.weight_tags()) == 2

        single = run_range(graph, EntryRange(rich_file, 0, 300), SINGLE_PASS)
        multi = run_multi_pass(graph, EntryRange(rich_file, 0, 300))
        assert multi.chunk_bytes == (1 + len(graph.topology_tags())) * single.chunk_bytes
        assert multi.events == single.events == 300
        assert multi.universes == single.universes  # Histo1D eq is bit-exact
        assert multi.universes["w_up"]["h_ht"] != multi.universes["nominal"]["h_ht"]


class TestCounters:
    def test_events_and_chunk_accounting(self, rich_file, rich_graph):
        partial = run_range(rich_graph, EntryRange(rich_file, 64, 200), SINGLE_PASS)
        assert partial.events == 136
        with open_dataset(rich_file) as h:
            needed = list(rich_graph.columns_needed)
            # range [64,200) touches clusters 1,2,3 of size 64
            touched = [c for c in h.clusters if c.entry_start + c.entry_count > 64 and c.entry_start < 200]
            col_idx = [i for i, name in enumerate(h.schema) if name in needed]
            expect_chunks = sum(c.chunks[i].length for c in touched for i in col_idx)
            metadata = h.account.bytes_read  # header + tail + footer body
        assert partial.chunk_bytes == expect_chunks
        assert partial.bytes_read == metadata + expect_chunks
        per_batch = [sum(c.chunks[i].length for i in col_idx) for c in touched]
        assert partial.mem_peak == max(per_batch)

    def test_t_loop_positive_and_below_wall(self, rich_file, rich_graph):
        import time

        t0 = time.perf_counter()
        partial = run_range(rich_graph, EntryRange(rich_file, 0, 300), SINGLE_PASS)
        wall = time.perf_counter() - t0
        assert 0.0 < partial.t_loop <= wall

    def test_bad_range_rejected(self, rich_file, rich_graph):
        with pytest.raises(EngineError, match="outside"):
            run_range(rich_graph, EntryRange(rich_file, 0, 301), SINGLE_PASS)
        with pytest.raises(EngineError, match="outside"):
            run_range(rich_graph, EntryRange(rich_file, 200, 100), SINGLE_PASS)

    def test_missing_column_rejected(self, rich_graph, make_dataset):

        path = make_dataset(
            n=10,
            name="narrow.col",
            schema={"MET_pt": ValueType.F64},
            columns={"MET_pt": [1.0] * 10},
        )
        with pytest.raises(EngineError, match="lacks required column"):
            run_range(rich_graph, EntryRange(path, 0, 10), SINGLE_PASS)


class TestSplitMerge:
    def test_split_ranges_merge_to_whole(self, rich_file, rich_graph):
        whole = run_range(rich_graph, EntryRange(rich_file, 0, 300), SINGLE_PASS)
        merged = PartialResult.empty(rich_graph)
        for begin, end in [(0, 77), (77, 143), (143, 300)]:
            merged.merge_in(run_range(rich_graph, EntryRange(rich_file, begin, end), SINGLE_PASS))
        assert merged.events == whole.events
        assert merged.bytes_read > whole.bytes_read  # metadata read 3x, chunks overlap
        for u in rich_graph.universes():
            for name in rich_graph.result_stages:
                a, b = merged.universes[u][name], whole.universes[u][name]
                if hasattr(a, "sumw"):
                    assert a.entries == b.entries
                    for i in range(len(a.sumw)):
                        assert close(a.sumw[i], b.sumw[i]), (u, name, i)
                else:
                    assert close(a.value, b.value)

    def test_merge_requires_same_universes(self, rich_graph, rich_file):
        other = build(
            load_spec({"dataset": ["x.col"], "stages": [{"op": "count", "name": "n"}]}),
            rich_graph.base_schema,
        )
        a = PartialResult.empty(rich_graph)
        with pytest.raises(EngineError, match="universe sets"):
            a.merge_in(PartialResult.empty(other))


class TestSerialization:
    def test_partial_result_round_trip(self, rich_file, rich_graph):
        partial = run_range(
            rich_graph, EntryRange(rich_file, 0, 300), SINGLE_PASS, range_id="7"
        )
        partial.snapshots.append("somewhere.part7.col")
        raw = pack_partial(partial)
        r = Reader(raw)
        back = unpack_partial(r)
        assert r.off == len(raw)
        assert back.events == partial.events
        assert back.t_loop == partial.t_loop
        assert back.bytes_read == partial.bytes_read
        assert back.chunk_bytes == partial.chunk_bytes
        assert back.mem_peak == partial.mem_peak
        assert back.snapshots == partial.snapshots
        assert back.universes == partial.universes  # Histo1D eq is bit-exact

    def test_empty_round_trip(self, rich_graph):
        empty = PartialResult.empty(rich_graph)
        back = unpack_partial(Reader(pack_partial(empty)))
        assert back == empty


class TestSnapshots:
    def make_snap_graph(self, out_prefix):
        doc = {
            "dataset": ["unused.col"],
            "stages": [
                {"op": "define", "name": "ht", "expr": "sum(Jet_pt)"},
                {"op": "filter", "expr": "MET_pt > 40.0"},
                {"op": "snapshot", "columns": ["MET_pt", "nJet", "ht", "Jet_pt"],
                 "out": out_prefix},
                {"op": "count", "name": "n_kept"},
            ],
        }
        return doc

    def test_snapshot_writes_filtered_rows(self, rich_file, tmp_path):
        prefix = str(tmp_path / "skim" / "out")
        os.makedirs(os.path.dirname(prefix), exist_ok=True)
        with open_dataset(rich_file) as h:
            schema = schema_types(h)
        graph = build(load_spec(self.make_snap_graph(prefix)), schema)

        partial = run_range(graph, EntryRange(rich_file, 0, 300), SINGLE_PASS, range_id="3")
        assert partial.snapshots == [f"{prefix}.part3.col"]

        rows = read_all_rows(rich_file)
        kept = [r for r in rows if r["MET_pt"] > 40.0]
        assert partial.universes["nominal"]["n_kept"].value == len(kept)

        out_rows = read_all_rows(partial.snapshots[0])
        assert len(out_rows) == len(kept)
        for got, want in zip(out_rows, kept):
            assert got["MET_pt"] == want["MET_pt"]
            assert got["nJet"] == want["nJet"]
            assert got["Jet_pt"] == want["Jet_pt"]
            assert close(got["ht"], sum(want["Jet_pt"]))

    def test_snapshot_empty_selection_still_writes_part(self, rich_file, tmp_path):
        prefix = str(tmp_path / "none")
        doc = self.make_snap_graph(prefix)
        doc["stages"][1]["expr"] = "MET_pt > 1.0e12"
        with open_dataset(rich_file) as h:
            schema = schema_types(h)
        graph = build(load_spec(doc), schema)
        partial = run_range(graph, EntryRange(rich_file, 0, 300), SINGLE_PASS, range_id="0")
        path = f"{prefix}.part0.col"
        assert partial.snapshots == [path]
        with open_dataset(path) as h:
            assert h.total_entries == 0
            assert list(h.schema) == ["MET_pt", "nJet", "ht", "Jet_pt"]

    def test_snapshot_skipped_when_nominal_not_run(self, rich_file, tmp_path):
        prefix = str(tmp_path / "never")
        doc = {
            "dataset": ["unused.col"],
            "stages": [
                {"op": "vary", "column": "MET_pt", "kind": "topology",
                 "tags": ["up"], "exprs": ["MET_pt + 5.0"]},
                {"op": "snapshot", "columns": ["MET_pt"], "out": prefix},
                {"op": "count", "name": "n"},
            ],
        }
        with open_dataset(rich_file) as h:
            schema = schema_types(h)
        graph = build(load_spec(doc), schema)
        partial = run_range(graph, EntryRange(rich_file, 0, 50), ["up"])
        assert partial.snapshots == []
        assert not os.path.exists(f"{prefix}.part0.col")


class TestEvalErrors:
    def test_eval_error_carries_event_index(self, make_dataset):

        path = make_dataset(
            n=5,
            name="gaps.col",
            schema={"v": ValueType.VEC_F64},
            columns={"v": [[1.0], [2.0], [], [4.0], [5.0]]},
        )
        doc = {
            "dataset": [path],
            "stages": [
                {"op": "define", "name": "m", "expr": "min(v)"},
                {"op": "histo1d", "name": "h", "column": "m",
                 "nbins": 4, "xmin": 0.0, "xmax": 8.0},
            ],
        }
        graph = build(load_spec(doc), {"v": ValueType.VEC_F64})
        with pytest.raises(EngineError, match="event 2"):
            run_range(graph, EntryRange(path, 0, 5), SINGLE_PASS)


    def test_i64_overflow_names_event_and_file(self, make_dataset):
        path = make_dataset(n=4, name="big.col", schema={"n": ValueType.I64},
                            columns={"n": [1, 2, 2**62, 3]})
        doc = {"dataset": [path], "stages": [
            {"op": "define", "name": "m", "expr": "n * 2"},
            {"op": "sum", "name": "s", "column": "m"},
        ]}
        graph = build(load_spec(doc), {"n": ValueType.I64})
        with pytest.raises(EngineError, match=r"^event 2 in .*big\.col: 1:3: I64 overflow in '\*'$"):
            run_range(graph, EntryRange(path, 0, 4), SINGLE_PASS)

    def test_integer_literal_outside_i64_fails_at_build(self):
        doc = {"dataset": ["x.col"], "stages": [
            {"op": "define", "name": "m", "expr": "n * 18446744073709551616"},
            {"op": "sum", "name": "s", "column": "m"},
        ]}
        with pytest.raises(PipelineError, match="outside I64"):
            build(load_spec(doc), {"n": ValueType.I64})


class TestRunLocal:
    def test_thread_and_factor_invariance_bit_exact(self, rich_file):
        # integer weights make merged float sums exactly reproducible
        doc = {
            "dataset": [rich_file],
            "stages": [
                {"op": "vary", "column": "Jet_pt", "kind": "topology",
                 "tags": ["up"], "exprs": ["Jet_pt * 1.05"]},
                {"op": "define", "name": "ht", "expr": "sum(Jet_pt)"},
                {"op": "define", "name": "one", "expr": "1"},
                {"op": "filter", "expr": "nJet >= 1"},
                {"op": "histo1d", "name": "h_ht", "column": "ht", "weight": "one",
                 "nbins": 25, "xmin": 0.0, "xmax": 900.0},
                {"op": "count", "name": "n"},
            ],
        }
        with open_dataset(rich_file) as h:
            schema = schema_types(h)
        graph = build(load_spec(doc), schema)

        reference = None
        for nworkers in (1, 8):
            for factor in (1, 3, 10):
                got = run_local(graph, [rich_file], nworkers, factor=factor)
                assert got.events == 300
                if reference is None:
                    reference = got
                else:
                    assert got.universes == reference.universes, (nworkers, factor)

    def test_run_local_merges_counters(self, rich_file, rich_graph):
        doc = dict(RICH_DOC, dataset=[rich_file])
        with open_dataset(rich_file) as h:
            schema = schema_types(h)
        graph = build(load_spec(doc), schema)
        single = run_local(graph, [rich_file], 1, factor=1)
        assert single.events == 300
        assert single.bytes_read > 0
        assert single.t_loop > 0.0


def x_files(make_dataset, b_type, z_types=(ValueType.I64, ValueType.I64)):
    """a.col holds x as I64 [7, 8, 9]; b.col holds x as b_type, plus an unused z each."""
    b_x = [7.5, 8.5, 9.5] if b_type is ValueType.F64 else [7, 8, 9]
    files = []
    for name, x_type, x, z_type in (("a.col", ValueType.I64, [7, 8, 9], z_types[0]),
                                    ("b.col", b_type, b_x, z_types[1])):
        z = [1.5, 2.5, 3.5] if z_type is ValueType.F64 else [1, 2, 3]
        files.append(make_dataset(name=name, schema={"x": x_type, "z": z_type},
                                  columns={"x": x, "z": z}))
    return files


def half_x_document(files):
    return {"dataset": files, "stages": [
        {"op": "define", "name": "y", "expr": "x / 2"},
        {"op": "sum", "name": "s", "column": "y"},
    ]}


class TestColumnTypes:
    def test_mixed_column_types_rejected(self, make_dataset):
        files = x_files(make_dataset, ValueType.F64)
        with open_dataset(files[0]) as h:
            graph = build(load_spec(half_x_document(files)), h.schema)
        # typed against a.col, b.col's floats would go through I64 floor division
        with pytest.raises(EngineError, match=r"b\.col holds column 'x' as F64, the graph reads it as I64"):
            run_local(graph, files)

    def test_unused_column_may_differ(self, make_dataset):
        files = x_files(make_dataset, ValueType.I64, (ValueType.I64, ValueType.F64))
        with open_dataset(files[0]) as h:
            graph = build(load_spec(half_x_document(files)), h.schema)
        assert graph.columns_needed == ("x",)
        assert run_local(graph, files).universes["nominal"]["s"].value == 2 * (3 + 4 + 4)
