"""Benchmark harness: scenario orchestration, closure, and comparisons."""

from __future__ import annotations

import os

import pytest

from colflow.bench import (
    SKIM_COLUMNS,
    BenchConfig,
    BenchError,
    BenchResult,
    ScenarioRun,
    _Harness,
    _served_uri,
    check_equivalence,
    default_post_document,
    default_pre_document,
    ensure_dataset,
    run_bench,
)
from colflow.cluster.client import ClusterError
from colflow.datagen import GenConfig
from colflow.graph import SnapshotStage, VariationKind, VaryStage, load_spec
from colflow.hist import ResultKind, ResultTable
from colflow.metrics import RunMetrics, read_metrics_csv


class TestDefaultDocuments:
    def test_post_document_shape(self):
        spec = load_spec(default_post_document(["f.col"]))
        vary = [s for s in spec.stages if isinstance(s, VaryStage)]
        tags = [t for s in vary for t in s.tags]
        topology = [
            t for s in vary if s.kind is VariationKind.TOPOLOGY for t in s.tags
        ]
        assert len(tags) == 30
        assert len(topology) == 8
        histos = [s for s in spec.stages if type(s).__name__ == "HistoStage"]
        assert len(histos) == 3

    def test_pre_document_snapshot_columns(self):
        spec = load_spec(default_pre_document(["f.col"], "out/skim"))
        snaps = [s for s in spec.stages if isinstance(s, SnapshotStage)]
        assert len(snaps) == 1
        assert tuple(snaps[0].columns) == SKIM_COLUMNS

    def test_post_document_reads_exactly_the_skim_columns(self):
        from colflow.exprlang import columns_used

        spec = load_spec(default_post_document(["f.col"]))
        used: set[str] = set()
        for stage in spec.stages:
            for attr in ("expr", "exprs"):
                item = getattr(stage, attr, None)
                if item is None:
                    continue
                for e in item if isinstance(item, tuple) else [item]:
                    used |= columns_used(e)
            for attr in ("column", "weight"):
                v = getattr(stage, attr, None)
                if v:
                    used.add(v)
        defined = {s.name for s in spec.stages if type(s).__name__ == "DefineStage"}
        assert used - defined == set(SKIM_COLUMNS)


class TestConfigValidation:
    def test_rejects_nonpositive_counts(self):
        with pytest.raises(BenchError):
            BenchConfig(out_dir="x", repeats=0)
        with pytest.raises(BenchError):
            BenchConfig(out_dir="x", workers=0)
        with pytest.raises(BenchError):
            BenchConfig(out_dir="x", payload_bytes=-1)

    def test_served_uri_guards_escapes(self, tmp_path):
        with pytest.raises(BenchError):
            _served_uri("/etc/passwd", str(tmp_path), "h:1")
        uri = _served_uri(str(tmp_path / "a" / "b.col"), str(tmp_path), "h:1")
        assert uri == "colsrv://h:1/a/b.col"


class TestEquivalenceChecker:
    def partial(self, v: float):
        from colflow.engine import PartialResult

        h = ResultTable("h", ResultKind.HISTO, 1, 2, 0.0, 2.0)
        h.fill([0], 0.5, [v])
        n = ResultTable("n", ResultKind.COUNT, 1)
        n.count(0, 3)
        return PartialResult(labels=["nominal"], tables={"h": h, "n": n})

    def test_equal_within_tolerance(self):
        check_equivalence(self.partial(1.0), self.partial(1.0 + 1e-12))

    def test_detects_bin_disagreement(self):
        with pytest.raises(BenchError, match="bin"):
            check_equivalence(self.partial(1.0), self.partial(1.001))

    def test_detects_universe_mismatch(self):
        a, b = self.partial(1.0), self.partial(1.0)
        b.labels.append("extra")
        with pytest.raises(BenchError, match="universe sets"):
            check_equivalence(a, b)

    def test_detects_count_mismatch(self):
        a, b = self.partial(1.0), self.partial(1.0)
        b.tables["n"].count(0, 1)
        with pytest.raises(BenchError, match="counts differ"):
            check_equivalence(a, b)


class TestClosureGuard:
    def test_record_rejects_unclosed_accounting(self, tmp_path):
        h = _Harness(BenchConfig(out_dir=str(tmp_path)))
        os.makedirs(h.records_dir, exist_ok=True)
        m = RunMetrics(
            run_id="x", mode="new", phase="pre", overall_time_s=1.0, overall_rate_hz=1.0, job_rate_hz=1.0,
            job_loop_rate_hz=1.0, network_read_bytes=100, total_events=1, n_jobs=1, mem_peak_bytes=0,
        )
        from colflow.engine import PartialResult

        run = ScenarioRun(m, (), PartialResult(), served_delta=99)
        with pytest.raises(BenchError, match="does not match the data server"):
            h.record(run)


@pytest.fixture(scope="module")
def bench_result(tmp_path_factory) -> BenchResult:
    out = str(tmp_path_factory.mktemp("bench"))
    config = BenchConfig(
        out_dir=out,
        dataset=GenConfig(n_files=3, events_per_file=4000, cluster_size=1000),
        workers=2,
        repeats=2,
        payload_bytes=50_000,
    )
    return run_bench(config)


class TestBenchRun:
    def test_outputs_exist(self, bench_result):
        out = bench_result.out_dir
        assert os.path.exists(bench_result.metrics_path)
        assert not os.path.exists(os.path.join(out, "mem.csv"))  # memory is a metrics column
        rows = read_metrics_csv(bench_result.metrics_path)
        assert rows == [r.metrics for r in bench_result.runs]
        assert len(rows) == 8 and all(r.mem_peak_bytes > 0 for r in rows)
        assert os.path.exists(os.path.join(out, "table.txt"))
        names = sorted(os.listdir(os.path.join(out, "records")))
        assert len(names) == 8  # 4 scenarios x 2 repeats

    def test_all_scenarios_summarized(self, bench_result):
        scenarios = bench_result.report.scenarios
        assert set(scenarios) == {
            ("legacy", "pre"),
            ("new", "pre"),
            ("legacy", "post"),
            ("new", "post"),
        }
        assert all(s.repeats == 2 for s in scenarios.values())

    def test_comparison_figures_present(self, bench_result):
        rep = bench_result.report
        assert rep.speedup is not None and rep.speedup > 0
        assert rep.time_reduction is not None and rep.time_reduction < 1.0
        assert set(rep.network_ratio) == {"pre", "post"}
        # eight extra loops on the same bytes: ratio near 1/9, plus metadata
        assert rep.network_ratio["post"] < 0.2

    def test_skim_keeps_about_five_percent(self, bench_result):
        runs = {r.metrics.run_id: r for r in bench_result.runs}
        post = runs["new-post-r0"]
        assert 0.03 <= post.partial.events / 12000 <= 0.07

    def test_pass_count_law_on_chunk_bytes(self, bench_result):
        runs = {r.metrics.run_id: r for r in bench_result.runs}
        legacy = runs["legacy-post-r0"].partial.chunk_bytes
        new = runs["new-post-r0"].partial.chunk_bytes
        assert new > 0
        assert legacy == 9 * new

    def test_repeats_are_deterministic(self, bench_result):
        runs = {r.metrics.run_id: r for r in bench_result.runs}
        check_equivalence(
            runs["new-post-r0"].partial, runs["new-post-r1"].partial, rtol=0.0
        )
        check_equivalence(
            runs["legacy-post-r0"].partial, runs["legacy-post-r1"].partial, rtol=0.0
        )

    def test_workflows_agree_per_universe(self, bench_result):
        runs = {r.metrics.run_id: r for r in bench_result.runs}
        check_equivalence(
            runs["legacy-post-r1"].partial, runs["new-post-r1"].partial, rtol=1e-9
        )
        check_equivalence(
            runs["legacy-pre-r1"].partial, runs["new-pre-r1"].partial, rtol=1e-9
        )

    def test_payload_shows_up_in_pre_delta(self, bench_result):
        runs = {r.metrics.run_id: r for r in bench_result.runs}
        delta = (
            runs["legacy-pre-r0"].metrics.network_read_bytes
            - runs["new-pre-r0"].metrics.network_read_bytes
        )
        expected = 3 * 50_000
        assert abs(delta - expected) <= 0.05 * expected

    def test_table_has_all_rows(self, bench_result):
        for label in ("Overall time", "Overall rate", "Job rate", "Job event-loop rate", "Network read"):
            assert label in bench_result.table
        assert "Speedup" in bench_result.table
        assert "not comparable" in bench_result.table

    def test_dataset_reused_not_regenerated(self, bench_result):
        config = BenchConfig(out_dir=bench_result.out_dir)
        data_dir = os.path.join(bench_result.out_dir, "data")
        manifest_path = os.path.join(data_dir, "manifest.json")
        before = os.path.getmtime(manifest_path)
        manifest = ensure_dataset(config, data_dir)
        assert os.path.getmtime(manifest_path) == before
        assert manifest["total_entries"] == 12000


class TestScenarioFailure:
    def test_partial_csv_retained_on_abort(self, bench_result, tmp_path, monkeypatch):
        import colflow.bench as bench_mod

        def boom(*args, **kwargs):
            raise ClusterError("injected failure")

        monkeypatch.setattr(bench_mod, "run_distributed", boom)
        out = str(tmp_path / "failing")
        config = BenchConfig(
            out_dir=out,
            data_dir=os.path.join(bench_result.out_dir, "data"),
            dataset=GenConfig(n_files=3, events_per_file=4000, cluster_size=1000),
            workers=2,
            repeats=1,
            payload_bytes=0,
        )
        with pytest.raises(ClusterError, match="injected"):
            run_bench(config)
        rows = read_metrics_csv(os.path.join(out, "metrics.csv"))
        assert [(r.mode, r.phase) for r in rows] == [("legacy", "pre")]
