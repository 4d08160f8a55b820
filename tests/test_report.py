"""Comparison-report math and rendering."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from colflow.metrics import (
    JobRecord,
    RunMetrics,
    append_records_csv,
    metrics_row,
    read_metrics_csv,
    write_metrics_csv,
)
from colflow.report import (
    BenchReport,
    Estimate,
    ReportError,
    render,
    summarize,
)


def run_row(
    mode, phase, time_s, *, rate=1000.0, net=10_000, events=100, jobs=4, run_id="r", mem=0
):
    m = RunMetrics(
        overall_time=time_s,
        overall_rate=events / time_s,
        job_rate=rate,
        job_loop_rate=rate * 1.5,
        network_read=net,
        total_events=events,
        n_jobs=jobs,
        mem_peak=mem,
    )
    return metrics_row(run_id, mode, phase, m)


class TestEstimate:
    def test_single_value_has_zero_error(self):
        e = Estimate.of([7.5])
        assert e.mean == 7.5
        assert e.err == 0.0

    def test_max_semi_dispersion(self):
        e = Estimate.of([1.0, 2.0, 4.0])
        assert e.mean == pytest.approx(7.0 / 3.0)
        assert e.err == 1.5  # (4 - 1) / 2

    def test_empty_rejected(self):
        with pytest.raises(ReportError):
            Estimate.of([])

    @given(st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=20))
    def test_mean_bracketed_and_error_bounded(self, values):
        e = Estimate.of(values)
        assert min(values) <= e.mean <= max(values)
        assert 0.0 <= e.err <= (max(values) - min(values))


class TestSummarize:
    def test_groups_repeats(self):
        rows = [run_row("new", "post", t) for t in (10.0, 11.0, 12.0)]
        rep = summarize(rows)
        s = rep.scenarios[("new", "post")]
        assert s.repeats == 3
        assert s.overall_time.mean == pytest.approx(11.0)
        assert s.overall_time.err == pytest.approx(1.0)

    def test_single_mode_has_no_comparison(self):
        rep = summarize([run_row("new", "post", 10.0)])
        assert rep.speedup is None
        assert rep.time_reduction is None
        assert rep.legacy_time is None
        assert rep.new_time == pytest.approx(10.0)

    def test_published_totals_reproduce_headline_ratios(self):
        # feeding the two totals directly: 210.88 vs 33.7 time units
        rows = [run_row("legacy", "total", 210.88), run_row("new", "total", 33.7)]
        rep = summarize(rows)
        assert rep.speedup == pytest.approx(6.26, abs=0.01)
        assert 100.0 * rep.time_reduction == pytest.approx(84.0, abs=0.1)

    def test_times_sum_across_phases(self):
        rows = [
            run_row("legacy", "pre", 30.0),
            run_row("legacy", "post", 70.0),
            run_row("new", "pre", 20.0),
            run_row("new", "post", 5.0),
        ]
        rep = summarize(rows)
        assert rep.legacy_time == pytest.approx(100.0)
        assert rep.new_time == pytest.approx(25.0)
        assert rep.speedup == pytest.approx(4.0)
        assert rep.time_reduction == pytest.approx(0.75)

    def test_network_ratio_per_phase(self):
        rows = [
            run_row("legacy", "post", 70.0, net=90_000),
            run_row("new", "post", 5.0, net=10_000),
            run_row("legacy", "pre", 30.0, net=50_000),
            run_row("new", "pre", 20.0, net=50_000),
        ]
        rep = summarize(rows)
        assert rep.network_ratio["post"] == pytest.approx(1.0 / 9.0)
        assert rep.network_ratio["pre"] == pytest.approx(1.0)

    @given(
        st.floats(min_value=0.01, max_value=1e6),
        st.floats(min_value=0.01, max_value=1e6),
    )
    def test_speedup_is_exactly_the_time_ratio(self, t_legacy, t_new):
        rep = summarize([run_row("legacy", "p", t_legacy), run_row("new", "p", t_new)])
        assert rep.speedup == rep.legacy_time / rep.new_time
        assert rep.speedup > 0.0
        assert rep.time_reduction < 1.0

    def test_empty_rows_rejected(self):
        with pytest.raises(ReportError):
            summarize([])

    def test_missing_column_rejected(self):
        with pytest.raises(ReportError):
            summarize([{"mode": "new"}])

    def test_invariant_guards_degenerate_input(self):
        with pytest.raises(ReportError):
            BenchReport(
                scenarios={},
                legacy_time=1.0,
                new_time=1.0,
                speedup=-2.0,
                time_reduction=0.5,
                network_ratio={},
            )
        with pytest.raises(ReportError):
            BenchReport(
                scenarios={},
                legacy_time=1.0,
                new_time=1.0,
                speedup=2.0,
                time_reduction=1.5,
                network_ratio={},
            )


class TestRender:
    def full_rows(self):
        return [
            run_row("legacy", "pre", 30.0, net=401_000_000),
            run_row("legacy", "pre", 31.0, net=401_000_000),
            run_row("legacy", "post", 70.0, net=90_000_000),
            run_row("new", "pre", 20.0, net=400_000_000),
            run_row("new", "post", 5.0, net=10_000_000),
        ]

    def test_contains_all_metric_rows_and_headers(self):
        text = render(self.full_rows())
        for label in (
            "Overall time",
            "Overall rate",
            "Job rate",
            "Job event-loop rate",
            "Network read",
        ):
            assert label in text
        for header in ("legacy/pre", "new/pre", "legacy/post", "new/post"):
            assert header in text
        assert "Speedup" in text
        assert "Time reduction" in text

    def test_single_run_renders_single_column(self):
        text = render([run_row("new", "post", 10.0)])
        assert "new/post" in text
        assert "legacy" not in text
        assert "Speedup" not in text

    def test_memory_block_flagged_separately(self):
        rows = self.full_rows()[:-1] + [
            run_row("new", "post", 5.0, mem=1_500_000),
            run_row("new", "post", 5.0, mem=1_700_000),
        ]
        text = render(rows)
        assert "not comparable" in text
        assert "new/post: 1.60 +- 0.10 MB" in text

    def test_error_column_is_semi_dispersion(self):
        text = render(self.full_rows())
        # legacy/pre times 30.0 and 31.0: mean 30.50, err 0.50
        assert "30.50 +- 0.50 s" in text

    def test_round_trip_through_csv(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        write_metrics_csv(path, self.full_rows())
        rows = read_metrics_csv(path)
        text = render(rows)
        assert "Speedup" in text

    def test_pure_function_of_rows(self):
        rows = self.full_rows()
        assert render(rows) == render(list(rows))


class TestAppendJobsCsv:
    def test_appends_without_duplicate_header(self, tmp_path):
        path = str(tmp_path / "jobs.csv")
        first = [JobRecord(0, "w0", 10, 1.0, 0.5, 100, phase="pre", passes=1)]
        second = [JobRecord(1, "w0", 20, 2.0, 1.0, 200, phase="post", passes=3)]
        append_records_csv(path, first)
        append_records_csv(path, second)
        with open(path) as f:
            lines = f.read().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("task_id")
        assert sum(1 for ln in lines if ln.startswith("task_id")) == 1
        assert lines[1].split(",")[0] == "0"
        assert lines[2].split(",")[0] == "1"
        assert lines[2].split(",")[-1] == "3"  # passes column survives append
