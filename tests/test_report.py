"""Comparison-report math and rendering."""

from __future__ import annotations

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from colflow.metrics import (
    JobRecord,
    MetricsError,
    RunMetrics,
    append_records_csv,
    read_metrics_csv,
    write_metrics_csv,
    write_records_csv,
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
    return RunMetrics(
        run_id=run_id,
        mode=mode,
        phase=phase,
        overall_time_s=time_s,
        overall_rate_hz=events / time_s,
        job_rate_hz=rate,
        job_loop_rate_hz=rate * 1.5,
        network_read_bytes=net,
        total_events=events,
        n_jobs=jobs,
        mem_peak_bytes=mem,
    )


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
        assert s.estimates["overall_time_s"].mean == pytest.approx(11.0)
        assert s.estimates["overall_time_s"].err == pytest.approx(1.0)

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

    def test_a_file_headed_by_other_columns_is_refused(self, tmp_path):
        path = tmp_path / "jobs.csv"
        path.write_text("task_id,worker,events\n0,w0,10\n")
        with pytest.raises(MetricsError, match=re.escape(f"{path}: header task_id,worker,events is not")):
            append_records_csv(str(path), [JobRecord(1, "w0", 20, 2.0, 1.0, 200)])
        assert path.read_text() == "task_id,worker,events\n0,w0,10\n"


# Written by metrics.write_metrics_csv and write_records_csv, whose csv
# module ends each line with "\r\n".
PINNED_METRICS_CSV = "\r\n".join([
    "run_id,mode,phase,overall_time_s,overall_rate_hz,job_rate_hz,job_loop_rate_hz,"
    "network_read_bytes,total_events,n_jobs,mem_peak_bytes",
    "legacy-pre-r0,legacy,pre,221.24749975213697,8502.726594006765,27202.181885426195,"
    "41169.90624067211,496471436,1881207,3,2807325",
    "legacy-pre-r1,legacy,pre,330.71772661769137,2795.804172507693,13485.265520360357,"
    "29434.694970519933,5212925657,924622,3,6157194",
    "new-pre-r0,new,pre,47.70379095233073,39752.501051645406,25244.35077899082,"
    "77604.12330494114,9252551838,1896345,3,8213161",
    "new-pre-r1,new,pre,157.38238281247922,6539.575660296784,21914.160664869556,"
    "46192.05354141251,5284520294,1029214,3,4378164",
    "legacy-post-r0,legacy,post,17.845238267047435,52761.24565613777,12532.590921022156,"
    "16157.064385831054,8036004880,941537,3,9636112",
    "new-post-r0,new,post,419.28995375468537,3358.923788629558,27067.345253953394,"
    "55196.34396087336,5504942126,1408363,3,6646619",
    "",
])

PINNED_TABLE = """\
metric               legacy/pre         new/pre             legacy/post        new/post
-------------------  -----------------  ------------------  -----------------  -----------------
Overall time         275.98 +- 54.74 s  102.54 +- 54.84 s   17.85 +- 0.00 s    419.29 +- 0.00 s
Overall rate         5.65 +- 2.85 kHz   23.15 +- 16.61 kHz  52.76 +- 0.00 kHz  3.36 +- 0.00 kHz
Job rate             20.34 +- 6.86 kHz  23.58 +- 1.67 kHz   12.53 +- 0.00 kHz  27.07 +- 0.00 kHz
Job event-loop rate  35.30 +- 5.87 kHz  61.90 +- 15.71 kHz  16.16 +- 0.00 kHz  55.20 +- 0.00 kHz
Network read         2.85 +- 2.36 GB    7.27 +- 1.98 GB     8.04 +- 0.00 GB    5.50 +- 0.00 GB
Events               1881207            1896345             941537             1408363
Jobs                 3                  3                   3                  3
Repeats              2                  2                   1                  1

Total time legacy/new: 293.83 / 521.83
Speedup (legacy / new): 0.56
Time reduction: -77.6%
Network read ratio (new / legacy): pre 2.546, post 0.685

Memory proxy (peak engine column-buffer bytes; not comparable to process RSS):
  legacy/pre: 4.48 +- 1.67 MB
  new/pre: 6.30 +- 1.92 MB
  legacy/post: 9.64 +- 0.00 MB
  new/post: 6.65 +- 0.00 MB
"""

PINNED_RECORDS_CSV = "\r\n".join([
    "task_id,worker,events,t_total_s,t_loop_s,bytes_read,attempt,phase,passes",
    "0,w0,1200,3.141592653589793,2.718281828459045,4096,1,pre,1",
    "7,w1,0,0.30000000000000004,0.0,0,1,task,1",
    "3,w2,1000000000,1e+22,1e-07,1099511627776,3,post,9",
    "",
])


class TestPinnedOutputs:
    """metrics.csv, tasks.csv/jobs.csv and the rendered table, byte for byte."""

    def test_metrics_csv_round_trips_byte_for_byte(self, tmp_path):
        src, out = tmp_path / "in.csv", tmp_path / "out.csv"
        src.write_bytes(PINNED_METRICS_CSV.encode())
        write_metrics_csv(str(out), read_metrics_csv(str(src)))
        assert out.read_bytes() == PINNED_METRICS_CSV.encode()

    def test_rendered_table(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_bytes(PINNED_METRICS_CSV.encode())
        assert render(read_metrics_csv(str(path))) == PINNED_TABLE

    def test_tasks_and_jobs_csv(self, tmp_path):
        records = [
            JobRecord(0, "w0", 1200, math.pi, math.e, 4096, 4000, 1, "pre", 1, 777),
            JobRecord(7, "w1", 0, 0.1 + 0.2, 0.0, 0),
            JobRecord(3, "w2", 10**9, 1e22, 1e-7, 2**40, attempt=3, phase="post", passes=9),
        ]
        write_records_csv(str(tmp_path / "tasks.csv"), records)
        append_records_csv(str(tmp_path / "jobs.csv"), records[:2])
        append_records_csv(str(tmp_path / "jobs.csv"), records[2:])
        for name in ("tasks.csv", "jobs.csv"):
            assert (tmp_path / name).read_bytes() == PINNED_RECORDS_CSV.encode()
