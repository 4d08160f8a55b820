"""Rate formulas and CSV bookkeeping."""

import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colflow.metrics import (
    JobRecord,
    MetricsError,
    aggregate,
    job_rate,
    metrics_row,
    overall_rate,
    read_metrics_csv,
    write_metrics_csv,
    write_records_csv,
)


def rec(events, t, t_loop=None, **kw):
    return JobRecord(
        task_id=kw.pop("task_id", 0),
        worker=kw.pop("worker", "w0"),
        events=events,
        t_total=t,
        t_loop=t if t_loop is None else t_loop,
        bytes_read=kw.pop("bytes_read", 0),
        **kw,
    )


class TestRates:
    def test_job_rate_formula(self):
        records = [rec(100, 2.0), rec(200, 3.0)]
        assert job_rate(records) == 60.0

    def test_single_record_reduces_to_overall(self):
        r = rec(480, 1.6)
        assert job_rate([r]) == overall_rate(480, 1.6)

    def test_loop_rate_never_below_job_rate(self):
        records = [rec(100, 2.0, t_loop=1.5), rec(50, 1.0, t_loop=0.25)]
        assert job_rate(records, use_loop_time=True) >= job_rate(records)

    def test_exact_tiny_example(self):
        # events [100, 200], t [2, 3] -> 300/5
        assert job_rate([rec(100, 2.0), rec(200, 3.0)]) == pytest.approx(60.0, abs=0)

    def test_errors(self):
        with pytest.raises(MetricsError, match="no job records"):
            job_rate([])
        with pytest.raises(MetricsError, match="zero total"):
            job_rate([rec(10, 0.0)])
        with pytest.raises(MetricsError, match="wall time"):
            overall_rate(10, 0.0)
        assert overall_rate(0, 5.0) == 0.0

    def test_record_invariants(self):
        with pytest.raises(MetricsError, match="t_loop"):
            JobRecord(0, "w", 10, 1.0, 2.0, 0)
        with pytest.raises(MetricsError, match="events"):
            JobRecord(0, "w", -1, 1.0, 0.5, 0)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.floats(0.001, 1000.0),
                st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_loop_rate_dominance_property(self, raw):
        records = [rec(e, t, t_loop=t * frac) for e, t, frac in raw]
        if sum(r.t_loop for r in records) == 0.0:
            return
        assert job_rate(records, use_loop_time=True) >= job_rate(records)


class TestAggregate:
    def test_single_job(self):
        r = rec(1000, 4.0, t_loop=3.0, bytes_read=8192)
        m = aggregate([r], wall_time=5.0, network_read=8192 + 300)
        assert m.total_events == 1000
        assert m.overall_time == 5.0
        assert m.overall_rate == 200.0
        assert m.job_rate == 250.0
        assert m.job_loop_rate == pytest.approx(1000 / 3.0)
        assert m.network_read == 8192 + 300  # the run's total, planning reads included
        assert m.n_jobs == 1

    def test_order_invariant(self):
        records = [rec(i * 10, 1.0 + i, bytes_read=i, task_id=i) for i in range(1, 6)]
        a = aggregate(records, 10.0, 15)
        b = aggregate(list(reversed(records)), 10.0, 15)
        assert a == b


class TestCsv:
    def test_metrics_round_trip(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        records = [rec(100, 2.0, t_loop=1.5, bytes_read=4096), rec(300, 3.0, bytes_read=512)]
        m = aggregate(records, 7.25, 4608)
        m.mem_peak = 123_456
        rows = [metrics_row("run-1", "new", "pre", m)]
        write_metrics_csv(path, rows)
        back = read_metrics_csv(path)
        assert len(back) == 1
        row = back[0]
        assert row["run_id"] == "run-1"
        assert row["mode"] == "new"
        assert row["phase"] == "pre"
        assert row["overall_time_s"] == 7.25
        assert row["overall_rate_hz"] == m.overall_rate
        assert row["job_rate_hz"] == m.job_rate
        assert row["job_loop_rate_hz"] == m.job_loop_rate
        assert row["network_read_bytes"] == 4608
        assert row["total_events"] == 400
        assert row["n_jobs"] == 2
        assert row["mem_peak_bytes"] == 123_456

    def test_float_fields_survive_exactly(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        m = aggregate([rec(7, math.pi, t_loop=math.e)], math.tau, 0)
        write_metrics_csv(path, [metrics_row("r", "m", "p", m)])
        row = read_metrics_csv(path)[0]
        assert row["overall_time_s"] == math.tau
        assert row["job_rate_hz"] == 7 / math.pi

    def test_tasks_and_jobs_columns(self, tmp_path):
        records = [
            JobRecord(3, "w1", 100, 2.0, 1.5, 4096, 4000, 2, "post", 9, 777),
            JobRecord(4, "w0", 50, 1.0, 0.5, 2048),
        ]
        path = str(tmp_path / "tasks.csv")
        write_records_csv(path, records)
        header, post, task = Path(path).read_text().splitlines()
        assert header == "task_id,worker,events,t_total_s,t_loop_s,bytes_read,attempt,phase,passes"
        assert post.endswith("post,9")
        assert task.endswith("task,1")  # a distributed task's defaults

    def test_malformed_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("run_id,mode\nx,y\n")
        with pytest.raises(MetricsError, match="missing columns"):
            read_metrics_csv(str(path))
