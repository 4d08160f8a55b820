"""The acceptance gate: one test per guarantee, full scale where it counts.

Most tests here ride on a single module-scoped execution of the default
benchmark (8 files x 100 000 events, 30 variations of which 8 topology),
plus two extra postselection pairs over its skims: an integer-weight
pipeline of the same variation shape (exactness) and a weight-only
pipeline (single-pass baseline). The remaining tests build their own
small fixtures. Each test is self-describing in `pytest -v` output.
"""

import json
import math
import os
import threading
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from colflow.bench import (
    BenchConfig,
    _served_uri,
    check_equivalence,
    default_post_document,
    run_bench,
)
from colflow.cluster import Scheduler, Worker, run_distributed
from colflow.colstore import open_dataset, server_totals, write_dataset
from colflow.engine import SINGLE_PASS, EntryRange, run_local, run_multi_pass, run_range
from colflow.facility import MiniFacility
from colflow.graph import build, load_spec, schema_types
from colflow.legacy import run_legacy_postselection
from colflow.metrics import JobRecord, RunMetrics, job_rate, metrics_row
from colflow.report import summarize
from conftest import STANDARD_SCHEMA, standard_columns
from test_engine import NaiveHist, close, naive_run, read_all_rows

PAYLOAD_TOTAL = 8 * 1_000_000  # default: 1 MB sandbox per preselection job


def _integer_post_document(files):
    """Postselection with the default variation shape (22 weight + 8
    topology tags) but small-integer weights: every bin content is then a
    sum of integers, exact in binary floating point regardless of how the
    work is partitioned or merged."""
    weight_tags = [t for k in range(11) for t in (f"w{k}_up", f"w{k}_down")]
    weight_exprs = [e for k in range(11) for e in (f"w * {k + 2}", f"w * {k + 13}")]
    stages = [
        {"op": "vary", "column": "Jet_pt", "kind": "topology",
         "tags": ["jes_up", "jes_down", "jer_up", "jer_down"],
         "exprs": ["Jet_pt * 1.05", "Jet_pt * 0.95", "Jet_pt * 1.02", "Jet_pt * 0.98"]},
        {"op": "vary", "column": "MET_pt", "kind": "topology",
         "tags": ["met_jes_up", "met_jes_down", "met_unclust_up", "met_unclust_down"],
         "exprs": ["MET_pt * 1.03", "MET_pt * 0.97", "MET_pt + 5.0", "MET_pt - 5.0"]},
        {"op": "define", "name": "w", "expr": "1"},
        {"op": "vary", "column": "w", "kind": "weight",
         "tags": weight_tags, "exprs": weight_exprs},
        {"op": "define", "name": "ht", "expr": "sum(Jet_pt)"},
        {"op": "define", "name": "lead_pt", "expr": "nJet > 0 ? Jet_pt[0] : 0.0"},
        {"op": "filter", "expr": "lead_pt > 25.0"},
        {"op": "histo1d", "name": "h_ht", "column": "ht", "weight": "w",
         "nbins": 50, "xmin": 0.0, "xmax": 1500.0},
        {"op": "histo1d", "name": "h_lead_pt", "column": "lead_pt", "weight": "w",
         "nbins": 50, "xmin": 0.0, "xmax": 500.0},
        {"op": "histo1d", "name": "h_met", "column": "MET_pt", "weight": "w",
         "nbins": 50, "xmin": 0.0, "xmax": 500.0},
        {"op": "count", "name": "n_events"},
    ]
    return json.dumps({"dataset": list(files), "stages": stages})


def _weight_only_post_document(files):
    """The default postselection minus its topology variations: the
    baseline then needs exactly one pass per job."""
    doc = json.loads(default_post_document(list(files)))
    doc["stages"] = [
        s for s in doc["stages"]
        if not (s["op"] == "vary" and s["kind"] == "topology")
    ]
    return json.dumps(doc)


def _spawn_worker(address, name=None):
    worker = Worker(address, name=name)
    threading.Thread(target=worker.run, daemon=True).start()
    return worker


def _wait_for_workers(scheduler, n, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(scheduler._workers) >= n:
            return
        time.sleep(0.01)
    raise TimeoutError(f"only {len(scheduler._workers)} of {n} workers registered")


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """One timed execution of the default benchmark, one repeat per scenario."""
    out = str(tmp_path_factory.mktemp("acceptance") / "bench")
    t0 = time.monotonic()
    result = run_bench(BenchConfig(out_dir=out, repeats=1))
    elapsed = time.monotonic() - t0
    return SimpleNamespace(
        result=result,
        elapsed=elapsed,
        runs={(r.mode, r.phase): r for r in result.runs},
        data_dir=os.path.join(out, "data"),
    )


@pytest.fixture(scope="module")
def arms(bench, tmp_path_factory):
    """Two extra postselection pairs over the benchmark's skims.

    Each run is bracketed by data-server byte totals so its client-side
    accounting can be checked against what the server actually moved.
    """
    work = tmp_path_factory.mktemp("acceptance-arms")
    data_dir = os.path.abspath(bench.data_dir)
    legacy_skims = list(bench.runs[("legacy", "pre")].partial.snapshots)
    new_skims = list(bench.runs[("new", "pre")].partial.snapshots)
    out = SimpleNamespace(closures=[], record_sets=[])
    with MiniFacility(data_dir, str(work / "logs"), n_workers=4) as fac:
        legacy_uris = [_served_uri(p, data_dir, fac.data_address) for p in legacy_skims]
        new_uris = [_served_uri(p, data_dir, fac.data_address) for p in new_skims]

        def legacy_post(tag, document, uris):
            before, _ = server_totals(fac.data_address)
            _, report = run_legacy_postselection(
                document, uris,
                scheduler_address=fac.scheduler_address,
                out_dir=str(work / f"jobs_{tag}"),
            )
            after, _ = server_totals(fac.data_address)
            out.closures.append((tag, report.network_read, after - before))
            out.record_sets.append((tag, report.records))
            return report

        def new_post(tag, document):
            before, _ = server_totals(fac.data_address)
            result = run_distributed(document, fac.scheduler_address, factor=3)
            after, _ = server_totals(fac.data_address)
            out.closures.append((tag, result.network_read, after - before))
            out.record_sets.append((tag, result.records))
            return result

        out.int_legacy = legacy_post(
            "legacy-post-integer", _integer_post_document(legacy_uris), legacy_uris)
        out.int_new = new_post(
            "new-post-integer", _integer_post_document(new_uris))
        out.flat_legacy = legacy_post(
            "legacy-post-weight-only", _weight_only_post_document(legacy_uris), legacy_uris)
        out.flat_new = new_post(
            "new-post-weight-only", _weight_only_post_document(new_uris))
    return out


def test_c01_cross_mode_equivalence_at_default_scale(bench, arms):
    pre_l = bench.runs[("legacy", "pre")]
    pre_n = bench.runs[("new", "pre")]
    post_l = bench.runs[("legacy", "post")]
    post_n = bench.runs[("new", "post")]
    # the default scale actually ran: 8 x 100 000 events, 31 universes,
    # and the baseline needed nominal + 8 topology passes per job
    assert pre_l.metrics.total_events == pre_n.metrics.total_events == 800_000
    assert len(post_n.partial.universes) == 31
    assert {r.passes for r in post_l.records} == {9}
    # merged per-file results equal the single-loop results per universe
    check_equivalence(pre_l.partial, pre_n.partial, rtol=1e-9)
    check_equivalence(post_l.partial, post_n.partial, rtol=1e-9)
    # with integer weights the agreement is exact, not just within tolerance
    assert len(arms.int_new.partial.universes) == 31
    assert arms.int_legacy.partial.universes == arms.int_new.partial.universes
    # the whole four-scenario comparison fits the stated time budget
    assert bench.elapsed < 300.0


def test_c02_legacy_postselection_reads_exactly_nine_times_the_bytes(bench, arms):
    legacy = sum(r.chunk_bytes for r in bench.runs[("legacy", "post")].records)
    new = sum(r.chunk_bytes for r in bench.runs[("new", "post")].records)
    assert new > 0
    assert legacy == 9 * new
    # without topology variations both modes traverse the data once
    flat = {tag: recs for tag, recs in arms.record_sets}
    flat_legacy = sum(r.chunk_bytes for r in flat["legacy-post-weight-only"])
    flat_new = sum(r.chunk_bytes for r in flat["new-post-weight-only"])
    assert flat_new > 0
    assert flat_legacy == flat_new
    assert {r.passes for r in flat["legacy-post-weight-only"]} == {1}


def test_c03_preselection_network_gap_is_the_payload_total(bench):
    legacy = bench.runs[("legacy", "pre")].metrics.network_read
    new = bench.runs[("new", "pre")].metrics.network_read
    assert abs((legacy - new) - PAYLOAD_TOTAL) <= 0.01 * PAYLOAD_TOTAL


def test_c04_rate_formula_and_loop_rate_ordering(bench, arms):
    # hand-built records against an exact-arithmetic evaluation of the
    # definition: total events over total job time
    jobs = [(12_345, 3.25, 3.0), (67_890, 11.5, 10.25), (111, 0.875, 0.5),
            (4_000_000, 97.0, 88.375)]
    records = [
        JobRecord(task_id=i, worker="w", events=e, t_total=t, t_loop=tl, bytes_read=0)
        for i, (e, t, tl) in enumerate(jobs)
    ]
    exact = Fraction(sum(e for e, _, _ in jobs)) / sum(
        (Fraction(t) for _, t, _ in jobs), Fraction(0))
    assert math.isclose(job_rate(records), float(exact), rel_tol=1e-12, abs_tol=0.0)
    exact_loop = Fraction(sum(e for e, _, _ in jobs)) / sum(
        (Fraction(tl) for _, _, tl in jobs), Fraction(0))
    assert math.isclose(
        job_rate(records, use_loop_time=True), float(exact_loop),
        rel_tol=1e-12, abs_tol=0.0)
    # on every real run, stripping per-job overhead can only raise the rate
    real = [run.records for run in bench.result.runs]
    real += [recs for _, recs in arms.record_sets]
    assert real
    for records in real:
        assert all(0 < r.t_loop <= r.t_total for r in records)
        assert job_rate(records, use_loop_time=True) >= job_rate(records) > 0


def test_c05_published_totals_reproduce_speedup_and_reduction():
    def totals_row(run_id, mode, minutes):
        m = RunMetrics(
            overall_time=minutes, overall_rate=0.0, job_rate=0.0,
            job_loop_rate=0.0, network_read=0, total_events=0, n_jobs=1)
        return metrics_row(run_id, mode, "total", m)

    report = summarize([
        totals_row("published-legacy", "legacy", 210.88),
        totals_row("published-new", "new", 33.7),
    ])
    assert abs(report.speedup - 6.26) <= 0.01
    assert abs(report.time_reduction * 100.0 - 84.0) <= 0.1


def test_c06_threads_factor_workers_leave_histograms_bit_identical(tmp_path):
    files = []
    for i in range(3):
        path = tmp_path / f"inv{i}.col"
        write_dataset(
            str(path), STANDARD_SCHEMA, standard_columns(1200, seed=31 + i), 64
        )
        files.append(str(path))
    document = _integer_post_document(files)
    with open_dataset(files[0]) as h:
        graph = build(load_spec(document), schema_types(h))
    baseline = run_local(graph, files, nworkers=1, factor=1)
    assert baseline.events == 3600

    for nworkers in (1, 8):
        for factor in (1, 3, 10):
            p = run_local(graph, files, nworkers=nworkers, factor=factor)
            assert p.events == baseline.events
            assert p.universes == baseline.universes

    with Scheduler() as sched:
        _spawn_worker(sched.address, name="w0")
        _wait_for_workers(sched, 1)
        for n_workers in (1, 3):
            if n_workers == 3:
                _spawn_worker(sched.address, name="w1")
                _spawn_worker(sched.address, name="w2")
                _wait_for_workers(sched, 3)
            for factor in (1, 3, 10):
                result = run_distributed(document, sched.address, factor=factor)
                assert result.total_events == baseline.events
                assert result.partial.universes == baseline.universes


def test_c07_scanning_two_of_six_columns_reads_only_their_chunks(tmp_path):
    path = str(tmp_path / "events.col")
    write_dataset(
        path, STANDARD_SCHEMA, standard_columns(5000, seed=3), cluster_size=512
    )
    with open_dataset(path) as h:
        assert len(h.schema) == 6
        metadata = h.account.bytes_read  # header and footer, paid at open
        assert h.account.chunk_bytes == 0
        seen = 0
        for batch in h.read_range(("MET_pt", "nJet"), 0, h.total_entries):
            seen += batch.entry_count
        assert seen == 5000
        wanted = h.column_chunk_bytes(("MET_pt", "nJet"))
        all_columns = h.column_chunk_bytes(list(h.schema))
        assert wanted < all_columns
        assert h.account.chunk_bytes == wanted
        assert h.account.bytes_read - metadata == wanted


def test_c08_killing_a_worker_mid_run_loses_nothing(tmp_path):
    files = []
    for i in range(4):
        path = tmp_path / f"big{i}.col"
        write_dataset(
            str(path), STANDARD_SCHEMA, standard_columns(10_000, seed=40 + i), 500
        )
        files.append(str(path))
    document = _integer_post_document(files)
    with open_dataset(files[0]) as h:
        graph = build(load_spec(document), schema_types(h))
    clean = run_local(graph, files, nworkers=4, factor=3)

    max_retries = 2
    with Scheduler() as sched:
        victim = _spawn_worker(sched.address, name="victim")
        _spawn_worker(sched.address, name="w1")
        _spawn_worker(sched.address, name="w2")
        _wait_for_workers(sched, 3)

        killed = threading.Event()

        def assassin():
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                holder = next(
                    (w for w in sched._workers.values() if w.name == "victim"), None
                )
                if holder is not None and holder.task is not None:
                    break
                time.sleep(0.002)
            victim._sock.close()  # hard death: no failure message, no goodbye
            killed.set()

        threading.Thread(target=assassin, daemon=True).start()
        result = run_distributed(
            document, sched.address, factor=3, max_retries=max_retries)
        assert killed.wait(timeout=10.0)

    assert result.total_events == clean.events == 40_000
    assert result.partial.universes == clean.universes
    assert all(r.attempt <= 1 + max_retries for r in result.records)


def test_c09_client_bytes_equal_server_bytes_in_every_scenario(bench, arms):
    for run in bench.result.runs:
        assert run.served_delta > 0
        assert run.metrics.network_read == run.served_delta, run.run_id
    for tag, claimed, served in arms.closures:
        assert served > 0
        assert claimed == served, tag


def test_c10_every_universe_matches_the_naive_oracle(tmp_path):
    path = str(tmp_path / "small.col")
    n = 800
    write_dataset(
        path, STANDARD_SCHEMA, standard_columns(n, seed=17), cluster_size=128
    )
    with open_dataset(path) as h:
        graph = build(load_spec(default_post_document([path])), schema_types(h))
    rows = read_all_rows(path)
    oracle = naive_run(rows, graph)

    single = run_range(graph, EntryRange(path, 0, n), SINGLE_PASS)
    multi = run_multi_pass(graph, EntryRange(path, 0, n))
    for partial in (single, multi):
        assert set(partial.universes) == set(oracle)
        for universe, expected in oracle.items():
            got = partial.universes[universe]
            assert set(got) == set(expected)
            for name, ref in expected.items():
                if isinstance(ref, NaiveHist):
                    assert got[name].entries == ref.entries
                    for b in range(len(ref.sumw)):
                        assert close(got[name].sumw[b], ref.sumw[b], 1e-12)
                        assert close(got[name].sumw2[b], ref.sumw2[b], 1e-12)
                else:
                    assert close(got[name].value, ref[0], 1e-12)
