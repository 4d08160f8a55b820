"""Batch baseline: job planning, skims, pass counts, payload, merging."""

import json
import threading

import pytest

from colflow.cluster import Scheduler, Worker
from colflow.cluster.client import RunResult
from colflow.colstore import DataServer, open_dataset, write_dataset
from colflow.engine import SINGLE_PASS, EntryRange, run_local, run_range
from colflow.exprlang import Jagged
from colflow.graph import build, load_spec, schema_types
from colflow.legacy import (
    LegacyError,
    Phase,
    merge_outputs,
    plan_legacy_jobs,
    run_legacy_postselection,
    run_legacy_preselection,
)
from conftest import STANDARD_SCHEMA, standard_columns, vector_rows

SKIM_COLUMNS = ["event_weight", "MET_pt", "nJet", "Jet_pt"]


def check_outcome(result):
    """Both workflows report through one RunResult with the same identities."""
    assert isinstance(result, RunResult)
    assert result.total_time == result.wall_time + result.merge_duration
    assert result.network_read == sum(r.bytes_read for r in result.records) + result.planning_bytes


def pre_doc(files, out_prefix):
    return json.dumps(
        {
            "dataset": files,
            "stages": [
                {"op": "filter", "expr": "MET_pt > 20.0"},
                {"op": "histo1d", "name": "h_met", "column": "MET_pt",
                 "weight": "event_weight", "nbins": 20, "xmin": 0.0, "xmax": 200.0},
                {"op": "count", "name": "n_pass"},
                {"op": "snapshot", "columns": SKIM_COLUMNS, "out": out_prefix},
            ],
        }
    )


def post_doc(files, topology_tags=2, integer_weights=True):
    stages = []
    if topology_tags:
        tags = ["jes_up", "jes_down"][:topology_tags]
        exprs = ["Jet_pt * 1.05", "Jet_pt * 0.95"][:topology_tags]
        stages.append({"op": "vary", "column": "Jet_pt", "kind": "topology",
                       "tags": tags, "exprs": exprs})
    stages += [
        {"op": "vary", "column": "event_weight", "kind": "weight",
         "tags": ["w_up"], "exprs": ["event_weight * 1.01"]},
        {"op": "define", "name": "w", "expr": "1" if integer_weights else "event_weight"},
        {"op": "define", "name": "ht", "expr": "sum(Jet_pt)"},
        {"op": "filter", "expr": "nJet >= 1"},
        {"op": "histo1d", "name": "h_ht", "column": "ht", "weight": "w",
         "nbins": 25, "xmin": 0.0, "xmax": 800.0},
        {"op": "count", "name": "n_all"},
    ]
    return json.dumps({"dataset": files, "stages": stages})


@pytest.fixture
def cluster():
    with Scheduler() as sched:
        threads = []
        for i in range(2):
            worker = Worker(sched.address, name=f"w{i}")
            t = threading.Thread(target=worker.run, daemon=True)
            t.start()
            threads.append(t)
        deadline = 100
        import time

        while len(sched._workers) < 2 and deadline:
            time.sleep(0.05)
            deadline -= 1
        yield sched


@pytest.fixture
def files(tmp_path):
    out = []
    for i in range(3):
        path = tmp_path / f"in{i}.col"
        write_dataset(
            str(path), STANDARD_SCHEMA, standard_columns(300 + 40 * i, seed=60 + i), 128
        )
        out.append(str(path))
    return out


def read_rows(path, columns):
    rows = []
    with open_dataset(path) as h:
        for batch in h.read_range(columns, 0, h.total_entries):
            cols = []
            for name in columns:
                data = batch.columns[name]
                if isinstance(data, Jagged):
                    cols.append([tuple(v) for v in vector_rows(data)])
                else:
                    cols.append(data.tolist())
            rows.extend(zip(*cols))
    return rows


class TestPlanning:
    def test_one_job_per_file(self, files, tmp_path):
        doc = pre_doc(files, str(tmp_path / "skim"))
        jobs = plan_legacy_jobs(doc, files, Phase.PRESELECTION)
        assert len(jobs) == len(files)
        assert [j.job_id for j in jobs] == [0, 1, 2]

    def test_preselection_requires_snapshot(self, files):
        with pytest.raises(LegacyError, match="snapshot"):
            plan_legacy_jobs(post_doc(files), files, Phase.PRESELECTION)

    def test_preselection_rejects_vary_stages(self, files, tmp_path):
        doc = json.loads(pre_doc(files, str(tmp_path / "skim")))
        doc["stages"].insert(0, {"op": "vary", "column": "MET_pt", "kind": "topology",
                                 "tags": ["met_up"], "exprs": ["MET_pt + 5.0"]})
        with pytest.raises(LegacyError, match="vary"):
            plan_legacy_jobs(json.dumps(doc), files, Phase.PRESELECTION)

    def test_no_files(self, files, tmp_path):
        doc = pre_doc(files, str(tmp_path / "skim"))
        with pytest.raises(LegacyError, match="no input files"):
            plan_legacy_jobs(doc, [], Phase.PRESELECTION)


class TestPreselection:
    def test_one_skim_per_file(self, cluster, files, tmp_path):
        doc = pre_doc(files, str(tmp_path / "out" / "skim"))
        skims, report = run_legacy_preselection(
            doc, files, scheduler_address=cluster.address, parallel_jobs=2
        )
        assert len(skims) == len(files)
        assert len(report.records) == len(files)
        assert [r.task_id for r in report.records] == [0, 1, 2]
        assert all(r.phase == "pre" for r in report.records)
        assert all(r.passes == 1 for r in report.records)
        assert report.planning_bytes > 0  # sizing each input read its footer
        assert report.merge_duration == 0.0
        check_outcome(report)

        # every skim row passed the filter, and totals line up
        kept = 0
        for skim in skims:
            rows = read_rows(skim, SKIM_COLUMNS)
            kept += len(rows)
            assert all(met > 20.0 for (_, met, _, _) in rows)
        assert kept == report.partial.universes["nominal"]["n_pass"].value

    def test_skim_matches_distributed_snapshot_rows(self, cluster, files, tmp_path):
        legacy_doc = pre_doc(files, str(tmp_path / "a" / "skim"))
        new_doc = pre_doc(files, str(tmp_path / "b" / "skim"))
        skims, _ = run_legacy_preselection(
            legacy_doc, files, scheduler_address=cluster.address, parallel_jobs=3
        )
        with open_dataset(files[0]) as h:
            graph = build(load_spec(new_doc), schema_types(h))
        new = run_local(graph, files, nworkers=2, factor=3)

        legacy_rows = sorted(r for s in skims for r in read_rows(s, SKIM_COLUMNS))
        new_rows = sorted(r for s in new.snapshots for r in read_rows(s, SKIM_COLUMNS))
        assert legacy_rows == new_rows

    def test_waves_do_not_change_results(self, cluster, files, tmp_path):
        docs = [pre_doc(files, str(tmp_path / f"w{i}" / "skim")) for i in range(2)]
        outcomes = [
            run_legacy_preselection(
                d, files, scheduler_address=cluster.address, parallel_jobs=p
            )
            for d, p in zip(docs, (1, 3))
        ]
        (_, a), (_, b) = outcomes
        assert a.partial.events == b.partial.events
        assert [r.task_id for r in a.records] == [r.task_id for r in b.records]
        assert a.partial.universes == b.partial.universes

    def test_payload_decomposition(self, files, tmp_path):
        # identical fresh clusters, payload on vs off: the network delta is
        # exactly n_jobs x payload_bytes
        blob_root = tmp_path / "srv"
        blob_root.mkdir()
        (blob_root / "payload.bin").write_bytes(b"\x11" * 2048)
        payload = 100_000
        reads = {}
        with DataServer(str(blob_root)) as server:
            uri = f"colsrv://{server.address}/payload.bin"
            for label, pb in (("without", 0), ("with", payload)):
                doc = pre_doc(files, str(tmp_path / label / "skim"))
                with Scheduler() as sched:
                    worker = Worker(sched.address, name="w0")
                    threading.Thread(target=worker.run, daemon=True).start()
                    import time

                    while not sched._workers:
                        time.sleep(0.02)
                    _, report = run_legacy_preselection(
                        doc,
                        files,
                        scheduler_address=sched.address,
                        payload_bytes=pb,
                        payload_uri=uri if pb else "",
                        parallel_jobs=4,
                    )
                reads[label] = report.network_read
            assert reads["with"] - reads["without"] == len(files) * payload
            assert server.total_bytes_served == len(files) * payload

    def test_negative_payload_rejected(self, files, tmp_path):
        doc = pre_doc(files, str(tmp_path / "skim"))
        with pytest.raises(LegacyError, match="payload_bytes must be >= 0"):
            # nothing listens at port 1: the check comes before any scheduler contact
            run_legacy_preselection(doc, files, scheduler_address="127.0.0.1:1", payload_bytes=-1)

    def test_payload_needs_uri(self, cluster, files, tmp_path):
        doc = pre_doc(files, str(tmp_path / "skim"))
        with pytest.raises(LegacyError, match="payload_uri"):
            run_legacy_preselection(
                doc, files, scheduler_address=cluster.address, payload_bytes=10
            )

    def test_missing_input_rejected(self, cluster, files, tmp_path):
        doc = pre_doc(files, str(tmp_path / "skim"))
        with pytest.raises(LegacyError, match="cannot open input"):
            run_legacy_preselection(
                doc, files + [str(tmp_path / "ghost.col")], scheduler_address=cluster.address
            )


class TestPostselection:
    @pytest.fixture
    def skims(self, cluster, files, tmp_path):
        doc = pre_doc(files, str(tmp_path / "skims" / "skim"))
        paths, _ = run_legacy_preselection(
            doc, files, scheduler_address=cluster.address, parallel_jobs=3
        )
        return paths

    def test_pass_count_law(self, cluster, skims, tmp_path):
        doc = post_doc(skims, topology_tags=2)
        result_files, report = run_legacy_postselection(
            doc, skims, scheduler_address=cluster.address, out_dir=str(tmp_path / "post")
        )
        assert len(result_files) == len(skims)
        assert all(r.passes == 3 for r in report.records)
        assert all(r.phase == "post" for r in report.records)
        # each job read its chunks exactly (1 + #topology) times
        with open_dataset(skims[0]) as h:
            graph = build(load_spec(doc), schema_types(h))
        for skim, record in zip(skims, report.records):
            with open_dataset(skim) as h:
                n = h.total_entries
            one_pass = run_range(graph, EntryRange(skim, 0, n), SINGLE_PASS)
            assert record.chunk_bytes == 3 * one_pass.chunk_bytes

    def test_no_topology_means_one_pass(self, cluster, skims, tmp_path):
        doc = post_doc(skims, topology_tags=0)
        _, report = run_legacy_postselection(
            doc, skims, scheduler_address=cluster.address, out_dir=str(tmp_path / "post")
        )
        assert all(r.passes == 1 for r in report.records)
        with open_dataset(skims[0]) as h:
            graph = build(load_spec(doc), schema_types(h))
        for skim, record in zip(skims, report.records):
            with open_dataset(skim) as h:
                n = h.total_entries
            one_pass = run_range(graph, EntryRange(skim, 0, n), SINGLE_PASS)
            assert record.chunk_bytes == one_pass.chunk_bytes

    def test_cross_mode_equivalence(self, cluster, skims, tmp_path):
        # merged per-file multi-pass results == one distributed single pass
        doc = post_doc(skims, topology_tags=2, integer_weights=True)
        _, report = run_legacy_postselection(
            doc, skims, scheduler_address=cluster.address, out_dir=str(tmp_path / "post")
        )
        with open_dataset(skims[0]) as h:
            graph = build(load_spec(doc), schema_types(h))
        new = run_local(graph, skims, nworkers=2, factor=3)
        assert report.partial.universes == new.universes  # bit-exact
        assert report.total_events == new.events
        assert report.total_time > report.wall_time  # merge step took time
        assert report.merge_duration > 0.0
        assert report.planning_bytes > 0
        check_outcome(report)

    def test_failed_job_fails_run(self, cluster, files, tmp_path):
        # references a column the inputs lack: every job fails, no retries
        doc = json.dumps(
            {
                "dataset": files,
                "stages": [
                    {"op": "filter", "expr": "missing_col > 0.0"},
                    {"op": "count", "name": "n"},
                ],
            }
        )
        with pytest.raises(LegacyError, match="post job failed"):
            run_legacy_postselection(
                doc, files, scheduler_address=cluster.address, out_dir=str(tmp_path / "post")
            )


class TestMergeOutputs:
    @pytest.fixture
    def result_files(self, cluster, files, tmp_path):
        doc = post_doc(files, topology_tags=2)
        paths, _ = run_legacy_postselection(
            doc, files, scheduler_address=cluster.address, out_dir=str(tmp_path / "res")
        )
        return paths

    def test_single_file_identity(self, result_files):
        from colflow.cluster.worker import read_result_file

        merged, duration = merge_outputs(result_files[:1])
        _, alone = read_result_file(result_files[0])
        assert merged.universes == alone.universes
        assert merged.events == alone.events
        assert duration >= 0.0

    def test_order_invariance_integer_weights(self, result_files):
        a, _ = merge_outputs(result_files)
        b, _ = merge_outputs(list(reversed(result_files)))
        assert a.universes == b.universes
        assert a.events == b.events

    def test_totals_add_up(self, result_files):
        from colflow.cluster.worker import read_result_file

        merged, _ = merge_outputs(result_files)
        parts = [read_result_file(p)[1] for p in result_files]
        assert merged.events == sum(p.events for p in parts)
        total = sum(
            p.universes["nominal"]["n_all"].value for p in parts
        )
        assert merged.universes["nominal"]["n_all"].value == total

    def test_graph_identity_enforced(self, cluster, files, result_files, tmp_path):
        other_doc = post_doc(files, topology_tags=0)
        other, _ = run_legacy_postselection(
            other_doc, files, scheduler_address=cluster.address, out_dir=str(tmp_path / "other")
        )
        with pytest.raises(LegacyError, match="different pipeline"):
            merge_outputs([result_files[0], other[0]])

    def test_empty_list(self):
        with pytest.raises(LegacyError, match="nothing to merge"):
            merge_outputs([])
