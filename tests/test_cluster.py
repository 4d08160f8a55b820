"""Distributed runtime over real localhost sockets.

Workers run in threads here (the CLI runs them as processes); the sockets,
framing, retry and merge paths are the production ones either way.
"""

import json
import threading
import time

import pytest

from colflow import wire
from colflow.cluster import (
    ClusterError,
    Scheduler,
    Worker,
    run_distributed,
    shutdown_cluster,
    submit_run,
)
from colflow.cluster.worker import download_payload, read_result_file
from colflow.colstore import open_dataset, serve, write_dataset
from colflow.engine import (
    MULTI_PASS,
    SINGLE_PASS,
    EntryRange,
    run_local,
    run_range,
)
from colflow.graph import build, load_spec, schema_types
from colflow.proto import Graph, Result, RunDone, Submit, Task, encode
from conftest import STANDARD_SCHEMA, standard_columns


def spawn_worker(address, slots=1, name=None):
    worker = Worker(address, slots=slots, name=name)
    out = {}

    def target():
        out["code"] = worker.run()

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return worker, thread, out


def wait_for_workers(scheduler, n, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(scheduler._workers) >= n:
            return
        time.sleep(0.01)
    raise TimeoutError(f"only {len(scheduler._workers)} of {n} workers registered")


@pytest.fixture
def dataset_files(tmp_path):
    files = []
    for i in range(3):
        path = tmp_path / f"data{i}.col"
        write_dataset(
            str(path), STANDARD_SCHEMA, standard_columns(200 + 50 * i, seed=20 + i), 64
        ).close()
        files.append(str(path))
    return files


def make_doc(files, integer_weights=False):
    stages = [
        {"op": "vary", "column": "Jet_pt", "kind": "topology",
         "tags": ["jes_up", "jes_down"], "exprs": ["Jet_pt * 1.05", "Jet_pt * 0.95"]},
        {"op": "vary", "column": "event_weight", "kind": "weight",
         "tags": ["w_up"], "exprs": ["event_weight * 1.01"]},
        {"op": "define", "name": "ht", "expr": "sum(Jet_pt)"},
        {"op": "filter", "expr": "nJet >= 1"},
        {"op": "histo1d", "name": "h_ht", "column": "ht",
         "weight": "w" if integer_weights else "event_weight",
         "nbins": 30, "xmin": 0.0, "xmax": 900.0},
        {"op": "histo1d", "name": "h_met", "column": "MET_pt",
         "weight": "w" if integer_weights else "event_weight",
         "nbins": 30, "xmin": 0.0, "xmax": 300.0},
        {"op": "count", "name": "n"},
    ]
    if integer_weights:
        stages.insert(2, {"op": "define", "name": "w", "expr": "1"})
    return json.dumps({"dataset": files, "stages": stages})


def _build_graph(doc, files):
    with open_dataset(files[0]) as h:
        schema = schema_types(h)
    return build(load_spec(doc), schema)


class TestDistributedRuns:
    def test_one_worker_equals_run_local(self, dataset_files):
        doc = make_doc(dataset_files, integer_weights=True)
        graph = _build_graph(doc, dataset_files)
        local = run_local(graph, dataset_files, nthreads=1, factor=3)

        with Scheduler() as sched:
            spawn_worker(sched.address, name="w0")
            wait_for_workers(sched, 1)
            result = run_distributed(doc, sched.address, factor=3)
        assert result.total_events == local.events == 750
        assert result.partial.universes == local.universes  # bit-exact, integer weights

    def test_worker_count_invariance(self, dataset_files):
        doc = make_doc(dataset_files, integer_weights=True)
        outcomes = []
        for n_workers in (1, 3):
            with Scheduler() as sched:
                for i in range(n_workers):
                    spawn_worker(sched.address, name=f"w{i}")
                wait_for_workers(sched, n_workers)
                outcomes.append(run_distributed(doc, sched.address, factor=3))
        assert outcomes[0].partial.universes == outcomes[1].partial.universes
        assert outcomes[0].total_events == outcomes[1].total_events

    def test_factor_invariance(self, dataset_files):
        doc = make_doc(dataset_files, integer_weights=True)
        results = []
        with Scheduler() as sched:
            spawn_worker(sched.address, slots=2, name="w0")
            wait_for_workers(sched, 1)
            for factor in (1, 3, 10):
                results.append(run_distributed(doc, sched.address, factor=factor))
        for other in results[1:]:
            assert other.partial.universes == results[0].partial.universes

    def test_plan_sized_by_slots(self, dataset_files):
        doc = make_doc(dataset_files[:2], integer_weights=True)  # 4 clusters per file
        results = []
        for slots in (1, 4):
            with Scheduler() as sched:
                spawn_worker(sched.address, slots=slots, name="w0")
                wait_for_workers(sched, 1)
                results.append(run_distributed(doc, sched.address, factor=1))
        assert len(results[0].records) == 2
        assert len(results[1].records) >= 4  # one worker, but four slots to fill
        assert results[1].partial.universes == results[0].partial.universes

    def test_records_cover_every_task_once(self, dataset_files):
        doc = make_doc(dataset_files)
        with Scheduler() as sched:
            spawn_worker(sched.address, slots=2, name="w0")
            spawn_worker(sched.address, slots=2, name="w1")
            wait_for_workers(sched, 2)
            result = run_distributed(doc, sched.address, factor=3)
        ids = [r.task_id for r in result.records]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)
        assert sum(r.events for r in result.records) == result.total_events == 750
        assert all(r.attempt == 1 for r in result.records)
        assert result.wall_time > 0.0
        assert result.scheduler_bytes > 0  # planner read headers and footers
        for r in result.records:
            assert 0.0 <= r.t_loop <= r.t_total
            assert r.bytes_read > 0
            assert r.passes == 1

    def test_network_read_closure(self, dataset_files, tmp_path):
        # served bytes on the data server == client-side accounting, exactly
        root = dataset_files[0].rsplit("/", 1)[0]
        with serve(root) as server:
            uris = [f"colsrv://{server.address}/{f.rsplit('/', 1)[1]}" for f in dataset_files]
            doc = make_doc(uris)
            with Scheduler() as sched:
                spawn_worker(sched.address, name="w0")
                wait_for_workers(sched, 1)
                result = run_distributed(doc, sched.address, factor=3)
            assert result.network_read == server.total_bytes_served
            assert result.scheduler_bytes > 0

    def test_explicit_task_list(self, dataset_files):
        # one task per file, as the baseline submits them
        doc = make_doc(dataset_files)
        totals = []
        for f in dataset_files:
            with open_dataset(f) as h:
                totals.append(h.total_entries)
        tasks = tuple(
            Task(i, "", EntryRange(f, 0, n), SINGLE_PASS)
            for i, (f, n) in enumerate(zip(dataset_files, totals))
        )
        with Scheduler() as sched:
            spawn_worker(sched.address, name="w0")
            wait_for_workers(sched, 1)
            result = submit_run(sched.address, doc, tasks=tasks)
        assert len(result.records) == 3
        assert result.total_events == sum(totals)
        assert result.scheduler_bytes == 0  # no planning needed

    def test_multi_pass_task_matches_single_pass(self, dataset_files):
        doc = make_doc(dataset_files, integer_weights=True)
        f = dataset_files[0]
        with open_dataset(f) as h:
            n = h.total_entries
        graph = _build_graph(doc, dataset_files)
        single = run_range(graph, EntryRange(f, 0, n), SINGLE_PASS)

        tasks = (Task(0, "", EntryRange(f, 0, n), MULTI_PASS),)
        with Scheduler() as sched:
            spawn_worker(sched.address, name="w0")
            wait_for_workers(sched, 1)
            result = submit_run(sched.address, doc, tasks=tasks)
        assert result.partial.universes == single.universes
        # 2 topology tags -> 3 passes over the data
        assert result.records[0].passes == 3
        assert result.partial.chunk_bytes == 3 * single.chunk_bytes

    def test_run_rejected_while_another_active(self, dataset_files):
        # no workers yet: the first run parks in deferred planning, holding
        # the single run slot until the worker arrives
        doc = make_doc(dataset_files)
        with Scheduler(startup_timeout=30.0) as sched:
            outcome = {}

            def first():
                outcome["result"] = run_distributed(doc, sched.address)

            t = threading.Thread(target=first)
            t.start()
            deadline = time.monotonic() + 5.0
            while sched._run is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert sched._run is not None
            with pytest.raises(ClusterError, match="another run is active"):
                submit_run(sched.address, doc, timeout=5.0)
            spawn_worker(sched.address, name="w0")
            t.join(timeout=30.0)
            assert outcome["result"].total_events == 750

    def test_bad_document_rejected(self, dataset_files):
        with Scheduler() as sched:
            with pytest.raises(ClusterError, match="bad pipeline document"):
                submit_run(sched.address, "{broken", timeout=5.0)

    def test_missing_file_fails_run(self, tmp_path):
        doc = json.dumps(
            {"dataset": [str(tmp_path / "nope.col")],
             "stages": [{"op": "count", "name": "n"}]}
        )
        with Scheduler() as sched:
            spawn_worker(sched.address, name="w0")
            wait_for_workers(sched, 1)
            with pytest.raises(ClusterError, match="planning failed"):
                submit_run(sched.address, doc, timeout=5.0)

    def test_no_workers_times_out(self, dataset_files):
        doc = make_doc(dataset_files)
        with Scheduler(startup_timeout=0.4) as sched:
            with pytest.raises(ClusterError, match="no workers"):
                submit_run(sched.address, doc, timeout=5.0)

    def test_duplicate_task_ids_rejected(self, dataset_files):
        doc = make_doc(dataset_files)
        r = EntryRange(dataset_files[0], 0, 10)
        tasks = (Task(3, "", r, SINGLE_PASS), Task(3, "", r, SINGLE_PASS))
        with Scheduler() as sched:
            with pytest.raises(ClusterError, match="task ids"):
                submit_run(sched.address, doc, tasks=tasks, timeout=5.0)

    def test_sparse_task_ids_allowed(self, dataset_files):
        # ids need not be contiguous: the baseline numbers jobs globally
        # across waves, so a submission may start anywhere
        doc = make_doc(dataset_files, integer_weights=True)
        totals = []
        for f in dataset_files:
            with open_dataset(f) as h:
                totals.append(h.total_entries)
        tasks = tuple(
            Task(10 + 2 * i, "", EntryRange(f, 0, n), SINGLE_PASS)
            for i, (f, n) in enumerate(zip(dataset_files, totals))
        )
        with Scheduler() as sched:
            spawn_worker(sched.address, name="w0")
            wait_for_workers(sched, 1)
            result = submit_run(sched.address, doc, tasks=tasks)
        assert [r.task_id for r in result.records] == [10, 12, 14]
        assert result.total_events == sum(totals)
        graph = _build_graph(doc, dataset_files)
        assert result.partial.universes == run_local(graph, dataset_files).universes


class TestFaultTolerance:
    def test_kill_one_of_three_workers_mid_run(self, tmp_path):
        # enough work that tasks are still inflight when the worker dies
        files = []
        for i in range(4):
            path = tmp_path / f"big{i}.col"
            write_dataset(
                str(path), STANDARD_SCHEMA, standard_columns(10_000, seed=40 + i), 500
            ).close()
            files.append(str(path))
        doc = make_doc(files, integer_weights=True)
        graph = _build_graph(doc, files)
        clean = run_local(graph, files, nthreads=4, factor=3)

        with Scheduler() as sched:
            victim, _, _ = spawn_worker(sched.address, name="victim")
            spawn_worker(sched.address, name="w1")
            spawn_worker(sched.address, name="w2")
            wait_for_workers(sched, 3)

            killed = threading.Event()

            def assassin():
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    holder = next(
                        (w for w in sched._workers.values() if w.name == "victim"), None
                    )
                    if holder is not None and holder.inflight:
                        break
                    time.sleep(0.002)
                victim._sock.close()  # hard kill: no FAIL, no goodbye
                killed.set()

            threading.Thread(target=assassin, daemon=True).start()
            result = run_distributed(doc, sched.address, factor=3, max_retries=2)
            assert killed.wait(timeout=10.0)

        assert result.total_events == clean.events == 40_000
        assert result.partial.universes == clean.universes
        # every task completed within the attempt budget
        assert all(r.attempt <= 3 for r in result.records)

    def test_failing_task_exhausts_retries(self, dataset_files):
        # range beyond EOF: the engine raises on every attempt
        doc = make_doc(dataset_files)
        tasks = (Task(0, "", EntryRange(dataset_files[0], 0, 10**9), SINGLE_PASS),)
        with Scheduler() as sched:
            spawn_worker(sched.address, name="w0")
            wait_for_workers(sched, 1)
            with pytest.raises(ClusterError, match="exhausted retries"):
                submit_run(sched.address, doc, tasks=tasks, max_retries=1, timeout=30.0)

    def test_worker_survives_failing_task(self, dataset_files):
        doc = make_doc(dataset_files)
        bad = Task(0, "", EntryRange(dataset_files[0], 0, 10**9), SINGLE_PASS)
        with Scheduler() as sched:
            spawn_worker(sched.address, name="w0")
            wait_for_workers(sched, 1)
            with pytest.raises(ClusterError):
                submit_run(sched.address, doc, tasks=(bad,), max_retries=0, timeout=30.0)
            # the same worker then completes a good run
            result = run_distributed(doc, sched.address)
            assert result.total_events == 750


def payload_size(msg) -> int:
    return len(encode(msg)) - wire.HEADER.size


class TestWireLimits:
    def test_1500_uri_document_runs(self, dataset_files):
        f = dataset_files[0]
        doc = make_doc([f] * 1500)
        assert len(doc.encode()) > 0xFFFF  # past the old u16 string length
        with open_dataset(f) as h:
            n = h.total_entries
        with Scheduler() as sched:
            spawn_worker(sched.address, name="w0")
            wait_for_workers(sched, 1)
            result = submit_run(
                sched.address, doc, tasks=(Task(0, "", EntryRange(f, 0, n), SINGLE_PASS),), timeout=30
            )
        assert result.total_events == n

    def test_unsendable_run_done_fails_the_run(self, dataset_files, monkeypatch):
        doc = make_doc(dataset_files)
        with Scheduler() as sched:
            spawn_worker(sched.address, name="w0")
            wait_for_workers(sched, 1)
            ok = submit_run(sched.address, doc, run_id="run-0", timeout=30)
            run_done = payload_size(RunDone("run-0", 0.0, ok.partial, ok.records))
            limit = max(
                payload_size(m) for m in (Submit("run-0", doc), Graph("0" * 16, doc), Result(0, 0.0, ok.partial))
            )
            assert run_done > limit  # every other frame of the run fits
            monkeypatch.setattr(wire, "MAX_FRAME", limit)
            t0 = time.monotonic()
            with pytest.raises(ClusterError, match=f"cannot send RunDone: frame payload of {run_done} bytes"):
                submit_run(sched.address, doc, run_id="run-0", timeout=30)
            assert time.monotonic() - t0 < 10
            monkeypatch.undo()
            again = submit_run(sched.address, doc, run_id="run-0", timeout=30)  # state loop alive
        assert again.partial.universes == ok.partial.universes

    def test_oversized_result_fails_the_task(self, dataset_files, monkeypatch):
        doc = make_doc(dataset_files)
        with Scheduler() as sched:
            spawn_worker(sched.address, name="w0")
            wait_for_workers(sched, 1)
            ok = submit_run(sched.address, doc, timeout=30)
            result = payload_size(Result(0, 0.0, ok.partial))
            monkeypatch.setattr(wire, "MAX_FRAME", result - 1)
            with pytest.raises(ClusterError, match=f"ProtoError: frame payload of {result} bytes exceeds"):
                submit_run(sched.address, doc, max_retries=0, timeout=30)
            monkeypatch.undo()
            again = submit_run(sched.address, doc, timeout=30)  # the worker survived
        assert again.total_events == ok.total_events


class TestPayloadAndResultFiles:
    def test_download_payload_wraps_short_sources(self, tmp_path):
        blob = tmp_path / "payload.bin"
        blob.write_bytes(b"\xab" * 4096)
        with serve(str(tmp_path)) as server:
            uri = f"colsrv://{server.address}/payload.bin"
            assert download_payload(uri, 10_000) == 10_000
            assert server.total_bytes_served == 10_000
        assert download_payload(str(blob), 100) == 100
        assert download_payload(str(blob), 0) == 0

    def test_payload_download_counts_into_bytes(self, dataset_files, tmp_path):
        blob = tmp_path / "payload.bin"
        blob.write_bytes(b"\x5a" * 4096)
        doc = make_doc(dataset_files)
        n_payload = 50_000
        with open_dataset(dataset_files[0]) as h:
            n = h.total_entries
        with serve(str(tmp_path)) as server:
            uri = f"colsrv://{server.address}/payload.bin"
            with_payload = (
                Task(0, "", EntryRange(dataset_files[0], 0, n), SINGLE_PASS,
                     payload_uri=uri, payload_bytes=n_payload),
            )
            without = (Task(0, "", EntryRange(dataset_files[0], 0, n), SINGLE_PASS),)
            with Scheduler() as sched:
                spawn_worker(sched.address, name="w0")
                wait_for_workers(sched, 1)
                submit_run(sched.address, doc, tasks=without)  # warm the graph cache
                a = submit_run(sched.address, doc, tasks=with_payload)
                b = submit_run(sched.address, doc, tasks=without)
            assert server.total_bytes_served == n_payload
        assert a.records[0].bytes_read - b.records[0].bytes_read == n_payload
        assert a.partial.universes == b.partial.universes

    def test_result_file_written_and_readable(self, dataset_files, tmp_path):
        doc = make_doc(dataset_files)
        out = str(tmp_path / "jobs" / "job0.res")
        with open_dataset(dataset_files[0]) as h:
            n = h.total_entries
        tasks = (
            Task(0, "", EntryRange(dataset_files[0], 0, n), SINGLE_PASS, result_file=out),
        )
        with Scheduler() as sched:
            spawn_worker(sched.address, name="w0")
            wait_for_workers(sched, 1)
            result = submit_run(sched.address, doc, tasks=tasks)
        graph_id, partial = read_result_file(out)
        assert graph_id == _build_graph(doc, dataset_files).graph_id
        assert partial.universes == result.partial.universes
        assert partial.events == result.total_events == n


class TestShutdown:
    def test_shutdown_stops_workers_and_scheduler(self, dataset_files):
        sched = Scheduler().start()
        worker, thread, out = spawn_worker(sched.address, name="w0")
        wait_for_workers(sched, 1)
        shutdown_cluster(sched.address)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert out["code"] == 0
        sched.wait(timeout=5.0)
        sched.stop()
