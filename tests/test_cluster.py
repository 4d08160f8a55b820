"""Distributed runtime over real localhost sockets.

Workers run in threads here (the CLI runs them as processes); the sockets,
framing, retry and merge paths are the production ones either way.
"""

import json
import os
import socket
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
from colflow.cluster import scheduler, worker as worker_module
from colflow.cluster.planner import plan_partitions
from colflow.cluster.worker import download_payload, read_result_file
from colflow.colstore import DataServer, open_dataset, write_dataset
from colflow.engine import EntryRange, PartialResult, run_local, run_range
from colflow.exprlang import ValueType
from colflow.graph import build, load_spec, schema_types
from colflow.proto import (
    Fail,
    Graph,
    Heartbeat,
    ProtoError,
    Register,
    Result,
    RunDone,
    RunFail,
    Shutdown,
    Submit,
    Task,
    decode,
    encode,
    recv_message,
    send_message,
)
from conftest import STANDARD_SCHEMA, standard_columns


def spawn_worker(address, name=None):
    worker = Worker(address, name=name)
    out = {}

    def target():
        out["code"] = worker.run()

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return worker, thread, out


def wait_for_workers(scheduler, n, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(scheduler._core.workers) >= n:
            return
        time.sleep(0.01)
    raise TimeoutError(f"only {len(scheduler._core.workers)} of {n} workers registered")


def wait_for_names(scheduler, names, timeout=5.0):
    """Wait until exactly the named workers are registered, in that order."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if [w.name for w in list(scheduler._core.workers.values())] == names:
            return
        time.sleep(0.01)
    raise TimeoutError(f"registered {[w.name for w in scheduler._core.workers.values()]}, not {names}")


@pytest.fixture
def dataset_files(tmp_path):
    files = []
    for i in range(3):
        path = tmp_path / f"data{i}.col"
        write_dataset(
            str(path), STANDARD_SCHEMA, standard_columns(200 + 50 * i, seed=20 + i), 64
        )
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
        local = run_local(graph, dataset_files, nworkers=1, factor=3)

        with Scheduler() as sched:
            spawn_worker(sched.address, name="w0")
            wait_for_workers(sched, 1)
            result = run_distributed(doc, sched.address, factor=3)
        assert result.total_events == local.events == 750
        assert result.partial.universes == local.universes  # bit-exact, integer weights

    def test_scheduler_accepts_on_a_listening_socket_it_is_given(self, dataset_files):
        doc = make_doc(dataset_files, integer_weights=True)
        listener = socket.create_server(("127.0.0.1", 0))
        address = "%s:%d" % listener.getsockname()[:2]
        spawn_worker(address, name="w0")  # its connect waits in the backlog
        with Scheduler(listener=listener) as sched:
            assert sched.address == address
            wait_for_workers(sched, 1)
            result = run_distributed(doc, address, factor=3)
        assert result.total_events == 750
        assert listener.fileno() == -1  # the scheduler owned it

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
            spawn_worker(sched.address, name="w0")
            spawn_worker(sched.address, name="w1")
            wait_for_workers(sched, 2)
            for factor in (1, 3, 10):
                results.append(run_distributed(doc, sched.address, factor=factor))
        for other in results[1:]:
            assert other.partial.universes == results[0].partial.universes

    def test_plan_sized_by_workers(self, dataset_files):
        doc = make_doc(dataset_files[:2], integer_weights=True)  # 4 clusters per file
        results = []
        for n_workers in (1, 4):
            with Scheduler() as sched:
                for i in range(n_workers):
                    spawn_worker(sched.address, name=f"w{i}")
                wait_for_workers(sched, n_workers)
                results.append(run_distributed(doc, sched.address, factor=1))
        assert len(results[0].records) == 2
        assert len(results[1].records) >= 4  # four workers to fill
        assert results[1].partial.universes == results[0].partial.universes

    def test_records_cover_every_task_once(self, dataset_files):
        doc = make_doc(dataset_files)
        with Scheduler() as sched:
            for i in range(4):
                spawn_worker(sched.address, name=f"w{i}")
            wait_for_workers(sched, 4)
            result = run_distributed(doc, sched.address, factor=3)
        ids = [r.task_id for r in result.records]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)
        assert sum(r.events for r in result.records) == result.total_events == 750
        assert all(r.attempt == 1 for r in result.records)
        assert result.wall_time > 0.0
        assert result.planning_bytes > 0  # planner read headers and footers
        for r in result.records:
            assert 0.0 <= r.t_loop <= r.t_total
            assert r.bytes_read > 0
            assert r.passes == 1

    def test_network_read_closure(self, dataset_files, tmp_path):
        # served bytes on the data server == client-side accounting, exactly
        root = dataset_files[0].rsplit("/", 1)[0]
        with DataServer(root) as server:
            uris = [f"colsrv://{server.address}/{f.rsplit('/', 1)[1]}" for f in dataset_files]
            doc = make_doc(uris)
            with Scheduler() as sched:
                spawn_worker(sched.address, name="w0")
                wait_for_workers(sched, 1)
                result = run_distributed(doc, sched.address, factor=3)
            assert result.network_read == server.total_bytes_served
            assert result.planning_bytes > 0

    def test_explicit_task_list(self, dataset_files):
        # one task per file, as the baseline submits them
        doc = make_doc(dataset_files)
        totals = []
        for f in dataset_files:
            with open_dataset(f) as h:
                totals.append(h.total_entries)
        tasks = tuple(
            Task(i, EntryRange(f, 0, n))
            for i, (f, n) in enumerate(zip(dataset_files, totals))
        )
        with Scheduler() as sched:
            spawn_worker(sched.address, name="w0")
            wait_for_workers(sched, 1)
            result = submit_run(sched.address, doc, tasks=tasks)
        assert len(result.records) == 3
        assert result.total_events == sum(totals)
        assert result.planning_bytes > 0  # the scheduler typed the run against the first file

    def test_multi_pass_task_matches_single_pass(self, dataset_files):
        doc = make_doc(dataset_files, integer_weights=True)
        f = dataset_files[0]
        with open_dataset(f) as h:
            n = h.total_entries
        graph = _build_graph(doc, dataset_files)
        single = run_range(graph, EntryRange(f, 0, n))

        tasks = (Task(0, EntryRange(f, 0, n), multi_pass=True),)
        with Scheduler() as sched:
            spawn_worker(sched.address, name="w0")
            wait_for_workers(sched, 1)
            result = submit_run(sched.address, doc, tasks=tasks)
        assert result.partial.universes == single.universes
        # 2 topology tags -> 3 passes over the data
        assert result.records[0].passes == 3
        assert result.partial.chunk_bytes == 3 * single.chunk_bytes

    def test_run_rejected_while_another_active(self, dataset_files):
        # the first run holds the single run slot while its one task sits
        # unanswered on a registered worker
        doc = make_doc(dataset_files[:1])
        graph = _build_graph(doc, dataset_files)
        task = Task(0, EntryRange(dataset_files[0], 0, 10))
        with Scheduler() as sched, FakeWorker(sched.address) as fake:
            outcome = {}
            thread = threading.Thread(target=lambda: outcome.update(
                result=submit_run(sched.address, doc, tasks=(task,), timeout=20)))
            thread.start()
            run = fake.recv(Graph).run
            assert fake.recv(Task).task_id == 0
            with pytest.raises(ClusterError, match="another run is active"):
                submit_run(sched.address, doc, timeout=5.0)
            fake.send(Result(0, 0.1, run_range(graph, task.entry_range), run))
            thread.join(30)
            assert not thread.is_alive()
        assert outcome["result"].total_events == 10

    def test_bad_document_rejected(self, dataset_files):
        with Scheduler() as sched:
            with pytest.raises(ClusterError, match="bad pipeline document"):
                submit_run(sched.address, "{broken", timeout=5.0)

    def test_ill_typed_document_fails_before_any_task(self, dataset_files):
        doc = json.dumps({"dataset": dataset_files, "stages": [
            {"op": "filter", "expr": "MET_pt && true"}, {"op": "count", "name": "n"}]})
        with Scheduler() as sched:
            worker, _, _ = spawn_worker(sched.address, name="w0")
            received = []
            worker._execute = received.append
            wait_for_workers(sched, 1)
            with pytest.raises(ClusterError, match="bad pipeline document: stage 0"):
                submit_run(sched.address, doc, timeout=5.0)
        assert received == []

    def test_malformed_documents_fail_at_once_and_the_scheduler_keeps_serving(self, dataset_files):
        def document(stage):
            return json.dumps({"dataset": dataset_files, "stages": [stage, {"op": "count", "name": "n"}]})

        histo = {"op": "histo1d", "name": "h", "column": "MET_pt", "nbins": 10, "xmin": 0.0, "xmax": 1.0}
        malformed = [
            document({"op": ["x"]}),
            document(histo).replace('"xmax": 1.0', '"xmax": 1' + "0" * 400),
            document(dict(histo, nbins=10**30)),
            "[" * 100_000,
            document({"op": "filter", "expr": "(" * 3000 + "nJet > 0" + ")" * 3000}),
            document({"op": "sum", "name": "s", "column": ["x"]}),
            document(dict(histo, xmin=float("-inf"), xmax=float("inf"))),
        ]
        with Scheduler() as sched:
            spawn_worker(sched.address, name="w0")
            wait_for_workers(sched, 1)
            for doc in malformed:
                t0 = time.monotonic()
                with pytest.raises(ClusterError, match="bad pipeline document"):
                    submit_run(sched.address, doc, timeout=5.0)
                assert time.monotonic() - t0 < 1.0
            result = run_distributed(make_doc(dataset_files), sched.address, timeout=30)
        assert result.total_events == 750

    def test_zero_partition_factor_rejected(self, dataset_files):
        with Scheduler() as sched:
            with pytest.raises(ClusterError, match="partition factor"):
                submit_run(sched.address, make_doc(dataset_files), factor=0, timeout=5.0)

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

    def test_no_workers_refused_at_once(self, dataset_files):
        doc = make_doc(dataset_files)
        with Scheduler() as sched:
            t0 = time.monotonic()
            with pytest.raises(ClusterError, match="^no workers registered$"):
                submit_run(sched.address, doc, timeout=5.0)
            assert time.monotonic() - t0 < 1.0
            spawn_worker(sched.address, name="w0")
            wait_for_workers(sched, 1)
            result = run_distributed(doc, sched.address, timeout=30)  # the same scheduler, once a worker is in
        assert result.total_events == 750

    def test_all_empty_dataset_returns_empty_tables(self, tmp_path):
        path = str(tmp_path / "empty.col")
        write_dataset(path, STANDARD_SCHEMA, standard_columns(0), 64)
        doc = json.dumps({"dataset": [path], "stages": [
            {"op": "count", "name": "n"},
            {"op": "histo1d", "name": "h", "column": "MET_pt", "nbins": 10, "xmin": 0.0, "xmax": 100.0}]})
        local = run_local(_build_graph(doc, [path]), [path])
        with Scheduler() as sched:
            spawn_worker(sched.address, name="w0")
            wait_for_workers(sched, 1)
            result = run_distributed(doc, sched.address, timeout=30)
        assert result.records == ()  # no task: the run finished when it was planned
        assert list(local.universes) == ["nominal"] and list(local.tables) == ["n", "h"]
        assert result.partial.universes == local.universes
        assert result.partial.shape() == local.shape()

    def test_duplicate_task_ids_rejected(self, dataset_files):
        doc = make_doc(dataset_files)
        r = EntryRange(dataset_files[0], 0, 10)
        tasks = (Task(3, r), Task(3, r))
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
            Task(10 + 2 * i, EntryRange(f, 0, n))
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
            )
            files.append(str(path))
        doc = make_doc(files, integer_weights=True)
        graph = _build_graph(doc, files)
        clean = run_local(graph, files, nworkers=4, factor=3)

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
                        (w for w in sched._core.workers.values() if w.name == "victim"), None
                    )
                    if holder is not None and holder.task is not None:
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
        tasks = (Task(0, EntryRange(dataset_files[0], 0, 10**9)),)
        with Scheduler() as sched:
            spawn_worker(sched.address, name="w0")
            wait_for_workers(sched, 1)
            with pytest.raises(ClusterError, match="exhausted retries"):
                submit_run(sched.address, doc, tasks=tasks, max_retries=1, timeout=30.0)

    def test_worker_survives_failing_task(self, dataset_files):
        doc = make_doc(dataset_files)
        bad = Task(0, EntryRange(dataset_files[0], 0, 10**9))
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


def explicit_plan(spec, tasks, n_workers, factor):
    """A planner that opens no file: the run's own tasks, typed by the standard schema."""
    return build(spec, STANDARD_SCHEMA), tasks, 0


def step(core, kind, conn_id=None, payload=None, now=0.0):
    """One step of ``core``: its effects, each frame decoded and a close as None."""
    return [(c, None if frame is None else decode(frame)) for c, frame in core.step(now, (kind, conn_id, payload))]


def submitted(max_retries, n_tasks=2):
    """A core with worker a registered on connection 1 and a run of n_tasks
    submitted on connection 99, at time 0."""
    core = scheduler.Core(explicit_plan)
    step(core, "msg", 1, Register("a"))
    tasks = tuple(Task(i, EntryRange("f.col", 0, 10)) for i in range(n_tasks))
    assert step(core, "msg", 99, Submit("r", make_doc(["f.col"]), max_retries, tasks=tasks)) == []
    return core


def tasks_to(effects, conn_id):
    return [m.task_id for c, m in effects if c == conn_id and isinstance(m, Task)]


LOSS_TIME = scheduler.HEARTBEAT_INTERVAL * scheduler.LOSS_FACTOR + 0.01  # silent past the limit


class TestSlotBookkeeping:
    """The core driven by events alone: a lost worker is one silent past the
    heartbeat limit on an idle tick, or one that hung up."""

    def test_late_answer_of_a_lost_worker_frees_no_other_slot(self):
        core = submitted(max_retries=2)
        run = core.run
        step(core, "tick", payload=True)  # task 0 to a; task 1 waits
        step(core, "tick", payload=True, now=LOSS_TIME)  # a is lost
        step(core, "msg", 2, Register("b"), now=LOSS_TIME)
        sent = step(core, "tick", payload=True, now=LOSS_TIME)  # task 0 again, to b
        b = core.workers[2]
        assert b.task == (run.number, 0)
        step(core, "msg", 1, Result(0, 0.1, PartialResult.empty(run.graph), run.number), now=LOSS_TIME)  # a's late answer
        assert 0 in run.accepted and b.task == (run.number, 0)
        sent += step(core, "tick", payload=True, now=LOSS_TIME)  # b is still busy with task 0
        assert b.task == (run.number, 0) and list(run.pending) == [1]
        assert tasks_to(sent, 2) == [0]

    def test_late_answer_of_a_lost_worker_names_who_ran_it(self):
        core = submitted(max_retries=2)
        run = core.run
        step(core, "tick", payload=True)  # task 0 to a, attempt 1
        step(core, "tick", payload=True, now=LOSS_TIME)  # a is lost
        step(core, "msg", 2, Register("b"), now=LOSS_TIME)
        step(core, "tick", payload=True, now=LOSS_TIME)  # task 0 to b, attempt 2
        step(core, "msg", 1, Result(0, 0.1, PartialResult.empty(run.graph), run.number), now=LOSS_TIME)
        [(record, _)] = run.accepted.values()
        assert (record.task_id, record.worker, record.attempt) == (0, "a", 1)

    def test_late_fail_of_a_lost_worker_requeues_nothing(self):
        core = submitted(max_retries=2)
        run = core.run
        step(core, "tick", payload=True)  # task 0 to a
        step(core, "tick", payload=True, now=LOSS_TIME)  # a is lost: requeues task 0 once
        assert list(run.pending) == [0, 1]
        step(core, "msg", 1, Fail(0, "too late", run.number), now=LOSS_TIME)
        assert list(run.pending) == [0, 1] and run.attempts == {0: 1}

    def test_losing_a_worker_spends_an_attempt(self):
        core = submitted(max_retries=0)
        step(core, "tick", payload=True)
        sent = step(core, "gone", 1)
        assert core.run is None
        assert [m.error for c, m in sent if c == 99 and isinstance(m, RunFail)] == [
            "task 0 exhausted retries: worker a disconnected"
        ]

    def test_accepted_task_is_not_dispatched_again(self):
        # a's late RESULT is accepted while its task waits, requeued, for a worker
        core = submitted(max_retries=2)
        run = core.run
        step(core, "tick", payload=True)  # task 0 to a
        step(core, "tick", payload=True, now=LOSS_TIME)  # a is lost: task 0 requeued
        step(core, "msg", 1, Result(0, 0.1, PartialResult.empty(run.graph), run.number), now=LOSS_TIME)
        assert list(run.pending) == [1]
        step(core, "msg", 2, Register("b"), now=LOSS_TIME)
        sent = step(core, "tick", payload=True, now=LOSS_TIME)
        assert tasks_to(sent, 2) == [1] and run.attempts == {0: 1, 1: 1}


class TestHeartbeats:
    def test_long_planning_loses_no_worker(self, tmp_path, monkeypatch):
        # planning 1000 remote entries holds the state loop far past the
        # 0.15 s loss limit; the beats queued meanwhile still count
        monkeypatch.setattr(scheduler, "HEARTBEAT_INTERVAL", 0.05)
        monkeypatch.setattr(worker_module, "HEARTBEAT_INTERVAL", 0.05)
        write_dataset(str(tmp_path / "small.col"), STANDARD_SCHEMA, standard_columns(200, seed=5), 200)
        with DataServer(str(tmp_path)) as server:
            doc = json.dumps({"dataset": [f"colsrv://{server.address}/small.col"] * 1000,
                              "stages": [{"op": "count", "name": "n"}]})
            with Scheduler() as sched:
                core, lost = sched._core, []
                lose = core._lose

                def spy(conn_id, why):
                    if conn_id in core.workers:  # a client hanging up loses no worker
                        lost.append((core.workers[conn_id].name, why))
                    lose(conn_id, why)

                core._lose = spy
                spawn_worker(sched.address, name="w0")
                spawn_worker(sched.address, name="w1")
                wait_for_workers(sched, 2)
                result = run_distributed(doc, sched.address, factor=1, timeout=120)
                registered = len(core.workers)
        assert lost == []
        assert result.total_events == 200_000
        assert all(r.attempt == 1 for r in result.records)
        assert registered == 2

    def test_beat_handled_after_a_long_step_keeps_its_worker(self):
        core = submitted(max_retries=0, n_tasks=1)
        step(core, "tick", payload=True)
        late = 100 * LOSS_TIME  # a step held the loop this long; a's beats wait in the queue
        assert step(core, "tick", payload=False, now=late) == []
        assert step(core, "msg", 1, Heartbeat("a"), now=late) == []
        assert step(core, "tick", payload=True, now=late) == []
        assert list(core.workers) == [1] and core.run.attempts == {0: 1}

    @pytest.mark.parametrize("max_retries", [0, 1])
    def test_silent_worker_is_lost_on_an_idle_tick(self, max_retries):
        core = scheduler.Core(explicit_plan)
        step(core, "msg", 1, Register("w0"))
        task = Task(0, EntryRange("f.col", 0, 10))
        step(core, "msg", 99, Submit("r", make_doc(["f.col"]), max_retries, tasks=(task,)))
        assert tasks_to(step(core, "tick", payload=True), 1) == [0]
        step(core, "msg", 1, Heartbeat("w0"), now=1.0)
        limit = 1.0 + scheduler.HEARTBEAT_INTERVAL * scheduler.LOSS_FACTOR
        assert step(core, "tick", payload=True, now=limit) == []  # silent for the limit, not past it
        assert step(core, "tick", payload=False, now=limit + 0.01) == []  # the queue is not empty
        sent = step(core, "tick", payload=True, now=limit + 0.01)
        assert sent[0] == (1, None) and 1 not in core.workers
        if max_retries:
            assert list(core.run.pending) == [0] and core.run.attempts == {0: 1}
        else:
            assert sent[1:] == [(99, RunFail("r", "task 0 exhausted retries: worker w0 heartbeat timeout"))]


class TestWireLimits:
    def test_1500_uri_document_runs(self, dataset_files, monkeypatch):
        f = dataset_files[0]
        doc = make_doc([f] * 1500)
        assert len(doc.encode()) > 0xFFFF  # past the old u16 string length
        with open_dataset(f) as h:
            n = h.total_entries
        with Scheduler() as sched:
            spawn_worker(sched.address, name="w0")
            wait_for_workers(sched, 1)
            result = submit_run(
                sched.address, doc, tasks=(Task(0, EntryRange(f, 0, n)),), timeout=30
            )
            assert result.total_events == n

            # planning the same document holds a handle only while it reads it
            fds_in_plan = []

            def counting_plan(handles, *args):
                fds_in_plan.append(len(os.listdir("/proc/self/fd")))
                return plan_partitions(handles, *args)

            monkeypatch.setattr(scheduler, "plan_partitions", counting_plan)
            fds_before = len(os.listdir("/proc/self/fd"))
            planned = submit_run(sched.address, doc, timeout=120)
        assert len(fds_in_plan) == 1 and fds_in_plan[0] <= fds_before + 8
        assert planned.total_events == 1500 * n

    def test_unsendable_run_done_fails_the_run(self, dataset_files, monkeypatch):
        doc = make_doc(dataset_files)
        with Scheduler() as sched:
            spawn_worker(sched.address, name="w0")
            wait_for_workers(sched, 1)
            ok = submit_run(sched.address, doc, run_id="run-0", timeout=30)
            run_done = payload_size(RunDone("run-0", 0.0, ok.partial, ok.records))
            limit = max(
                payload_size(m) for m in (Submit("run-0", doc), Graph(2**32 - 1, doc, STANDARD_SCHEMA), Result(0, 0.0, ok.partial))
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

    def test_unframeable_task_fails_the_run_and_the_scheduler_keeps_serving(self, dataset_files, tmp_path):
        odd = str(tmp_path / "\udc80.col")  # on disk the byte 0x80, which strict UTF-8 cannot carry
        write_dataset(odd, STANDARD_SCHEMA, standard_columns(100, seed=5), 64)
        doc = make_doc([odd])  # json.dumps escapes the lone surrogate: the SUBMIT itself is ASCII
        with Scheduler() as sched:
            spawn_worker(sched.address, name="w0")
            wait_for_workers(sched, 1)
            with pytest.raises(ClusterError, match="cannot send Task: cannot encode Task: .* surrogates"):
                submit_run(sched.address, doc, timeout=30)
            again = submit_run(sched.address, make_doc(dataset_files), timeout=30)  # on the same worker
        assert again.total_events == 200 + 250 + 300

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
        with DataServer(str(tmp_path)) as server:
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
        with DataServer(str(tmp_path)) as server:
            uri = f"colsrv://{server.address}/payload.bin"
            with_payload = (
                Task(0, EntryRange(dataset_files[0], 0, n),
                     payload_uri=uri, payload_bytes=n_payload),
            )
            without = (Task(0, EntryRange(dataset_files[0], 0, n)),)
            with Scheduler() as sched:
                spawn_worker(sched.address, name="w0")
                wait_for_workers(sched, 1)
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
            Task(0, EntryRange(dataset_files[0], 0, n), result_file=out),
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


def x_file(path, x_type, z_type=ValueType.I64):
    """Three events: x 7, 8, 9 (halves added when F64) and an unused column z."""
    x = [7.5, 8.5, 9.5] if x_type is ValueType.F64 else [7, 8, 9]
    z = [1.5, 2.5, 3.5] if z_type is ValueType.F64 else [1, 2, 3]
    write_dataset(str(path), {"x": x_type, "z": z_type}, {"x": x, "z": z}, 2)
    return str(path)


def half_x_doc(files):
    return json.dumps({"dataset": files, "stages": [
        {"op": "define", "name": "y", "expr": "x / 2"},
        {"op": "sum", "name": "s", "column": "y"},
    ]})


class TestColumnTypes:
    def test_mixed_column_types_fail_before_any_task(self, tmp_path):
        files = [x_file(tmp_path / "a.col", ValueType.I64), x_file(tmp_path / "b.col", ValueType.F64)]
        with Scheduler() as sched:
            worker, _, _ = spawn_worker(sched.address, name="w0")
            received = []
            worker._execute = received.append
            wait_for_workers(sched, 1)
            with pytest.raises(
                ClusterError, match=r"bad dataset: .*b\.col holds column 'x' as F64, the graph reads it as I64"
            ):
                submit_run(sched.address, half_x_doc(files), timeout=5.0)
        assert received == []

    def test_explicit_task_on_mistyped_file_fails(self, tmp_path):
        # explicit runs are typed against the document's first file only; the
        # engine then checks each task's file
        a, b = x_file(tmp_path / "a.col", ValueType.I64), x_file(tmp_path / "b.col", ValueType.F64)
        with Scheduler() as sched:
            spawn_worker(sched.address, name="w0")
            wait_for_workers(sched, 1)
            with pytest.raises(ClusterError, match=r"task 0 exhausted retries: EngineError: .*b\.col holds column 'x'"):
                submit_run(sched.address, half_x_doc([a]), tasks=(Task(0, EntryRange(b, 0, 3)),),
                           max_retries=0, timeout=10.0)

    def test_unused_column_may_differ(self, tmp_path):
        files = [x_file(tmp_path / "a.col", ValueType.I64),
                 x_file(tmp_path / "b.col", ValueType.I64, z_type=ValueType.F64)]
        with Scheduler() as sched:
            spawn_worker(sched.address, name="w0")
            wait_for_workers(sched, 1)
            result = submit_run(sched.address, half_x_doc(files), timeout=10.0)
        assert result.partial.universes["nominal"]["s"].value == 2 * (3 + 4 + 4)


def test_first_task_reads_only_its_range(dataset_files):
    doc = make_doc(dataset_files)
    f = dataset_files[1]
    with open_dataset(f) as h:
        n = h.total_entries
    own = run_range(_build_graph(doc, dataset_files), EntryRange(f, 0, n))
    with Scheduler() as sched:
        spawn_worker(sched.address, name="fresh")
        wait_for_workers(sched, 1)
        result = submit_run(sched.address, doc, tasks=(Task(0, EntryRange(f, 0, n)),))
    assert result.records[0].bytes_read == own.bytes_read


class FakeWorker:
    """A worker socket driven by the test: it registers and answers by hand."""

    def __init__(self, address):
        host, _, port = address.rpartition(":")
        self.sock = socket.create_connection((host, int(port)), timeout=10)
        send_message(self.sock, Register("fake"))
        assert self.recv(Register) == Register("fake")  # the scheduler's echo

    def recv(self, kind):
        msg = recv_message(self.sock)
        assert isinstance(msg, kind), msg
        return msg

    def send(self, msg):
        send_message(self.sock, msg)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.sock.close()


class TestRegistration:
    @pytest.mark.parametrize(
        "answer", [Shutdown(), Register("someone-else"), None], ids=["shutdown", "other-register", "eof"]
    )
    def test_announce_needs_its_echo(self, answer):
        listener = socket.create_server(("127.0.0.1", 0))
        worker = Worker(f"127.0.0.1:{listener.getsockname()[1]}", name="w0")
        conn, _ = listener.accept()
        listener.close()
        with conn:
            if answer is None:
                conn.shutdown(socket.SHUT_WR)
            else:
                send_message(conn, answer)
            with pytest.raises(ProtoError):
                worker.announce()
            assert recv_message(conn) == Register("w0")  # it did register first
        worker._sock.close()

    def test_scheduler_echoes_register_after_recording_the_worker(self):
        with Scheduler() as sched:
            host, _, port = sched.address.rpartition(":")
            with socket.create_connection((host, int(port)), timeout=10) as sock:
                send_message(sock, Register("w7"))
                assert recv_message(sock) == Register("w7")
                [worker] = sched._core.workers.values()
                assert worker.name == "w7"


class TestRunScoping:
    def test_result_of_wrong_shape_fails_its_task(self, dataset_files):
        doc = make_doc(dataset_files[:2])
        graph = _build_graph(doc, dataset_files)
        other = build(load_spec(make_doc(dataset_files[:2], integer_weights=True).replace("jes_", "jer_")),
                      STANDARD_SCHEMA)
        tasks = tuple(Task(i, EntryRange(f, 0, 10)) for i, f in enumerate(dataset_files[:2]))
        with Scheduler() as sched:
            fake = FakeWorker(sched.address)
            wait_for_workers(sched, 1)
            outcome = {}

            def client():
                t0 = time.monotonic()
                try:
                    submit_run(sched.address, doc, tasks=tasks, max_retries=0, timeout=20)
                except ClusterError as e:
                    outcome["error"] = str(e)
                outcome["seconds"] = time.monotonic() - t0

            thread = threading.Thread(target=client)
            thread.start()
            run = fake.recv(Graph).run
            first = fake.recv(Task)
            fake.send(Result(first.task_id, 0.1, PartialResult.empty(graph), run))
            second = fake.recv(Task)
            fake.send(Result(second.task_id, 0.1, PartialResult.empty(other), run))
            thread.join(30)
            assert outcome["error"] == f"task {second.task_id} exhausted retries: result does not fit the run's graph"
            assert outcome["seconds"] < 5
            fake.sock.close()
            spawn_worker(sched.address, name="w0")
            wait_for_names(sched, ["w0"])
            result = run_distributed(doc, sched.address, timeout=30)  # the state loop survived
        assert result.total_events == 450

    def test_answer_from_another_run_is_dropped(self, dataset_files):
        doc = make_doc(dataset_files[:1])
        graph = _build_graph(doc, dataset_files)
        with Scheduler() as sched, FakeWorker(sched.address) as fake:
            wait_for_workers(sched, 1)
            outcome = {}
            task = (Task(0, EntryRange(dataset_files[0], 0, 10)),)
            thread = threading.Thread(target=lambda: outcome.update(
                result=submit_run(sched.address, doc, tasks=task, max_retries=0, timeout=20)))
            thread.start()
            run = fake.recv(Graph).run
            got = fake.recv(Task)
            assert got.run == run
            fake.send(Fail(0, "a stale answer", run - 1))  # frees nothing, fails nothing
            fake.send(Result(0, 0.1, PartialResult.empty(graph), run + 1))
            fake.send(Result(0, 0.1, PartialResult.empty(graph), run))
            thread.join(30)
        assert outcome["result"].records[0].task_id == 0

    def test_no_second_task_while_one_is_in_flight(self, dataset_files):
        doc = make_doc(dataset_files[:1])
        graph = _build_graph(doc, dataset_files)
        tasks = tuple(Task(i, EntryRange(dataset_files[0], 0, 10)) for i in range(3))
        with Scheduler() as sched, FakeWorker(sched.address) as fake:
            wait_for_workers(sched, 1)
            outcome = {}
            thread = threading.Thread(target=lambda: outcome.update(
                result=submit_run(sched.address, doc, tasks=tasks, max_retries=0, timeout=20)))
            thread.start()
            run = fake.recv(Graph).run
            for task_id in range(3):
                assert fake.recv(Task).task_id == task_id
                assert list(sched._core.run.pending) == list(range(task_id + 1, 3))
                fake.sock.settimeout(0.3)
                with pytest.raises(TimeoutError):
                    recv_message(fake.sock)  # the next task waits for this one's answer
                fake.sock.settimeout(10)
                fake.send(Result(task_id, 0.1, PartialResult.empty(graph), run))
            thread.join(30)
        assert [r.task_id for r in outcome["result"].records] == [0, 1, 2]

    def test_worker_fails_task_of_a_run_it_no_longer_holds(self, dataset_files):
        f = dataset_files[0]
        doc = make_doc([f])
        listener = socket.create_server(("127.0.0.1", 0))
        worker = Worker(f"127.0.0.1:{listener.getsockname()[1]}", name="w0")
        conn, _ = listener.accept()
        listener.close()
        conn.settimeout(10)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        with conn:
            register = recv_message(conn)
            assert isinstance(register, Register)
            send_message(conn, register)
            task = Task(0, EntryRange(f, 0, 10))
            send_message(conn, Graph(1, doc, STANDARD_SCHEMA))
            send_message(conn, Graph(2, doc, STANDARD_SCHEMA))
            send_message(conn, Task(0, EntryRange(f, 0, 10), run=1))
            stale = recv_message(conn)
            assert stale == Fail(0, "RuntimeError: no graph for run 1 (holding run 2)", 1)
            send_message(conn, Task(0, EntryRange(f, 0, 10), run=2))
            ok = recv_message(conn)
            assert isinstance(ok, Result) and ok.run == 2 and ok.partial.events == 10
            # a graph that does not build is that run's answer to every task
            send_message(conn, Graph(3, doc, {"MET_pt": ValueType.F64}))
            send_message(conn, Task(7, task.entry_range, run=3))
            bad = recv_message(conn)
            assert isinstance(bad, Fail) and bad.run == 3 and bad.error.startswith("PipelineError: ")
            send_message(conn, Shutdown())
            thread.join(10)
        assert not thread.is_alive()


def jets_file(path, njet):
    """Standard-schema events with the given jet counts; jet pT 40-55."""
    n = len(njet)
    write_dataset(str(path), STANDARD_SCHEMA, {
        "event_weight": [1.0] * n,
        "MET_pt": [float(i % 97) for i in range(n)],
        "nJet": njet,
        "Jet_pt": [[40.0 + i % 13 + k for k in range(j)] for i, j in enumerate(njet)],
        "Jet_eta": [[0.0] * j for j in njet],
        "Jet_phi": [[0.0] * j for j in njet],
    }, 500)
    return str(path)


def lead_doc(files, prefix, n_tags):
    """Leading-jet pT, which fails on an event without jets, under n_tags scale variations."""
    tags = [f"{prefix}{k}" for k in range(n_tags)]
    return json.dumps({"dataset": files, "stages": [
        {"op": "define", "name": "lead", "expr": "Jet_pt[0]"},
        {"op": "vary", "column": "lead", "kind": "topology", "tags": tags,
         "exprs": [f"lead * {1 + 0.01 * (k + 1)}" for k in range(n_tags)]},
        {"op": "histo1d", "name": "h_lead", "column": "lead", "nbins": 20, "xmin": 0.0, "xmax": 100.0},
        {"op": "count", "name": "n"},
    ]})


def test_late_answer_of_a_failed_run_stays_out_of_the_next(tmp_path):
    n = 1500
    slow = jets_file(tmp_path / "slow.col", [2] * n)
    bad = jets_file(tmp_path / "bad.col", [0, 2, 2])  # event 0 has no jet: Jet_pt[0] fails
    b_files = [jets_file(tmp_path / f"b{i}.col", [1, 2, 3] * (n // 3)) for i in range(2)]
    doc_a = lead_doc([slow, bad], "a", 6)
    doc_b = lead_doc(b_files, "b", 20)
    with Scheduler() as sched:
        spawn_worker(sched.address, name="w0")
        spawn_worker(sched.address, name="w1")
        wait_for_workers(sched, 2)
        tasks_a = (Task(0, EntryRange(slow, 0, n)), Task(1, EntryRange(bad, 0, 3)))
        with pytest.raises(ClusterError, match="task 1 exhausted retries: .*index 0 out of range"):
            submit_run(sched.address, doc_a, tasks=tasks_a, max_retries=0, timeout=30)
        # task 0 of run A is still running when run B sends its own task 0
        tasks_b = tuple(Task(i, EntryRange(f, 0, n)) for i, f in enumerate(b_files))
        b = submit_run(sched.address, doc_b, tasks=tasks_b, timeout=60)
        again = submit_run(sched.address, lead_doc([slow], "c", 1), timeout=30)
    with open_dataset(b_files[0]) as h:
        graph_b = build(load_spec(doc_b), h.schema)
    assert set(b.partial.universes) == {"nominal", *(f"b{k}" for k in range(20))}
    assert b.partial.universes == run_local(graph_b, b_files).universes
    assert again.total_events == n
