"""The scheduler core under seeded random schedules in virtual time.

A schedule mixes worker registrations, beats and silences, RESULTs and
FAILs, late answers from lost workers, answers of other runs, hang-ups
and SUBMITs with 0-6 explicit tasks, each event followed by a tick as the
shell does. The core plans with a fake planner that opens no file. Each
stand-in RESULT holds one SUM table whose value (1e16, 1.0, -1e16, ...)
makes any merge out of task order change the bits. After every step the
simulation checks the invariants in ``Simulation.step`` against the
effects the core returned and the state it keeps.
"""

import json
import random

import pytest

from colflow.cluster.scheduler import Core
from colflow.engine import EngineError, EntryRange, PartialResult
from colflow.exprlang import ValueType
from colflow.graph import build, load_spec
from colflow.proto import Fail, Graph, Heartbeat, Register, Result, RunDone, RunFail, Submit, Task, decode

SCHEMA = {"x": ValueType.F64}
STAGES = [{"op": "sum", "name": "s", "column": "x"}]
DOCUMENT = json.dumps({"dataset": ["sim.col"], "stages": STAGES})
UNPLANNABLE = json.dumps({"dataset": ["missing.col"], "stages": STAGES})
OTHER_SHAPE = PartialResult.empty(build(load_spec(DOCUMENT.replace('"s"', '"t"')), SCHEMA))
VALUES = (1e16, 1.0, -1e16, 3.0, -1.0, 0.5, 2e16)


def fake_plan(spec, tasks, n_workers, factor):
    """Plan without files: the explicit tasks as given (none: an empty run)."""
    if spec.dataset[0] == "missing.col":
        raise EngineError("missing.col: no such file")
    return build(spec, SCHEMA), tasks, 0


class Simulation:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.core = Core(fake_plan)
        self.steps = 0
        self.now = 0.0
        self.conns = 0
        self.closed = set()  # connections hung up, or closed by the core
        self.workers = {}  # open registered connection -> the (run, task_id) it holds, or None
        self.lost = {}  # connection the core closed -> the (run, task_id) it held then
        self.clients = set()  # open connections that sent a SUBMIT
        self.graph_sent = {}  # connection -> run number of the last GRAPH it was sent
        self.submits = {}  # run id -> (client connection, max_retries)
        self.outcomes = {}  # run id -> its RUN_DONE and RUN_FAIL frames
        self.starts = {}  # (run, task_id) -> TASK frames sent
        self.accepted = {}  # task_id -> (the core's accepted entry, the value sent) for the active run
        self.values = {}  # id(partial) -> (partial, value) for the stand-ins sent to the active run
        self.done = 0  # RUN_DONEs of runs that had tasks

    def run(self, steps: int) -> "Simulation":
        while self.steps < steps:
            event = self.pick()
            self.step(*event)
            if event[0] != "tick":
                self.step("tick", None, self.rng.random() < 0.7)  # idle: the shell's queue is empty
        return self

    def connect(self) -> int:
        self.conns += 1
        return self.conns

    def pick(self) -> tuple:
        rng, core = self.rng, self.core
        roll = rng.random()
        live = sorted(self.workers)
        if roll < 0.06 or not live:
            conn = self.connect()
            self.workers[conn] = None
            return "msg", conn, Register(f"w{conn}")
        if roll < 0.22:
            return "msg", rng.choice(live), Heartbeat("w")
        if roll < 0.30:
            self.now += rng.choice((0.5, 2.0, 7.0))  # 7 s of silence is past the loss limit
            return "tick", None, rng.random() < 0.8
        busy = [c for c in live if self.workers[c] is not None]
        if roll < 0.60 and busy:
            conn = rng.choice(busy)
            held, self.workers[conn] = self.workers[conn], None
            return "msg", conn, self.answer(*held)
        if roll < 0.66 and self.lost:
            conn = rng.choice(sorted(self.lost))
            return "msg", conn, self.answer(*self.lost.pop(conn))
        if roll < 0.70:
            conn, key = rng.choice(live), (core.runs_started + rng.choice((-1, 1)), rng.randrange(10))
            if self.workers[conn] == key:
                self.workers[conn] = None
            return "msg", conn, self.answer(*key)
        if roll < 0.75:
            conn = rng.choice(live + sorted(self.clients))
            self.workers.pop(conn, None)
            self.clients.discard(conn)
            self.closed.add(conn)
            return "gone", conn, None
        if roll < 0.82 or core.run is None:
            return "msg", self.connect(), self.submit(self.conns)
        return "tick", None, rng.random() < 0.8

    def answer(self, number: int, task_id: int):
        """A FAIL, or a RESULT: a stand-in of the active run's shape, or of another shape."""
        rng, run = self.rng, self.core.run
        if rng.random() < 0.2:
            return Fail(task_id, "boom", number)
        if rng.random() < 0.05 or run is None or run.number != number:
            return Result(task_id, 0.1, OTHER_SHAPE, number)
        value = rng.choice(VALUES)
        partial = PartialResult.empty(run.graph)
        partial.tables["s"].sumw[0, 0] = value
        self.values[id(partial)] = (partial, value)
        return Result(task_id, 0.1, partial, number)

    def submit(self, conn: int) -> Submit:
        rng = self.rng
        run_id = f"r{len(self.submits)}"
        tasks = tuple(Task(i, EntryRange("sim.col", i, i + 1)) for i in rng.sample(range(10), rng.randint(0, 6)))
        if tasks and rng.random() < 0.05:
            tasks += tasks[:1]  # refused: task ids must be unique
        max_retries = rng.randint(0, 2)
        self.clients.add(conn)
        self.submits[run_id] = (conn, max_retries)
        self.outcomes[run_id] = []
        return Submit(run_id, UNPLANNABLE if rng.random() < 0.03 else DOCUMENT, max_retries, tasks=tasks)

    def step(self, kind: str, conn: int | None, payload) -> None:
        """One core step, then every invariant:
        - no frame goes to a closed connection
        - no TASK is sent for a task already accepted, and none before its run's GRAPH
        - a worker holds at most one task
        - no task starts more than max_retries + 1 attempts
        - each task is accepted once, and an accepted task is not pending
        - every task of the active run is pending, accepted or held by a registered worker
        - each run ends in exactly one RUN_DONE or RUN_FAIL (none if its client hung up)
        - a RUN_DONE's result is the task-order merge of the accepted partials, bit for bit
        """
        core = self.core
        before = core.run
        accepted_before = set(before.accepted) if before else set()
        touched = {before.run_id} if before else set()
        self.steps += 1
        for target, frame in core.step(self.now, (kind, conn, payload)):
            if frame is None:
                self.closed.add(target)
                self.clients.discard(target)
                if self.workers.get(target) is not None:
                    self.lost[target] = self.workers[target]
                self.workers.pop(target, None)
                continue
            assert target not in self.closed, f"a frame for closed connection {target}"
            msg = decode(frame)
            if isinstance(msg, Task):
                key = (msg.run, msg.task_id)
                assert before is core.run and msg.run == before.number
                assert msg.task_id not in accepted_before, f"TASK {msg.task_id} sent after it was accepted"
                assert self.graph_sent.get(target) == msg.run, "a TASK before its run's GRAPH"
                assert self.workers[target] is None, f"a second task for worker {target}"
                self.workers[target] = key
                self.starts[key] = self.starts.get(key, 0) + 1
                assert self.starts[key] <= self.submits[before.run_id][1] + 1, f"task {key} over its attempt budget"
            elif isinstance(msg, Graph):
                self.graph_sent[target] = msg.run
            elif isinstance(msg, (RunDone, RunFail)):
                assert self.submits[msg.run_id][0] == target
                self.outcomes[msg.run_id].append(msg)
                touched.add(msg.run_id)
                if isinstance(msg, RunDone):
                    self.check_merge(before, payload, msg)
        if isinstance(payload, Submit):
            touched.add(payload.run_id)
        self.check_runs(before, touched)

    def check_merge(self, run, answer, done: RunDone) -> None:
        if run is None or run.run_id != done.run_id:  # a run with no task is done when planned
            assert done.records == () and done.partial.tables["s"].sumw[0, 0] == 0.0
            return
        self.done += 1
        values = {t: value for t, (_, value) in self.accepted.items()}
        values[answer.task_id] = self.values[id(answer.partial)][1]  # this answer finished the run
        assert [r.task_id for r in done.records] == sorted(values) == sorted(run.tasks)
        order = sorted(values)
        total = values[order[0]]
        for t in order[1:]:
            total += values[t]
        assert float(done.partial.tables["s"].sumw[0, 0]).hex() == total.hex()

    def check_runs(self, before, touched: set) -> None:
        run = self.core.run
        if run is not before:
            self.accepted, self.values = {}, {}
        if run is not None:
            for t, entry in run.accepted.items():
                if t in self.accepted:
                    assert self.accepted[t][0] is entry, f"task {t} accepted twice"
                else:
                    self.accepted[t] = (entry, self.values[id(entry[1])][1])
            held = {w.task[1] for w in self.core.workers.values() if w.task is not None and w.task[0] == run.number}
            assert not set(run.pending) & set(run.accepted)
            assert set(run.pending) | set(run.accepted) | held == set(run.tasks), "a task was dropped"
        for run_id in touched:
            ended = len(self.outcomes[run_id])
            if run is not None and run.run_id == run_id:
                assert ended == 0, f"active run {run_id} has ended"
            elif self.submits[run_id][0] in self.closed:
                assert ended <= 1, f"run {run_id} ended {ended} times"
            else:
                assert ended == 1, f"run {run_id} ended {ended} times"


@pytest.mark.parametrize("seed", [11, 12])
def test_random_schedules_keep_every_invariant(seed):
    sim = Simulation(seed).run(10_000)
    assert sim.done >= 50  # the schedules finish runs, not only refuse and fail them
