"""The benchmark's measurement: facility set-up, runs, checks, metrics.

Every analysis run goes through the public entry points a user would call
(`cluster.client.run_distributed`, `legacy.run_legacy_postselection`) and
every byte count through `colstore.server_totals`; nothing under src/ is
changed or reached into, except by the traced replay (replay.py).
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

import reference
import replay
import workloads as wl
from colflow.cluster.client import ClusterError, run_distributed
from colflow.colstore import TransportError, open_dataset, server_totals
from colflow.datagen import GenConfig, generate
from colflow.facility import MiniFacility
from colflow.legacy import LegacyError, run_legacy_postselection
from reference import Mismatch, Rows, concat

OUT_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".bench_out")
SETUP_REPEATS = 3
MIN_REPEATS = 3
REGISTRATION_TIMEOUT = 30.0

# Host speed. The benchmark was built on a shared 2-vCPU VM whose CPUs
# change speed within minutes (a fixed Python loop took 0.12 s to 0.21 s
# in one minute), more than any bound a regression check could use. So a
# fixed pure-Python loop is timed just before and just after every facility
# start and every timed analysis run, and each interval is scaled by
# CAL_REF_S / (the mean of its two loop times): a time in s below is how
# long the interval takes on a host at which the loop takes CAL_REF_S.
# The raw times and the scales go to result.json.
CAL_LOOPS = 1_000_000
CAL_REF_S = 0.1

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "event_rate_hz": "Hz",
    "task_time_s": "s",
    "net_bytes": "bytes",
    "worker_rss_peak_bytes": "bytes",
}
PER_LAYER = {
    "engine.compute_s": "s",
    "engine.event_visits": "count",
    "engine.merge_s": "s",
    "colstore.open_s": "s",
    "colstore.fetch_s": "s",
    "colstore.decode_s": "s",
    "colstore.read_calls": "count",
    "colstore.chunk_bytes": "bytes",
    "colstore.write_s": "s",
    "colstore.write_bytes": "bytes",
    "graph.build_s": "s",
    "exprlang.compile_s": "s",
    "proto.encode_s": "s",
    "proto.decode_s": "s",
    "proto.result_bytes": "bytes",
    "cluster.plan_s": "s",
    "cluster.tasks": "count",
    "cluster.loop_s": "s",
    "cluster.task_overhead_s": "s",
    "cluster.slot_idle_s": "s",
    "cluster.submit_overhead_s": "s",
    "cluster.retries": "count",
    "legacy.merge_s": "s",
    "legacy.passes": "count",
    "replay.wall_s": "s",
    "replay.untraced_wall_s": "s",
    "replay.tracing_overhead_s": "s",
    "replay.unattributed_s": "s",
}


@dataclass
class Rep:
    """One analysis run as the client saw it."""

    wall: float  # submit to merged result in hand
    inner_wall: float  # scheduler wall_time; for the baseline, its job waves
    events: int
    records: tuple
    net_bytes: int  # data-server served-byte delta
    merge_s: float  # the baseline's local merge of result files
    partial: object
    scale: float = 1.0  # to the reference host speed, see CAL_REF_S


class Bench:
    """State of one benchmark run: dataset, reference, facility, repetitions."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.out = os.path.join(OUT_ROOT, f"{workload}-seed{seed}-{os.getpid()}")
        self.data = os.path.join(self.out, "data")
        self.nworkers = wl.N_WORKERS
        self.slots = self.nworkers * wl.SLOTS
        self.facility = None
        self.setup_times: list[float] = []
        self.setup_scales: list[float] = []
        self.skim_paths: list[str] = []
        self.attempted = 0
        self.failed = 0

    def prepare(self) -> None:
        """Write the seeded dataset and compute the reference from memory."""
        generate(GenConfig(wl.N_FILES, wl.EVENTS_PER_FILE, wl.CLUSTER_SIZE, self.seed),
                 os.path.join(self.data, "raw"))
        generate(GenConfig(1, 8, 1, self.seed), os.path.join(self.data, "probe"))
        self.skim_rows, self.skim_ref = reference.skim_reference(reference.raw_rows(self.seed))
        self.post_ref = reference.post_reference(self.skim_rows)

    # -- documents ---------------------------------------------------------

    def uri(self, path: str) -> str:
        rel = os.path.relpath(path, self.data)
        return f"colsrv://{self.facility.data_address}/{rel}"

    def skim_doc(self, prefix: str = "skim/skim") -> str:
        raw = sorted(os.listdir(os.path.join(self.data, "raw")))
        files = [self.uri(os.path.join(self.data, "raw", n)) for n in raw if n.endswith(".col")]
        return wl.skim_document(files, os.path.join(self.data, prefix))

    def post_doc(self) -> str:
        return wl.post_document([self.uri(p) for p in self.skim_paths])

    # -- facility ----------------------------------------------------------

    def start_facility(self, k: int) -> None:
        """Start a facility and wait until every worker takes part in a run."""
        cal = calibration_s()
        t0 = time.perf_counter()
        self.facility = MiniFacility(
            self.data, os.path.join(self.out, f"logs-{k}"), n_workers=self.nworkers, slots=wl.SLOTS
        ).start()
        # with factor 1 the 8-cluster probe file is cut into one task per
        # registered worker, so the task count shows how many registered
        probe = wl.probe_document(self.uri(os.path.join(self.data, "probe", "events_000.col")))
        deadline = time.monotonic() + REGISTRATION_TIMEOUT
        while len(run_distributed(probe, self.facility.scheduler_address, factor=1).records) < self.nworkers:
            if time.monotonic() > deadline:
                raise RuntimeError(f"fewer than {self.nworkers} workers registered")
            time.sleep(0.01)
        self.setup_times.append(time.perf_counter() - t0)
        self.setup_scales.append(speed_scale(cal, calibration_s()))

    def stop_facility(self) -> None:
        if self.facility is not None:
            self.facility.stop()
            self.facility = None

    def worker_rss_peak(self) -> int:
        peak = 0
        for proc in self.facility.worker_procs:
            with open(f"/proc/{proc.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) * 1024)
        return peak

    # -- one analysis run --------------------------------------------------

    def new_run(self, document: str) -> Rep:
        address = self.facility.data_address
        before, _ = server_totals(address)
        t0 = time.perf_counter()
        result = run_distributed(document, self.facility.scheduler_address, factor=wl.FACTOR)
        wall = time.perf_counter() - t0
        served = server_totals(address)[0] - before
        self.check_closure(result.network_read, served)
        return Rep(wall, result.wall_time, result.total_events, result.records, served, 0.0,
                   result.partial)

    def legacy_run(self, document: str) -> Rep:
        address = self.facility.data_address
        before, _ = server_totals(address)
        t0 = time.perf_counter()
        _, report = run_legacy_postselection(
            document,
            [self.uri(p) for p in self.skim_paths],
            scheduler_address=self.facility.scheduler_address,
            out_dir=os.path.join(self.data, "jobs"),
            parallel_jobs=self.slots,
        )
        wall = time.perf_counter() - t0
        served = server_totals(address)[0] - before
        self.check_closure(report.network_read, served)
        return Rep(wall, report.wall_time, report.total_events, report.records, served,
                   report.merge_duration, report.partial)

    @staticmethod
    def check_closure(client_bytes: int, served: int) -> None:
        if client_bytes != served:
            raise Mismatch(f"client counted {client_bytes} bytes, data server served {served}")

    # -- checks ------------------------------------------------------------

    def read_skim(self, paths: list[str]):
        """The snapshot part files, in task order, as reference Rows."""
        parts = []
        for path in paths:
            with open_dataset(path) as h:
                cols = {c: [] for c in wl.SKIM_COLUMNS}
                for batch in h.read_range(wl.SKIM_COLUMNS, 0, h.total_entries):
                    for c in wl.SKIM_COLUMNS:
                        cols[c].append(batch.columns[c])
            jets = cols["Jet_pt"]
            parts.append(Rows(
                np.concatenate(cols["event_weight"]), np.concatenate(cols["MET_pt"]),
                np.concatenate(cols["nJet"]),
                np.concatenate([j.lengths for j in jets]).astype(np.int64),
                np.concatenate([j.values for j in jets]),
            ))
        return concat(parts)

    def check_skim(self, rep: Rep) -> None:
        reference.compare(reference.plain(rep.partial.universes), self.skim_ref, "skim")
        reference.check_skim_rows(self.read_skim(rep.partial.snapshots), self.skim_rows)

    def check_post(self, rep: Rep, what: str) -> None:
        got = reference.plain(rep.partial.universes)
        reference.compare(got, self.post_ref, what)
        reference.check_weight_universes(got, what)
        if what == "legacy-post" and any(r.passes != wl.LEGACY_PASSES for r in rep.records):
            raise Mismatch(f"a baseline job made other than {wl.LEGACY_PASSES} passes")

    def check_cross_mode(self, new: Rep, legacy: Rep) -> None:
        """Both modes agree per universe; the baseline reads 9x the chunk bytes."""
        reference.compare(reference.plain(legacy.partial.universes),
                          reference.plain(new.partial.universes), "legacy-post vs post-30var")
        new_chunks = sum(r.chunk_bytes for r in new.records)
        legacy_chunks = sum(r.chunk_bytes for r in legacy.records)
        if legacy_chunks != wl.LEGACY_PASSES * new_chunks:
            raise Mismatch(
                f"baseline read {legacy_chunks} chunk bytes, not "
                f"{wl.LEGACY_PASSES} x {new_chunks}"
            )

    # -- the measurement ---------------------------------------------------

    def setup(self) -> None:
        """Start the facility SETUP_REPEATS times; the first makes the skim."""
        for k in range(SETUP_REPEATS):
            self.start_facility(k)
            if k == 0:
                rep = self.new_run(self.skim_doc())
                self.check_skim(rep)
                self.skim_paths = list(rep.partial.snapshots)
            if k < SETUP_REPEATS - 1:
                self.stop_facility()

    def once(self) -> Rep | None:
        """One analysis run of this workload, checked; None if it failed."""
        self.attempted += 1
        try:
            if self.workload == "skim":
                rep = self.new_run(self.skim_doc())
            elif self.workload == "post-30var":
                rep = self.new_run(self.post_doc())
            else:
                rep = self.legacy_run(self.post_doc())
        except (ClusterError, LegacyError, TransportError) as e:
            print(f"run failed: {e}", file=sys.stderr)
            self.failed += 1
            return None
        if self.workload == "skim":
            self.check_skim(rep)
        else:
            self.check_post(rep, self.workload)
        return rep

    def measure(self, seconds: float) -> list[Rep]:
        """A warm-up run, then runs until `seconds` have passed."""
        self.once()
        reps: list[Rep] = []
        runs = 0
        t_end = time.perf_counter() + seconds
        cal = calibration_s()
        while runs < MIN_REPEATS or time.perf_counter() < t_end:
            runs += 1
            rep = self.once()
            cal_after = calibration_s()
            if rep is not None:
                rep.scale = speed_scale(cal, cal_after)
                reps.append(rep)
            cal = cal_after
        if not reps:
            raise RuntimeError("every run failed")
        return reps

    def method_checks(self, last: Rep) -> None:
        """Once per run: the reference rejects a bent bin; modes agree."""
        want = self.skim_ref if self.workload == "skim" else self.post_ref
        reference.check_rejects_perturbed(reference.plain(last.partial.universes), want)
        if self.workload == "post-30var":
            self.check_cross_mode(last, self.legacy_run(self.post_doc()))
        elif self.workload == "legacy-post":
            self.check_cross_mode(self.new_run(self.post_doc()), last)

    def replay(self) -> dict:
        legacy = self.workload == "legacy-post"
        if self.workload == "skim":
            document = self.skim_doc("replay-skim/skim")
        else:
            document = self.post_doc()
        trace_dir = os.path.join(self.out, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        merged, report = replay.traced_replay(
            legacy, document, self.nworkers, wl.FACTOR, self.facility.data_address, trace_dir
        )
        want = self.skim_ref if self.workload == "skim" else self.post_ref
        reference.compare(reference.plain(merged.universes), want, f"{self.workload} replay")
        counts = report["counts"]
        if (counts["fetched_bytes"], counts["read_calls"]) != (
            report["server_bytes"], report["server_read_calls"]
        ):
            raise Mismatch(
                f"replay fetched {counts['fetched_bytes']} bytes in {counts['read_calls']} calls; "
                f"server served {report['server_bytes']} in {report['server_read_calls']}"
            )
        unattributed = report["layers_s"].get("replay.unattributed", 0.0)
        if unattributed > replay.UNATTRIBUTED_MAX * report["wall_s"]:
            raise Mismatch(
                f"layer self times leave {unattributed:.4f} s of {report['wall_s']:.4f} s unattributed"
            )
        return report


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: the host's speed just now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CAL_LOOPS):
        x += i * i % 7
    return time.perf_counter() - t0


def speed_scale(cal_before: float, cal_after: float) -> float:
    """Factor from a time taken between two loop times to the reference speed."""
    return 2 * CAL_REF_S / (cal_before + cal_after)


def median(values) -> float:
    return statistics.median(list(values))


def end_to_end(bench: Bench, reps: list[Rep], rss: int) -> dict:
    return {
        "setup_s": median(t * k for t, k in zip(bench.setup_times, bench.setup_scales)),
        "wall_s": median(r.wall * r.scale for r in reps),
        "event_rate_hz": median(r.events / (r.wall * r.scale) for r in reps),
        "task_time_s": median(sum(x.t_total for x in r.records) * r.scale for r in reps),
        "net_bytes": median(r.net_bytes for r in reps),
        "worker_rss_peak_bytes": rss,
    }


def per_layer(bench: Bench, reps: list[Rep], trace: dict) -> dict:
    layers = trace["layers_s"]
    counts = trace["counts"]
    return {
        "engine.compute_s": layers.get("engine.compute", 0.0),
        "engine.event_visits": counts.get("event_visits", 0),
        "engine.merge_s": layers.get("engine.merge", 0.0),
        "colstore.open_s": layers.get("colstore.open", 0.0),
        "colstore.fetch_s": layers.get("colstore.fetch", 0.0),
        "colstore.decode_s": layers.get("colstore.decode", 0.0),
        "colstore.read_calls": counts.get("read_calls", 0),
        "colstore.chunk_bytes": counts.get("chunk_bytes", 0),
        "colstore.write_s": layers.get("colstore.write", 0.0),
        "colstore.write_bytes": counts.get("write_bytes", 0),
        "graph.build_s": layers.get("graph.build", 0.0),
        "exprlang.compile_s": layers.get("exprlang.compile", 0.0),
        "proto.encode_s": layers.get("proto.encode", 0.0),
        "proto.decode_s": layers.get("proto.decode", 0.0),
        "proto.result_bytes": counts.get("result_bytes", 0),
        "cluster.plan_s": layers.get("cluster.plan", 0.0),
        "cluster.tasks": median(len(r.records) for r in reps),
        "cluster.loop_s": median(sum(x.t_loop for x in r.records) for r in reps),
        "cluster.task_overhead_s": median(sum(x.t_total - x.t_loop for x in r.records) for r in reps),
        "cluster.slot_idle_s": median(
            r.inner_wall * bench.slots - sum(x.t_total for x in r.records) for r in reps
        ),
        "cluster.submit_overhead_s": median(r.wall - r.inner_wall - r.merge_s for r in reps),
        "cluster.retries": median(sum(x.attempt - 1 for x in r.records) for r in reps),
        "legacy.merge_s": median(r.merge_s for r in reps),
        "legacy.passes": median(
            sum(x.passes * x.events for x in r.records) / sum(x.events for x in r.records)
            for r in reps
        ),
        "replay.wall_s": trace["wall_s"],
        "replay.untraced_wall_s": trace["untraced_wall_s"],
        "replay.tracing_overhead_s": trace["wall_s"] - trace["untraced_wall_s"],
        "replay.unattributed_s": layers.get("replay.unattributed", 0.0),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object the command prints."""
    bench = Bench(workload, seed)
    correct = True
    reps: list[Rep] = []
    try:
        bench.prepare()
        bench.setup()
        reps = bench.measure(seconds)
        rss = bench.worker_rss_peak()
        bench.method_checks(reps[-1])
        trace_report = bench.replay() if trace else None
    except Mismatch as e:
        print(f"check failed: {e}", file=sys.stderr)
        correct = False
    finally:
        bench.stop_facility()
        shutil.rmtree(bench.data, ignore_errors=True)

    result = {"correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": {}}
    if correct:
        values = per_layer(bench, reps, trace_report) if trace else end_to_end(bench, reps, rss)
        units = PER_LAYER if trace else END_TO_END
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    with open(os.path.join(bench.out, "result.json"), "w") as f:
        json.dump({**result, "setup_s": bench.setup_times, "setup_scale": bench.setup_scales,
                   "wall_s": [r.wall for r in reps], "scale": [r.scale for r in reps]}, f, indent=2)
    return result


