"""Command-line entrypoints, exit codes, and the self-hosted facility."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from colflow.bench import check_equivalence, default_post_document, default_pre_document
from colflow.cluster.client import submit_run
from colflow.cluster.worker import read_result_file
from colflow.datagen import GenConfig, generate, load_manifest, manifest_files
from colflow.engine import SINGLE_PASS, EntryRange
from colflow.facility import FacilityError, MiniFacility
from colflow.graph import load_spec, spec_graph_id
from colflow.metrics import RunMetrics, metrics_row, write_metrics_csv
from colflow.proto import Task


def colflow(*args: str, timeout: float = 120.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "colflow.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def simple_document(files: list[str]) -> str:
    return json.dumps(
        {
            "dataset": list(files),
            "stages": [
                {"op": "define", "name": "ht", "expr": "sum(Jet_pt)"},
                {
                    "op": "histo1d",
                    "name": "h_ht",
                    "column": "ht",
                    "weight": "event_weight",
                    "nbins": 20,
                    "xmin": 0.0,
                    "xmax": 1000.0,
                },
                {"op": "count", "name": "n"},
            ],
        }
    )


class TestValidationExits:
    def test_no_subcommand(self):
        assert colflow().returncode == 2

    def test_gen_rejects_bad_config(self):
        r = colflow("gen", "--out", "/tmp/x", "--files", "0")
        assert r.returncode == 2
        assert "n_files" in r.stderr

    def test_run_missing_spec_file(self, tmp_path):
        r = colflow(
            "run",
            "--spec",
            str(tmp_path / "absent.json"),
            "--scheduler",
            "127.0.0.1:1",
            "--out",
            str(tmp_path),
        )
        assert r.returncode == 2
        assert "cannot read pipeline document" in r.stderr

    def test_run_invalid_document(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text("{nope")
        r = colflow(
            "run", "--spec", str(spec), "--scheduler", "127.0.0.1:1", "--out", str(tmp_path)
        )
        assert r.returncode == 2
        assert "not valid JSON" in r.stderr

    def test_legacy_post_rejects_payload(self, tmp_path):
        spec = tmp_path / "doc.json"
        spec.write_text(simple_document(["f.col"]))
        r = colflow(
            "legacy",
            "post",
            "--spec",
            str(spec),
            "--scheduler",
            "127.0.0.1:1",
            "--payload-bytes",
            "10",
            "--out",
            str(tmp_path),
        )
        assert r.returncode == 2
        assert "no payload" in r.stderr

    def test_legacy_pre_payload_needs_uri(self, tmp_path):
        spec = tmp_path / "doc.json"
        spec.write_text(simple_document(["f.col"]))
        r = colflow(
            "legacy",
            "pre",
            "--spec",
            str(spec),
            "--scheduler",
            "127.0.0.1:1",
            "--payload-bytes",
            "10",
            "--out",
            str(tmp_path),
        )
        assert r.returncode == 2
        assert "payload-uri" in r.stderr

    def test_worker_rejects_bad_address(self):
        r = colflow("worker", "--scheduler", "nonsense")
        assert r.returncode == 2
        assert "HOST:PORT" in r.stderr

    def test_serve_data_rejects_missing_root(self, tmp_path):
        r = colflow("serve-data", "--root", str(tmp_path / "nope"))
        assert r.returncode == 2

    def test_report_missing_file(self, tmp_path):
        r = colflow("report", str(tmp_path / "absent.csv"))
        assert r.returncode == 2

    def test_bench_rejects_bad_repeats(self, tmp_path):
        r = colflow("bench", "--out", str(tmp_path), "--repeats", "0")
        assert r.returncode == 2


class TestGenAndReport:
    def test_gen_writes_manifest(self, tmp_path):
        out = tmp_path / "data"
        r = colflow(
            "gen", "--out", str(out), "--files", "2", "--events", "300",
            "--cluster-size", "100", "--seed", "5",
        )
        assert r.returncode == 0, r.stderr
        assert "manifest" in r.stdout
        manifest = load_manifest(str(out))
        assert manifest["total_entries"] == 600

    def make_metrics(self, path: str) -> None:
        rows = []
        for mode, phase, t in (
            ("legacy", "pre", 30.0),
            ("new", "pre", 20.0),
            ("legacy", "post", 70.0),
            ("new", "post", 5.0),
        ):
            m = RunMetrics(
                overall_time=t,
                overall_rate=1000.0 / t,
                job_rate=50.0,
                job_loop_rate=60.0,
                network_read=1000,
                total_events=1000,
                n_jobs=4,
            )
            rows.append(metrics_row(f"{mode}-{phase}", mode, phase, m))
        write_metrics_csv(path, rows)

    def test_report_renders_table(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        self.make_metrics(path)
        r = colflow("report", path)
        assert r.returncode == 0, r.stderr
        assert "Overall time" in r.stdout
        assert "Speedup" in r.stdout
        assert "legacy/post" in r.stdout

    def test_report_with_memory_file(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        self.make_metrics(path)
        mem = tmp_path / "mem.csv"
        mem.write_text(
            "run_id,mode,phase,mem_peak_bytes\nx,new,post,1000\nx,legacy,post,2000\n"
        )
        r = colflow("report", path, "--mem", str(mem))
        assert r.returncode == 0, r.stderr
        assert "not comparable" in r.stdout

    def test_report_rejects_malformed_csv(self, tmp_path):
        bad = tmp_path / "m.csv"
        bad.write_text("a,b\n1,2\n")
        r = colflow("report", str(bad))
        assert r.returncode == 2
        assert "missing columns" in r.stderr


@pytest.fixture(scope="module")
def facility(tmp_path_factory):
    """Dataset plus a running 2-worker facility, shared per module."""
    root = tmp_path_factory.mktemp("cli-facility")
    data_dir = str(root / "data")
    generate(GenConfig(n_files=3, events_per_file=1500, cluster_size=500, seed=11), data_dir)
    manifest = load_manifest(data_dir)
    fac = MiniFacility(data_dir, str(root / "logs"), n_workers=2).start()
    try:
        yield fac, manifest, str(root)
    finally:
        fac.stop()


class TestFacilityRuns:
    def test_run_writes_outputs(self, facility, tmp_path):
        fac, manifest, _ = facility
        files = manifest_files(manifest, base=fac.data_address)
        document = simple_document(files)
        spec = tmp_path / "doc.json"
        spec.write_text(document)
        out = tmp_path / "out"
        r = colflow(
            "run", "--spec", str(spec), "--scheduler", fac.scheduler_address,
            "--partition-factor", "2", "--out", str(out),
        )
        assert r.returncode == 0, r.stderr
        assert "4500 events" in r.stdout
        with open(out / "tasks.csv") as f:
            lines = f.read().strip().splitlines()
        assert lines[0].startswith("task_id")
        assert len(lines) > 1
        graph_id, partial = read_result_file(str(out / "result.res"))
        assert graph_id == spec_graph_id(load_spec(document))
        assert partial.events == 4500
        assert partial.universes["nominal"]["n"].value == 4500

    def test_run_fails_on_missing_remote_file(self, facility, tmp_path):
        fac, _, _ = facility
        document = simple_document([f"colsrv://{fac.data_address}/absent.col"])
        spec = tmp_path / "doc.json"
        spec.write_text(document)
        r = colflow(
            "run", "--spec", str(spec), "--scheduler", fac.scheduler_address,
            "--out", str(tmp_path / "out"),
        )
        assert r.returncode == 1
        assert "planning failed" in r.stderr

    def test_legacy_pre_then_post_appends_jobs(self, facility, tmp_path):
        fac, manifest, _ = facility
        files = manifest_files(manifest, base=fac.data_address)
        out = tmp_path / "legacy"
        skim_prefix = str(tmp_path / "skims" / "skim")

        pre_spec = tmp_path / "pre.json"
        pre_spec.write_text(default_pre_document(files, skim_prefix))
        r = colflow(
            "legacy", "pre", "--spec", str(pre_spec), "--scheduler", fac.scheduler_address,
            "--out", str(out), "--parallel-jobs", "2",
        )
        assert r.returncode == 0, r.stderr
        skims = json.loads((out / "skims.json").read_text())
        assert len(skims) == 3
        assert all(os.path.exists(s) for s in skims)

        post_spec = tmp_path / "post.json"
        post_spec.write_text(default_post_document(skims))
        r = colflow(
            "legacy", "post", "--spec", str(post_spec), "--scheduler", fac.scheduler_address,
            "--out", str(out), "--skims", str(out / "skims.json"),
        )
        assert r.returncode == 0, r.stderr
        with open(out / "jobs.csv") as f:
            lines = f.read().strip().splitlines()
        assert sum(1 for ln in lines if ln.startswith("task_id")) == 1
        phases = [ln.split(",")[-2] for ln in lines[1:]]
        assert phases.count("pre") == 3
        assert phases.count("post") == 3
        passes = {ln.split(",")[-1] for ln in lines[1:] if ln.split(",")[-2] == "post"}
        assert passes == {"9"}  # 8 topology variations ride 8 extra loops
        _, partial = read_result_file(str(out / "post_result.res"))
        assert len(partial.universes) == 31  # nominal + 30 variations

    def test_worker_resolves_relative_paths_against_data_server(self, facility):
        fac, manifest, _ = facility
        uris = manifest_files(manifest, base=fac.data_address)
        # integer weights keep the comparison bit-exact across partitionings
        document = json.dumps(
            {
                "dataset": uris,
                "stages": [
                    {"op": "define", "name": "ht", "expr": "sum(Jet_pt)"},
                    {"op": "define", "name": "w", "expr": "1"},
                    {
                        "op": "histo1d",
                        "name": "h_ht",
                        "column": "ht",
                        "weight": "w",
                        "nbins": 20,
                        "xmin": 0.0,
                        "xmax": 1000.0,
                    },
                    {"op": "count", "name": "n"},
                ],
            }
        )
        names = [(e["name"], e["entries"]) for e in manifest["files"]]
        tasks = tuple(
            Task(i, "", EntryRange(name, 0, entries), SINGLE_PASS)
            for i, (name, entries) in enumerate(names)
        )
        relative = submit_run(fac.scheduler_address, document, tasks=tasks)
        absolute = submit_run(fac.scheduler_address, document)
        assert relative.total_events == absolute.total_events == 4500
        check_equivalence(relative.partial, absolute.partial, rtol=0.0)

    def test_all_empty_files_complete_with_zero_events(self, facility, tmp_path):
        fac, _, root = facility
        empty_dir = os.path.join(root, "empty")
        generate(GenConfig(n_files=2, events_per_file=0, cluster_size=100, seed=3), empty_dir)
        empty = load_manifest(empty_dir)
        uris = [
            f"colsrv://{fac.data_address}/../empty/{e['name']}" for e in empty["files"]
        ]
        # served root is the data dir; reach the sibling dir through local paths instead
        local = manifest_files(empty)
        result = submit_run(fac.scheduler_address, simple_document(local))
        assert result.total_events == 0
        assert result.records == ()


class TestFacilityLifecycle:
    def test_child_exit_before_announcing_is_reported(self, tmp_path):
        not_a_dir = tmp_path / "data.col"
        not_a_dir.write_bytes(b"")
        t0 = time.monotonic()
        with pytest.raises(FacilityError, match="data server exited with code 2") as info:
            MiniFacility(str(not_a_dir), str(tmp_path / "logs"), n_workers=1).start()
        assert time.monotonic() - t0 < 10
        assert "is not a readable directory" in str(info.value)

    def test_clean_shutdown_exit_codes(self, tmp_path):
        data_dir = str(tmp_path / "data")
        generate(GenConfig(n_files=1, events_per_file=200, cluster_size=100, seed=1), data_dir)
        fac = MiniFacility(data_dir, str(tmp_path / "logs"), n_workers=2).start()
        assert fac.scheduler_address
        assert fac.data_address
        fac.stop()
        assert fac.scheduler_proc.returncode == 0
        assert all(p.returncode == 0 for p in fac.worker_procs)
