"""Command-line entrypoints, exit codes, and the self-hosted facility."""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time

import pytest

from colflow.bench import default_post_document, default_pre_document
from colflow.cli import build_parser, main
from colflow.cluster.client import run_distributed, submit_run
from colflow.cluster.worker import read_result_file
from colflow.datagen import GenConfig, generate, load_manifest, manifest_files
from colflow.facility import FacilityError, MiniFacility
from colflow.graph import load_spec, spec_graph_id
from colflow.metrics import RunMetrics, metrics_row, write_metrics_csv


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
        assert "unrecognized arguments: --payload-bytes" in r.stderr

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

    def test_worker_without_data_server_tries_the_scheduler(self):
        r = colflow("worker", "--scheduler", "127.0.0.1:1")
        assert r.returncode == 1
        assert "cannot reach scheduler" in r.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("scheduler", "--listen", "127.0.0.1:99999"),
            ("serve-data", "--root", ".", "--listen", "127.0.0.1:70000"),
            ("worker", "--scheduler", "127.0.0.1:0"),
            ("worker", "--scheduler", "127.0.0.1:65536"),
        ],
        ids=["listen", "serve-listen", "connect-0", "connect-65536"],
    )
    def test_out_of_range_port_is_usage_error(self, argv):
        r = colflow(*argv)
        assert r.returncode == 2
        assert "HOST:PORT" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("flag", ["--slots", "--data"])
    def test_worker_takes_no_slot_count_or_data_server(self, flag, capsys):
        assert main(["worker", "--scheduler", "h:1", flag, "2"]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_scheduler_takes_no_startup_timeout(self, capsys):
        # a run is planned when it is submitted or refused, so nothing waits for workers
        assert main(["scheduler", "--startup-timeout", "5"]) == 2
        assert "unrecognized arguments: --startup-timeout" in capsys.readouterr().err

    def test_port_range_edges_accepted(self):
        parser = build_parser()
        assert parser.parse_args(["scheduler", "--listen", "h:0"]).listen == ("h", 0)
        serve = parser.parse_args(["serve-data", "--root", ".", "--listen", "h:65535"])
        assert serve.listen == ("h", 65535)
        assert parser.parse_args(["worker", "--scheduler", "h:65535"]).scheduler == "h:65535"

    @pytest.mark.parametrize("service", [["scheduler"], ["serve-data", "--root", "."]])
    @pytest.mark.parametrize("value", ["fd:", "fd:three", "fd:-3", "fd:3x"])
    def test_listen_fd_must_be_a_number(self, service, value):
        r = colflow(*service, "--listen", value)
        assert r.returncode == 2
        assert "expected fd:N" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("service", [["scheduler"], ["serve-data", "--root", "."]])
    def test_listen_fd_must_be_a_listening_tcp_socket(self, service, tmp_path):
        udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        unlistened = socket.socket()
        unlistened.bind(("127.0.0.1", 0))
        a_file = open(tmp_path / "f", "w")
        with udp, unlistened, a_file:
            for fd, reason in [
                (udp.fileno(), "is not a listening TCP socket"),
                (unlistened.fileno(), "is not a listening TCP socket"),
                (a_file.fileno(), "is not an open socket"),
                (999, "is not an open socket"),  # not open at all
                (2**40, "is not an open socket"),
            ]:
                r = subprocess.run(
                    [sys.executable, "-m", "colflow.cli", *service, "--listen", f"fd:{fd}"],
                    pass_fds=[fd] if fd < 999 else [],
                    capture_output=True, text=True, timeout=60,
                )
                assert r.returncode == 2, (fd, r.stderr)
                assert f"fd:{fd} {reason}" in r.stderr
                assert "Traceback" not in r.stderr

    def test_services_serve_on_an_inherited_socket(self, tmp_path):
        from colflow.cluster.client import shutdown_cluster
        from colflow.colstore import open_dataset

        data_dir = str(tmp_path / "data")
        generate(GenConfig(n_files=1, events_per_file=8, cluster_size=4, seed=3), data_dir)
        data_sock, scheduler_sock = (socket.create_server(("127.0.0.1", 0)) for _ in range(2))
        data_address, scheduler_address = (
            "%s:%d" % s.getsockname()[:2] for s in (data_sock, scheduler_sock)
        )
        with data_sock, scheduler_sock:
            services = [
                subprocess.Popen(
                    [sys.executable, "-m", "colflow.cli", *argv, "--listen", f"fd:{sock.fileno()}"],
                    pass_fds=[sock.fileno()], stdout=subprocess.PIPE, text=True,
                )
                for argv, sock in [
                    (["serve-data", "--root", data_dir], data_sock),
                    (["scheduler"], scheduler_sock),
                ]
            ]
        try:
            assert services[0].stdout.readline().split()[-1] == data_address
            assert services[1].stdout.readline().split()[-1] == scheduler_address
            name = load_manifest(data_dir)["files"][0]["name"]
            handle = open_dataset(f"colsrv://{data_address}/{name}")
            assert handle.total_entries == 8
            handle.close()
            services.append(
                subprocess.Popen(
                    [sys.executable, "-m", "colflow.cli", "worker", "--scheduler", scheduler_address],
                    stdout=subprocess.PIPE, text=True,
                )
            )
            assert "registered with" in services[2].stdout.readline()  # the scheduler echoed REGISTER
            shutdown_cluster(scheduler_address)
            assert services[1].wait(timeout=30) == 0
            assert services[2].wait(timeout=30) == 0
        finally:
            for proc in services:
                if proc.poll() is None:
                    proc.terminate()
                proc.wait(timeout=30)
                proc.stdout.close()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("run", "--partition-factor", "0"),
            ("run", "--partition-factor", "-5"),
            ("run", "--max-retries", "-1"),
            ("run", "--max-retries", "two"),
            ("run", "--timeout", "-1"),
            ("run", "--timeout", "nan"),
            ("legacy pre", "--parallel-jobs", "0"),
            ("legacy pre", "--payload-bytes", "-1"),
            ("legacy post", "--timeout", "0"),
            ("bench", "--timeout", "-1"),
        ],
    )
    def test_out_of_range_number_is_usage_error(self, command, flag, value, capsys):
        required = {
            "run": ["--spec", "d.json", "--scheduler", "h:1", "--out", "o"],
            "legacy": ["--spec", "d.json", "--scheduler", "h:1", "--out", "o"],
            "bench": ["--out", "o"],
        }
        argv = command.split() + required[command.split()[0]] + [flag, value]
        assert main(argv) == 2
        assert f"argument {flag}: expected" in capsys.readouterr().err

    def test_number_edges_accepted(self):
        parser = build_parser()
        run = parser.parse_args(
            ["run", "--spec", "d", "--scheduler", "h:1", "--out", "o",
             "--partition-factor", "1", "--max-retries", "0", "--timeout", "0.5"]
        )
        assert (run.partition_factor, run.max_retries, run.timeout) == (1, 0, 0.5)
        legacy = parser.parse_args(
            ["legacy", "pre", "--spec", "d", "--scheduler", "h:1", "--out", "o",
             "--payload-bytes", "0", "--parallel-jobs", "1"]
        )
        assert (legacy.payload_bytes, legacy.parallel_jobs) == (0, 1)

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
                mem_peak=2000 if mode == "legacy" else 1000,
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
        # the memory proxy is a metrics.csv column; --mem and mem.csv are gone
        path = str(tmp_path / "metrics.csv")
        self.make_metrics(path)
        r = colflow("report", path)
        assert r.returncode == 0, r.stderr
        assert "not comparable" in r.stdout
        assert "legacy/post: 2.00 +- 0.00 kB" in r.stdout
        assert "new/post: 1.00 +- 0.00 kB" in r.stdout
        assert colflow("report", path, "--mem", "x").returncode == 2

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


def test_services_import_none_of_the_client_side():
    code = (
        "import sys, colflow.cli, colflow.colstore.server, colflow.cluster.scheduler, colflow.cluster.worker\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('colflow.'))))"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    loaded = set(r.stdout.split())
    assert "colflow.cluster.worker" in loaded
    assert not loaded & {f"colflow.{m}" for m in ("bench", "legacy", "report", "datagen", "facility")}


@pytest.fixture
def handed_off(monkeypatch):
    """The listening sockets a facility binds for its services, with their addresses."""
    real = socket.create_server
    bound: list[tuple[socket.socket, str]] = []

    def record(*args, **kwargs):
        sock = real(*args, **kwargs)
        bound.append((sock, "%s:%d" % sock.getsockname()[:2]))
        return sock

    monkeypatch.setattr(socket, "create_server", record)
    return bound


def assert_nothing_left(fac: MiniFacility, handed_off) -> None:
    """Every spawned child has exited, its stdout pipe is closed, and neither handed-off address accepts."""
    assert fac.scheduler_proc is not None and len(fac.worker_procs) == fac.n_workers * fac.slots
    assert all(p.poll() is not None for p in (fac.data_proc, fac.scheduler_proc, *fac.worker_procs))
    assert all(p.stdout.closed for p in (fac.data_proc, fac.scheduler_proc, *fac.worker_procs))
    assert len(handed_off) == 2
    for sock, address in handed_off:
        assert sock.fileno() == -1  # the parent closed its copy
        host, _, port = address.rpartition(":")
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection((host, int(port)), timeout=5).close()


def test_the_data_server_loads_neither_numpy_nor_the_expression_language():
    code = "import sys, colflow.colstore.server\nprint(' '.join(sorted(sys.modules)))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    loaded = set(r.stdout.split())
    assert "colflow.colstore.server" in loaded
    assert not loaded & {"numpy", "colflow.exprlang", "colflow.colstore.dataset"}


def test_every_colstore_export_resolves():
    code = (
        "import colflow.colstore as c\n"
        "from colflow.colstore import *\n"
        "print(' '.join(n for n in c.__all__ if getattr(c, n) is not globals()[n]))\n"
        "try:\n"
        "    c.no_such_name\n"
        "except AttributeError:\n"
        "    print('AttributeError')"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split("\n")[:2] == ["", "AttributeError"]


class TestFacilityLifecycle:
    def test_child_exit_before_announcing_is_reported(self, tmp_path, handed_off):
        not_a_dir = tmp_path / "data.col"
        not_a_dir.write_bytes(b"")
        fac = MiniFacility(str(not_a_dir), str(tmp_path / "logs"), n_workers=1, slots=2)
        t0 = time.monotonic()
        with pytest.raises(FacilityError, match="data server exited with code 2") as info:
            fac.start()
        assert time.monotonic() - t0 < 5  # the children started alongside are not waited for
        assert "is not a readable directory" in str(info.value)
        assert_nothing_left(fac, handed_off)

    def test_start_timeout_leaves_no_child_running(self, tmp_path, handed_off):
        fac = MiniFacility(str(tmp_path), str(tmp_path / "logs"), n_workers=1, startup_timeout=0.01)
        with pytest.raises(FacilityError, match="data server did not announce itself within 0.01s"):
            fac.start()
        assert_nothing_left(fac, handed_off)

    def test_first_run_plans_with_every_worker(self, tmp_path, handed_off):
        data_dir = str(tmp_path / "data")
        generate(GenConfig(n_files=1, events_per_file=8, cluster_size=1, seed=3), data_dir)
        probe = json.dumps({"dataset": manifest_files(load_manifest(data_dir)),
                            "stages": [{"op": "count", "name": "n"}]})
        with MiniFacility(data_dir, str(tmp_path / "logs"), n_workers=3) as fac:
            # the services accept on the sockets the facility bound, and hold the only copies
            assert [address for _, address in handed_off] == [fac.data_address, fac.scheduler_address]
            assert all(sock.fileno() == -1 for sock, _ in handed_off)
            # no wait and no retry: every worker's line follows its confirmed registration
            result = run_distributed(probe, fac.scheduler_address, factor=1, timeout=30)
        assert result.total_events == 8
        assert sorted(r.worker for r in result.records) == ["w0", "w1", "w2"]

    def test_a_slot_is_a_worker_process(self, tmp_path):
        data_dir = str(tmp_path / "data")
        generate(GenConfig(n_files=1, events_per_file=8, cluster_size=1, seed=3), data_dir)
        probe = json.dumps({"dataset": manifest_files(load_manifest(data_dir)),
                            "stages": [{"op": "count", "name": "n"}]})
        with MiniFacility(data_dir, str(tmp_path / "logs"), n_workers=1, slots=2) as fac:
            assert len(fac.worker_procs) == 2
            assert all(p.poll() is None for p in fac.worker_procs)
            result = run_distributed(probe, fac.scheduler_address, factor=1, timeout=30)
        assert result.total_events == 8
        assert len({r.worker for r in result.records}) == 2

    def test_clean_shutdown_exit_codes(self, tmp_path):
        data_dir = str(tmp_path / "data")
        generate(GenConfig(n_files=1, events_per_file=200, cluster_size=100, seed=1), data_dir)
        fac = MiniFacility(data_dir, str(tmp_path / "logs"), n_workers=2).start()
        assert fac.scheduler_address
        assert fac.data_address
        fac.stop()
        assert fac.scheduler_proc.returncode == 0
        assert all(p.returncode == 0 for p in fac.worker_procs)
        assert all(p.stdout.closed for p in (fac.data_proc, fac.scheduler_proc, *fac.worker_procs))
