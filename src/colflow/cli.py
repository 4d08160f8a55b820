"""Command-line entrypoints for every moving part.

    colflow gen         synthetic dataset generation
    colflow serve-data  byte-accounted data server
    colflow scheduler   run coordinator
    colflow worker      task executor daemon (one slot)
    colflow run         distributed single-loop execution of a pipeline
    colflow legacy      per-file batch baseline (pre|post)
    colflow bench       four-scenario comparison on a local facility
    colflow report      comparison table from metrics.csv files

`run` writes tasks.csv and `legacy` appends to jobs.csv, both one row per
task in the same columns; metrics.csv rows carry every run-level figure,
the memory proxy included.

Exit codes: 0 success, 2 validation error (bad flags, bad documents,
bad inputs), 1 runtime failure (lost cluster, failed run).

Long-running services print exactly one announcement line ending in
their bound address, so wrappers can parse it. A worker prints its line
only once the scheduler has confirmed its REGISTER. The scheduler plans a
run when its SUBMIT arrives, with the workers registered then, so a run
submitted after the line plans with that worker, and a run submitted
while no worker is registered fails at once ("no workers registered").

A worker process is one slot and reads each task's file as the task
names it; more slots are more `colflow worker` processes (`bench
--workers` starts that many).

Each command imports the modules it runs in its own body: starting a
service loads that service's code and nothing of the benchmark, the
baseline, the report or the dataset generator.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import socket
import sys
import threading

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _runtime_errors(*extra: type) -> tuple[type, ...]:
    """What a client command reports as a runtime failure: the cluster's
    errors, those of the data layer and the wire, OSError, and extra."""
    from .cluster.client import ClusterError
    from .colstore import FormatError, TransportError
    from .engine import EngineError
    from .wire import ProtoError

    return (ClusterError, EngineError, TransportError, FormatError, ProtoError, OSError, *extra)


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _host_port(text: str, lowest_port: int) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit() or not lowest_port <= int(port) <= 65535:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT with a port in {lowest_port}-65535, got {text!r}"
        )
    return host, int(port)


def _listen(text: str) -> tuple[str, int] | socket.socket:
    """HOST:PORT to bind, port 0 asking the OS for a free one; or fd:N, a
    listening TCP socket inherited as file descriptor N."""
    if text.startswith("fd:"):
        return _inherited_listener(text[3:])
    return _host_port(text, 0)


def _inherited_listener(fd: str) -> socket.socket:
    """The listening TCP socket open as file descriptor `fd`."""
    if not (fd.isascii() and fd.isdigit()):
        raise argparse.ArgumentTypeError(f"expected fd:N with N a file descriptor number, got 'fd:{fd}'")
    try:
        sock = socket.socket(fileno=int(fd))
    except (OSError, OverflowError, ValueError) as e:  # not open, not a socket, out of range
        raise argparse.ArgumentTypeError(f"fd:{fd} is not an open socket: {e}") from None
    if not (
        sock.family in (socket.AF_INET, socket.AF_INET6)
        and sock.type == socket.SOCK_STREAM
        and sock.getsockopt(socket.SOL_SOCKET, socket.SO_ACCEPTCONN)
    ):
        sock.detach()  # not ours to close
        raise argparse.ArgumentTypeError(f"fd:{fd} is not a listening TCP socket")
    return sock


def _listener(listen: tuple[str, int] | socket.socket) -> socket.socket:
    """The socket a service accepts on: --listen's value, bound here when it is HOST:PORT."""
    return listen if isinstance(listen, socket.socket) else socket.create_server(listen)


def _address(text: str) -> str:
    """HOST:PORT to connect to."""
    _host_port(text, 1)
    return text


def _number(kind: type, lowest: float, strict: bool = False):
    """A finite number of `kind` that is at least `lowest` (above it when strict)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and (value > lowest if strict else value >= lowest)):
            bound = f"{'>' if strict else '>='} {lowest}"
            raise argparse.ArgumentTypeError(f"expected {kind.__name__} {bound}, got {text!r}")
        return value

    return parse


def _read_document(path: str) -> str | None:
    try:
        with open(path) as f:
            return f.read()
    except OSError as e:
        _err(f"cannot read pipeline document: {e}")
        return None


# --- subcommands ---------------------------------------------------------------


def cmd_gen(args) -> int:
    from .datagen import GenConfig, generate, load_manifest

    try:
        config = GenConfig(
            n_files=args.files,
            events_per_file=args.events,
            cluster_size=args.cluster_size,
            seed=args.seed,
        )
    except ValueError as e:
        _err(str(e))
        return EXIT_USAGE
    try:
        manifest_path = generate(config, args.out)
        manifest = load_manifest(args.out)
    except OSError as e:
        _err(str(e))
        return EXIT_RUNTIME
    print(
        f"generated {len(manifest['files'])} files, "
        f"{manifest['total_entries']} events under {os.path.abspath(args.out)}"
    )
    print(f"manifest: {manifest_path}")
    return EXIT_OK


def cmd_serve_data(args) -> int:
    from .colstore.server import DataServer

    if not os.path.isdir(args.root):
        _err(f"{args.root} is not a readable directory")
        return EXIT_USAGE
    try:
        server = DataServer(args.root, _listener(args.listen)).start()
    except OSError as e:
        _err(str(e))
        return EXIT_RUNTIME
    print(f"data server serving {os.path.abspath(args.root)} on {server.address}", flush=True)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    server.stop()
    return EXIT_OK


def cmd_scheduler(args) -> int:
    from .cluster.scheduler import Scheduler

    try:
        sched = Scheduler(_listener(args.listen)).start()
    except OSError as e:
        _err(str(e))
        return EXIT_RUNTIME
    print(f"scheduler listening on {sched.address}", flush=True)
    try:
        sched.wait()
    except KeyboardInterrupt:
        sched.stop()
    return EXIT_OK


def cmd_worker(args) -> int:
    from .cluster.worker import Worker
    from .wire import ProtoError

    try:
        worker = Worker(args.scheduler, name=args.name)
    except OSError as e:
        _err(f"cannot reach scheduler at {args.scheduler}: {e}")
        return EXIT_RUNTIME
    try:
        worker.announce()
    except (ProtoError, OSError) as e:
        _err(f"scheduler at {args.scheduler} did not confirm registration: {e}")
        return EXIT_RUNTIME
    print(f"worker {worker.name} registered with {args.scheduler}", flush=True)
    return worker.run()


def cmd_run(args) -> int:
    from .cluster.client import run_distributed
    from .cluster.worker import write_result_file
    from .graph import PipelineError, load_spec, spec_graph_id
    from .metrics import aggregate, metrics_row, write_metrics_csv, write_records_csv

    document = _read_document(args.spec)
    if document is None:
        return EXIT_USAGE
    try:
        spec = load_spec(document)
    except PipelineError as e:
        _err(str(e))
        return EXIT_USAGE
    try:
        result = run_distributed(
            document,
            args.scheduler,
            factor=args.partition_factor,
            max_retries=args.max_retries,
            timeout=args.timeout,
        )
    except _runtime_errors() as e:
        _err(str(e))
        return EXIT_RUNTIME
    os.makedirs(args.out, exist_ok=True)
    write_records_csv(os.path.join(args.out, "tasks.csv"), list(result.records))
    write_result_file(os.path.join(args.out, "result.res"), spec_graph_id(spec), result.partial)
    if result.records:
        m = aggregate(list(result.records), result.wall_time, result.network_read)
        write_metrics_csv(
            os.path.join(args.out, "metrics.csv"),
            [metrics_row(result.run_id, "new", "run", m)],
        )
    print(
        f"run {result.run_id}: {result.total_events} events in {result.wall_time:.2f}s "
        f"over {len(result.records)} tasks"
    )
    print(f"network read: {result.network_read} bytes")
    print(f"outputs under {os.path.abspath(args.out)}")
    return EXIT_OK


def cmd_legacy(args) -> int:
    from .cluster.worker import write_result_file
    from .graph import PipelineError, load_spec, spec_graph_id
    from .legacy import (
        LegacyError,
        Phase,
        plan_legacy_jobs,
        run_legacy_postselection,
        run_legacy_preselection,
    )
    from .metrics import append_records_csv

    document = _read_document(args.spec)
    if document is None:
        return EXIT_USAGE
    try:
        spec = load_spec(document)
    except PipelineError as e:
        _err(str(e))
        return EXIT_USAGE

    pre = args.phase == "pre"
    files = list(spec.dataset)
    if not pre and args.skims:
        try:
            with open(args.skims) as f:
                files = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            _err(f"cannot read skim list {args.skims}: {e}")
            return EXIT_USAGE
        if not isinstance(files, list) or not all(isinstance(x, str) for x in files):
            _err(f"{args.skims} must hold a JSON list of file paths")
            return EXIT_USAGE
    if pre and args.payload_bytes > 0 and not args.payload_uri:
        _err("--payload-bytes needs --payload-uri to fetch from")
        return EXIT_USAGE
    try:
        plan_legacy_jobs(document, files, Phase.PRESELECTION if pre else Phase.POSTSELECTION)
    except LegacyError as e:
        _err(str(e))
        return EXIT_USAGE

    os.makedirs(args.out, exist_ok=True)
    try:
        if pre:
            skims, result = run_legacy_preselection(
                document,
                files,
                scheduler_address=args.scheduler,
                payload_bytes=args.payload_bytes,
                payload_uri=args.payload_uri,
                parallel_jobs=args.parallel_jobs,
                timeout=args.timeout,
            )
        else:
            _, result = run_legacy_postselection(
                document,
                files,
                scheduler_address=args.scheduler,
                out_dir=os.path.join(args.out, "jobs"),
                parallel_jobs=args.parallel_jobs,
                timeout=args.timeout,
            )
    except _runtime_errors(LegacyError) as e:
        _err(str(e))
        return EXIT_RUNTIME

    append_records_csv(os.path.join(args.out, "jobs.csv"), list(result.records))
    write_result_file(
        os.path.join(args.out, f"{args.phase}_result.res"),
        spec_graph_id(spec),
        result.partial,
    )
    if pre:
        with open(os.path.join(args.out, "skims.json"), "w") as f:
            json.dump(skims, f, indent=2)
        print(f"skims: {len(skims)} files listed in {args.out}/skims.json")
    print(
        f"legacy {args.phase}: {result.total_events} events over "
        f"{len(result.records)} jobs in {result.total_time:.2f}s"
    )
    print(f"network read: {result.network_read} bytes")
    return EXIT_OK


def cmd_bench(args) -> int:
    from .bench import BenchConfig, BenchError, run_bench
    from .facility import FacilityError
    from .legacy import LegacyError

    try:
        config = BenchConfig(
            out_dir=args.out,
            data_dir=args.data_dir,
            n_files=args.files,
            events_per_file=args.events,
            cluster_size=args.cluster_size,
            seed=args.seed,
            workers=args.workers,
            repeats=args.repeats,
            factor=args.factor,
            payload_bytes=args.payload_bytes,
            parallel_jobs=args.parallel_jobs,
            timeout=args.timeout,
        )
    except BenchError as e:
        _err(str(e))
        return EXIT_USAGE
    try:
        result = run_bench(config)
    except _runtime_errors(BenchError, FacilityError, LegacyError) as e:
        _err(str(e))
        _err(f"completed rows retained under {os.path.abspath(args.out)}")
        return EXIT_RUNTIME
    print(result.table, end="")
    print(f"\nmetrics: {result.metrics_path}")
    return EXIT_OK


def cmd_report(args) -> int:
    from .metrics import MetricsError, read_metrics_csv
    from .report import ReportError, render

    rows: list[dict] = []
    try:
        for path in args.metrics:
            rows.extend(read_metrics_csv(path))
        text = render(rows)
    except (MetricsError, ReportError, OSError) as e:
        _err(str(e))
        return EXIT_USAGE
    print(text, end="")
    return EXIT_OK


# --- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="colflow",
        description="declarative columnar analysis over a desk-scale cluster",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--files", type=int, default=8)
    g.add_argument("--events", type=int, default=100_000, help="events per file")
    g.add_argument("--cluster-size", type=int, default=10_000)
    g.add_argument("--seed", type=int, default=2024)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("serve-data", help="serve a dataset directory over sockets")
    s.add_argument("--root", required=True, help="directory to serve")
    s.add_argument("--listen", type=_listen, default=("127.0.0.1", 0))
    s.set_defaults(func=cmd_serve_data)

    c = sub.add_parser("scheduler", help="start the run coordinator")
    c.add_argument("--listen", type=_listen, default=("127.0.0.1", 0))
    c.set_defaults(func=cmd_scheduler)

    w = sub.add_parser("worker", help="start a task executor")
    w.add_argument("--scheduler", type=_address, required=True)
    w.add_argument("--name", default=None)
    w.set_defaults(func=cmd_worker)

    r = sub.add_parser("run", help="distributed single-loop pipeline execution")
    r.add_argument("--spec", required=True, help="pipeline document (JSON)")
    r.add_argument("--scheduler", type=_address, required=True)
    r.add_argument("--partition-factor", type=_number(int, 1), default=3)
    r.add_argument("--max-retries", type=_number(int, 0), default=2)
    r.add_argument("--timeout", type=_number(float, 0, strict=True), default=600.0)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_run)

    lg = sub.add_parser("legacy", help="per-file batch baseline")
    lg_sub = lg.add_subparsers(dest="phase", required=True)
    for phase in ("pre", "post"):
        lp = lg_sub.add_parser(
            phase,
            help="single-pass skim jobs" if phase == "pre" else "multi-pass histogram jobs",
        )
        lp.add_argument("--spec", required=True, help="pipeline document (JSON)")
        lp.add_argument("--scheduler", type=_address, required=True)
        lp.add_argument("--out", required=True)
        lp.add_argument("--parallel-jobs", type=_number(int, 1), default=4)
        lp.add_argument("--timeout", type=_number(float, 0, strict=True), default=600.0)
        if phase == "pre":
            lp.add_argument("--payload-bytes", type=_number(int, 0), default=0)
            lp.add_argument("--payload-uri", default="")
        else:
            lp.add_argument("--skims", default="", help="JSON list of skim files")
        lp.set_defaults(func=cmd_legacy, phase=phase)

    b = sub.add_parser("bench", help="four-scenario comparison on a local facility")
    b.add_argument("--out", required=True)
    b.add_argument("--data-dir", default="", help="dataset directory (default: <out>/data)")
    b.add_argument("--files", type=int, default=8)
    b.add_argument("--events", type=int, default=100_000, help="events per file")
    b.add_argument("--cluster-size", type=int, default=10_000)
    b.add_argument("--seed", type=int, default=2024)
    b.add_argument("--workers", type=int, default=4)
    b.add_argument("--repeats", type=int, default=3)
    b.add_argument("--factor", type=int, default=3)
    b.add_argument("--payload-bytes", type=int, default=1_000_000)
    b.add_argument("--parallel-jobs", type=int, default=4)
    b.add_argument("--timeout", type=_number(float, 0, strict=True), default=600.0)
    b.set_defaults(func=cmd_bench)

    t = sub.add_parser("report", help="render a comparison table from metrics files")
    t.add_argument("metrics", nargs="+", help="metrics.csv files")
    t.set_defaults(func=cmd_report)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else (0 if e.code is None else EXIT_USAGE)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
