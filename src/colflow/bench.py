"""Benchmark harness: the two workflows, head to head, on one dataset.

Four scenarios run strictly in sequence on a self-hosted local facility:

    legacy-pre    per-file single-pass skim jobs (with payload sandboxes)
    new-pre       one distributed run producing an equivalent skim
    legacy-post   per-file multi-pass histogram jobs over the legacy skim
    new-post      one distributed single-loop run over the new skim

The legacy scenarios submit their jobs in waves as wide as the facility
has worker processes. Each scenario repeats a configurable number of
times; every repeat's byte accounting is checked for exact closure
against the data server's own served-byte counter, and the postselection
results of the two workflows are checked for per-universe agreement
before the comparison table is rendered. metrics.csv is rewritten after
every repeat, so an aborted benchmark still leaves the completed rows
behind.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cluster.client import run_distributed
from .colstore.dataset import REMOTE_SCHEME, server_totals
from .datagen import MANIFEST_NAME, GenConfig, generate, load_manifest, manifest_files
from .engine import PartialResult
from .facility import MiniFacility
from .hist import ResultKind
from .legacy import run_legacy_postselection, run_legacy_preselection
from .metrics import JobRecord, RunMetrics, aggregate, write_metrics_csv, write_records_csv
from .report import BenchReport, render_report, summarize


class BenchError(Exception):
    pass


SKIM_COLUMNS = ("event_weight", "MET_pt", "nJet", "Jet_pt")

# calibrated to keep roughly 5% of generated events
PRE_SELECTION = "MET_pt > 96.0 && nJet >= 2"


@dataclass(frozen=True)
class BenchConfig:
    out_dir: str
    data_dir: str = ""  # default: <out_dir>/data
    dataset: GenConfig = GenConfig()  # generated into data_dir when it holds no manifest
    workers: int = 4
    repeats: int = 3
    factor: int = 3
    payload_bytes: int = 1_000_000
    timeout: float = 600.0

    def __post_init__(self):
        for field_name in ("workers", "repeats", "factor"):
            if getattr(self, field_name) < 1:
                raise BenchError(f"{field_name} must be >= 1")
        if self.payload_bytes < 0:
            raise BenchError("payload_bytes must be >= 0")


def default_pre_document(files: list[str], skim_prefix: str) -> str:
    """Skim document: one cut, one control histogram, one snapshot."""
    doc = {
        "dataset": list(files),
        "stages": [
            {"op": "filter", "expr": PRE_SELECTION, "label": "skim"},
            {
                "op": "histo1d",
                "name": "h_met_skim",
                "column": "MET_pt",
                "weight": "event_weight",
                "nbins": 50,
                "xmin": 0.0,
                "xmax": 500.0,
            },
            {"op": "count", "name": "n_selected"},
            {"op": "snapshot", "columns": list(SKIM_COLUMNS), "out": skim_prefix},
        ],
    }
    return json.dumps(doc, indent=2)


def default_post_document(files: list[str]) -> str:
    """Histogramming document: 3 observables, 30 variations (8 topology).

    Every pass of a per-file multi-pass execution touches the same four
    columns, so with 8 topology variations the pass-count law predicts
    exactly 9x the nominal data volume.
    """
    stages = [
        {"op": "vary", "column": "Jet_pt", "kind": "topology",
         "tags": ["jes_up", "jes_down", "jer_up", "jer_down"],
         "exprs": [f"Jet_pt * {f}" for f in ("1.05", "0.95", "1.02", "0.98")]},
        {"op": "vary", "column": "MET_pt", "kind": "topology",
         "tags": ["met_jes_up", "met_jes_down", "met_unclust_up", "met_unclust_down"],
         "exprs": ["MET_pt * 1.03", "MET_pt * 0.97", "MET_pt + 5.0", "MET_pt - 5.0"]},
        {"op": "vary", "column": "event_weight", "kind": "weight",
         "tags": [f"w{k}_{side}" for k in range(11) for side in ("up", "down")],
         "exprs": [f"event_weight * {1.0 + sign * (k + 1) / 100.0:.2f}" for k in range(11) for sign in (1, -1)]},
        {"op": "define", "name": "ht", "expr": "sum(Jet_pt)"},
        {"op": "define", "name": "lead_pt", "expr": "nJet > 0 ? Jet_pt[0] : 0.0"},
        {"op": "filter", "expr": "lead_pt > 25.0", "label": "leading jet"},
    ]
    for name, col, hi in (("h_ht", "ht", 1500.0), ("h_lead_pt", "lead_pt", 500.0), ("h_met", "MET_pt", 500.0)):
        stages.append({"op": "histo1d", "name": name, "column": col, "weight": "event_weight",
                       "nbins": 50, "xmin": 0.0, "xmax": hi})
    stages.append({"op": "count", "name": "n_events"})
    return json.dumps({"dataset": list(files), "stages": stages}, indent=2)


def ensure_dataset(config: BenchConfig, data_dir: str) -> dict:
    """Load the manifest in data_dir, generating the dataset if absent."""
    if not os.path.exists(os.path.join(data_dir, MANIFEST_NAME)):
        generate(config.dataset, data_dir)
    return load_manifest(data_dir)


# --- result equivalence -------------------------------------------------------


def check_equivalence(a: PartialResult, b: PartialResult, rtol: float = 1e-9) -> None:
    """Per-universe agreement of two runs' results, within rtol per bin."""
    if a.labels != b.labels:
        raise BenchError(f"universe sets differ: {a.labels} vs {b.labels}")
    if a.tables.keys() != b.tables.keys():
        raise BenchError(f"result names differ: {sorted(a.tables)} vs {sorted(b.tables)}")
    for name, x in a.tables.items():
        y = b.tables[name]
        if x.axis != y.axis:
            raise BenchError(f"result {name!r}: kinds or histogram axes differ")
        if x.kind is ResultKind.HISTO:
            _first_bad(a.labels, name, "entry counts differ", x.entries, y.entries, x.entries != y.entries)
            _first_bad(a.labels, name, "bin {} disagrees", x.sumw, y.sumw, ~_close(x.sumw, y.sumw, rtol))
        elif x.kind is ResultKind.COUNT:
            _first_bad(a.labels, name, "counts differ", x.sumw, y.sumw, x.sumw != y.sumw)
        else:
            _first_bad(a.labels, name, "sums differ", x.sumw, y.sumw, ~_close(x.sumw, y.sumw, rtol))


def _close(x: np.ndarray, y: np.ndarray, rtol: float) -> np.ndarray:
    """math.isclose cell by cell, with no absolute tolerance: symmetric in x and y."""
    with np.errstate(invalid="ignore", over="ignore"):
        diff = np.abs(x - y)
        return (x == y) | (np.isfinite(diff) & (diff <= rtol * np.maximum(np.abs(x), np.abs(y))))


def _first_bad(labels: list[str], name: str, what: str, x: np.ndarray, y: np.ndarray, bad: np.ndarray) -> None:
    if bad.any():
        cell = tuple(np.argwhere(bad)[0])
        where = f"universe {labels[cell[0]]!r} result {name!r}"
        raise BenchError(f"{where}: {what.format(*cell[1:])} ({x[cell].item()!r} vs {y[cell].item()!r})")


# --- scenario execution -------------------------------------------------------


@dataclass
class ScenarioRun:
    """One repeat of one scenario, with its run-level accounting."""

    metrics: RunMetrics
    records: tuple[JobRecord, ...]
    partial: PartialResult
    served_delta: int


@dataclass
class BenchResult:
    report: BenchReport
    table: str
    out_dir: str
    metrics_path: str
    runs: list[ScenarioRun]


def _served_uri(path: str, data_dir: str, address: str) -> str:
    rel = os.path.relpath(os.path.abspath(path), data_dir)
    if rel.startswith(".."):
        raise BenchError(f"skim {path} landed outside the served data root")
    return f"{REMOTE_SCHEME}{address}/{rel}"


class _Harness:
    """Mutable state of one benchmark execution."""

    def __init__(self, config: BenchConfig):
        self.config = config
        self.out_dir = os.path.abspath(config.out_dir)
        self.data_dir = os.path.abspath(config.data_dir or os.path.join(self.out_dir, "data"))
        self.records_dir = os.path.join(self.out_dir, "records")
        self.metrics_path = os.path.join(self.out_dir, "metrics.csv")
        self.runs: list[ScenarioRun] = []
        self.facility: MiniFacility | None = None

    def record(self, run: ScenarioRun) -> None:
        m = run.metrics
        if m.network_read_bytes != run.served_delta:
            raise BenchError(
                f"{m.run_id}: client-side byte accounting ({m.network_read_bytes}) "
                f"does not match the data server ({run.served_delta})"
            )
        self.runs.append(run)
        # rewrite after every repeat: an aborted run keeps completed rows
        write_metrics_csv(self.metrics_path, [r.metrics for r in self.runs])
        write_records_csv(os.path.join(self.records_dir, f"{m.run_id}.csv"), list(run.records))

    def repeat(self, mode: str, phase: str, fn) -> ScenarioRun:
        """Run one scenario config.repeats times, recording each repeat as
        {mode}-{phase}-r{k}; returns the last. fn runs the scenario once and
        returns its RunResult, or the baseline's (files, RunResult)."""
        for k in range(self.config.repeats):
            before, _ = server_totals(self.facility.data_address)
            result = fn()
            after, _ = server_totals(self.facility.data_address)
            if isinstance(result, tuple):
                result = result[1]
            run = ScenarioRun(
                metrics=aggregate(
                    f"{mode}-{phase}-r{k}", mode, phase, list(result.records), result.total_time, result.network_read
                ),
                records=result.records,
                partial=result.partial,
                served_delta=after - before,
            )
            self.record(run)
        return run


def run_bench(config: BenchConfig) -> BenchResult:
    """Run all four scenarios and render the comparison."""
    h = _Harness(config)
    os.makedirs(h.records_dir, exist_ok=True)
    manifest = ensure_dataset(config, h.data_dir)

    with MiniFacility(h.data_dir, os.path.join(h.out_dir, "logs"), n_workers=config.workers) as facility:
        h.facility = facility
        files = manifest_files(manifest, base=facility.data_address)
        scheduler = facility.scheduler_address
        legacy_opts = dict(scheduler_address=scheduler, parallel_jobs=config.workers, timeout=config.timeout)
        new_opts = dict(scheduler_address=scheduler, factor=config.factor, timeout=config.timeout)

        # scenarios 1 and 2: each workflow's preselection writes its own skim
        legacy_pre = h.repeat("legacy", "pre", partial(
            run_legacy_preselection,
            default_pre_document(files, os.path.join(h.data_dir, "skim_legacy", "skim")),
            files,
            payload_bytes=config.payload_bytes,
            payload_uri=files[0] if config.payload_bytes > 0 else "",
            **legacy_opts,
        ))
        new_pre = h.repeat("new", "pre", partial(
            run_distributed, default_pre_document(files, os.path.join(h.data_dir, "skim_new", "skim")), **new_opts
        ))
        check_equivalence(legacy_pre.partial, new_pre.partial)

        # scenarios 3 and 4: each workflow's postselection reads its own skim
        legacy_skims = [_served_uri(p, h.data_dir, facility.data_address) for p in legacy_pre.partial.snapshots]
        new_skims = [_served_uri(p, h.data_dir, facility.data_address) for p in new_pre.partial.snapshots]
        legacy_post = h.repeat("legacy", "post", partial(
            run_legacy_postselection,
            default_post_document(legacy_skims),
            legacy_skims,
            out_dir=os.path.join(h.out_dir, "legacy_jobs"),
            **legacy_opts,
        ))
        new_post = h.repeat("new", "post", partial(run_distributed, default_post_document(new_skims), **new_opts))
        check_equivalence(legacy_post.partial, new_post.partial)

    report = summarize([r.metrics for r in h.runs])
    table = render_report(report)
    with open(os.path.join(h.out_dir, "table.txt"), "w") as f:
        f.write(table)
    return BenchResult(
        report=report,
        table=table,
        out_dir=h.out_dir,
        metrics_path=h.metrics_path,
        runs=h.runs,
    )
