"""Comparison tables over benchmark metrics rows.

Everything here is a pure function of metrics.csv rows, each a
``metrics.RunMetrics`` (``read_metrics_csv`` returns them typed).
Repeated runs of one scenario are grouped by (mode, phase), and each
measured column is reduced to mean +- maximum semi-dispersion, i.e.
(max - min) / 2 — the error bar is a spread estimate over repeats, not a
standard deviation.

Derived figures compare the two workflows end to end:

    speedup        = sum of legacy mean times / sum of new mean times
    time_reduction = 1 - new / legacy

Both are ratios of like quantities, so they are independent of the unit the
time column happens to be in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import RunMetrics


class ReportError(Exception):
    pass


@dataclass(frozen=True)
class Estimate:
    """Mean of repeated measurements with max semi-dispersion as error."""

    mean: float
    err: float

    @classmethod
    def of(cls, values: list[float]) -> "Estimate":
        if not values:
            raise ReportError("no values to estimate")
        lo, hi = min(values), max(values)
        # clamped: sum/len of equal values can round one ulp past them
        return cls(mean=min(max(sum(values) / len(values), lo), hi), err=(hi - lo) / 2.0)


# the metrics.csv columns reduced to one Estimate each over a scenario's repeats
MEASURED_COLUMNS = (
    "overall_time_s", "overall_rate_hz", "job_rate_hz", "job_loop_rate_hz", "network_read_bytes", "mem_peak_bytes"
)


@dataclass(frozen=True)
class ScenarioSummary:
    """One (mode, phase) cell of the comparison: estimates over repeats."""

    mode: str
    phase: str
    repeats: int
    estimates: dict[str, Estimate]  # by MEASURED_COLUMNS entry
    total_events: int  # of the first repeat, as is n_jobs
    n_jobs: int


@dataclass(frozen=True)
class BenchReport:
    """Scenario summaries plus the cross-workflow derived figures.

    legacy_time / new_time are sums of mean overall times across that
    mode's phases; derived fields are None when a mode is absent (a
    single-workflow report has nothing to compare against).
    """

    scenarios: dict[tuple[str, str], ScenarioSummary]
    legacy_time: float | None
    new_time: float | None
    speedup: float | None
    time_reduction: float | None
    network_ratio: dict[str, float]

    def __post_init__(self):
        if self.speedup is not None and not self.speedup > 0.0:
            raise ReportError(f"speedup must be positive, got {self.speedup}")
        if self.time_reduction is not None and not self.time_reduction < 1.0:
            raise ReportError(
                f"time reduction must be below 1, got {self.time_reduction}"
            )


def summarize(rows: list[RunMetrics]) -> BenchReport:
    """Reduce metrics rows to per-scenario estimates and derived ratios."""
    if not rows:
        raise ReportError("no metrics rows")
    groups: dict[tuple[str, str], list[RunMetrics]] = {}
    for row in rows:
        groups.setdefault((row.mode, row.phase), []).append(row)

    scenarios = {
        (mode, phase): ScenarioSummary(
            mode=mode,
            phase=phase,
            repeats=len(rs),
            estimates={c: Estimate.of([getattr(r, c) for r in rs]) for c in MEASURED_COLUMNS},
            total_events=rs[0].total_events,
            n_jobs=rs[0].n_jobs,
        )
        for (mode, phase), rs in groups.items()
    }

    legacy_time = _mode_time(scenarios, "legacy")
    new_time = _mode_time(scenarios, "new")
    speedup = reduction = None
    if legacy_time is not None and new_time is not None:
        if legacy_time <= 0.0 or new_time <= 0.0:
            raise ReportError("mode times must be positive to compare workflows")
        speedup = legacy_time / new_time
        reduction = 1.0 - new_time / legacy_time

    ratios: dict[str, float] = {}
    for mode, phase in scenarios:
        if mode != "new" or ("legacy", phase) not in scenarios:
            continue
        legacy_net = scenarios[("legacy", phase)].estimates["network_read_bytes"].mean
        if legacy_net > 0.0:
            ratios[phase] = scenarios[("new", phase)].estimates["network_read_bytes"].mean / legacy_net

    return BenchReport(
        scenarios=scenarios,
        legacy_time=legacy_time,
        new_time=new_time,
        speedup=speedup,
        time_reduction=reduction,
        network_ratio=ratios,
    )


def _mode_time(scenarios: dict, mode: str) -> float | None:
    times = [s.estimates["overall_time_s"].mean for (m, _), s in scenarios.items() if m == mode]
    return sum(times) if times else None


# --- rendering ---------------------------------------------------------------

_PHASE_ORDER = {"pre": 0, "post": 1}
_WORKFLOW_ORDER = {"legacy": 0, "new": 1}


def _scenario_sort_key(key: tuple[str, str]):
    mode, phase = key
    return (_PHASE_ORDER.get(phase, 99), phase, _WORKFLOW_ORDER.get(mode, 99), mode)


def _fmt(e: Estimate, unit: str) -> str:
    """mean +- err in unit; rates and bytes take an SI prefix, seconds never do."""
    factor, prefix = 1.0, ""
    for f, p in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if unit != "s" and abs(e.mean) >= f:
            factor, prefix = f, p
            break
    return f"{e.mean / factor:.2f} +- {e.err / factor:.2f} {prefix}{unit}"


_METRIC_ROWS = [
    ("Overall time", "overall_time_s", "s"),
    ("Overall rate", "overall_rate_hz", "Hz"),
    ("Job rate", "job_rate_hz", "Hz"),
    ("Job event-loop rate", "job_loop_rate_hz", "Hz"),
    ("Network read", "network_read_bytes", "B"),
]


def render(rows: list[RunMetrics]) -> str:
    """Format metrics rows as a fixed-width comparison table."""
    return render_report(summarize(rows))


def render_report(report: BenchReport) -> str:
    keys = sorted(report.scenarios, key=_scenario_sort_key)
    headers = [f"{mode}/{phase}" for mode, phase in keys]

    table: list[list[str]] = []
    for label, column, unit in _METRIC_ROWS:
        cells = [_fmt(report.scenarios[k].estimates[column], unit) for k in keys]
        table.append([label] + cells)
    table.append(["Events"] + [str(report.scenarios[k].total_events) for k in keys])
    table.append(["Jobs"] + [str(report.scenarios[k].n_jobs) for k in keys])
    table.append(["Repeats"] + [str(report.scenarios[k].repeats) for k in keys])

    widths = [max(len(r[i]) for r in table + [["metric"] + headers]) for i in range(len(keys) + 1)]
    lines = []
    header_cells = ["metric"] + headers
    lines.append("  ".join(c.ljust(w) for c, w in zip(header_cells, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for r in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())

    if report.speedup is not None:
        lines.append("")
        lines.append(
            f"Total time legacy/new: {report.legacy_time:.2f} / {report.new_time:.2f}"
        )
        lines.append(f"Speedup (legacy / new): {report.speedup:.2f}")
        lines.append(f"Time reduction: {100.0 * report.time_reduction:.1f}%")
    if report.network_ratio:
        parts = ", ".join(
            f"{phase} {ratio:.3f}"
            for phase, ratio in sorted(
                report.network_ratio.items(),
                key=lambda kv: (_PHASE_ORDER.get(kv[0], 99), kv[0]),
            )
        )
        lines.append(f"Network read ratio (new / legacy): {parts}")

    lines.append("")
    lines.append("Memory proxy (peak engine column-buffer bytes; not comparable to process RSS):")
    for header, key in zip(headers, keys):
        lines.append(f"  {header}: {_fmt(report.scenarios[key].estimates['mem_peak_bytes'], 'B')}")

    return "\n".join(lines) + "\n"
