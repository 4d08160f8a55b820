"""Comparison tables over benchmark metrics rows.

Everything here is a pure function of metrics.csv rows (as produced by
``metrics.write_metrics_csv`` and parsed back by ``read_metrics_csv``).
Repeated runs of one scenario are grouped by (mode, phase) and reduced to
mean +- maximum semi-dispersion, i.e. (max - min) / 2 — the error bar is a
spread estimate over repeats, not a standard deviation.

Derived figures compare the two workflows end to end:

    speedup        = sum of legacy mean times / sum of new mean times
    time_reduction = 1 - new / legacy

Both are ratios of like quantities, so they are independent of the unit the
time column happens to be in.
"""

from __future__ import annotations

from dataclasses import dataclass


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


@dataclass(frozen=True)
class ScenarioSummary:
    """One (mode, phase) cell of the comparison: estimates over repeats."""

    mode: str
    phase: str
    repeats: int
    overall_time: Estimate
    overall_rate: Estimate
    job_rate: Estimate
    job_loop_rate: Estimate
    network_read: Estimate
    total_events: int
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


def summarize(rows: list[dict]) -> BenchReport:
    """Reduce metrics rows to per-scenario estimates and derived ratios."""
    if not rows:
        raise ReportError("no metrics rows")
    groups: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        try:
            key = (str(row["mode"]), str(row["phase"]))
        except KeyError as e:
            raise ReportError(f"metrics row missing column: {e}") from None
        groups.setdefault(key, []).append(row)

    scenarios: dict[tuple[str, str], ScenarioSummary] = {}
    for (mode, phase), rs in groups.items():
        try:
            scenarios[(mode, phase)] = ScenarioSummary(
                mode=mode,
                phase=phase,
                repeats=len(rs),
                overall_time=Estimate.of([float(r["overall_time_s"]) for r in rs]),
                overall_rate=Estimate.of([float(r["overall_rate_hz"]) for r in rs]),
                job_rate=Estimate.of([float(r["job_rate_hz"]) for r in rs]),
                job_loop_rate=Estimate.of([float(r["job_loop_rate_hz"]) for r in rs]),
                network_read=Estimate.of([float(r["network_read_bytes"]) for r in rs]),
                total_events=int(rs[0]["total_events"]),
                n_jobs=int(rs[0]["n_jobs"]),
            )
        except (KeyError, ValueError, TypeError) as e:
            raise ReportError(f"bad metrics row for {mode}/{phase}: {e}") from None

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
        legacy_net = scenarios[("legacy", phase)].network_read.mean
        if legacy_net > 0.0:
            ratios[phase] = scenarios[("new", phase)].network_read.mean / legacy_net

    return BenchReport(
        scenarios=scenarios,
        legacy_time=legacy_time,
        new_time=new_time,
        speedup=speedup,
        time_reduction=reduction,
        network_ratio=ratios,
    )


def _mode_time(scenarios: dict, mode: str) -> float | None:
    times = [s.overall_time.mean for (m, _), s in scenarios.items() if m == mode]
    return sum(times) if times else None


# --- rendering ---------------------------------------------------------------

_PHASE_ORDER = {"pre": 0, "post": 1}
_MODE_ORDER = {"legacy": 0, "new": 1}


def _scenario_sort_key(key: tuple[str, str]):
    mode, phase = key
    return (_PHASE_ORDER.get(phase, 99), phase, _MODE_ORDER.get(mode, 99), mode)


def _si(x: float, digits: int = 2) -> tuple[float, str]:
    for factor, prefix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(x) >= factor:
            return x / factor, prefix
    return x, ""


def _fmt_seconds(e: Estimate) -> str:
    return f"{e.mean:.2f} +- {e.err:.2f} s"


def _fmt_hz(e: Estimate) -> str:
    scaled, prefix = _si(e.mean)
    div = {"G": 1e9, "M": 1e6, "k": 1e3, "": 1.0}[prefix]
    return f"{scaled:.2f} +- {e.err / div:.2f} {prefix}Hz"


def _fmt_bytes(e: Estimate) -> str:
    scaled, prefix = _si(e.mean)
    div = {"G": 1e9, "M": 1e6, "k": 1e3, "": 1.0}[prefix]
    return f"{scaled:.2f} +- {e.err / div:.2f} {prefix}B"


_METRIC_ROWS = [
    ("Overall time", "overall_time", _fmt_seconds),
    ("Overall rate", "overall_rate", _fmt_hz),
    ("Job rate", "job_rate", _fmt_hz),
    ("Job event-loop rate", "job_loop_rate", _fmt_hz),
    ("Network read", "network_read", _fmt_bytes),
]


def render(rows: list[dict], mem_rows: list[dict] = ()) -> str:
    """Format metrics rows as a fixed-width comparison table."""
    return render_report(summarize(rows), mem_rows)


def render_report(report: BenchReport, mem_rows: list[dict] = ()) -> str:
    keys = sorted(report.scenarios, key=_scenario_sort_key)
    headers = [f"{mode}/{phase}" for mode, phase in keys]

    table: list[list[str]] = []
    for label, attr, fmt in _METRIC_ROWS:
        cells = [fmt(getattr(report.scenarios[k], attr)) for k in keys]
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

    mem = _summarize_mem(mem_rows)
    if mem:
        lines.append("")
        lines.append(
            "Memory proxy (peak engine column-buffer bytes; "
            "not comparable to process RSS):"
        )
        for (mode, phase), est in sorted(mem.items(), key=lambda kv: _scenario_sort_key(kv[0])):
            lines.append(f"  {mode}/{phase}: {_fmt_bytes(est)}")

    return "\n".join(lines) + "\n"


def _summarize_mem(mem_rows: list[dict]) -> dict[tuple[str, str], Estimate]:
    groups: dict[tuple[str, str], list[float]] = {}
    for row in mem_rows:
        try:
            key = (str(row["mode"]), str(row["phase"]))
            groups.setdefault(key, []).append(float(row["mem_peak_bytes"]))
        except (KeyError, ValueError, TypeError) as e:
            raise ReportError(f"bad memory row: {e}") from None
    return {key: Estimate.of(vals) for key, vals in groups.items()}
