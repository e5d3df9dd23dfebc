"""Timing harness comparing classical and distance-sampled computations.

Measurements run strictly sequentially on one thread. Speedups are computed
from medians to resist timer noise; means are reported alongside. The
sampled methods are timed twice per task: end to end (view construction
included, the conservative accounting) and on a prebuilt view. The
structured report carries the end-to-end timings only; the printed summary
shows both.
"""

from __future__ import annotations

import io
import json
import statistics
import time
from csv import writer as csv_writer
from dataclasses import asdict, dataclass

from .cds import period_cds, shortest_cover_cds
from .classical import period_classical, shortest_cover_classical
from .sampling import build_cds, sampling_stats
from .text import Text

# task -> (classical route, sampled route over a view of the same text)
_ROUTES = {
    "period": (period_classical, period_cds),
    "cover": (shortest_cover_classical, shortest_cover_cds),
}
TASKS = tuple(_ROUTES)

# Speedup ranges reported for optimized C implementations over 100 MB of
# English text; printed for orientation only, never asserted.
REFERENCE_SPEEDUP_PCT = {"period": (38.0, 43.0), "cover": (63.0, 72.0)}

CSV_COLUMNS = ("task", "size", "method", "mean_ns", "median_ns", "stddev_ns")


@dataclass(frozen=True)
class TimingEntry:
    name: str
    size: int
    mean_ns: int
    median_ns: int
    stddev_ns: int


@dataclass(frozen=True)
class Speedup:
    task: str
    size: int
    percent: float


@dataclass(frozen=True)
class SamplingFigure:
    size: int
    ratio: float


@dataclass(frozen=True)
class BenchReport:
    input: str
    sizes: list[int]
    runs: int
    entries: list[TimingEntry]
    speedups: list[Speedup]
    sampling: list[SamplingFigure]


def _time_runs(fn, runs: int) -> list[int]:
    out = []
    clock = time.perf_counter_ns
    for _ in range(runs):
        t0 = clock()
        fn()
        out.append(clock() - t0)
    return out


def _stats(samples: list[int]) -> tuple[int, int, int]:
    return (
        round(statistics.fmean(samples)),
        round(statistics.median(samples)),
        round(statistics.pstdev(samples)),
    )


def speedup_percent(classical_median_ns: int, cds_median_ns: int) -> float:
    """100 * (t_classical - t_cds) / t_classical, rounded to 0.01."""
    if classical_median_ns == 0:
        return 0.0
    return round(100.0 * (classical_median_ns - cds_median_ns) / classical_median_ns, 2)


def run_bench(
    data: Text,
    label: str,
    sizes: list[int],
    runs: int,
    tasks: tuple[str, ...] = TASKS,
) -> tuple[BenchReport, str]:
    """Measure every (task, size) pair and return the report plus a summary table."""
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    for size in sizes:
        if size < 1:
            raise ValueError(f"sizes must be >= 1, got {size}")
        if size > len(data):
            raise ValueError(
                f"input shorter than requested size {size} (have {len(data)} bytes)"
            )
    for task in tasks:
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}")

    entries: list[TimingEntry] = []
    speedups: list[Speedup] = []
    sampling: list[SamplingFigure] = []
    rows = []
    for size in sizes:
        text = data[:size]
        view = build_cds(text)
        ratio = round(float(sampling_stats(view).ratio), 4)
        sampling.append(SamplingFigure(size=size, ratio=ratio))
        for task in tasks:
            classical, sampled = _ROUTES[task]
            t_classical = _stats(_time_runs(lambda: classical(text), runs))
            t_cds = _stats(_time_runs(lambda: sampled(build_cds(text), text), runs))
            t_pre = _stats(_time_runs(lambda: sampled(view, text), runs))
            entries.append(TimingEntry(f"{task}_classical", size, *t_classical))
            entries.append(TimingEntry(f"{task}_cds", size, *t_cds))
            speedups.append(Speedup(task, size, speedup_percent(t_classical[1], t_cds[1])))
            rows.append((task, size, t_classical, t_cds, t_pre))

    report = BenchReport(
        input=label, sizes=list(sizes), runs=runs,
        entries=entries, speedups=speedups, sampling=sampling,
    )
    return report, _format_summary(label, runs, rows, sampling, tasks)


def _format_summary(label, runs, rows, sampling, tasks) -> str:
    lines = [
        f"bench: {label}  runs={runs}",
        f"{'task':<8}{'size':>10}{'classical':>14}{'cds e2e':>14}{'cds prebuilt':>14}"
        f"{'speedup%':>10}{'prebuilt%':>11}",
    ]
    for task, size, t_classical, t_cds, t_pre in rows:
        lines.append(
            f"{task:<8}{size:>10}{t_classical[1] / 1e6:>12.3f}ms{t_cds[1] / 1e6:>12.3f}ms"
            f"{t_pre[1] / 1e6:>12.3f}ms"
            f"{speedup_percent(t_classical[1], t_cds[1]):>10.2f}"
            f"{speedup_percent(t_classical[1], t_pre[1]):>11.2f}"
        )
    for task in tasks:
        lo, hi = REFERENCE_SPEEDUP_PCT[task]
        lines.append(
            f"reference {task} speedup {lo:.0f}-{hi:.0f}% "
            "(optimized C implementations, 100 MB English text; informational)"
        )
    for fig in sampling:
        lines.append(
            f"sampling size={fig.size}: {100 * fig.ratio:.2f}% entries/char "
            "(equals byte overhead at one byte per entry)"
        )
    return "\n".join(lines)


def report_to_json(report: BenchReport) -> str:
    return json.dumps(asdict(report), indent=2)


def report_to_csv(report: BenchReport) -> str:
    """Timing entries as CSV; entry names split into task and method columns."""
    buf = io.StringIO()
    w = csv_writer(buf)
    w.writerow(CSV_COLUMNS)
    for e in report.entries:
        task, method = e.name.rsplit("_", 1)
        w.writerow((task, e.size, method, e.mean_ns, e.median_ns, e.stddev_ns))
    return buf.getvalue()
