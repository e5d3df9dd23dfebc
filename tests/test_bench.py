import csv
import io
import json

import pytest

from strreg.bench import (
    BenchReport,
    CSV_COLUMNS,
    report_to_csv,
    report_to_json,
    run_bench,
    speedup_percent,
)
from strreg.text import GenSpec, gen_text

DATA = gen_text(GenSpec(alphabet_size=4, length=4096, seed=11))


@pytest.fixture(scope="module")
def small_report():
    report, summary = run_bench(DATA, "unit", [512, 4096], runs=3)
    return report, summary


def test_report_arity(small_report):
    report, _ = small_report
    assert len(report.entries) == 2 * 2 * 2  # sizes x tasks x methods
    assert len(report.speedups) == 4
    assert len(report.sampling) == 2
    assert report.runs == 3
    assert report.sizes == [512, 4096]


def test_entry_names_and_sizes(small_report):
    report, _ = small_report
    names = {(e.name, e.size) for e in report.entries}
    expected = {
        (f"{task}_{method}", size)
        for task in ("period", "cover")
        for method in ("classical", "cds")
        for size in (512, 4096)
    }
    assert names == expected


def test_speedup_recomputable_from_medians(small_report):
    report, _ = small_report
    medians = {(e.name, e.size): e.median_ns for e in report.entries}
    for s in report.speedups:
        t_classical = medians[(f"{s.task}_classical", s.size)]
        t_cds = medians[(f"{s.task}_cds", s.size)]
        recomputed = 100.0 * (t_classical - t_cds) / t_classical
        assert abs(recomputed - s.percent) <= 0.01


def test_json_schema(small_report):
    report, _ = small_report
    obj = json.loads(report_to_json(report))
    assert set(obj) == {"input", "sizes", "runs", "entries", "speedups", "sampling"}
    assert all(
        set(e) == {"name", "size", "mean_ns", "median_ns", "stddev_ns"}
        for e in obj["entries"]
    )
    assert all(set(s) == {"task", "size", "percent"} for s in obj["speedups"])
    assert all(set(f) == {"size", "ratio"} for f in obj["sampling"])
    for e in obj["entries"]:
        for key in ("mean_ns", "median_ns", "stddev_ns"):
            assert isinstance(e[key], int)


def test_csv_schema(small_report):
    report, _ = small_report
    text = report_to_csv(report)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 1 + len(report.entries)
    assert {r[0] for r in rows[1:]} == {"period", "cover"}
    assert {r[2] for r in rows[1:]} == {"classical", "cds"}


def test_summary_mentions_both_timing_modes(small_report):
    _, summary = small_report
    assert "cds e2e" in summary
    assert "cds prebuilt" in summary
    assert "reference period speedup 38-43%" in summary
    assert "reference cover speedup 63-72%" in summary


def test_single_task_selection():
    report, _ = run_bench(DATA, "unit", [256], runs=2, tasks=("period",))
    assert {e.name for e in report.entries} == {"period_classical", "period_cds"}
    assert [s.task for s in report.speedups] == ["period"]


def test_input_too_small_names_offending_size():
    with pytest.raises(ValueError, match="100000"):
        run_bench(DATA, "unit", [100000], runs=1)


def test_bad_runs_and_sizes():
    with pytest.raises(ValueError):
        run_bench(DATA, "unit", [16], runs=0)
    with pytest.raises(ValueError):
        run_bench(DATA, "unit", [0], runs=1)
    with pytest.raises(ValueError):
        run_bench(DATA, "unit", [16], runs=1, tasks=("bogus",))


def test_speedup_percent_arithmetic():
    assert speedup_percent(1000, 600) == 40.0
    assert speedup_percent(1000, 1300) == -30.0
    assert speedup_percent(0, 5) == 0.0


def test_sampling_ratio_matches_view():
    from strreg.sampling import build_cds

    report, _ = run_bench(DATA, "unit", [1024], runs=1)
    view = build_cds(DATA[:1024])
    assert report.sampling[0].ratio == round(view.m_bar / 1024, 4)
