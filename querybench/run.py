"""File-to-answer query benchmark of strreg's classical and sampled routes.

Run from the repository root:

    python3 querybench/run.py --workload random-text --seed 1 --seconds 15 --trace 0

One process runs one workload: it generates the workload's inputs from the
seed, writes them to files, and then loops over every (input, task, route)
query, calling ``strreg.cli.main([task, FILE, "--method", route])`` in
process with stdout captured. It is a closed loop with one client on one
thread. Every answer is checked. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. A
readable report goes to stderr and, with the spans of a traced run, to
``querybench/results/``. ``--workload all`` runs every workload in a fresh
process each and prints their metrics by name and unit.

See ``querybench/README.md`` for the metrics and what each layer should move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from bisect import bisect_right
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
try:
    import strreg
    from strreg import classical, cli, sampling
except ImportError as exc:
    sys.exit(f"querybench: cannot import strreg from {SRC}: {exc}")
if not Path(strreg.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"querybench: strreg was imported from {strreg.__file__}, not from {SRC}")

import tracing
import workloads
from workloads import TASKS, WORKLOADS, build_inputs

ROUTES = ("classical", "cds")
SETUP_REPEATS = 5
ORACLE_PREFIX = 1000
TAIL_PERCENTILE = 90
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
MAX_LISTED_FAILURES = 20

END_TO_END_UNITS = {
    **{f"{r}.{t}_ms": "ms" for r in ROUTES for t in TASKS},
    "classical.tail_ms": "ms",
    "cds.tail_ms": "ms",
    "classical.mb_per_s": "MB/s",
    "cds.mb_per_s": "MB/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "frac",
}

# Layers whose self times add up to a query of each route.
ROUTE_LAYERS = {
    "classical": ("text.load_text", "classical.border_array", "classical.chain",
                  "classical.occurrences", "classical.cover_test", "classical.entry",
                  tracing.CLI_SELF),
    "cds": ("text.load_text", "sampling.build_cds", "cds.dist_border_array", "cds.walk",
            "cds.borders_cds", "cds.occurrences", "cds.cover_test", "cds.entry",
            tracing.CLI_SELF),
}


class Checker:
    """Counts attempted and failed answers; a failure is never dropped.

    A query fails on a non-zero exit code or an exception, on an answer that
    contradicts what the input's construction fixes, or on an answer that
    differs from the first accepted answer of the same input and task, which
    is how the two routes are held to agree.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._reference: dict[tuple[str, str], str] = {}

    def _count(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_LISTED_FAILURES:
                self.failures.append(what)

    def query(self, inp, task: str, route: str, rc, out: str) -> None:
        ok = rc == 0 and inp.satisfies(task, out)
        if ok:
            ok = self._reference.setdefault((inp.name, task), out) == out
        self._count(ok, f"{inp.name} {task} {route}: rc={rc} out={out[:80]!r}")

    def oracle(self, inp, task: str, route: str, rc, out: str, want: str | None) -> None:
        self._count(rc == 0 and out == want,
                    f"{inp.name} {task} {route} prefix {ORACLE_PREFIX}: {out!r} != naive {want!r}")


def call_cli(argv: list[str]):
    """Run the CLI in process; returns (exit code or None, stdout, wall ns)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter_ns()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed query, not a stopped benchmark
            rc = None
            traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter_ns() - start
    return rc, buf.getvalue(), wall


def startup_s() -> float:
    """Median wall time of a fresh interpreter that imports this benchmark and strreg."""
    code = f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; import run"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def setup(workload: str, seed: int, workdir: Path):
    """Generate and write the inputs; returns (inputs, paths, seconds, gen_text seconds).

    ``workdir`` must be new: overwriting a file can cost far more than
    writing it, depending on the file system.
    """
    gen_ns = 0
    gen_text = workloads.gen_text

    def timed_gen_text(spec):
        nonlocal gen_ns
        start = time.perf_counter_ns()
        out = gen_text(spec)
        gen_ns += time.perf_counter_ns() - start
        return out

    start = time.perf_counter()
    workloads.gen_text = timed_gen_text
    try:
        inputs = build_inputs(workload, seed)
    finally:
        workloads.gen_text = gen_text
    workdir.mkdir(parents=True)
    paths = []
    for inp in inputs:
        path = workdir / f"{inp.name}.txt"
        path.write_bytes(inp.data)
        paths.append(str(path))
    return inputs, paths, time.perf_counter() - start, gen_ns / 1e9


def oracle_check(inputs, paths, checker: Checker) -> None:
    """Both routes against the naive oracles on a short prefix of each input."""
    prefix = ["--prefix", str(ORACLE_PREFIX)]
    for inp, path in zip(inputs, paths):
        for task in ("period", "cover"):
            rc, want, _ = call_cli([task, path, "--method", "naive", *prefix])
            for route in ROUTES:
                got = call_cli([task, path, "--method", route, *prefix])
                checker.oracle(inp, task, route, got[0], got[1], want if rc == 0 else None)


def measure(inputs, paths, seconds: float, checker: Checker, tracer=None):
    """Closed loop over every query for ``seconds``, after one untimed warm-up round.

    Only whole rounds are run, so every (input, task, route) has the same
    number of samples and a pooled percentile falls at the same rank of the
    same mix in every run. The loop goes on past the deadline until each
    route has more than TAIL_BEYOND samples above its TAIL_PERCENTILE.

    Returns records (input index, task, route, wall ns) of plain queries and,
    with a tracer, of traced ones: each query then runs once plain and once
    traced, the order alternating by round, so drift hits both alike. A
    traced record's index in its list is its query id in the spans.
    """
    cases = [(i, task, route) for i in range(len(inputs)) for task in TASKS for route in ROUTES]
    plain: list[tuple[int, str, str, int]] = []
    traced: list[tuple[int, str, str, int]] = []

    def run(i: int, task: str, route: str, with_spans: bool) -> tuple[int, str, str, int]:
        argv = [task, paths[i], "--method", route]
        if with_spans:
            tracer.query_id = len(traced)
            with tracer:
                rc, out, wall = call_cli(argv)
        else:
            rc, out, wall = call_cli(argv)
        checker.query(inputs[i], task, route, rc, out)
        return i, task, route, wall

    for case in cases:
        run(*case, with_spans=False)
    min_samples = TAIL_BEYOND * 100 // (100 - TAIL_PERCENTILE) + 1
    min_rounds = math.ceil(min_samples / (len(inputs) * len(TASKS)))
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        for case in cases:
            if tracer is None:
                plain.append(run(*case, with_spans=False))
                continue
            for with_spans in (rounds % 2 == 0, rounds % 2 == 1):
                (traced if with_spans else plain).append(run(*case, with_spans))
        rounds += 1
    return plain, traced


def group_medians(records) -> dict[tuple[int, str, str], float]:
    """Median wall ns of each (input, task, route)."""
    groups: dict[tuple[int, str, str], list[int]] = {}
    for i, task, route, wall in records:
        groups.setdefault((i, task, route), []).append(wall)
    return {key: statistics.median(v) for key, v in groups.items()}


def task_ms(medians, n_inputs: int, task: str, route: str) -> float:
    """Median over the inputs of each input's median query time."""
    return statistics.median(medians[(i, task, route)] for i in range(n_inputs)) / 1e6


def tail(records, route: str) -> tuple[float, float, int]:
    """(ms, percentile, samples) of the route's TAIL_PERCENTILE.

    A percentile closer to the maximum would land among the few queries
    that something else on the machine delays, and would vary from run to
    run with their count. With too few samples, the highest percentile that
    keeps TAIL_BEYOND samples above it is taken instead.
    """
    times = sorted(wall for _, _, r, wall in records if r == route)
    n = len(times)
    k = max(min(n * TAIL_PERCENTILE // 100, n - TAIL_BEYOND - 1), 0)
    return times[k] / 1e6, 100.0 * k / max(n - 1, 1), n


def end_to_end(records, inputs, setup_s: float, checker: Checker) -> tuple[dict, dict]:
    medians = group_medians(records)
    n = len(inputs)
    values = {f"{r}.{t}_ms": task_ms(medians, n, t, r) for r in ROUTES for t in TASKS}
    tails = {}
    for route in ROUTES:
        ms, pct, count = tail(records, route)
        values[f"{route}.tail_ms"] = ms
        tails[route] = {"percentile": pct, "samples": count}
        # One round of the route's queries at their median times.
        size = sum(len(inputs[i].data) for i, _, r in medians if r == route)
        busy = sum(ns for (_, _, r), ns in medians.items() if r == route)
        values[f"{route}.mb_per_s"] = size / 1e6 / (busy / 1e9)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["setup_s"] = setup_s
    values["ok_frac"] = 1 - checker.failed / checker.attempted
    return values, tails


def crossover(records, inputs) -> list[dict]:
    """Per input and task, the CDS/classical ratio of median query times."""
    medians = group_medians(records)
    rows = []
    for i, inp in enumerate(inputs):
        for task in TASKS:
            cls_ms = medians[(i, task, "classical")] / 1e6
            cds_ms = medians[(i, task, "cds")] / 1e6
            rows.append({"input": inp.name, "sigma": inp.sigma, "size": len(inp.data),
                         "task": task, "classical_ms": cls_ms, "cds_ms": cds_ms,
                         "cds_over_classical": cds_ms / cls_ms, "cds_loses": cds_ms > cls_ms})
    return rows


def exact_counts(inputs) -> dict[str, float]:
    """Work counts of the shortest-cover search, computed through public functions.

    Candidates are the chain borders ascending up to the first that covers,
    or all of them plus the text itself. ``cover_bytes_compared`` is computed,
    not observed: per candidate ``b``, pivot positions <= m - b, times b.
    """
    chain_len = tried = occ = compared = m_bar = m_total = 0
    for inp in inputs:
        x, m = inp.data, len(inp.data)
        chain = classical.border_chain(x)
        positions = sampling.build_cds(x).positions
        chain_len += len(chain)
        m_bar += len(positions) - 1
        m_total += m
        for b in reversed(chain):
            tried += 1
            found = classical.occurrences(x[:b], x)
            occ += len(found)
            compared += bisect_right(positions, m - b) * b
            if classical.is_covering(found, b, m):
                break
        else:
            tried += 1
    return {
        "count.chain_len": chain_len,
        "count.cover_candidates": tried,
        "count.cover_useful_ratio": len(inputs) / tried,
        "count.occurrences": occ,
        "count.cover_bytes_compared": compared,
        "sampling.m_bar": m_bar,
        "sampling.pivot_density": m_bar / m_total,
    }


def per_layer(untraced, traced, spans, inputs, gen_text_s: float) -> dict[str, float]:
    walls = {q: rec[3] for q, rec in enumerate(traced)}
    selfs = tracing.layer_self_ns(spans, walls)
    values: dict[str, float] = {"text.gen_text_s": gen_text_s}
    layers = sorted({layer for layers in ROUTE_LAYERS.values() for layer in layers})
    for layer in layers:
        ran = [s[layer] for s in selfs.values() if layer in s]
        values[f"{layer}_ms"] = statistics.median(ran) / 1e6 if ran else 0.0
    for route, route_layers in ROUTE_LAYERS.items():
        queries = [q for q, rec in enumerate(traced) if rec[2] == route]
        busy = sum(walls[q] for q in queries)
        for layer in route_layers:
            spent = sum(selfs[q].get(layer, 0) for q in queries)
            values[f"share.{route}.{layer}_pct"] = 100.0 * spent / busy

    # Tracing overhead and accounting, summed over (input, task, route) medians.
    plain = group_medians(untraced)
    with_spans = group_medians(traced)
    by_group: dict[tuple[int, str, str], list[int]] = {}
    for q, (i, task, route, _) in enumerate(traced):
        by_group.setdefault((i, task, route), []).append(q)
    accounted = sum(
        statistics.median(selfs[q].get(layer, 0) for q in qs)
        for (_, _, route), qs in by_group.items()
        for layer in ROUTE_LAYERS[route]
    )
    plain_total = sum(plain.values())
    values["trace.overhead_pct"] = 100.0 * (sum(with_spans.values()) / plain_total - 1)
    values["trace.accounted_pct"] = 100.0 * accounted / plain_total

    n = len(inputs)
    for task in TASKS:
        values[f"ratio.{task}_cds_over_classical"] = (
            task_ms(plain, n, task, "cds") / task_ms(plain, n, task, "classical"))
    cls_ms = task_ms(plain, n, "period", "classical")
    values["derived.period_speedup_pct"] = (
        100.0 * (cls_ms - task_ms(plain, n, "period", "cds")) / cls_ms)
    values["crossover.period_inputs_cds_loses"] = sum(
        row["cds_loses"] for row in crossover(untraced, inputs) if row["task"] == "period")
    values.update(exact_counts(inputs))
    return values


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    if name == "count.cover_bytes_compared":
        return "bytes_computed"
    if name in ("count.cover_useful_ratio", "sampling.pivot_density") or name.startswith("ratio."):
        return "ratio"
    return "count"


def run_one(args) -> int:
    workdir = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_times, gen_times = [], []
        for k in range(SETUP_REPEATS):
            inputs, paths, seconds, gen_seconds = setup(args.workload, args.seed,
                                                        workdir / f"setup{k}")
            setup_times.append(seconds)
            gen_times.append(gen_seconds)
        setup_s = startup_s() + statistics.median(setup_times)
        gen_text_s = statistics.median(gen_times)
        checker = Checker()
        oracle_check(inputs, paths, checker)

        report: dict = {"environment": environment(args)}
        if args.trace:
            tracer = tracing.Tracer()
            untraced, traced = measure(inputs, paths, args.seconds, checker, tracer)
            values = per_layer(untraced, traced, tracer.spans, inputs, gen_text_s)
            report["crossover"] = crossover(untraced, inputs)
            report["spans"] = {"fields": ["name", "start_ns", "end_ns", "parent", "query"],
                               "queries": [list(r[1:]) + [inputs[r[0]].name] for r in traced],
                               "spans": tracer.spans}
        else:
            records, _ = measure(inputs, paths, args.seconds, checker)
            values, report["tail"] = end_to_end(records, inputs, setup_s, checker)
            report["crossover"] = crossover(records, inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
    report.update(metrics=metrics, attempted=checker.attempted, failed=checker.failed,
                  failures=checker.failures)
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report))

    print_report(report, sys.stderr)
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


def print_report(report: dict, stream) -> None:
    env = report["environment"]
    print(f"# {env['workload']} seed={env['seed']} trace={env['trace']} "
          f"python={env['python']} nproc={env['nproc']} sha={env['git_sha'][:12]} "
          f"platform={env['platform']}", file=stream)
    for name, metric in report["metrics"].items():
        print(f"  {name:42s} {metric['value']:14.4f} {metric['unit']}", file=stream)
    for route, info in report.get("tail", {}).items():
        print(f"  {route}.tail_ms is p{info['percentile']:.1f} of {info['samples']} queries",
              file=stream)
    print("  crossover (median ms, CDS/classical):", file=stream)
    for row in report["crossover"]:
        mark = "  CDS loses" if row["cds_loses"] else ""
        print(f"    {row['input']:26s} sigma={row['sigma']:<3d} m={row['size']:<8d} "
              f"{row['task']:8s} {row['classical_ms']:9.3f} {row['cds_ms']:9.3f} "
              f"{row['cds_over_classical']:7.3f}{mark}", file=stream)
    print(f"  attempted={report['attempted']} failed={report['failed']}", file=stream)
    for failure in report["failures"]:
        print(f"  FAILED {failure}", file=stream)


def run_all(args) -> int:
    """Every workload in a fresh process of its own; prints each metric by name and unit."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:42s} {m['value']:14.4f} {m['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
