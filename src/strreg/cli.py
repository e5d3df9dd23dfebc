"""Command-line front end: regularity queries, sampling diagnostics, text
generation, and the timing harness.

Exit codes: 0 success, 1 I/O or argument error, 2 empty input. Results go to
stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import TASKS, report_to_csv, report_to_json, run_bench
from .cds import borders_cds, period_cds, shortest_cover_cds
from .classical import (
    border_chain,
    naive_period,
    naive_shortest_cover,
    period_classical,
    shortest_cover_classical,
)
from .sampling import build_cds, sampling_stats
from .text import EmptyInputError, GenSpec, gen_text, load_text

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EMPTY = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments by default; 2 is reserved for
    # empty input here, so argument errors are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _cmd_period(args) -> int:
    text = load_text(args.file, args.prefix)
    if args.method == "classical":
        value = period_classical(text)
    elif args.method == "cds":
        value = period_cds(build_cds(text), text)
    else:
        value = naive_period(text)
    print(value)
    return EXIT_OK


def _cmd_cover(args) -> int:
    text = load_text(args.file, args.prefix)
    if args.method == "classical":
        value = shortest_cover_classical(text)
    elif args.method == "cds":
        value = shortest_cover_cds(build_cds(text), text)
    else:
        value = naive_shortest_cover(text)
    print(value)
    if value == len(text):
        print("superprimitive")
    return EXIT_OK


def _cmd_borders(args) -> int:
    text = load_text(args.file, args.prefix)
    if args.method == "classical":
        chain = border_chain(text)
    else:
        chain = borders_cds(build_cds(text), text)
    print(" ".join(map(str, chain)))
    return EXIT_OK


def _cmd_sample(args) -> int:
    text = load_text(args.file, args.prefix)
    view = build_cds(text)
    obj = {
        "m": view.m,
        "pivot": chr(view.pivot),
        "m_bar": view.m_bar,
        "k": view.k,
        "ratio": round(float(sampling_stats(view).ratio), 4),
    }
    print(json.dumps(obj, separators=(",", ":")))
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"--sizes must be a comma-separated integer list, got {args.sizes!r}")
    if not sizes:
        raise ValueError("--sizes must name at least one size")
    tasks = TASKS if args.tasks == "both" else (args.tasks,)
    data = load_text(args.file)
    report, summary = run_bench(
        data, str(args.file), sizes, args.runs, tasks, pretimed=args.pretimed
    )
    payload = report_to_json(report) if args.format == "json" else report_to_csv(report)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(payload)
    print(summary)
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = GenSpec(
        alphabet_size=args.alphabet,
        length=args.length,
        seed=args.seed,
        forced_period=args.period,
    )
    with open(args.out, "wb") as fh:
        fh.write(gen_text(spec))
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="strreg",
        description="Periods, border chains, and shortest covers of byte strings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_query(name, help_text, methods):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input file read as raw bytes")
        p.add_argument("--method", choices=methods, default="classical")
        p.add_argument("--prefix", type=int, default=None, metavar="N",
                       help="use only the first N bytes")
        return p

    add_query("period", "smallest period of the input", ("classical", "cds", "naive")
              ).set_defaults(func=_cmd_period)
    add_query("cover", "shortest cover length of the input", ("classical", "cds", "naive")
              ).set_defaults(func=_cmd_cover)
    add_query("borders", "non-periodic border chain, decreasing", ("classical", "cds")
              ).set_defaults(func=_cmd_borders)

    p = sub.add_parser("sample", help="distance-sampling diagnostics as JSON")
    p.add_argument("file")
    p.add_argument("--prefix", type=int, default=None, metavar="N")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("bench", help="time classical vs sampled methods")
    p.add_argument("file")
    p.add_argument("--sizes", required=True, help="comma-separated prefix sizes")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--tasks", choices=("period", "cover", "both"), default="both")
    p.add_argument("--out", required=True, help="report destination path")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--pretimed", action="store_true",
                   help="report sampled-method timings on a prebuilt view")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("gen", help="write a deterministic synthetic text")
    p.add_argument("--alphabet", type=int, required=True, metavar="K")
    p.add_argument("--length", type=int, required=True, metavar="N")
    p.add_argument("--seed", type=int, required=True, metavar="S")
    p.add_argument("--period", type=int, default=None, metavar="P")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # raised by --help and by argument errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except EmptyInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
