"""Command-line surface: engine runs, isotope peaks, and the benchmark harness.

Exit codes: 0 success, 2 usage error, 3 data error. Data errors print a
message to standard error; user input never produces a traceback.
"""

from __future__ import annotations

import argparse
import math
import sys

from .bench import ENGINES, run_bench
from .core import InputError
from .isotopes import builtin_isotope_table, load_isotope_table, parse_formula, top_peaks

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


def read_vectors_file(path: str) -> list[list[float]]:
    """One vector per line, values separated by single commas.

    Blank lines and lines starting with '#' are ignored; every value must be
    a finite decimal real.
    """
    vectors = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                row = [float(field) for field in line.split(",")]
            except ValueError:
                raise InputError(f"{path}:{lineno}: malformed vector line {line!r}") from None
            if not all(math.isfinite(v) for v in row):
                raise InputError(f"{path}:{lineno}: non-finite value")
            vectors.append(row)
    if not vectors:
        raise InputError(f"{path}: no vectors found")
    return vectors


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _size_list(text: str) -> list[int]:
    try:
        sizes = [int(field) for field in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of integers") from None
    if not sizes or any(m < 1 for m in sizes):
        raise argparse.ArgumentTypeError("sizes must be positive integers")
    return sizes


def _method_list(text: str) -> list[str]:
    methods = [field.strip() for field in text.split(",")]
    for name in methods:
        if name not in ENGINES:
            raise argparse.ArgumentTypeError(
                f"unknown method {name!r} (choose from {', '.join(sorted(ENGINES))})"
            )
    return methods


def cmd_topk(args: argparse.Namespace) -> int:
    vectors = read_vectors_file(args.input)
    result = ENGINES[args.method](vectors, args.k)
    out = sys.stdout
    for rank, (value, indices) in enumerate(zip(result.values, result.index_tuples), 1):
        out.write(f"{rank}\t{value!r}\t{','.join(map(str, indices))}\n")
    if args.counters:
        c = result.counters
        out.write(
            f"# pushes={c.heap_pushes} pops={c.heap_pops} "
            f"peak_fringe={c.peak_fringe_entries}\n"
        )
    return EXIT_OK


def cmd_isotopes(args: argparse.Namespace) -> int:
    table = load_isotope_table(args.data) if args.data else builtin_isotope_table()
    # Parsed here too, for the config labels and to fail before any work.
    counts = parse_formula(args.formula, table)
    peaks = top_peaks(args.formula, args.k, table, args.prune_delta)
    out = sys.stdout
    for rank, peak in enumerate(peaks, 1):
        config = ";".join(
            f"{symbol}[{','.join(str(c) for c in comp)}]"
            for (symbol, _), comp in zip(counts, peak.configuration)
        )
        out.write(f"{rank}\t{peak.mass:.12g}\t{peak.abundance:.12g}\t{config}\n")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    rows = run_bench(args.sizes, args.methods, seed=args.seed)
    # run_bench's row keys are the CSV columns, in order.
    lines = [",".join(rows[0])]
    for r in rows:
        lines.append(",".join(f"{value:.9f}" if name == "wall_seconds" else str(value)
                              for name, value in r.items()))
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="summit",
        description="Top-k values of Cartesian sums, isotope peaks, and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_topk = sub.add_parser("topk", help="top-k sums of the vectors in a file")
    p_topk.add_argument("--input", required=True, help="vectors file, one comma-separated vector per line")
    p_topk.add_argument("--k", required=True, type=_nonnegative_int)
    p_topk.add_argument("--method", choices=sorted(ENGINES), default="tree")
    p_topk.add_argument("--counters", action="store_true",
                        help="append a comment line with heap counters")
    p_topk.set_defaults(func=cmd_topk)

    p_iso = sub.add_parser("isotopes", help="most abundant isotope peaks of a formula")
    p_iso.add_argument("--formula", required=True)
    p_iso.add_argument("--k", required=True, type=_nonnegative_int)
    p_iso.add_argument("--data", default=None, help="isotope table TSV (default: built-in)")
    p_iso.add_argument("--prune-delta", type=float, default=None,
                       help="stop each element's walk this far below its best log abundance")
    p_iso.set_defaults(func=cmd_isotopes)

    p_bench = sub.add_parser("bench", help="timing and counter CSV over synthetic instances")
    p_bench.add_argument("--sizes", required=True, type=_size_list,
                         help="comma list of m; each run uses n=m vectors and k=m")
    p_bench.add_argument("--methods", required=True, type=_method_list)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default="-", help="CSV path, '-' for stdout")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
