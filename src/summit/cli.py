"""Command-line surface: engine runs, isotope peaks, and the benchmark harness.

Exit codes: 0 success, 2 usage error, 3 data error. Data errors print a
message to standard error; user input never produces a traceback.

The engines and the benchmark harness load inside the commands that run
them, so `summit isotopes` compiles neither.
"""

import argparse
import sys
from math import isfinite

from .core import InputError, data_lines
from .isotopes import builtin_isotope_table, load_isotope_table, parse_formula, top_peaks

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3

# The keys of bench.ENGINES, sorted; a test holds the two equal.
METHODS = ("oracle", "tensor", "tree")


def read_vectors_file(path: str) -> list[list[float]]:
    """One vector per line, values separated by single commas.

    Lines are read by core.data_lines; every value must be a finite decimal
    real.
    """
    malformed = "malformed vector line {line!r}"
    vectors = []
    for where, line in data_lines(path, path, malformed):
        try:
            row = list(map(float, line.split(",")))
        except ValueError:
            raise InputError(f"{where}: " + malformed.format(line=line)) from None
        if not all(map(isfinite, row)):
            raise InputError(f"{where}: non-finite value")
        vectors.append(row)
    if not vectors:
        raise InputError(f"{path}: no vectors found")
    return vectors


def _ascii_int(text: str) -> int:
    """int(text) of ASCII digits after an optional "-", else ValueError; int()
    alone also takes "1_0", "+3", " 3" and "\u0663"."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    try:
        return int(text)
    except ValueError:  # more digits than int() converts from text
        raise argparse.ArgumentTypeError(f"a value of {len(digits)} digits is too long") from None


def _integer(text: str) -> int:
    try:
        return _ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None


def _nonnegative_int(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _size_list(text: str) -> list[int]:
    try:
        sizes = [_ascii_int(field) for field in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of integers") from None
    if not sizes or any(m < 1 for m in sizes):
        raise argparse.ArgumentTypeError("sizes must be positive integers")
    return sizes


def _method_list(text: str) -> list[str]:
    methods = [field.strip() for field in text.split(",")]
    for name in methods:
        if name not in METHODS:
            raise argparse.ArgumentTypeError(
                f"unknown method {name!r} (choose from {', '.join(METHODS)})"
            )
    return methods


def cmd_topk(args: argparse.Namespace) -> int:
    vectors = read_vectors_file(args.input)
    # Loaded after the file is read, so a data error loads no numpy.
    from .bench import ENGINES

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
    peaks = top_peaks(args.formula, args.k, table)
    out = sys.stdout
    # Peaks share few compositions per element, so each label is built once.
    labels = [{} for _ in counts]
    for rank, peak in enumerate(peaks, 1):
        config = ";".join([
            cache.get(comp) or cache.setdefault(comp, f"{symbol}[{','.join(map(str, comp))}]")
            for (symbol, _), cache, comp in zip(counts, labels, peak.configuration)
        ])
        out.write(f"{rank}\t{peak.mass:.12g}\t{peak.abundance:.12g}\t{config}\n")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench import run_bench

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
    p_topk.add_argument("--method", choices=METHODS, default="tree")
    p_topk.add_argument("--counters", action="store_true",
                        help="append a comment line with heap counters")
    p_topk.set_defaults(func=cmd_topk)

    p_iso = sub.add_parser("isotopes", help="most abundant isotope peaks of a formula")
    p_iso.add_argument("--formula", required=True)
    p_iso.add_argument("--k", required=True, type=_nonnegative_int)
    p_iso.add_argument("--data", default=None, help="isotope table TSV (default: built-in)")
    p_iso.set_defaults(func=cmd_isotopes)

    p_bench = sub.add_parser("bench", help="timing and counter CSV over synthetic instances")
    p_bench.add_argument("--sizes", required=True, type=_size_list,
                         help="comma list of m; each run uses n=m vectors and k=m")
    p_bench.add_argument("--methods", required=True, type=_method_list)
    p_bench.add_argument("--seed", type=_integer, default=0)
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
