"""Fresh-process start-up time of the isotope path, with and without `site`.

    python3 tools/startup_time.py [--runs N] [--against PATH]

Run from the root of a summit checkout. Each round starts one fresh
interpreter per command, with the checkout's `src/` as PYTHONPATH:

- `bare`: `python -c pass`, the interpreter alone;
- `import`: `import summit; summit.builtin_isotope_table()`;
- `isotopes`: `python -m summit isotopes` on the paper's fake compound at
  k=512, its rows written to /dev/null.

Each command runs once with normal start-up and once under `-S` (no `site`,
so no `.pth` file loads modules before summit does); those rows are named
`bare -S`, `import -S` and `isotopes -S`. With `--against PATH`, the checkout
at PATH runs in the same rounds, the two checkouts taking turns to go first.
A process's time is the wall time from before it is started to after it has
exited. One untimed round goes first. Prints one JSON line: per checkout and
command, the min and median over the rounds, in milliseconds.

The environment is the caller's, with PYTHONHASHSEED=0 as perfbench sets it.
Where PYTHONDONTWRITEBYTECODE is set, every process compiles summit from
source; elsewhere the untimed round writes the bytecode cache and the timed
rounds read it. The output says which. Timings are not gated anywhere: the
machine's load moves them, so compare checkouts only within one run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

FAKE_COMPOUND = "Cl800V800He800C800H800N800O100S6Cu800Ga800Ag800Tl800Ne800"
COMMANDS = {
    "bare": ["-c", "pass"],
    "import": ["-c", "import summit; summit.builtin_isotope_table()"],
    "isotopes": ["-m", "summit", "isotopes", "--formula", FAKE_COMPOUND, "--k", "512"],
}


def wall_ms(args: list[str], env: dict[str, str]) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], env=env, stdout=subprocess.DEVNULL, check=True)
    return (time.perf_counter() - start) * 1e3


def one_round(checkouts: dict[str, Path], order: list[str]) -> dict[str, dict[str, float]]:
    times = {}
    for label in order:
        env = {**os.environ, "PYTHONPATH": str(checkouts[label] / "src"), "PYTHONHASHSEED": "0"}
        times[label] = {f"{name}{suffix}": wall_ms([*flags, *args], env)
                        for suffix, flags in (("", []), (" -S", ["-S"]))
                        for name, args in COMMANDS.items()}
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=20, help="timed rounds (default 20)")
    parser.add_argument("--against", type=Path, help="another summit checkout to time alongside")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    checkouts = {"this": Path.cwd()}
    if args.against is not None:
        checkouts["against"] = args.against.resolve()
    for path in checkouts.values():
        if not (path / "src" / "summit" / "__init__.py").is_file():
            parser.error(f"{path} is not a summit checkout")

    labels = list(checkouts)
    one_round(checkouts, labels)
    samples = {label: {} for label in labels}
    for run in range(args.runs):
        order = labels if run % 2 == 0 else labels[::-1]
        for label, times in one_round(checkouts, order).items():
            for name, ms in times.items():
                samples[label].setdefault(name, []).append(ms)

    report = {
        "runs": args.runs,
        "python": sys.version.split()[0],
        "compiles_from_source": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "paths": {label: str(path) for label, path in checkouts.items()},
    }
    for label in labels:
        report[label] = {name: {"min_ms": round(min(ms), 2), "median_ms": round(median(ms), 2)}
                         for name, ms in samples[label].items()}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
