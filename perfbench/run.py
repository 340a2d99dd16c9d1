"""summit benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a summit checkout; the package is imported from its
`src/` directory. With `--trace 0` the last line of output is a JSON object
with the end-to-end metrics; with `--trace 1` it holds the per-layer
metrics, and the spans are written under `.perfbench_out/`. Every output is
checked against an independent reference; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

from calibrate import REFERENCE_S

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fake-compound", "peptide-mix", "deep-sum", "wide-sum")
SETUP_RUNS = 16
# Times the set-up, then, in the same interpreter, the reference work of
# calibrate.py, and prints both.
SETUP_CODE = (
    "import time; t = time.perf_counter(); import summit; "
    "summit.builtin_isotope_table(); setup = time.perf_counter() - t; "
    f"import sys; sys.path.insert(0, {str(HERE)!r}); "
    "from calibrate import reference_time; from statistics import median; "
    "print(setup, median(reference_time() for _ in range(9)))"
)
CHILD_TIMEOUT_S = 150


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    # Single-threaded numpy, and a fixed hash seed so set and dict layouts,
    # and with them the timings, repeat between runs.
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def run_child(args: list[str], env, stdin: str | None = None) -> str:
    proc = subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                          text=True, env=env, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:3])} exited with code {proc.returncode}")
    return proc.stdout


def setup_ratios(env, runs: int) -> list[float]:
    """Set-up time of fresh interpreters (import summit, load its table),
    each over the reference work timed in the same interpreter."""
    ratios = []
    for _ in range(runs):
        setup, reference = map(float, run_child(["-c", SETUP_CODE], env).split())
        ratios.append(setup / reference)
    return ratios


def run_workload(workload: str, args, env) -> int:
    """Measure one workload and print its report; returns the exit code."""
    worker = str(HERE / "worker.py")
    # Set-up is timed in fresh interpreters, half before and half after the
    # measurement, each against the reference work (see calibrate.py). The
    # first interpreter writes the bytecode cache, which a user pays once per
    # install, and is not counted.
    half = 0 if args.trace else SETUP_RUNS // 2
    try:
        setup = setup_ratios(env, half + 1)[1:] if half else []
        refs = run_child([worker, "ref", workload, str(args.seed)], env)
        out = json.loads(run_child(
            [worker, "measure", workload, str(args.seed), str(args.seconds),
             str(args.trace)], env, stdin=refs))
        if not args.trace:
            rss = json.loads(run_child([worker, "rss", workload, str(args.seed)], env,
                                       stdin=refs))
            setup += setup_ratios(env, half)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics, units = out["metrics"], out["units"]
    if not args.trace:
        metrics = {"setup_s": REFERENCE_S * median(setup), **metrics,
                   "peak_rss_mb": rss["peak_rss_mb"]}
        units.update(setup_s="s", peak_rss_mb="MB")
        out["attempted"] += rss["attempted"]
        out["failed"] += rss["failed"]
    report = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print(f"workload {workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"python {out['python']}  numpy {out['numpy']}  cores {os.cpu_count()}  "
          f"cycles {out['cycles']}")
    for name, entry in report.items():
        print(f"{name:34s} {entry['value']:.6g} {entry['unit']}")
    if args.trace:
        print(f"spans {out['spans']} written to {out['spans_file']}")
    else:
        print(f"setup_s is the median of {SETUP_RUNS} fresh interpreters, at reference speed")
        for name, value in out["info"].items():
            print(f"{name:34s} {value:.6g} s (not gated)")
        print(f"latency_tail_s is p{out['tail_percentile']:.2f} of {out['samples']} samples")
    print(f"failed_frac {out['failed'] / out['attempted']:.6g} "
          f"({out['failed']} of {out['attempted']} queries)")
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": report}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = Path.cwd() / "src"
    if not (src / "summit" / "__init__.py").is_file():
        print(f"no summit package under {src}; run from the root of a summit checkout",
              file=sys.stderr)
        return 2
    env = child_env(src)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(name, args, env) for name in names)


if __name__ == "__main__":
    sys.exit(main())
