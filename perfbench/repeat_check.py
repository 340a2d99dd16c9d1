"""Check that the traced run's counters repeat exactly for a fixed seed.

    python3 perfbench/repeat_check.py [--seed N] [--seconds S]

Runs `run.py --trace 1` twice per workload with the same seed and compares
every per-layer metric that is a count or a ratio of counts (all but the
times). Exits 1 on any difference or failed query.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = str(Path(__file__).resolve().parent / "run.py")


def counters(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} failed queries")
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] != "s"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        first, second = (counters(workload, args.seed, args.seconds) for _ in range(2))
        differ = sorted(name for name in first if first[name] != second.get(name))
        ok &= not differ
        print(f"{workload}: {len(first)} counters, "
              + (f"differ: {', '.join(differ)}" if differ else "identical"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
