"""SHA-256 over the outputs and counters of every benchmark query.

    python3 tools/output_hash.py

Run from the root of a summit checkout. Prints the number of queries and one
digest over seeds 1, 2 and 3: every workload in `perfbench/run.py` order and
every query of its `build_queries` cycle in order, repeats included. A tree
or tensor query contributes its values as `float.hex` joined by spaces, then
the `repr` of its index tuples, then the `repr` of its counters; a peaks
query contributes the `repr` of its peak list. Each part is fed to the hash
as UTF-8 with no separator. A speed change that keeps outputs and counters
byte-identical prints the same digest before and after.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import WORKLOADS  # noqa: E402
from summit import tensor_top_k, top_peaks, tree_top_k  # noqa: E402
from workloads import build_queries  # noqa: E402

SEEDS = (1, 2, 3)
ENGINES = {"tree": tree_top_k, "tensor": tensor_top_k}


def query_parts(query):
    """The text a query contributes to the digest, part by part."""
    if query.kind == "peaks":
        yield repr(top_peaks(query.formula, query.k))
        return
    result = ENGINES[query.kind](query.vectors, query.k)
    yield " ".join(value.hex() for value in result.values)
    yield repr(result.index_tuples)
    yield repr(result.counters)


def main() -> int:
    digest, count = hashlib.sha256(), 0
    for seed in SEEDS:
        for workload in WORKLOADS:
            for query in build_queries(workload, seed):
                for part in query_parts(query):
                    digest.update(part.encode("utf-8"))
                count += 1
    print(count, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
