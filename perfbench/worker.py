"""One workload in one single-threaded process: references, or the timed loop.

    python3 perfbench/worker.py ref WORKLOAD SEED
        prints {query id: reference values} as JSON

    python3 perfbench/worker.py measure WORKLOAD SEED SECONDS TRACE < refs.json
        prints the metrics as JSON

    python3 perfbench/worker.py rss WORKLOAD SEED < refs.json
        prints the peak memory of running the top_peaks/tree_top_k queries

References are computed in their own process so that the oracle's grid and
the naive expansions they need do not count toward any measured memory.
Peak memory comes from a process of its own that never builds the tensor
queries' inputs, so that it holds only what the program itself keeps.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from statistics import geometric_mean, median
from time import perf_counter

import numpy
from summit import tensor_top_k, top_peaks, tree_top_k

from calibrate import REFERENCE_S, reference_time
from check import Checker, reference_values
from tracing import (
    OVERHEAD,
    VIOLATIONS,
    Tracer,
    copy_drift,
    layer_metrics,
    patched,
    traced_tensor_top_k,
    traced_tree_top_k,
    unit,
)
from workloads import PRIMARY_KINDS, build_queries

UNTRACED = {
    "peaks": lambda q: top_peaks(q.formula, q.k),
    "tree": lambda q: tree_top_k(q.vectors, q.k),
    "tensor": lambda q: tensor_top_k(q.vectors, q.k),
}
TRACED = {
    # Under `patched`, top_peaks reaches traced_tree_top_k through its own
    # module-level name.
    "peaks": lambda t, q: top_peaks(q.formula, q.k),
    "tree": lambda t, q: traced_tree_top_k(t, q.vectors, q.k),
    "tensor": lambda t, q: traced_tensor_top_k(t, q.vectors, q.k),
}

E2E_UNITS = {
    "latency_ref_s": "s",
    "tensor_latency_ref_s": "s",
    "throughput_ref_qps": "1/s",
}
# Passes of the reference work timed between untraced calls, and after the
# last, each group after one untimed pass. One pass jitters by about 20%, so
# a call's reference time is the median of the passes just before and just
# after it.
REFERENCE_PASSES = 5
# Cycles run by the peak-memory process: the second shows any memory that a
# call leaves behind for the next.
RSS_CYCLES = 2


class Loop:
    """Closed loop with one client: each query is sent when the last returns."""

    def __init__(self, queries, refs):
        self.queries = queries
        self.check = Checker(refs)
        self.latencies = {q.id: [] for q in queries}
        self.ratios = {q.id: [] for q in queries}  # latency over reference time
        self.traced_latencies = {q.id: [] for q in queries}
        self.traced_metrics = {q.id: [] for q in queries}
        self.cycle_ratios: list[float] = []  # cycle time over reference time
        self.attempted = self.failed = 0
        self.tracer = Tracer()

    def _record_failure(self, query, why: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"query {query.id} failed: {why}", file=sys.stderr)

    def cycle(self, traced: bool, timed: bool = True) -> None:
        cycle_start = perf_counter()
        harness = 0.0  # time inside the cycle spent on checks and reference work
        passes: list[list[float]] = []  # reference passes before each call
        calls = []  # (query, latency, index into passes) of timed untraced calls

        def reference() -> None:
            nonlocal harness
            start = perf_counter()
            reference_time()  # untimed: brings the reference work back into cache
            passes.append([reference_time() for _ in range(REFERENCE_PASSES)])
            harness += perf_counter() - start

        for q in self.queries:
            self.attempted += 1
            if timed and not traced:
                reference()
            try:
                if traced:
                    with patched(self.tracer):
                        output, latency, metrics = self.tracer.run_query(
                            q.id, lambda: TRACED[q.kind](self.tracer, q))
                else:
                    start = perf_counter()
                    output = UNTRACED[q.kind](q)
                    latency = perf_counter() - start
            except Exception:  # a raising query is a failed query; keep measuring
                self._record_failure(q, traceback.format_exc())
                continue
            check_start = perf_counter()
            ok = self.check(q, output)
            harness += perf_counter() - check_start
            if not ok:
                self._record_failure(q, "output does not match the reference")
            elif traced and metrics.get(VIOLATIONS, 0):
                self._record_failure(q, "a pair node realized more than pops + 1")
            if not timed:
                continue
            if traced:
                self.traced_latencies[q.id].append(latency)
                self.traced_metrics[q.id].append(metrics)
            else:
                self.latencies[q.id].append(latency)
                calls.append((q, latency, len(passes) - 1))
        if timed and not traced:
            # Wall time of the whole cycle, calls and the gaps between them,
            # without the harness's own work, over the cycle's mean reference.
            wall = perf_counter() - cycle_start - harness
            reference()
            references = [median(passes[i] + passes[i + 1]) for i in range(len(passes) - 1)]
            for q, latency, i in calls:
                self.ratios[q.id].append(latency / references[i])
            self.cycle_ratios.append(wall / (sum(references) / len(references)))


def best_latency(queries, samples, kinds) -> float:
    """Geometric mean, over the chosen queries, of each query's fastest call."""
    return geometric_mean(min(samples[q.id]) for q in queries
                          if q.kind in kinds and samples[q.id])


def reference_latency(queries, ratios, kinds) -> float:
    """Latency at reference speed: REFERENCE_S times the geometric mean, over
    the chosen queries, of each query's median ratio of call time to the
    reference work timed just before and after it. The geometric mean lets
    every distinct input move the figure.
    """
    return REFERENCE_S * geometric_mean(median(ratios[q.id]) for q in queries
                                        if q.kind in kinds and ratios[q.id])


def pooled(queries, samples, kinds) -> list[float]:
    return sorted(x for q in queries if q.kind in kinds for x in samples[q.id])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    queries = build_queries(workload, seed)
    refs = json.load(sys.stdin)
    loop = Loop(queries, refs)

    # Warm-up: the isotope table cache, first-call imports and allocator
    # pools fill here, unless users pay them per call.
    loop.cycle(traced=False, timed=False)
    drift = 0
    if trace:
        loop.tracer.copies = []
        loop.cycle(traced=True, timed=False)
        drift = copy_drift(loop.tracer.copies)
        loop.tracer.copies = None
        loop.tracer.spans.clear()
        if drift:
            print(f"{drift} traced tree calls differ in counters from summit's tree_top_k",
                  file=sys.stderr)

    cycles = 0
    start = perf_counter()
    while perf_counter() - start < seconds or cycles < 2:
        # The traced pass alternates with untraced cycles, so the two see the
        # same machine state and their difference is the tracing overhead.
        loop.cycle(traced=trace and cycles % 2 == 1)
        cycles += 1

    result = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "attempted": loop.attempted,
        "failed": loop.failed + drift,
        "cycles": cycles,
    }
    if trace:
        metrics, steady = layer_metrics({q.id: q.kind for q in queries}, loop.traced_metrics)
        if not steady:
            result["failed"] += 1
            print("deterministic counters differed between samples of one query",
                  file=sys.stderr)
        metrics[OVERHEAD] = (
            best_latency(queries, loop.traced_latencies, PRIMARY_KINDS)
            - best_latency(queries, loop.latencies, PRIMARY_KINDS))
        out_dir = Path(".perfbench_out")
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
        loop.tracer.write(spans_path)
        result["spans"] = len(loop.tracer.spans)
        result["spans_file"] = str(spans_path)
        result["metrics"] = metrics
        result["units"] = {name: unit(name) for name in metrics}
        return result

    primary = pooled(queries, loop.latencies, PRIMARY_KINDS)
    # The highest percentile with at least ten samples beyond it; with ten
    # samples or fewer there is none, and the maximum stands in.
    beyond = 10 if len(primary) > 10 else 0
    result["metrics"] = {
        "latency_ref_s": reference_latency(queries, loop.ratios, PRIMARY_KINDS),
        "tensor_latency_ref_s": reference_latency(queries, loop.ratios, ("tensor",)),
        "throughput_ref_qps": len(queries) / (REFERENCE_S * median(loop.cycle_ratios)),
    }
    result["units"] = E2E_UNITS
    # Wall times as measured, reported for reading and not gated: they
    # follow the host's slow phases (see calibrate.py).
    result["info"] = {
        "latency_p50_s": median(primary),
        "latency_tail_s": primary[len(primary) - 1 - beyond],
        "latency_min_s": best_latency(queries, loop.latencies, PRIMARY_KINDS),
        "tensor_latency_p50_s": median(pooled(queries, loop.latencies, ("tensor",))),
        "tensor_latency_min_s": best_latency(queries, loop.latencies, ("tensor",)),
    }
    result["samples"] = len(primary)
    result["tail_percentile"] = 100.0 * (len(primary) - beyond) / len(primary)
    return result


def peak_rss(workload: str, seed: int) -> dict:
    """Peak resident memory of the top_peaks/tree_top_k queries alone.

    Only the inputs that the program is handed are built: formulas for
    top_peaks, vectors for tree_top_k. ru_maxrss is a high-water mark, so
    anything larger that the harness held would set it instead.
    """
    loop = Loop(build_queries(workload, seed, PRIMARY_KINDS), json.load(sys.stdin))
    for _ in range(RSS_CYCLES):
        loop.cycle(traced=False, timed=False)
    return {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "attempted": loop.attempted, "failed": loop.failed}


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "ref":
        out = {q.id: reference_values(q) for q in build_queries(workload, seed)}
    elif mode == "rss":
        out = peak_rss(workload, seed)
    else:
        out = measure(workload, seed, float(argv[3]), argv[4] == "1")
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
