"""Spans around summit's public calls, and the per-layer metrics they give.

The traced pass does not edit summit: for its cycles it rebinds the module
names that `top_peaks` and `build_tree` look up (`parse_formula`,
`expand_element`, `tree_top_k`, `peaks_from_items`, `as_float_vectors`,
`sort_descending`) to wrappers that open a span around the original. The
tree query itself is rebuilt from `build_tree` and the root's `pop_next`, so
that build and select are timed apart and the finished tree can be walked
per depth. That copy is checked against summit's own `tree_top_k` on the
warm-up inputs (`copy_drift`), so a change to the original cannot leave the
traced numbers describing an older algorithm.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

import summit.isotopes
import summit.tree
from summit import LeafSource, TopKResult, build_tree, tensor_top_k
from summit.core import capacity, normalize_k

# Deepest pair-node level reported; deep-sum's m=512 tree has levels 0..8.
MAX_DEPTH = 8
DEPTH_FIELDS = ("pops", "realized", "fringe_end")

LAYER_METRICS = {
    "isotopes": ["isotopes.parse_s", "isotopes.expand_s", "isotopes.expand_entries",
                 "isotopes.expand_used_ratio", "isotopes.map_s", "isotopes.self_s"],
    "core": ["core.validate_s", "core.leaf_sort_s", "core.leaf_sorted_entries",
             "core.heap_pushes", "core.heap_pops", "core.peak_fringe_entries",
             "core.peak_entry_bytes_estimate", "core.self_s"],
    "tree": ["tree.build_s", "tree.select_s", "tree.pops_per_result", "tree.leaf_used_ratio",
             *(f"tree.d{d}.{field}" for d in range(MAX_DEPTH + 1) for field in DEPTH_FIELDS),
             "tree.self_s"],
    "tensor": ["tensor.call_s", "tensor.heap_pushes", "tensor.peak_fringe_entries",
               "tensor.pops_per_push"],
}
# Query kinds whose traced calls reach each layer.
LAYER_KINDS = {"isotopes": ("peaks",), "core": ("peaks", "tree"),
               "tree": ("peaks", "tree"), "tensor": ("tensor",)}
# Summed over all traced queries rather than averaged per query; must be 0.
VIOLATIONS = "tree.lazy_violations"
# Metrics that are not counts, and so may differ between runs.
TIMED_SUFFIX = "_s"
RATIOS = ("isotopes.expand_used_ratio", "tree.pops_per_result", "tree.leaf_used_ratio",
          "tensor.pops_per_push")
OVERHEAD = "trace.overhead_s"
# Counters on which the traced copy of tree_top_k must agree with the original.
COPY_COUNTERS = ("heap_pushes", "heap_pops", "peak_fringe_entries", "peak_entry_bytes_estimate")
PER_LAYER = [name for names in LAYER_METRICS.values() for name in names] + [VIOLATIONS, OVERHEAD]


def unit(name: str) -> str:
    if name.endswith(TIMED_SUFFIX):
        return "s"
    if name.endswith("bytes_estimate"):
        return "B"
    return "ratio" if name in RATIOS else "count"


class Tracer:
    """Spans kept in memory as [name, start, end, parent, query id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._query: str | None = None
        self.counts: dict[str, float] = {}
        # When a list, each traced tree call appends (vectors, k, counters).
        self.copies: list | None = None

    def begin(self, name: str) -> int:
        i = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._query])
        self._open.append(i)
        return i

    def end(self, i: int) -> None:
        self.spans[i][2] = perf_counter()
        # Also closes any child left open by a call that raised.
        del self._open[self._open.index(i):]

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            i = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(i)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def run_query(self, qid: str, call):
        """Run one query under a root span; returns (output, latency, metrics)."""
        self._query = qid
        self.counts = {}
        first = len(self.spans)
        root = self.begin("query")
        try:
            output = call()
        finally:
            self.end(root)
            self._query = None
        metrics = dict(self.counts)
        child_time = [0.0] * (len(self.spans) - first)
        for name, start, end, parent, _ in self.spans[first + 1:]:
            child_time[parent - first] += end - start
        for offset, (name, start, end, _, _) in enumerate(self.spans[first + 1:], 1):
            self_time = end - start - child_time[offset]
            for key in (f"{name}_s", name.split(".")[0] + ".self_s"):
                metrics[key] = metrics.get(key, 0.0) + self_time
        _, start, end, _, _ = self.spans[root]
        return output, end - start, metrics

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, qid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "query": qid}) + "\n")


def _count_expanded(tracer, args, vec) -> None:
    tracer.count("isotopes.expand_entries", len(vec))


def _count_sorted(tracer, args, result) -> None:
    tracer.count("core.leaf_sorted_entries", len(result[0]))


def _count_used(tracer, args, peaks) -> None:
    expanded, items = args
    used = sum(len({item.indices[d] for item in items}) for d in range(len(expanded)))
    tracer.count("isotopes.expand_used_ratio", used / sum(len(vec) for vec in expanded))


def _walk(tracer, tree, results: int) -> None:
    """Per-depth counts and the laziness bound, from the finished tree."""
    pair_pops = cursors = sorted_entries = violations = 0
    stack = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, LeafSource):
            cursors += node.cursor
            sorted_entries += len(node.sorted_values)
            continue
        realized = (len(node.realized_left), len(node.realized_right), len(node.fringe))
        pair_pops += node.pops
        if max(realized) > node.pops + 1:
            violations += 1
        for field, value in zip(DEPTH_FIELDS, (node.pops, realized[0] + realized[1], realized[2])):
            tracer.count(f"tree.d{min(depth, MAX_DEPTH)}.{field}", value)
        stack.append((node.left, depth + 1))
        stack.append((node.right, depth + 1))
    tracer.count("tree.pops_per_result", pair_pops / max(results, 1))
    tracer.count("tree.leaf_used_ratio", cursors / sorted_entries)
    tracer.count(VIOLATIONS, violations)


def _counter_metrics(tracer, prefix: str, counters, names) -> None:
    for name in names:
        tracer.count(f"{prefix}.{name}", getattr(counters, name))


def traced_tree_top_k(tracer: Tracer, vectors, k: int) -> TopKResult:
    """`tree_top_k` from public parts, with build and select in their own spans."""
    want = normalize_k(k, capacity(len(v) for v in vectors))
    i = tracer.begin("tree.build")
    tree = build_tree(vectors)
    tracer.end(i)
    i = tracer.begin("tree.select")
    items = []
    while len(items) < want:
        item = tree.pop_next()
        if item is None:
            break
        items.append(item)
    tracer.end(i)
    _walk(tracer, tree, len(items))
    _counter_metrics(tracer, "core", tree.counters, COPY_COUNTERS)
    if tracer.copies is not None:
        tracer.copies.append((vectors, k, tree.counters))
    return TopKResult(items, tree.counters)


def copy_drift(calls) -> int:
    """Traced tree calls whose counters differ from summit's `tree_top_k`.

    Call with summit unpatched, so that the reference is the original.
    """
    drift = 0
    for vectors, k, counters in calls:
        original = summit.tree.tree_top_k(vectors, k).counters
        drift += any(getattr(original, name) != getattr(counters, name)
                     for name in COPY_COUNTERS)
    return drift


def traced_tensor_top_k(tracer: Tracer, vectors, k: int) -> TopKResult:
    i = tracer.begin("tensor.call")
    result = tensor_top_k(vectors, k)
    tracer.end(i)
    c = result.counters
    _counter_metrics(tracer, "tensor", c, ("heap_pushes", "peak_fringe_entries"))
    tracer.count("tensor.pops_per_push", c.heap_pops / c.heap_pushes)
    return result


@contextmanager
def patched(tracer: Tracer):
    """Rebind summit's module-level names to traced wrappers, then restore them."""
    iso, tree = summit.isotopes, summit.tree
    wrappers = [
        (iso, "parse_formula", tracer.wrap("isotopes.parse", iso.parse_formula)),
        (iso, "expand_element",
         tracer.wrap("isotopes.expand", iso.expand_element, _count_expanded)),
        (iso, "peaks_from_items",
         tracer.wrap("isotopes.map", iso.peaks_from_items, _count_used)),
        (iso, "tree_top_k", lambda vectors, k: traced_tree_top_k(tracer, vectors, k)),
        (tree, "as_float_vectors", tracer.wrap("core.validate", tree.as_float_vectors)),
        (tree, "sort_descending",
         tracer.wrap("core.leaf_sort", tree.sort_descending, _count_sorted)),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in wrappers]
    try:
        for module, name, wrapper in wrappers:
            setattr(module, name, wrapper)
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def layer_metrics(kinds: dict[str, str], traced: dict[str, list[dict]]) -> tuple[dict, bool]:
    """Per-layer metrics from each query's traced samples.

    Times are the minimum over a query's samples; counts must repeat exactly
    between samples of one query, and a mismatch is reported as not steady.
    Each metric is then the mean over the queries whose kind reaches its
    layer, so it reads as cost per query.
    """
    per_query: dict[str, dict] = {}
    steady = True
    for qid, samples in traced.items():
        merged = {}
        for name in set().union(*samples):
            values = [s.get(name, 0) for s in samples]
            if name == VIOLATIONS:
                merged[name] = sum(values)
            elif name.endswith(TIMED_SUFFIX):
                merged[name] = min(values)
            else:
                steady &= len(set(values)) == 1
                merged[name] = values[0]
        per_query[qid] = merged
    out = {}
    for layer, names in LAYER_METRICS.items():
        qids = [q for q, kind in kinds.items() if kind in LAYER_KINDS[layer] and q in per_query]
        for name in names:
            out[name] = (sum(per_query[q].get(name, 0) for q in qids) / len(qids)) if qids else 0
    out[VIOLATIONS] = sum(m.get(VIOLATIONS, 0) for m in per_query.values())
    return out, steady
