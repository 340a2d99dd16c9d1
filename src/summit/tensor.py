"""Flat m-dimensional engine: best-first expansion over the implicit sum tensor.

The tensor of sums is never materialized. The frontier of candidate position
tuples is a bare ``heapq`` list of ``(-sum, push number, position)``
entries, so ties pop in push order and positions are never compared; popping
a tuple pushes its in-bounds, not yet seen successors, at most one per
dimension. A cell is reachable from up to m predecessors, so an explicit
visited set keyed on the position tuple keeps each cell from entering the
frontier twice.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import isfinite
from operator import getitem

from .core import (
    NUMBER_BYTES,
    InstrumentationCounters,
    SumOverflowError,
    TopKResult,
    as_float_vectors,
    capacity,
    normalize_k,
)
from .tree import LeafSource


def tensor_top_k(vectors, k: int) -> TopKResult:
    """Top k values of X1 + X2 + ... + Xm with their original index tuples.

    Accepts unsorted vectors (each axis is served non-increasing by the tree
    engine's layered LeafSource) and clamps k to the number of cells.
    Returned values are non-increasing; index tuples refer to positions in
    the vectors as given.
    """
    axes = as_float_vectors(vectors)
    want = normalize_k(k, capacity(len(a) for a in axes))
    if want == 0:
        return TopKResult([], InstrumentationCounters())

    m = len(axes)
    leaves = [LeafSource(arr) for arr in axes]
    # The leaves extend these lists in place as they grow.
    sorted_axes = [leaf.values for leaf in leaves]
    perms = [leaf.permutation for leaf in leaves]

    origin = (0,) * m
    key = sum(axis[0] for axis in sorted_axes)
    if not isfinite(key):
        raise SumOverflowError()
    # Every visited cell is pushed exactly once, so len(visited) is the run's
    # push count and numbers each entry; the fringe only grows between pops,
    # so its peak is taken once per pop.
    fringe = [(-key, 1, origin)]
    visited = {origin}
    peak = 1

    dims = range(m)
    values: list[float] = []
    index_tuples: list[tuple[int, ...]] = []
    while len(values) < want:
        neg_key, _, pos = heappop(fringe)
        values.append(-neg_key)
        index_tuples.append(tuple(map(getitem, perms, pos)))
        for d in dims:
            nxt = pos[d] + 1
            if nxt == len(sorted_axes[d]) and not leaves[d].grow():
                continue
            succ = pos[:d] + (nxt,) + pos[d + 1 :]
            if succ in visited:
                continue
            visited.add(succ)
            # Keys are summed fresh per cell (not updated incrementally), so a
            # reported value is bit-identical to re-adding its entries.
            key = sum(map(getitem, sorted_axes, succ))
            if not isfinite(key):
                raise SumOverflowError()
            heappush(fringe, (-key, len(visited), succ))
        if len(fringe) > peak:
            peak = len(fringe)
    counters = InstrumentationCounters(len(visited), want, peak, (1 + m) * NUMBER_BYTES)
    return TopKResult((), counters, (values, index_tuples))
