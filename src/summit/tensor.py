"""Flat m-dimensional engine: best-first expansion over the implicit sum tensor.

Both heap engines read ordered sources through one protocol, the Source
that core's docstring states; the tensor's serve one-entry index tuples. Its
frontier is a ``heapq`` list of ``(-sum, push number, popped position, axis
d, cell number)`` entries, each a step along d from a popped cell whose
position tuple it shares. Ties pop in push order, and no comparison reaches
past it. A source is extended only by a pop at a new highest coordinate on
its axis, so it serves at most pops + 1 entries and no coordinate exceeds k.
A cell's number reads its position as digits in radix k + 1, so distinct
cells get distinct numbers; a visited set of them keeps a cell reachable from
m predecessors from entering it twice.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush, heapreplace
from math import isfinite
from operator import getitem

from .core import (NUMBER_BYTES, InputError, InstrumentationCounters, SumOverflowError,
                   TopKResult, capacity, gc_paused, normalize_k)


def tensor_select(sources: list[Source], k: int) -> TopKResult:
    """The top k values of the sum of ordered sources, as core.select gives
    them through a tree: k is checked, not clamped, the walk stops when k
    values are out or the fringe runs dry, and k=0 extends nothing. Sources
    serve one-entry index tuples, as LeafSource and ElementSource do."""
    k = normalize_k(k, sys.maxsize)
    if k == 0:
        return TopKResult([], InstrumentationCounters())
    if not sources:
        raise InputError("need at least one source")
    m = len(sources)
    # Sources are nonempty by contract; they extend these lists in place.
    for source in sources:
        source.extend()
    axes = [source.values for source in sources]
    # Each axis's original indices, grown with its source: an O(m) join per pop.
    flat = [list(source.indices[0]) for source in sources]
    if any(len(served) != 1 for served in flat):
        raise InputError("tensor sources must serve one-entry index tuples")
    # A step along axis d adds strides[d] to a cell's number.
    strides = [(k + 1) ** d for d in range(m)]
    # From the int 0, entries that are all -0.0 would sum to 0.0.
    key = sum((axis[0] for axis in axes), -0.0)
    if not isfinite(key):
        raise SumOverflowError()
    # The corner is one step along axis 0 from (-1, 0, ..., 0). Each visited
    # cell is pushed once, so pushes number the entries and equal len(visited);
    # the fringe grows only within a pop, so its peak is read after.
    fringe = [(-key, 1, (-1,) + (0,) * (m - 1), 0, 0)]
    visited = {0}
    pushes = peak = 1
    dims = range(m)
    values: list[float] = []
    index_tuples: list[tuple[int, ...]] = []
    while fringe and len(values) < k:
        # The top stays in place until its first new successor replaces it.
        neg_key, _, parent, step, code = fringe[0]
        cell = list(parent)
        cell[step] += 1
        pos = tuple(cell)
        values.append(-neg_key)
        index_tuples.append(tuple(map(getitem, flat, pos)))
        put = heapreplace
        row = None
        for d in dims:
            nxt = pos[d] + 1
            if nxt == len(flat[d]):
                if not sources[d].extend():
                    continue
                flat[d] += sources[d].indices[nxt]
            succ = code + strides[d]
            visited.add(succ)
            if len(visited) == pushes:
                continue
            pushes += 1
            if row is None:
                row = list(map(getitem, axes, pos))
            # sum() over the popped cell's row with entry d swapped in: a left
            # fold before Python 3.12, compensated from 3.12 on.
            row[d] = axes[d][nxt]
            key = sum(row, -0.0)
            row[d] = axes[d][nxt - 1]
            if not isfinite(key):
                raise SumOverflowError()
            put(fringe, (-key, pushes, pos, d, succ))
            put = heappush
        if put is heapreplace:
            heappop(fringe)
        if len(fringe) > peak:
            peak = len(fringe)
    counters = InstrumentationCounters(pushes, len(values), peak, (1 + m) * NUMBER_BYTES)
    return TopKResult((), counters, (values, index_tuples))


@gc_paused
def tensor_top_k(vectors, k: int) -> TopKResult:
    """Top k values of X1 + X2 + ... + Xm, non-increasing, with their index
    tuples into the vectors as given, which may be unsorted. k is clamped to
    the number of cells, which also keeps the radix of cell numbers small.
    The array front end loads here, so tensor_select runs without numpy."""
    from .tree import as_float_vectors, leaf_sources

    axes = as_float_vectors(vectors)
    return tensor_select(leaf_sources(axes), normalize_k(k, capacity(map(len, axes))))
