"""Flat m-dimensional engine: best-first expansion over the implicit sum tensor.

Both heap engines read ordered sources through one protocol, ``tree.Source``.
The frontier is a ``heapq`` list of ``(-sum, push number, position, cell
number)`` entries: ties pop in push order whatever the heap's layout, and no
comparison reaches the last two fields. A source is extended only by a pop
at a new highest coordinate on its axis, so it serves at most pops + 1
entries and no coordinate exceeds k. A cell's number reads its position as
digits in radix k + 1, all below the radix, so distinct cells get distinct
numbers; a visited set of them keeps a cell reachable from m predecessors
from entering the frontier twice.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush, heapreplace
from math import isfinite
from operator import getitem

from .core import (NUMBER_BYTES, InstrumentationCounters, SumOverflowError, TopKResult,
                   as_float_vectors, capacity, gc_paused, normalize_k)
from .tree import Source, leaf_sources


def tensor_select(sources: list[Source], k: int) -> TopKResult:
    """The top k values of the sum of ordered sources, as tree.select gives
    them through a tree: k is checked, not clamped, the walk stops when k
    values are out or the fringe runs dry, and k=0 extends nothing."""
    k = normalize_k(k, sys.maxsize)
    if k == 0:
        return TopKResult([], InstrumentationCounters())
    m = len(sources)
    # Sources are nonempty by contract; they extend these lists in place.
    for source in sources:
        source.extend()
    axes = [source.values for source in sources]
    served = [source.indices for source in sources]
    # A step along axis d adds strides[d] to a cell's number.
    strides = [(k + 1) ** d for d in range(m)]
    # From the int 0, entries that are all -0.0 would sum to 0.0.
    key = sum((axis[0] for axis in axes), -0.0)
    if not isfinite(key):
        raise SumOverflowError()
    # Each visited cell is pushed once, so pushes number the entries and equal
    # len(visited); the fringe grows only within a pop, so its peak is read after.
    fringe = [(-key, 1, (0,) * m, 0)]
    visited = {0}
    pushes = peak = 1
    dims = range(m)
    values: list[float] = []
    index_tuples: list[tuple[int, ...]] = []
    while fringe and len(values) < k:
        # The top stays in place until its first new successor replaces it.
        neg_key, _, pos, code = fringe[0]
        values.append(-neg_key)
        index_tuples.append(sum(map(getitem, served, pos), ()))
        put = heapreplace
        row = None
        for d in dims:
            nxt = pos[d] + 1
            if nxt == len(served[d]) and not sources[d].extend():
                continue
            succ = code + strides[d]
            visited.add(succ)
            if len(visited) == pushes:
                continue
            pushes += 1
            if row is None:
                row = list(map(getitem, axes, pos))
                cell = list(pos)
            # sum() over the popped cell's row with entry d swapped in: a left
            # fold before Python 3.12, compensated from 3.12 on.
            row[d] = axes[d][nxt]
            key = sum(row, -0.0)
            row[d] = axes[d][nxt - 1]
            if not isfinite(key):
                raise SumOverflowError()
            cell[d] = nxt
            put(fringe, (-key, pushes, tuple(cell), succ))
            cell[d] = nxt - 1
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
    the number of cells, which also keeps the radix of cell numbers small."""
    axes = as_float_vectors(vectors)
    return tensor_select(leaf_sources(axes), normalize_k(k, capacity(map(len, axes))))
