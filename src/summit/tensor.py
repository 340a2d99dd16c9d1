"""Flat m-dimensional engine: best-first expansion over the implicit sum tensor.

Over Sources (core's docstring) that serve one-entry index tuples, its
frontier is a ``heapq`` list of ``(-sum, push number, popped position, axis
d, cell number)`` entries, each a step along d from a popped cell whose
position tuple it shares; ties pop in push order, and no comparison reaches
past it. A source is extended only for a new cell at a new highest coordinate
on its axis, so it serves at most pops + 1 entries and no coordinate exceeds
k. A cell's number reads its position as digits in radix k + 1, so distinct
cells get distinct numbers, and a visited set of them keeps a cell that m
predecessors reach from entering twice. It is tested first: a coordinate not
served yet is in no visited cell. Pops record their positions, and the index
tuples are joined from them once, after the walk.
"""

import sys
from heapq import heappop, heappush, heapreplace
from math import isfinite
from operator import getitem, itemgetter

from .core import (NUMBER_BYTES, InputError, InstrumentationCounters, SumOverflowError,
                   TopKResult, capacity, gc_paused, normalize_k)


def tensor_select(sources: "list[Source]", k: int) -> TopKResult:
    """Top k values of the sum of sources serving one-entry index tuples, as
    core.select gives them through a tree: k is checked, not clamped, the walk
    stops when k values are out or the fringe runs dry; k=0 extends nothing."""
    k = normalize_k(k, sys.maxsize)
    if k == 0:
        return TopKResult([], InstrumentationCounters())
    if not sources:
        raise InputError("need at least one source")
    m = len(sources)
    if not all(source.extend() for source in sources):
        raise InputError("a source serves no entries")
    # Sources extend axes in place; flat, each axis's original indices, grows with them.
    axes = [source.values for source in sources]
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
    values, positions = [], []
    while fringe and len(values) < k:
        # The top stays in place until its first new successor replaces it.
        neg_key, _, parent, step, code = fringe[0]
        cell = list(parent)
        cell[step] += 1
        pos = tuple(cell)
        values.append(-neg_key)
        positions.append(pos)
        put = heapreplace
        row = None
        for d in dims:
            succ = code + strides[d]
            if succ in visited:
                continue
            nxt = pos[d] + 1
            if nxt == len(flat[d]):
                if not sources[d].extend():
                    continue
                flat[d] += sources[d].indices[nxt]
            visited.add(succ)
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
    # One join per query, a C-level gather per axis; a spare copy of row 0 keeps k=1 a tuple.
    getters = map(itemgetter, *positions, positions[0])
    index_tuples = list(zip(*[get(served) for get, served in zip(getters, flat)]))
    index_tuples.pop()
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
