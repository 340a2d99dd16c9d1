"""Flat m-dimensional engine: best-first expansion over the implicit sum tensor.

The tensor of sums is never materialized. The frontier is a bare ``heapq``
list of ``(-sum, push number, position, cell number)`` entries, so ties pop
in push order and no comparison reaches the last two fields; popping a cell
pushes its in-bounds, not yet seen successors, at most one per dimension.
The top is read in place and its first successor replaces it, one sift
instead of two; unique push numbers order all entries, so the pop order does
not depend on the heap's layout. A cell is reachable from up to m
predecessors, so a visited set of cell numbers (mixed-radix over the input
lengths) keeps each cell from entering the frontier twice; a successor's
position tuple is built, and its key summed from the popped cell's row of
values, only when it is new.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from itertools import accumulate
from math import isfinite
from operator import getitem, mul

from .core import (
    NUMBER_BYTES,
    InstrumentationCounters,
    SumOverflowError,
    TopKResult,
    as_float_vectors,
    capacity,
    gc_paused,
    normalize_k,
)
from .tree import leaf_sources


@gc_paused
def tensor_top_k(vectors, k: int) -> TopKResult:
    """Top k values of X1 + X2 + ... + Xm with their original index tuples.

    Accepts unsorted vectors (each axis is served non-increasing by the tree
    engine's layered leaves) and clamps k to the number of cells.
    Returned values are non-increasing; index tuples refer to positions in
    the vectors as given.
    """
    axes = as_float_vectors(vectors)
    want = normalize_k(k, capacity(len(a) for a in axes))
    if want == 0:
        return TopKResult([], InstrumentationCounters())

    m = len(axes)
    leaves = leaf_sources(axes)
    # The leaves extend these lists in place as they grow.
    sorted_axes = [leaf.values for leaf in leaves]
    perms = [leaf.permutation for leaf in leaves]

    # Cell numbers are mixed-radix over the full input lengths, never the
    # served prefixes, which grow: a step along axis d adds strides[d].
    strides = [1, *accumulate(map(len, axes[:-1]), mul)]
    # Sums start at -0.0, which leaves every double unchanged; from the int 0,
    # entries that are all -0.0 would sum to 0.0.
    key = sum((axis[0] for axis in sorted_axes), -0.0)
    if not isfinite(key):
        raise SumOverflowError()
    # Every visited cell is pushed exactly once, so the push count numbers
    # each entry and ends equal to len(visited); the fringe only grows
    # between pops, so its peak is taken once per pop.
    fringe = [(-key, 1, (0,) * m, 0)]
    visited = {0}
    pushes = peak = 1

    dims = range(m)
    values: list[float] = []
    index_tuples: list[tuple[int, ...]] = []
    while len(values) < want:
        # The top stays in place until its first successor replaces it.
        neg_key, _, pos, code = fringe[0]
        values.append(-neg_key)
        index_tuples.append(tuple(map(getitem, perms, pos)))
        put = heapreplace
        row = None
        for d in dims:
            nxt = pos[d] + 1
            if nxt == len(sorted_axes[d]) and not leaves[d].grow():
                continue
            succ = code + strides[d]
            visited.add(succ)
            if len(visited) == pushes:
                continue
            pushes += 1
            if row is None:
                row = list(map(getitem, sorted_axes, pos))
                cell = list(pos)
            # Each key is summed fresh from the popped cell's row with entry d
            # swapped in, so a value is bit-identical to re-adding its entries.
            row[d] = sorted_axes[d][nxt]
            key = sum(row, -0.0)
            row[d] = sorted_axes[d][nxt - 1]
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
    counters = InstrumentationCounters(pushes, want, peak, (1 + m) * NUMBER_BYTES)
    return TopKResult((), counters, (values, index_tuples))
