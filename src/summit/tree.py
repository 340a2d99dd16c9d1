"""Hierarchical engine: a balanced binary tree of lazy pairwise sum heaps.

Each internal node serves the Cartesian sum of its two children without ever
asking a child for more values than it has handed upward itself (plus one).
Children are arbitrary ordered sources, so nodes compose: leaves serve single
sorted vectors, internal nodes serve the sums of adjacent runs of vectors,
and the root serves the full m-vector sum one value at a time.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush, heapreplace
from itertools import repeat
from math import isfinite
from typing import TYPE_CHECKING, Iterator, Protocol

from .core import (
    NUMBER_BYTES,
    IndexedValue,
    InputError,
    InstrumentationCounters,
    SumOverflowError,
    TopKResult,
    as_float_vectors,
    gc_paused,
    normalize_k,
    sort_descending,
)

if TYPE_CHECKING:
    import numpy as np


class Source(Protocol):
    """An ordered source: ``extend`` serves one more entry, appending it to
    ``values`` and ``indices`` in non-increasing value order, or returns
    False once none is left. ``len(indices)`` is the count served."""

    values: list[float]
    indices: list[tuple[int, ...]]

    def extend(self) -> bool: ...


# A vector of at most FIRST_LAYER entries is sorted whole. A longer one is
# served in layers: each time the served prefix runs out it grows to
# FIRST_LAYER + LAYER_GROWTH * (its length), so the entries sorted stay
# within FIRST_LAYER + LAYER_GROWTH * (entries served).
FIRST_LAYER = 256
LAYER_GROWTH = 4
# The rows of a block from as_float_vectors at most FIRST_LAYER wide start
# with a first layer of BLOCK_LAYER entries, cut and sorted for all at once.
BLOCK_LAYER = 8
# Fringe entry price of a pair node: the key plus the (row, column) pair.
PAIR_ENTRY_BYTES = 3 * NUMBER_BYTES

_new_tuple = tuple.__new__


class LeafSource:
    """Serves one input vector's values in non-increasing order.

    A leaf holds its input row, never copied, and the sorted prefix:
    ``values`` (also read as ``sorted_values``) and ``permutation`` (to
    original indices), in the order a stable full sort would give. ``grow``
    extends both lists in place by the next layer, cut from the entries the
    prefix has not taken: the largest of them, ties going to lower original
    indices. Only the layer is sorted, so a consumer that reads a few
    entries of a long vector never pays for sorting the rest (the
    layer-ordered heaps of Serang, arXiv:1910.11993).
    """

    __slots__ = ("values", "indices", "permutation", "_row")

    sorted_values = property(lambda self: self.values)
    cursor = property(lambda self: len(self.indices))

    def __init__(self, arr: np.ndarray):
        self.values: list[float] = []
        self.indices: list[tuple[int]] = []
        self.permutation: list[int] = []
        self._row = arr
        self.grow()

    def grow(self) -> bool:
        """Append the next layer to the sorted prefix; False once none is left."""
        row, taken = self._row, len(self.permutation)
        if taken == len(row):
            return False
        import numpy as np

        # The first layer is cut from the row itself, whose positions are
        # already original indices; later ones mask the prefix out first.
        rest, index = row, None
        if taken:
            keep = np.ones(len(row), bool)
            keep[self.permutation] = False
            index = keep.nonzero()[0]
            rest = row[index]
        size = FIRST_LAYER + (LAYER_GROWTH - 1) * taken
        if size < len(rest):
            cut = np.partition(rest, len(rest) - size)[len(rest) - size]
            take = rest > cut
            take[np.flatnonzero(rest == cut)[: size - np.count_nonzero(take)]] = True
            index = take.nonzero()[0] if index is None else index[take]
            rest = row[index]
        # The layer is in ascending original index order, so the stable sort
        # keeps ties in that order, as across the layer boundaries.
        values, order = sort_descending(rest)
        self.values += values
        self.permutation += order if index is None else index.take(order).tolist()
        return True

    def extend(self) -> bool:
        p = len(self.indices)
        if p == len(self.values) and not self.grow():
            return False
        self.indices.append((self.permutation[p],))
        return True


class PairNode:
    """Lazy heap over the Cartesian sum of two child sources.

    The fringe is a ``heapq`` list of ``(-sum, seq, i, j)`` entries: i and j
    are positions in the children's own ``values`` and ``indices``, and
    ``seq`` is the shared counters' push number, so ties pop in push order.
    Popping (i, j) pushes (i+1, j) always and (i, j+1) only from row zero,
    which covers every cell exactly once with no visited set. The first
    successor replaces the top in one sift, as in the tensor engine. A
    child is extended only when a successor needs an entry it has not
    served yet, so the entries realized per child never exceed pops + 1.
    """

    __slots__ = ("left", "right", "values", "indices", "fringe", "_counters")

    realized_left = property(lambda self: self.left.indices)
    realized_right = property(lambda self: self.right.indices)
    pops = property(lambda self: len(self.values))

    def __init__(self, left: Source, right: Source, counters: InstrumentationCounters):
        self.left = left
        self.right = right
        self.values: list[float] = []
        self.indices: list[tuple[int, ...]] = []
        self._counters = counters
        # Children are nonempty by the input contract, so the corner cell
        # always exists.
        left.extend()
        right.extend()
        key = left.values[0] + right.values[0]
        if not isfinite(key):
            raise SumOverflowError()
        counters.heap_pushes += 1
        self.fringe = [(-key, counters.heap_pushes, 0, 0)]
        live = counters.heap_pushes - counters.heap_pops
        if live > counters.peak_fringe_entries:
            counters.peak_fringe_entries = live

    def extend(self) -> bool:
        fringe = self.fringe
        if not fringe:
            return False
        neg_key, _, i, j = fringe[0]
        c = self._counters
        c.heap_pops += 1
        left, right = self.left, self.right
        li, ri = left.indices, right.indices
        self.values.append(-neg_key)
        self.indices.append(li[i] + ri[j])
        # The successors, (i+1, j) and then (0, j+1) from row zero, are pushed
        # inline, the first in place of the top: this is the engine's hot path.
        lv, rv = left.values, right.values
        put = heapreplace
        i += 1
        if i < len(li) or left.extend():
            key = lv[i] + rv[j]
            if not isfinite(key):
                raise SumOverflowError()
            c.heap_pushes += 1
            put(fringe, (-key, c.heap_pushes, i, j))
            put = heappush
        if i == 1:
            j += 1
            if j < len(ri) or right.extend():
                key = lv[0] + rv[j]
                if not isfinite(key):
                    raise SumOverflowError()
                c.heap_pushes += 1
                put(fringe, (-key, c.heap_pushes, 0, j))
                put = heappush
        if put is heapreplace:
            heappop(fringe)
        # Each child pop above is followed by a push here, so the run's live
        # count peaks when this call returns: sample it once, as the tensor does.
        live = c.heap_pushes - c.heap_pops
        if live > c.peak_fringe_entries:
            c.peak_fringe_entries = live
        return True


class CartesianSumTree:
    """Built topology: a single-consumer iterator over the full sum."""

    __slots__ = ("root", "counters")

    def __init__(self, root: Source, counters: InstrumentationCounters):
        self.root = root
        self.counters = counters

    def pop_next(self) -> IndexedValue | None:
        root = self.root
        n = len(root.indices)
        if not root.extend():
            return None
        return _new_tuple(IndexedValue, (root.values[n], root.indices[n]))

    def __iter__(self) -> Iterator[IndexedValue]:
        return iter(self.pop_next, None)


def leaf_sources(vecs) -> list[LeafSource]:
    """One LeafSource per vector converted by as_float_vectors. When they came
    as one 2-D block at most FIRST_LAYER wide, the first BLOCK_LAYER entries of
    every row are cut, by the rule of LeafSource.grow, and sorted in one pass;
    a leaf sorts the rest of its row on its first grow."""
    import numpy as np

    if not isinstance(vecs, np.ndarray) or vecs.shape[1] > FIRST_LAYER:
        return [LeafSource(a) for a in vecs]
    m, n = vecs.shape
    width = min(n, BLOCK_LAYER)
    cut = np.partition(vecs, n - width, axis=1)[:, n - width, None]
    take = (vecs > cut).ravel()
    # Of the entries at its cut value, each row takes those with the lowest
    # original indices, as many as its layer has room for.
    ties = np.flatnonzero(vecs == cut)
    rows = ties // n
    rank = np.arange(len(ties)) - np.searchsorted(rows, rows)
    take[ties[rank < width - np.count_nonzero(take.reshape(m, n), axis=1)[rows]]] = True
    # Each row's layer is in original index order, which the stable sort keeps on ties.
    flat = np.flatnonzero(take).reshape(m, width)
    flat = np.take_along_axis(flat, (-vecs.take(flat)).argsort(axis=1, kind="stable"), axis=1)
    values, columns = vecs.take(flat).tolist(), (flat % n).tolist()
    leaves = [LeafSource.__new__(LeafSource) for _ in values]
    for leaf, row, v, p in zip(leaves, vecs, values, columns):
        leaf.values, leaf.permutation, leaf.indices, leaf._row = v, p, [], row
    return leaves


def _build(sources: list[Source], lo: int, hi: int,
           counters: InstrumentationCounters) -> Source:
    if hi - lo == 1:
        return sources[lo]
    mid = lo + (hi - lo + 1) // 2  # left child takes the ceiling half
    return PairNode(_build(sources, lo, mid, counters), _build(sources, mid, hi, counters),
                    counters)


def assemble_tree(sources: list[Source]) -> CartesianSumTree:
    """The balanced pair-heap tree over ready-made, nonempty ordered sources.

    Sources are leaves in the order given; one source is the root itself.
    """
    if not sources:
        raise InputError("need at least one source")
    counters = InstrumentationCounters(entry_bytes=PAIR_ENTRY_BYTES)
    root = _build(sources, 0, len(sources), counters)
    if not isinstance(root, PairNode):
        # Single-source degenerate tree: no pair heaps exist, so account the
        # source's cursor as a one-entry frontier to keep occupancy reporting total.
        counters.peak_fringe_entries = 1
        counters.entry_bytes = 2 * NUMBER_BYTES
    return CartesianSumTree(root, counters)


def build_tree(vectors) -> CartesianSumTree:
    """Validate input and build the balanced pair-heap tree.

    A single vector degenerates to a bare LeafSource root with no pair nodes.
    Construction realizes exactly one value from each child of every node and
    seeds each fringe with the corner cell.
    """
    return assemble_tree(leaf_sources(as_float_vectors(vectors)))


def select(sources: list[Source], k: int) -> TopKResult:
    """The top k values of the sum of ordered sources, through one tree.

    k is checked, not clamped: the root serves until k values are out or it
    runs dry. k=0 builds nothing and reports zero counters.
    """
    # repeat refuses a count beyond sys.maxsize, which no run can serve anyway.
    k = normalize_k(k, sys.maxsize)
    if k == 0:
        return TopKResult([], InstrumentationCounters())
    tree = assemble_tree(sources)
    root = tree.root
    for _ in repeat(None, k):
        if not root.extend():
            break
    # The root's lists are the result; a leaf's values run ahead of it.
    values, indices = root.values, root.indices
    if len(values) > len(indices):
        values = values[: len(indices)]
    return TopKResult((), tree.counters, (values, indices))


@gc_paused
def tree_top_k(vectors, k: int) -> TopKResult:
    """Top k values of the Cartesian sum via the pair-heap tree.

    Same contract as tensor_top_k: unsorted input accepted, k clamped to the
    cell count, values non-increasing, index tuples in input order. The
    counters equal those of build_tree followed by k pops, except that k=0
    builds nothing and reports zero counters.
    """
    return select(leaf_sources(as_float_vectors(vectors)), k)
