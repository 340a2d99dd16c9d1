"""Hierarchical engine: a balanced binary tree of lazy pairwise sum heaps.

Each internal node serves the Cartesian sum of its two children without ever
asking a child for more values than it has handed upward itself (plus one).
Children are arbitrary ordered sources, so nodes compose: leaves serve single
sorted vectors, internal nodes serve the sums of adjacent runs of vectors,
and the root serves the full m-vector sum one value at a time.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from itertools import islice
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
    normalize_k,
    sort_descending,
)

if TYPE_CHECKING:
    import numpy as np


class Source(Protocol):
    """An ordered source: values in non-increasing order, then None forever."""

    def pop_next(self) -> IndexedValue | None: ...


# A vector of at most FIRST_LAYER entries is sorted whole. A longer one is
# served in layers: each time the served prefix runs out it grows to
# FIRST_LAYER + LAYER_GROWTH * (its length), so the entries sorted stay
# within FIRST_LAYER + LAYER_GROWTH * (entries served).
FIRST_LAYER = 256
LAYER_GROWTH = 4
# Fringe entry price of a pair node: the key plus the (row, column) pair.
PAIR_ENTRY_BYTES = 3 * NUMBER_BYTES

_new_tuple = tuple.__new__


class LeafSource:
    """Serves one input vector's values in non-increasing order.

    ``sorted_values`` and ``permutation`` (to original indices) hold the
    sorted prefix served so far, in the order a stable full sort would give;
    ``grow`` extends both lists in place by the next layer. Each layer holds
    the largest entries not yet served, ties going to lower original indices,
    and only the layer is sorted, so a consumer that reads a few entries of a
    long vector never pays for sorting the rest (the layer-ordered heaps of
    Serang, arXiv:1910.11993).
    """

    __slots__ = ("sorted_values", "permutation", "cursor", "_rest", "_rest_index")

    def __init__(self, arr: np.ndarray):
        self.sorted_values: list[float] = []
        self.permutation: list[int] = []
        self.cursor = 0
        # Entries not yet served (None once all are) and their original
        # indices (None while they are all of arr, in order).
        self._rest: np.ndarray | None = arr
        self._rest_index: np.ndarray | None = None
        self.grow()

    def grow(self) -> bool:
        """Append the next layer to the served prefix; False once none is left."""
        import numpy as np

        rest, index = self._rest, self._rest_index
        if rest is None:
            return False
        size = FIRST_LAYER + (LAYER_GROWTH - 1) * len(self.sorted_values)
        if size < len(rest):
            cut = np.partition(rest, len(rest) - size)[len(rest) - size]
            take = rest > cut
            take[np.flatnonzero(rest == cut)[: size - np.count_nonzero(take)]] = True
            keep = ~take
            self._rest = rest[keep]
            self._rest_index = np.flatnonzero(keep) if index is None else index[keep]
            rest = rest[take]
            index = np.flatnonzero(take) if index is None else index[take]
        else:
            self._rest = self._rest_index = None
        # The layer is in ascending original index order, so the stable sort
        # keeps ties in that order, as across the layer boundaries.
        values, order = sort_descending(rest)
        self.sorted_values += values
        self.permutation += order if index is None else index[order].tolist()
        return True

    def pop_next(self) -> IndexedValue | None:
        p = self.cursor
        if p == len(self.sorted_values) and not self.grow():
            return None
        self.cursor = p + 1
        return _new_tuple(IndexedValue, (self.sorted_values[p], (self.permutation[p],)))


class PairNode:
    """Lazy heap over the Cartesian sum of two child sources.

    Values popped from the children accumulate in append-only margins:
    ``left_values``/``right_values`` hold the values and
    ``realized_left``/``realized_right`` the index tuples. The fringe is a
    ``heapq`` list of ``(-sum, seq, row, column)`` entries into those
    margins, with the shared counters' push number as ``seq``, so ties pop
    in push order and margin positions are never compared. Popping (i, j)
    pushes (i+1, j) always and (i, j+1) only from row zero, which covers
    every cell exactly once with no visited set. A child is only consulted when a successor
    references a margin entry that does not exist yet, so realized-per-child
    never exceeds pops + 1.
    """

    __slots__ = ("left", "right", "left_values", "right_values", "realized_left",
                 "realized_right", "fringe", "pops", "_counters")

    def __init__(self, left: Source, right: Source, counters: InstrumentationCounters):
        self.left = left
        self.right = right
        self.left_values: list[float] = []
        self.right_values: list[float] = []
        self.realized_left: list[tuple[int, ...]] = []
        self.realized_right: list[tuple[int, ...]] = []
        self.pops = 0
        self._counters = counters
        # Children are nonempty by the input contract, so the corner cell
        # always exists.
        _realize(left, self.left_values, self.realized_left)
        _realize(right, self.right_values, self.realized_right)
        key = self.left_values[0] + self.right_values[0]
        if not isfinite(key):
            raise SumOverflowError()
        counters.heap_pushes += 1
        self.fringe = [(-key, counters.heap_pushes, 0, 0)]
        live = counters.heap_pushes - counters.heap_pops
        if live > counters.peak_fringe_entries:
            counters.peak_fringe_entries = live

    def pop_next(self) -> IndexedValue | None:
        fringe = self.fringe
        if not fringe:
            return None
        neg_key, _, i, j = heappop(fringe)
        c = self._counters
        c.heap_pops += 1
        self.pops += 1
        item = _new_tuple(IndexedValue,
                          (-neg_key, self.realized_left[i] + self.realized_right[j]))
        # The successors, (i+1, j) and then (0, j+1) from row zero, are
        # pushed inline: this is the engine's hot path.
        lv, rv = self.left_values, self.right_values
        i += 1
        if i < len(lv) or _realize(self.left, lv, self.realized_left):
            key = lv[i] + rv[j]
            if not isfinite(key):
                raise SumOverflowError()
            c.heap_pushes += 1
            heappush(fringe, (-key, c.heap_pushes, i, j))
        if i == 1:
            j += 1
            if j < len(rv) or _realize(self.right, rv, self.realized_right):
                key = lv[0] + rv[j]
                if not isfinite(key):
                    raise SumOverflowError()
                c.heap_pushes += 1
                heappush(fringe, (-key, c.heap_pushes, 0, j))
        # Each child pop above is followed by a push here, so the run's live
        # count peaks when this call returns: sample it once, as the tensor does.
        live = c.heap_pushes - c.heap_pops
        if live > c.peak_fringe_entries:
            c.peak_fringe_entries = live
        return item


def _realize(child: Source, values: list[float], indices: list[tuple[int, ...]]) -> bool:
    """Append the child's next entry to a margin; False once the child is dry."""
    nxt = child.pop_next()
    if nxt is None:
        return False
    values.append(nxt[0])
    indices.append(nxt[1])
    return True


class CartesianSumTree:
    """Built topology: a single-consumer iterator over the full sum."""

    __slots__ = ("root", "counters")

    def __init__(self, root: Source, counters: InstrumentationCounters):
        self.root = root
        self.counters = counters

    def pop_next(self) -> IndexedValue | None:
        return self.root.pop_next()

    def __iter__(self) -> Iterator[IndexedValue]:
        return iter(self.root.pop_next, None)

    def pair_nodes(self) -> Iterator[PairNode]:
        stack: list[Source] = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, PairNode):
                yield node
                stack.append(node.left)
                stack.append(node.right)


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
    return assemble_tree([LeafSource(a) for a in as_float_vectors(vectors)])


def select(sources: list[Source], k: int) -> TopKResult:
    """The top k values of the sum of ordered sources, through one tree.

    k is checked, not clamped: the tree is drained until k values are out or
    the root runs dry. k=0 builds nothing and reports zero counters.
    """
    # islice refuses a stop beyond sys.maxsize, which no run can pop anyway.
    k = normalize_k(k, sys.maxsize)
    if k == 0:
        return TopKResult([], InstrumentationCounters())
    tree = assemble_tree(sources)
    return TopKResult(list(islice(tree, k)), tree.counters)


def tree_top_k(vectors, k: int) -> TopKResult:
    """Top k values of the Cartesian sum via the pair-heap tree.

    Same contract as tensor_top_k: unsorted input accepted, k clamped to the
    cell count, values non-increasing, index tuples in input order. The
    counters equal those of build_tree followed by k pops, except that k=0
    builds nothing and reports zero counters.
    """
    return select([LeafSource(a) for a in as_float_vectors(vectors)], k)
