"""Hierarchical engine: a balanced binary tree of lazy pairwise sum heaps.

Each internal node serves the Cartesian sum of its two children without ever
asking a child for more values than it has handed upward itself (plus one).
Children are arbitrary ordered sources, so nodes compose: leaves serve single
sorted vectors, internal nodes serve the sums of adjacent runs of vectors,
and the root serves the full m-vector sum one value at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .core import (
    NUMBER_BYTES,
    IndexedValue,
    InstrumentationCounters,
    MaxIndexHeap,
    TopKResult,
    as_float_vectors,
    capacity,
    normalize_k,
    sort_descending,
)


class LeafSource:
    """Serves one input vector's values in non-increasing order.

    A pre-sorted array with a cursor satisfies the same pop-next contract as
    any heap-like source, and makes the permutation back to original indices
    trivial.
    """

    __slots__ = ("sorted_values", "permutation", "cursor")

    def __init__(self, arr: np.ndarray):
        self.sorted_values, self.permutation = sort_descending(arr)
        self.cursor = 0

    def pop_next(self) -> IndexedValue | None:
        if self.cursor == len(self.sorted_values):
            return None
        p = self.cursor
        self.cursor = p + 1
        return IndexedValue(self.sorted_values[p], (self.permutation[p],))


class PairNode:
    """Lazy heap over the Cartesian sum of two child sources.

    Values popped from the children accumulate in append-only margins; the
    fringe holds (row, column) coordinates into those margins, keyed by the
    pair sum. Popping (i, j) pushes (i+1, j) always and (i, j+1) only from
    row zero, which covers every cell exactly once with no visited set. A
    child is only consulted when a successor references a margin entry that
    does not exist yet, so realized-per-child never exceeds pops + 1.
    """

    __slots__ = ("left", "right", "realized_left", "realized_right", "fringe", "pops")

    def __init__(self, left: Source, right: Source, counters: InstrumentationCounters):
        self.left = left
        self.right = right
        self.realized_left: list[IndexedValue] = []
        self.realized_right: list[IndexedValue] = []
        self.fringe = MaxIndexHeap(counters, entry_bytes=3 * NUMBER_BYTES)
        self.pops = 0
        # Children are nonempty by the input contract, so the corner cell
        # always exists.
        self._push_cell(0, 0)

    def _realize(self, margin: list[IndexedValue], child: Source) -> bool:
        nxt = child.pop_next()
        if nxt is None:
            return False
        margin.append(nxt)
        return True

    def _push_cell(self, i: int, j: int) -> None:
        if i == len(self.realized_left) and not self._realize(self.realized_left, self.left):
            return
        if j == len(self.realized_right) and not self._realize(self.realized_right, self.right):
            return
        self.fringe.push(
            self.realized_left[i].value + self.realized_right[j].value, (i, j)
        )

    def pop_next(self) -> IndexedValue | None:
        if not len(self.fringe):
            return None
        value, (i, j) = self.fringe.pop_max()
        self.pops += 1
        item = IndexedValue(
            value, self.realized_left[i].indices + self.realized_right[j].indices
        )
        self._push_cell(i + 1, j)
        if i == 0:
            self._push_cell(i, j + 1)
        return item


Source = Union[LeafSource, PairNode]


@dataclass
class CartesianSumTree:
    """Built topology: a single-consumer iterator over the full sum."""

    root: Source
    counters: InstrumentationCounters

    def pop_next(self) -> IndexedValue | None:
        return self.root.pop_next()

    def pair_nodes(self) -> Iterator[PairNode]:
        stack: list[Source] = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, PairNode):
                yield node
                stack.append(node.left)
                stack.append(node.right)


def _build(axes: list[np.ndarray], lo: int, hi: int,
           counters: InstrumentationCounters) -> Source:
    if hi - lo == 1:
        return LeafSource(axes[lo])
    mid = lo + (hi - lo + 1) // 2  # left child takes the ceiling half
    return PairNode(_build(axes, lo, mid, counters), _build(axes, mid, hi, counters), counters)


def _tree(axes: list[np.ndarray]) -> CartesianSumTree:
    counters = InstrumentationCounters()
    root = _build(axes, 0, len(axes), counters)
    if isinstance(root, LeafSource):
        # Single-vector degenerate tree: no pair heaps exist, so account the
        # leaf cursor as a one-entry frontier to keep occupancy reporting total.
        counters.peak_fringe_entries = 1
        counters.peak_entry_bytes_estimate = 2 * NUMBER_BYTES
    return CartesianSumTree(root, counters)


def build_tree(vectors) -> CartesianSumTree:
    """Validate input and build the balanced pair-heap tree.

    A single vector degenerates to a bare LeafSource root with no pair nodes.
    Construction realizes exactly one value from each child of every node and
    seeds each fringe with the corner cell.
    """
    return _tree(as_float_vectors(vectors))


def tree_top_k(vectors, k: int) -> TopKResult:
    """Top k values of the Cartesian sum via the pair-heap tree.

    Same contract as tensor_top_k: unsorted input accepted, k clamped to the
    cell count, values non-increasing, index tuples in input order. The
    counters equal those of build_tree followed by k pops, except that k=0
    builds nothing and reports zero counters.
    """
    axes = as_float_vectors(vectors)
    want = normalize_k(k, capacity(len(a) for a in axes))
    if want == 0:
        return TopKResult([], InstrumentationCounters())
    tree = _tree(axes)
    # want never exceeds the cell count, so the root never runs dry here.
    items = [tree.root.pop_next() for _ in range(want)]
    return TopKResult(items, tree.counters)
