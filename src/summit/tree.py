"""Array front end of the tree engine: validation, sorted leaves, array entry points.

as_float_vectors checks the engines' shared input contract and converts the
vectors to float arrays; LeafSource serves one vector in non-increasing
order, sorting it in layers as it is read. build_tree and tree_top_k put the
leaves under the pair-heap tree of core.py. It imports numpy at its top, as
oracle.py does, and the isotope calculator loads neither module.
"""

from __future__ import annotations

import array
import sys
import warnings
from typing import Iterable, Sequence

import numpy as np

from .core import (
    CartesianSumTree,
    InputError,
    TopKResult,
    assemble_tree,
    gc_paused,
    select,
)


# A vector of at most FIRST_LAYER entries is sorted whole. A longer one is
# served in layers: each time the served prefix runs out it grows to
# FIRST_LAYER + LAYER_GROWTH * (its length), so the entries sorted stay
# within FIRST_LAYER + LAYER_GROWTH * (entries served).
FIRST_LAYER = 256
LAYER_GROWTH = 4
# The rows of a block from as_float_vectors at most FIRST_LAYER wide start
# with a first layer of BLOCK_LAYER entries, cut and sorted for all at once.
BLOCK_LAYER = 8
# A list or tuple this long or longer is read in one pass, not by np.asarray,
# which reads each entry twice. At this length the one pass and its checks
# cost what they save; at 16384 entries they save a fifth.
ONE_PASS_MIN = 1024


def as_float_vectors(vectors: Iterable[Sequence[float]]) -> Sequence[np.ndarray]:
    """Validate the shared engine input contract and convert to float arrays.

    Requires at least one vector, every vector nonempty, every entry a finite
    real: an entry that array("d") reads through its __float__ or __index__
    without a warning, and not a numpy datetime64, timedelta64 or void. Text,
    bytes, None, dates, time spans, void data and complex entries, numpy's
    scalars among them, are refused, not converted, and so is a masked array
    with any entry masked, which is named ahead of any other fault. Returns one
    2-D array whose rows are the vectors when they share a length and hold
    only finite bools, ints and floats, else 1-D arrays.
    """
    vecs = list(vectors)
    if not vecs:
        raise InputError("need at least one input vector")
    # np.asarray reads a masked entry's hidden value as data, and the masked
    # constant in a list or an object array as NaN or an object. Only numpy.ma
    # makes either, so while it is not loaded there is nothing to check.
    ma = sys.modules.get("numpy.ma")
    if ma is not None:
        for d, vec in enumerate(vecs):
            if ma.is_masked(vec) or (
                    isinstance(vec, (list, tuple))
                    or getattr(vec, "dtype", None) == object and np.ndim(vec) == 1
            ) and any(x is ma.masked for x in vec):
                raise InputError(f"vector {d} has masked entries")
    # Equal-length vectors of plain numbers convert as one block. Any other
    # input, and any failure, is left to the loop below and its messages.
    try:
        if len(set(map(len, vecs))) == 1:
            block = np.asarray(vecs)
            if block.ndim == 2 and block.size and block.dtype.kind in "biuf":
                block = block.astype(float, copy=False)
                if np.isfinite(block).all():
                    return block
    except (TypeError, ValueError):
        pass
    out = []
    for d, vec in enumerate(vecs):
        if isinstance(vec, (list, tuple)) and len(vec) >= ONE_PASS_MIN:
            try:
                arr = _read_reals(vec)
            except (TypeError, ValueError, OverflowError, Warning):
                pass
            else:
                # A numpy datetime64 or timedelta64 scalar reads as its count,
                # an integer. A list with an integral or non-finite entry is
                # left to np.asarray, whose dtype names such scalars.
                if np.isfinite(arr).all() and (np.trunc(arr) != arr).all():
                    out.append(arr)
                    continue
        try:
            arr = np.asarray(vec)
            # Text, dates, void data and complex numbers are not reals, though
            # the float cast would read "2" as 2.0, a date as its day count,
            # void bytes as the number they spell and drop an imaginary part.
            # An object array can hold any of them, so its entries are read as
            # a list's are, dates and void scalars refused by their type.
            kind = arr.dtype.kind
            if kind == "O":
                entries = arr.ravel().tolist()
                if any(isinstance(x, (np.datetime64, np.timedelta64, np.void)) for x in entries):
                    raise TypeError
                arr = _read_reals(entries).reshape(arr.shape)
            elif kind in "USMmcV":
                raise TypeError
            arr = arr.astype(float, copy=False)
        except (TypeError, ValueError, Warning):
            raise InputError(f"vector {d} is not a sequence of reals") from None
        except OverflowError:  # an int or Fraction beyond the float range
            raise InputError(f"vector {d} contains a non-finite entry") from None
        if arr.ndim != 1:
            raise InputError(f"vector {d} is not one-dimensional")
        if arr.size == 0:
            raise InputError(f"vector {d} is empty")
        if not np.isfinite(arr).all():
            raise InputError(f"vector {d} contains a non-finite entry")
        out.append(arr)
    return out


def _read_reals(entries: list | tuple) -> np.ndarray:
    """entries as a float array, read in one pass through each entry's
    __float__ or __index__. A warning is raised as an error: numpy's complex
    scalars warn and drop their imaginary part, and under numpy 1.25-1.26 so
    do size-1 arrays. Changes the process-wide warning filters while it reads.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.frombuffer(array.array("d", entries))


def sort_descending(arr: np.ndarray) -> tuple[list[float], list[int]]:
    """Sort one axis non-increasing; returns (values, permutation to original indices).

    Stable on ties, so equal values keep ascending original index order.
    """
    order = (-arr).argsort(kind="stable")
    return arr[order].tolist(), order.tolist()


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


def leaf_sources(vecs) -> list[LeafSource]:
    """One LeafSource per vector converted by as_float_vectors. When they came
    as one 2-D block at most FIRST_LAYER wide, the first BLOCK_LAYER entries of
    every row are cut, by the rule of LeafSource.grow, and sorted in one pass;
    a leaf sorts the rest of its row on its first grow."""
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


def build_tree(vectors) -> CartesianSumTree:
    """Validate input and build the balanced pair-heap tree.

    A single vector degenerates to a bare LeafSource root with no pair nodes.
    Construction realizes exactly one value from each child of every node and
    seeds each fringe with the corner cell.
    """
    return assemble_tree(leaf_sources(as_float_vectors(vectors)))


@gc_paused
def tree_top_k(vectors, k: int) -> TopKResult:
    """Top k values of the Cartesian sum via the pair-heap tree.

    Same contract as tensor_top_k: unsorted input accepted, k clamped to the
    cell count, values non-increasing, index tuples in input order. The
    counters equal those of build_tree followed by k pops, except that k=0
    builds nothing and reports zero counters.
    """
    return select(leaf_sources(as_float_vectors(vectors)), k)
