"""Shared primitives: heap counters, result types, input validation."""

from __future__ import annotations

import operator
import sys
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

# numpy is imported inside the functions that call it. The isotope calculator
# calls none of them, so `import summit` and `top_peaks` run without numpy.
if TYPE_CHECKING:
    import numpy as np

# Saturation bound for the capacity product, so "give me everything" requests
# stay cheap to clamp even when the true cell count is astronomically large.
CAPACITY_LIMIT = 2**63

# Fringe memory is priced at one 64-bit word for the key plus one word per
# payload index; exact object sizes are interpreter trivia, word counts aren't.
NUMBER_BYTES = 8


class InputError(ValueError):
    """Input violates an engine's domain contract (shape, finiteness, k)."""


class SumOverflowError(InputError):
    """A Cartesian sum of finite inputs left the float range.

    Every engine reports overflow with this error and its default message,
    as soon as a sum that it computes overflows. The oracle computes every
    cell, so it raises when any cell overflows. A heap engine computes the
    cells it returns and the keys it pushes onto its frontier (for the tree,
    also the partial sums in its pair nodes), so it can return the top
    values of an instance whose lower cells overflow.
    """

    def __init__(self, message: str = "Cartesian sum overflowed the float range"):
        super().__init__(message)


class IndexedValue(NamedTuple):
    """One Cartesian-sum value and the original-index tuple that produced it."""

    value: float
    indices: tuple[int, ...]


class _SlotRecord:
    """Field-wise ``==`` and a field repr over ``__slots__``, for the mutable
    result holders; unhashable, since they are mutable."""

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self.__slots__
        return [getattr(self, f) for f in fields] == [getattr(other, f) for f in fields]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class InstrumentationCounters(_SlotRecord):
    """Exact heap-traffic accounting shared by every heap in one engine run.

    Every fringe entry of one run has the same price, ``entry_bytes``, which
    the engine sets once, so the current occupancy and the byte estimate
    follow from the three counts.
    """

    __slots__ = ("heap_pushes", "heap_pops", "peak_fringe_entries", "entry_bytes")

    def __init__(self, heap_pushes: int = 0, heap_pops: int = 0,
                 peak_fringe_entries: int = 0, entry_bytes: int = 0):
        self.heap_pushes = heap_pushes
        self.heap_pops = heap_pops
        self.peak_fringe_entries = peak_fringe_entries
        self.entry_bytes = entry_bytes

    @property
    def live_entries(self) -> int:
        return self.heap_pushes - self.heap_pops

    @property
    def peak_entry_bytes_estimate(self) -> int:
        return self.peak_fringe_entries * self.entry_bytes


class TopKResult(_SlotRecord):
    """Top values in non-increasing order, their index tuples (the engines
    pass both lists as ``columns``), and the run's heap counters."""

    __slots__ = ("values", "index_tuples", "counters")

    def __init__(self, items, counters: InstrumentationCounters, columns=None):
        self.values, self.index_tuples = columns or ([v for v, _ in items],
                                                     [t for _, t in items])
        self.counters = counters

    @property
    def items(self) -> list[IndexedValue]:
        new = tuple.__new__
        return [new(IndexedValue, item) for item in zip(self.values, self.index_tuples)]

    def __repr__(self) -> str:
        return f"TopKResult(items={self.items!r}, counters={self.counters!r})"


def as_float_vectors(vectors: Iterable[Sequence[float]]) -> list[np.ndarray]:
    """Validate the shared engine input contract and convert to float arrays.

    Requires at least one vector, every vector nonempty, every entry a finite
    real; text, dates and complex entries are refused, not converted, and so
    is a masked array with any entry masked.
    """
    import numpy as np

    # Only numpy.ma makes masked arrays, so while it is not loaded no vector
    # can be one and the check costs nothing.
    ma = sys.modules.get("numpy.ma")
    vecs = list(vectors)
    if not vecs:
        raise InputError("need at least one input vector")
    out = []
    for d, vec in enumerate(vecs):
        # np.asarray reads a masked entry's hidden value as data, and the
        # masked constant in a list as NaN.
        if ma is not None and (ma.is_masked(vec) or isinstance(vec, (list, tuple))
                               and any(x is ma.masked for x in vec)):
            raise InputError(f"vector {d} has masked entries")
        try:
            arr = np.asarray(vec)
            # Text, dates and complex numbers are not reals, though the float
            # cast would read "2" as 2.0, a date as its day count and drop an
            # imaginary part. An object array can hold any of them, so each of
            # its entries must be a number; only that rare path imports numbers.
            kind = arr.dtype.kind
            if kind == "O":
                from numbers import Number

                if not all(isinstance(x, (Number, np.bool_)) for x in arr.flat):
                    raise TypeError
            elif kind in "USMmc":
                raise TypeError
            arr = arr.astype(float, copy=False)
        except (TypeError, ValueError):
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


def capacity(lengths: Iterable[int]) -> int:
    """Product of vector lengths, saturating at CAPACITY_LIMIT."""
    total = 1
    for n in lengths:
        total *= n
        if total >= CAPACITY_LIMIT:
            return CAPACITY_LIMIT
    return total


def normalize_k(k: int, cap: int) -> int:
    """Clamp a requested k to the instance capacity.

    A k that is not an integer (bool included) or is negative is a domain
    error.
    """
    try:
        if isinstance(k, bool):
            raise TypeError
        k = operator.index(k)
    except TypeError:
        raise InputError(f"k must be an integer, got {k!r}") from None
    if k < 0:
        raise InputError(f"k must be non-negative, got {k}")
    return min(k, cap)


def sort_descending(arr: np.ndarray) -> tuple[list[float], list[int]]:
    """Sort one axis non-increasing; returns (values, permutation to original indices).

    Stable on ties, so equal values keep ascending original index order.
    """
    order = (-arr).argsort(kind="stable")
    return arr[order].tolist(), order.tolist()
