"""Shared primitives: heap counters, result types, input validation."""

from __future__ import annotations

import gc
import operator
import sys
import warnings
from functools import wraps
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

# numpy is imported inside the functions that call it. The isotope calculator
# calls none of them, so `import summit` and `top_peaks` run without numpy.
if TYPE_CHECKING:
    from importlib.abc import Traversable

    import numpy as np

# Saturation bound for the capacity product, so "give me everything" requests
# stay cheap to clamp even when the true cell count is astronomically large.
CAPACITY_LIMIT = 2**63

# Fringe memory is priced at one 64-bit word for the key plus one word per
# payload index; exact object sizes are interpreter trivia, word counts aren't.
NUMBER_BYTES = 8

# A list or tuple this long or longer is read in one pass, not by np.asarray,
# which reads each entry twice. At this length the one pass and its checks
# cost what they save; at 16384 entries they save a fifth.
ONE_PASS_MIN = 1024


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


def gc_paused(fn):
    """Run fn with the cyclic garbage collector off, and turn it back on after.

    The engines allocate a tuple per push and per pop, and a tree holds no
    reference cycles, so reference counting frees what dies in the call and
    the collector's passes over it are waste. A collector that is off when
    the call starts, by the caller or an outer call, is left off.
    """
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


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
    import numpy as np

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
    import array

    import numpy as np

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.frombuffer(array.array("d", entries))


def data_lines(file: Traversable, source: str, malformed: str) -> Iterator[tuple[str, str]]:
    """Each data line of a UTF-8 text file, stripped, with its "source:lineno".

    A leading byte-order mark is skipped. Lines end only at \\n, \\r\\n and
    \\r, so a form feed or a Unicode line separator stays inside its line.
    Blank lines and lines starting with '#' are skipped. float() reads "1_0"
    as 10.0, so a line with a "_" is refused with the message `malformed`,
    formatted with the line.
    """
    try:
        with file.open(encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise InputError(f"{source}: not UTF-8 text") from None
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{source}:{lineno}"
        if "_" in line:
            raise InputError(f"{where}: " + malformed.format(line=line))
        yield where, line


def capacity(lengths: Iterable[int]) -> int:
    """Product of vector lengths, saturating at CAPACITY_LIMIT."""
    total = 1
    for n in lengths:
        total *= n
        if total >= CAPACITY_LIMIT:
            return CAPACITY_LIMIT
    return total


def require_int(value: int, name: str) -> int:
    """value as an int; a value that is not an integer, or is a bool, is a
    domain error that names it."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None


def normalize_k(k: int, cap: int) -> int:
    """Clamp a requested k to the instance capacity.

    A k that is not an integer (bool included) or is negative is a domain
    error.
    """
    k = require_int(k, "k")
    if k < 0:
        raise InputError(f"k must be non-negative, got {k}")
    return min(k, cap)


def sort_descending(arr: np.ndarray) -> tuple[list[float], list[int]]:
    """Sort one axis non-increasing; returns (values, permutation to original indices).

    Stable on ties, so equal values keep ascending original index order.
    """
    order = (-arr).argsort(kind="stable")
    return arr[order].tolist(), order.tolist()
