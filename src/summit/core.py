"""Shared primitives and the pair-heap tree, with nothing that imports numpy.

Heap counters, result types and input checks that every engine shares, and
the tree engine's lazy pairwise sum heaps (PairNode), which serve the sum of
any ordered sources: sorted vectors from tree.py or isotope distributions.

Both heap engines read their inputs as a Source: an object with two lists,
``values`` and ``indices``, and a method ``extend() -> bool``, which serves
one more entry, appending its value and its index tuple in non-increasing
value order, or returns False once none is left. ``len(indices)`` is the
count served. LeafSource, ElementSource and PairNode are Sources.
"""

import gc
import operator
import sys
from collections import namedtuple
from functools import wraps
from heapq import heappop, heappush, heapreplace
from itertools import repeat
from math import isfinite

# Saturation bound for the capacity product, so "give me everything" requests
# stay cheap to clamp even when the true cell count is astronomically large.
CAPACITY_LIMIT = 2**63

# Fringe memory is priced at one 64-bit word for the key plus one word per
# payload index; exact object sizes are interpreter trivia, word counts aren't.
NUMBER_BYTES = 8

# Fringe entry price of a pair node: the key plus the (row, column) pair.
PAIR_ENTRY_BYTES = 3 * NUMBER_BYTES


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


IndexedValue = namedtuple("IndexedValue", ["value", "indices"])
IndexedValue.__doc__ = "One Cartesian-sum value and the original-index tuple that produced it."


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


def data_lines(path: str, source: str, malformed: str) -> "Iterator[tuple[str, str]]":
    """Each data line of a UTF-8 text file, stripped, with its "source:lineno".

    One leading byte-order mark is skipped; a second is data. Lines end only at \\n, \\r\\n and
    \\r, so a form feed or a Unicode line separator stays inside its line.
    Blank lines and lines starting with '#' are skipped. float() reads "1_0"
    as 10.0, so a line with a "_" is refused with the message `malformed`,
    formatted with the line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read().removeprefix("\ufeff")
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


def capacity(lengths: "Iterable[int]") -> int:
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


_new_tuple = tuple.__new__


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

    def __init__(self, left: "Source", right: "Source", counters: InstrumentationCounters):
        self.left = left
        self.right = right
        self.values: list[float] = []
        self.indices: list[tuple[int, ...]] = []
        self._counters = counters
        if not (left.extend() and right.extend()):
            raise InputError("a source serves no entries")
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

    def __init__(self, root: "Source", counters: InstrumentationCounters):
        self.root = root
        self.counters = counters

    def pop_next(self) -> IndexedValue | None:
        root = self.root
        n = len(root.indices)
        if not root.extend():
            return None
        return _new_tuple(IndexedValue, (root.values[n], root.indices[n]))

    def __iter__(self) -> "Iterator[IndexedValue]":
        return iter(self.pop_next, None)


def _build(sources: "list[Source]", lo: int, hi: int,
           counters: InstrumentationCounters) -> "Source":
    if hi - lo == 1:
        return sources[lo]
    mid = lo + (hi - lo + 1) // 2  # left child takes the ceiling half
    return PairNode(_build(sources, lo, mid, counters), _build(sources, mid, hi, counters),
                    counters)


def assemble_tree(sources: "list[Source]") -> CartesianSumTree:
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


def select(sources: "list[Source]", k: int) -> TopKResult:
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
    if not indices:
        raise InputError("a source serves no entries")
    if len(values) > len(indices):
        values = values[: len(indices)]
    return TopKResult((), tree.counters, (values, indices))
