"""Shared primitives: the indexed max-heap, result types, input validation."""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple, Sequence

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
    """A Cartesian sum of finite inputs left the float range; every engine
    reports overflow with this error and its default message."""

    def __init__(self, message: str = "Cartesian sum overflowed the float range"):
        super().__init__(message)


class IndexedValue(NamedTuple):
    """One Cartesian-sum value and the original-index tuple that produced it.

    A tuple, so hot paths build it with ``tuple.__new__(IndexedValue, (value,
    indices))`` and skip the generated ``__new__``.
    """

    value: float
    indices: tuple[int, ...]


@dataclass
class InstrumentationCounters:
    """Exact heap-traffic accounting shared by every heap in one engine run.

    ``live_entries`` / ``live_bytes`` track current simultaneous occupancy
    across all attached heaps; the ``peak_*`` fields are their high-water
    marks.
    """

    heap_pushes: int = 0
    heap_pops: int = 0
    peak_fringe_entries: int = 0
    peak_entry_bytes_estimate: int = 0
    live_entries: int = 0
    live_bytes: int = 0

    def on_push(self, entry_bytes: int) -> None:
        self.heap_pushes += 1
        self.live_entries += 1
        self.live_bytes += entry_bytes
        if self.live_entries > self.peak_fringe_entries:
            self.peak_fringe_entries = self.live_entries
        if self.live_bytes > self.peak_entry_bytes_estimate:
            self.peak_entry_bytes_estimate = self.live_bytes

    def on_pop(self, entry_bytes: int) -> None:
        self.heap_pops += 1
        self.live_entries -= 1
        self.live_bytes -= entry_bytes


class MaxIndexHeap:
    """Binary max-heap of (key, payload) entries on ``heapq``.

    Entries are stored as ``(-key, seq, payload)``: the per-heap sequence
    number breaks key ties in insertion order, so payloads are never
    compared. Keys must be finite: the engines push sums of finite inputs,
    so a non-finite key means a sum overflowed, and push raises
    SumOverflowError. Popping an empty heap is a usage error (IndexError),
    unlike the domain errors raised for bad keys.
    """

    __slots__ = ("_entries", "_seq", "_counters", "_entry_bytes")

    def __init__(
        self,
        counters: InstrumentationCounters | None = None,
        entry_bytes: int = 2 * NUMBER_BYTES,
    ):
        self._entries: list[tuple[float, int, Any]] = []
        self._seq = itertools.count()
        self._counters = counters
        self._entry_bytes = entry_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, key: float, payload: Any = None) -> None:
        if not math.isfinite(key):
            raise SumOverflowError()
        heapq.heappush(self._entries, (-key, next(self._seq), payload))
        if self._counters is not None:
            self._counters.on_push(self._entry_bytes)

    def pop_max(self) -> tuple[float, Any]:
        if not self._entries:
            raise IndexError("pop from an empty MaxIndexHeap")
        neg_key, _, payload = heapq.heappop(self._entries)
        if self._counters is not None:
            self._counters.on_pop(self._entry_bytes)
        return -neg_key, payload


@dataclass
class TopKResult:
    """Top values in non-increasing order plus the run's heap counters."""

    items: list[IndexedValue]
    counters: InstrumentationCounters

    @property
    def values(self) -> list[float]:
        return [item.value for item in self.items]

    @property
    def index_tuples(self) -> list[tuple[int, ...]]:
        return [item.indices for item in self.items]

    def __len__(self) -> int:
        return len(self.items)


def as_float_vectors(vectors: Iterable[Sequence[float]]) -> list[np.ndarray]:
    """Validate the shared engine input contract and convert to float arrays.

    Requires at least one vector, every vector nonempty, every entry finite.
    """
    vecs = list(vectors)
    if not vecs:
        raise InputError("need at least one input vector")
    out = []
    for d, vec in enumerate(vecs):
        try:
            arr = np.asarray(vec, dtype=float)
        except (TypeError, ValueError):
            raise InputError(f"vector {d} is not a sequence of reals") from None
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
    order = np.argsort(-arr, kind="stable")
    return arr[order].tolist(), order.tolist()
