import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from summit import InputError, InstrumentationCounters, MaxIndexHeap


def drain(heap):
    out = []
    while len(heap):
        out.append(heap.pop_max()[0])
    return out


def test_pop_max_returns_max_of_three():
    heap = MaxIndexHeap()
    for key in (1, 3, 2):
        heap.push(key)
    assert heap.pop_max()[0] == 3


def test_singleton_pop_max():
    heap = MaxIndexHeap()
    heap.push(5)
    assert heap.pop_max()[0] == 5


def test_duplicates_pop_in_sorted_order():
    heap = MaxIndexHeap()
    for key in (7, 5, 5):
        heap.push(key)
    assert drain(heap) == [7, 5, 5]


def test_log_abundance_keys_pop_larger_first():
    heap = MaxIndexHeap()
    heap.push(-0.0108, "common")
    heap.push(-4.5282, "rare")
    assert heap.pop_max() == (-0.0108, "common")


def test_single_entry_then_empty():
    heap = MaxIndexHeap()
    heap.push(1.5, "only")
    assert heap.pop_max() == (1.5, "only")
    assert len(heap) == 0
    with pytest.raises(IndexError):
        heap.pop_max()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_key_rejected(bad):
    heap = MaxIndexHeap()
    with pytest.raises(InputError):
        heap.push(bad)


def test_payloads_are_never_compared():
    heap = MaxIndexHeap()
    heap.push(1.0, {"unorderable": True})
    heap.push(1.0, object())
    heap.push(1.0, None)
    assert [heap.pop_max()[0] for _ in range(3)] == [1.0, 1.0, 1.0]


def test_interleaved_matches_sorted_list_reference():
    rnd = random.Random(7)
    heap = MaxIndexHeap()
    reference = []
    for _ in range(500):
        if reference and rnd.random() < 0.4:
            assert heap.pop_max()[0] == reference.pop()
        else:
            key = rnd.choice([rnd.uniform(-10, 10), float(rnd.randint(-3, 3))])
            heap.push(key)
            reference.append(key)
            reference.sort()
        assert len(heap) == len(reference)
    assert drain(heap) == reference[::-1]


@given(st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=1, max_size=80))
def test_pop_sequence_is_descending_sort_of_multiset(keys):
    heap = MaxIndexHeap()
    for key in keys:
        heap.push(key)
    assert drain(heap) == sorted(keys, reverse=True)


@given(st.sets(st.integers(-10**6, 10**6), min_size=2, max_size=60))
def test_distinct_keys_pop_strictly_decreasing(keys):
    heap = MaxIndexHeap()
    for key in keys:
        heap.push(float(key))
    popped = drain(heap)
    assert all(a > b for a, b in zip(popped, popped[1:]))


def test_counters_track_traffic():
    counters = InstrumentationCounters()
    heap = MaxIndexHeap(counters, entry_bytes=24)
    for key in (4, 1, 9):
        heap.push(key)
    heap.pop_max()
    assert counters.heap_pushes == 3
    assert counters.heap_pops == 1
    assert counters.heap_pops <= counters.heap_pushes
    assert counters.peak_fringe_entries == 3
    assert counters.peak_entry_bytes_estimate == 3 * 24
    assert counters.live_entries == 2


def test_counters_do_not_change_behavior():
    keys = [3.0, -1.5, 3.0, 8.25, 0.0, 7.5]
    plain = MaxIndexHeap()
    counted = MaxIndexHeap(InstrumentationCounters())
    for key in keys:
        plain.push(key)
        counted.push(key)
    assert drain(plain) == drain(counted)


def test_counters_shared_between_heaps():
    counters = InstrumentationCounters()
    a = MaxIndexHeap(counters)
    b = MaxIndexHeap(counters)
    a.push(1)
    b.push(2)
    b.push(3)
    assert counters.peak_fringe_entries == 3
    a.pop_max()
    assert counters.live_entries == 2
    assert counters.peak_fringe_entries == 3
