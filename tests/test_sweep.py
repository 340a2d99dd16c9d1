"""Adversarial differential sweep of both heap engines against the oracle.

Every value is dyadic, a small integer times a power of two, and each
instance is drawn so that its sums are exact whatever the order of addition.
The engines add in different orders (the oracle along the vectors, the tensor
per cell, the tree per pair node), so their values must be equal, not close.
"""

import math
from functools import reduce
from itertools import product
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summit import (
    SumOverflowError,
    brute_force_top_k,
    build_tree,
    tensor_top_k,
    tree_top_k,
)

from helpers import check_tree_laziness

MAX_CELLS = 20_000
MAX_LENGTH = 300  # past FIRST_LAYER, so a lone vector is served in layers
HEAP_ENGINES = [tree_top_k, tensor_top_k]


@st.composite
def lengths(draw):
    m = draw(st.integers(1, 12))
    longest = min(MAX_LENGTH, int(MAX_CELLS ** (1 / m)))
    return draw(st.lists(st.integers(1, longest), min_size=m, max_size=m))


# Small integers make ties; the wider range mixes in distinct values.
mantissas = st.one_of(st.integers(-8, 8), st.integers(-4096, 4096))


def _vector(draw, n, value):
    return draw(st.lists(st.one_of(value, st.sampled_from([0.0, -0.0])),
                         min_size=n, max_size=n))


@st.composite
def window_instances(draw):
    """Per-vector scales within 2**20 of each other, anywhere from 2**-1000
    to 2**1000: sums stay within 53 bits of the smallest scale, so they are
    exact."""
    base = draw(st.integers(-1000, 964))
    vectors = []
    for n in draw(lengths()):
        scale = base + draw(st.integers(0, 20))
        vectors.append(_vector(draw, n, mantissas.map(lambda a, e=scale: math.ldexp(a, e))))
    return vectors


@st.composite
def split_instances(draw):
    """Values from two scales at least 2**80 apart, such as 2**900 with
    2**-900, the larger all positive. A sum that picks any large value is
    then the exact sum of its large values, since the small ones lie below
    half its last place; one that picks none is the exact sum of the small
    ones. Either way the double does not depend on the order of addition."""
    high = draw(st.integers(-920, 964))
    low = draw(st.integers(-1000, high - 80))
    large = st.integers(1, 4096).map(lambda a: math.ldexp(a, high))
    small = mantissas.map(lambda a: math.ldexp(a, low))
    return [_vector(draw, n, st.one_of(large, small)) for n in draw(lengths())]


@st.composite
def exact_instances(draw):
    vectors = draw(st.one_of(window_instances(), split_instances()))
    cells = math.prod(len(v) for v in vectors)
    k = draw(st.one_of(st.integers(0, min(cells, 64)), st.integers(0, cells), st.just(cells)))
    return vectors, k


@settings(max_examples=150)
@given(exact_instances())
def test_heap_engines_equal_the_oracle_exactly(case):
    vectors, k = case
    expected = brute_force_top_k(vectors, k).values
    for engine in HEAP_ENGINES:
        result = engine(vectors, k)
        assert result.values == expected, engine.__name__
        assert len(set(result.index_tuples)) == len(result.items)
        for item in result.items:
            entries = [v[i] for v, i in zip(vectors, item.indices)]
            assert item.value == math.fsum(entries)
            # fsum gives +0.0 for entries that are all -0.0; a left fold
            # keeps the sign of zero, which every exact order agrees on.
            assert item.value.hex() == reduce(add, entries).hex()


@settings(max_examples=100)
@given(exact_instances())
def test_tree_stays_lazy_after_every_pop(case):
    vectors, k = case
    k = min(k, 256)
    expected = brute_force_top_k(vectors, k).values
    tree = build_tree(vectors)
    check_tree_laziness(tree)
    values = []
    for _ in range(k):
        values.append(tree.pop_next().value)
        check_tree_laziness(tree)
    assert values == expected


# At scale 2**971 the doubles are exactly the multiples of 2**971 with fewer
# than 54 significant bits, so a sum of same-signed values is exact until
# its integer part reaches 2**53, where it overflows.
EDGE_SCALE = 971
EDGE = 2**53


@st.composite
def edge_cases(draw):
    sign = draw(st.sampled_from([1, -1]))
    near = st.integers(0, 64)
    units = st.one_of(st.integers(0, 8), st.integers(0, EDGE // 2),
                      near.map(lambda d: EDGE // 2 - d), near.map(lambda d: EDGE - 1 - d))
    ints = [draw(st.lists(units, min_size=n, max_size=n)) for n in draw(lengths())]
    k = draw(st.integers(1, math.prod(len(row) for row in ints)))
    return sign, ints, k


@settings(max_examples=150)
@given(edge_cases())
def test_overflow_contract_at_the_float_edge(case):
    sign, ints, k = case
    vectors = [[math.ldexp(sign * a, EDGE_SCALE) for a in row] for row in ints]
    # Exact cell sums in units of 2**971, best first.
    totals = sorted((sum(cell) for cell in product(*ints)), reverse=sign > 0)
    overflows = max(totals) >= EDGE
    top = totals[:k]
    # The oracle computes every cell.
    if overflows:
        with pytest.raises(SumOverflowError):
            brute_force_top_k(vectors, k)
    else:
        assert brute_force_top_k(vectors, k).values == [
            math.ldexp(sign * t, EDGE_SCALE) for t in top]
    for engine in HEAP_ENGINES:
        if max(top) >= EDGE:
            # A cell it would return overflowed.
            with pytest.raises(SumOverflowError):
                engine(vectors, k)
            continue
        try:
            values = engine(vectors, k).values
        except SumOverflowError:
            # Only a key beyond the cells it returns may have overflowed.
            assert overflows, engine.__name__
        else:
            assert values == [math.ldexp(sign * t, EDGE_SCALE) for t in top], engine.__name__
