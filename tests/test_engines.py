"""The promises that each engine used to state in its own copy, folded into one
test per promise and run for every engine it binds: k, the domain refusals,
the worked examples and agreement with the oracle.

The checks that test_tree.py already runs across engines (k type and size,
input refusals and conversion, overflow, tie order, pinned counters and the
result holders) stay there. Each engine's own checks stay in its module: the
tree's build, laziness and leaves in test_tree.py, the tensor's traffic
bounds in test_tensor.py, and the oracle's tie order, cell cap and grid
counters in test_oracle.py.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summit import (
    InputError,
    InstrumentationCounters,
    TopKResult,
    brute_force_top_k,
    generate_instance,
    tensor_top_k,
    tree_top_k,
)

from helpers import assert_values_match, assert_well_formed

ALL = [tree_top_k, tensor_top_k, brute_force_top_k]


@pytest.mark.parametrize("engine", ALL)
@pytest.mark.parametrize("vectors", [[[1, 2], [3]], [[1, 2]]])
def test_k_zero_is_empty(engine, vectors):
    assert engine(vectors, 0) == TopKResult([], InstrumentationCounters())


@pytest.mark.parametrize("engine", ALL)
@pytest.mark.parametrize("k", [50, 99, 100])
def test_k_clamped_to_cell_count(engine, k):
    # test_tree.py's test_huge_k_returns_every_cell takes k beyond sys.maxsize.
    assert engine([[1, 2], [3]], k).values == [5.0, 4.0]


@pytest.mark.parametrize("engine", ALL)
@pytest.mark.parametrize("k", [-1, -2])
def test_negative_k_rejected(engine, k):
    with pytest.raises(InputError, match=f"^k must be non-negative, got {k}$"):
        engine([[1.0]], k)


@pytest.mark.parametrize("engine", ALL)
@pytest.mark.parametrize(
    "bad",
    [[], [[]], [[1.0], []], [[1.0, float("nan")]], [[float("inf")]], [[float("-inf"), 0.0]]],
)
def test_domain_errors(engine, bad):
    with pytest.raises(InputError):
        engine(bad, 1)


@pytest.mark.parametrize("engine,peak", [(tree_top_k, 1), (tensor_top_k, 1),
                                         (brute_force_top_k, 3)])
def test_single_vector_is_a_sort(engine, peak):
    result = engine([[2, 9, 4]], 3)
    assert result.values == [9.0, 4.0, 2.0]
    assert result.index_tuples == [(1,), (2,), (0,)]
    assert result.counters.peak_fringe_entries == peak


@pytest.mark.parametrize("engine", ALL)
@pytest.mark.parametrize("k", [4, 8])
def test_three_vector_enumeration(engine, k):
    vectors = [[0, -1], [0, -2], [0, -4]]
    result = engine(vectors, k)
    assert result.values == [0.0, -1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0][:k]
    assert_well_formed(vectors, result, k)


@pytest.mark.parametrize("engine", ALL)
def test_unsorted_input_accepted(engine):
    result = engine([[1, 9, 4], [2, 0]], 2)
    assert result.values == [11.0, 9.0]
    assert result.index_tuples == [(1, 0), (1, 1)]


@pytest.mark.parametrize("engine", ALL)
@pytest.mark.parametrize("vectors", [[[1, 9, 4], [2, 0], [7, 8]],
                                     generate_instance(4, 5, seed=11)])
def test_k_one_is_sum_of_maxima(engine, vectors):
    result = engine(vectors, 1)
    assert result.values == pytest.approx([sum(map(max, vectors))], rel=1e-12)
    assert result.index_tuples == [tuple(v.index(max(v)) for v in vectors)]


# test_oracle.py pins the oracle's order on this input.
@pytest.mark.parametrize("engine", [tree_top_k, tensor_top_k])
def test_pair_example_with_tie(engine):
    result = engine([[3, 1], [4, 2]], 3)
    assert result.values == [7.0, 5.0, 5.0]
    assert set(result.index_tuples[1:]) == {(0, 1), (1, 0)}


@pytest.mark.parametrize("engine", ALL)
def test_full_enumeration_covers_every_tuple(engine):
    vectors = [[1, 2], [0, -1, 5], [3]]
    result = engine(vectors, 6)
    assert set(result.index_tuples) == {
        (i, j, 0) for i in range(2) for j in range(3)
    }


@pytest.mark.parametrize("engine", ALL)
def test_matches_exhaustive_itertools_enumeration(engine):
    rnd = random.Random(13)
    for _ in range(50):
        m = rnd.randint(1, 4)
        vectors = [[rnd.uniform(-5, 5) for _ in range(rnd.randint(1, 5))] for _ in range(m)]
        cells = math.prod(len(v) for v in vectors)
        expected = sorted(
            (sum(vectors[d][i] for d, i in enumerate(idx)) for idx in
             itertools.product(*(range(len(v)) for v in vectors))),
            reverse=True,
        )
        result = engine(vectors, cells)
        assert result.values == pytest.approx(expected, rel=1e-9, abs=1e-9)
        assert_well_formed(vectors, result, cells)


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
tied = st.integers(-4, 4).map(float)


# The tensor's frontier grows with m, so it draws at most 4 vectors to the tree's 6.
@pytest.mark.parametrize("engine,max_vectors", [(tree_top_k, 6), (tensor_top_k, 4)],
                         ids=["tree_top_k", "tensor_top_k"])
@settings(max_examples=120)
@given(st.data())
def test_oracle_equivalence(engine, max_vectors, data):
    vectors = data.draw(st.lists(st.lists(st.one_of(finite, tied), min_size=1, max_size=5),
                                 min_size=1, max_size=max_vectors))
    cells = math.prod(len(v) for v in vectors)
    k = data.draw(st.integers(0, cells))
    expected = brute_force_top_k(vectors, k)
    result = engine(vectors, k)
    assert_values_match(result.values, expected.values)
    assert_well_formed(vectors, result, k)
