import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summit import (
    InputError,
    LeafSource,
    PairNode,
    SumOverflowError,
    brute_force_top_k,
    build_tree,
    generate_instance,
    tensor_top_k,
    tree_top_k,
)

from helpers import assert_values_match, assert_well_formed, check_tree_laziness, tree_depth


class TestTopology:
    def test_single_vector_degenerates_to_leaf(self):
        tree = build_tree([[3, 1, 2]])
        assert isinstance(tree.root, LeafSource)
        assert tree_depth(tree) == 0
        assert list(tree.pair_nodes()) == []

    def test_four_vectors_balanced(self):
        tree = build_tree([[1], [2], [3], [4]])
        root = tree.root
        assert isinstance(root, PairNode)
        assert isinstance(root.left, PairNode)
        assert isinstance(root.right, PairNode)
        assert tree_depth(tree) == 2
        leaves = [root.left.left, root.left.right, root.right.left, root.right.right]
        assert all(isinstance(leaf, LeafSource) for leaf in leaves)

    def test_three_vectors_ceiling_split(self):
        tree = build_tree([[1], [2], [3]])
        root = tree.root
        assert isinstance(root.left, PairNode)
        assert root.left.left.sorted_values == [1.0]
        assert root.left.right.sorted_values == [2.0]
        assert isinstance(root.right, LeafSource)
        assert root.right.sorted_values == [3.0]

    def test_depth_is_log2_ceiling(self):
        for m in range(1, 14):
            tree = build_tree([[0.0]] * m)
            assert tree_depth(tree) == math.ceil(math.log2(m))

    def test_build_state_root_and_inner_nodes(self):
        # Building realizes one value from each child, which cascades: a node
        # at depth d can be popped up to d times before the root is ready.
        # Only the root still holds its untouched corner cell.
        tree = build_tree(generate_instance(6, 3, seed=5))
        root = tree.root
        assert root.pops == 0
        assert len(root.fringe) == 1
        assert len(root.realized_left) == 1
        assert len(root.realized_right) == 1
        depth = tree_depth(tree)
        for node in tree.pair_nodes():
            if node is not root:
                assert 1 <= node.pops <= depth
        check_tree_laziness(tree)


class TestPairNodePops:
    def test_pop_sequence_over_two_leaves(self):
        tree = build_tree([[3, 1], [4, 2]])
        popped = [tree.pop_next() for _ in range(4)]
        assert [item.value for item in popped] == [7.0, 5.0, 5.0, 3.0]
        assert tree.pop_next() is None
        assert len(tree.root.fringe) == 0

    def test_fringe_small_after_first_pop(self):
        tree = build_tree([[3, 1], [4, 2]])
        tree.pop_next()
        assert len(tree.root.fringe) <= 2

    def test_realization_stays_lazy_through_random_runs(self):
        rnd = random.Random(99)
        for _ in range(25):
            m = rnd.randint(2, 6)
            vectors = [[rnd.uniform(-5, 5) for _ in range(rnd.randint(1, 5))] for _ in range(m)]
            tree = build_tree(vectors)
            check_tree_laziness(tree)
            while True:
                item = tree.pop_next()
                check_tree_laziness(tree)
                if item is None:
                    break


def test_three_vector_full_enumeration():
    result = tree_top_k([[0, -1], [0, -2], [0, -4]], 8)
    assert result.values == [0.0, -1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0]


def test_k_one_maxima_with_indices():
    vectors = [[1, 9, 4], [2, 0], [7, 8]]
    result = tree_top_k(vectors, 1)
    assert result.values[0] == pytest.approx(9 + 2 + 8)
    assert result.index_tuples[0] == (1, 0, 1)


def test_matches_tensor_engine_on_random_instances():
    for seed in range(6):
        vectors = generate_instance(4, 4, seed)
        k = 4**3
        a = tree_top_k(vectors, k)
        b = tensor_top_k(vectors, k)
        assert_values_match(a.values, b.values)


def test_k_zero_and_clamp():
    assert tree_top_k([[1, 2], [3]], 0).items == []
    assert len(tree_top_k([[1, 2], [3]], 50).items) == 2


def test_single_vector_engine_run():
    result = tree_top_k([[2, 9, 4]], 3)
    assert result.values == [9.0, 4.0, 2.0]
    assert result.index_tuples == [(1,), (2,), (0,)]
    assert result.counters.peak_fringe_entries == 1


@pytest.mark.parametrize(
    "bad",
    [[], [[]], [[1.0], []], [[1.0, float("nan")]], [[float("inf")]]],
)
def test_domain_errors(bad):
    with pytest.raises(InputError):
        tree_top_k(bad, 1)


def test_negative_k_rejected():
    with pytest.raises(InputError):
        tree_top_k([[1.0]], -2)


@pytest.mark.parametrize("engine", [tree_top_k, tensor_top_k, brute_force_top_k])
@pytest.mark.parametrize("bad", ["5", True, 2.0])
def test_non_integer_k_rejected(engine, bad):
    with pytest.raises(InputError):
        engine([[1.0, 2.0], [3.0]], bad)


@pytest.mark.parametrize("engine", [tree_top_k, tensor_top_k, brute_force_top_k])
def test_sum_overflow_is_one_named_error(engine):
    with pytest.raises(SumOverflowError, match="^Cartesian sum overflowed the float range$"):
        engine([[1e308], [1e308]], 1)


def test_partial_sum_overflow_in_a_pair_node():
    # The left pair node adds the first two vectors; its sum overflows even
    # though the third vector is small.
    with pytest.raises(SumOverflowError, match="^Cartesian sum overflowed the float range$"):
        tree_top_k([[1e308, 0.0], [1e308], [1.0]], 1)


@pytest.mark.parametrize("m", range(1, 7))
def test_build_then_pop_counters_match_engine(m):
    vectors = generate_instance(m, 3, seed=m)
    for k in (1, 5, 3**m):
        tree = build_tree(vectors)
        for _ in range(k):
            tree.pop_next()
        assert tree.counters == tree_top_k(vectors, k).counters


def test_total_fringe_bounded_by_pops_plus_nodes():
    for m, n, k, seed in [(3, 5, 30, 0), (6, 4, 64, 1), (5, 5, 100, 2)]:
        vectors = generate_instance(m, n, seed)
        counters = tree_top_k(vectors, k).counters
        assert counters.peak_fringe_entries <= 2 * counters.heap_pops + m


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
tied = st.integers(-4, 4).map(float)
vectors_st = st.lists(
    st.lists(st.one_of(finite, tied), min_size=1, max_size=5),
    min_size=1,
    max_size=6,
)


@settings(max_examples=120)
@given(vectors_st, st.data())
def test_oracle_equivalence(vectors, data):
    cells = math.prod(len(v) for v in vectors)
    k = data.draw(st.integers(0, cells))
    expected = brute_force_top_k(vectors, k)
    result = tree_top_k(vectors, k)
    assert_values_match(result.values, expected.values)
    assert_well_formed(vectors, result, k)
