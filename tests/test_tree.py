import math
import random
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summit import (
    ENGINES,
    IndexedValue,
    InputError,
    InstrumentationCounters,
    LeafSource,
    PairNode,
    SumOverflowError,
    TopKResult,
    brute_force_top_k,
    build_tree,
    expand_element,
    generate_instance,
    tensor_top_k,
    tree_top_k,
)
import summit.tree
from summit.tree import (
    BLOCK_LAYER,
    FIRST_LAYER,
    LAYER_GROWTH,
    ONE_PASS_MIN,
    as_float_vectors,
    assemble_tree,
    leaf_sources,
    select,
    sort_descending,
)

from helpers import (
    assert_well_formed,
    check_tree_laziness,
    pair_nodes,
    tree_depth,
)


class TestTopology:
    def test_no_sources_rejected(self):
        with pytest.raises(InputError, match="need at least one source"):
            assemble_tree([])

    def test_single_vector_degenerates_to_leaf(self):
        tree = build_tree([[3, 1, 2]])
        assert isinstance(tree.root, LeafSource)
        assert tree_depth(tree) == 0
        assert list(pair_nodes(tree)) == []

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
        for node in pair_nodes(tree):
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


@pytest.mark.parametrize("engine", [tree_top_k, tensor_top_k, brute_force_top_k])
@pytest.mark.parametrize("k", [10**30, 2**63])
def test_huge_k_returns_every_cell(engine, k):
    # Both k lie beyond sys.maxsize, which islice refuses as a stop.
    assert engine([[1, 2], [3]], k).values == [5.0, 4.0]


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_built_tree_iterates_like_the_engine(m):
    vectors = generate_instance(m, 3, seed=m)
    tree = build_tree(vectors)
    result = tree_top_k(vectors, 3**m)
    assert list(tree) == result.items
    assert tree.counters == result.counters


@pytest.mark.parametrize("engine", [tree_top_k, tensor_top_k])
def test_single_cell_counts_its_only_entry(engine):
    # The first push is the only one, so the peak must be taken there.
    c = engine([[1.0], [2.0]], 1).counters
    assert (c.heap_pushes, c.heap_pops, c.peak_fringe_entries,
            c.peak_entry_bytes_estimate, c.heap_pushes - c.heap_pops) == (1, 1, 1, 24, 0)


@pytest.mark.parametrize("engine", [tree_top_k, tensor_top_k, brute_force_top_k])
@pytest.mark.parametrize("bad", ["5", True, 2.0])
def test_non_integer_k_rejected(engine, bad):
    with pytest.raises(InputError):
        engine([[1.0, 2.0], [3.0]], bad)


@pytest.mark.parametrize("engine", [tree_top_k, tensor_top_k, brute_force_top_k])
@pytest.mark.parametrize(
    "bad",
    [[[3.0], ["1", "2"]], [[3.0], [1, "2"]], [[3.0], [b"1"]], [[3.0], np.array(["1"])],
     [[3.0], [1 + 0j]], [[3.0], np.array([1 + 0j])],
     [[3.0], np.array(["1", "2"], dtype=object)], [[3.0], np.array([b"1"], dtype=object)],
     [[3.0], np.array([1.0, "2"], dtype=object)],
     [[3.0], np.array(["2020-01-01"], dtype="datetime64[D]")],
     [[3.0], np.array([5], dtype="timedelta64[s]")],
     # float() reads each of these scalars as its count.
     [[3.0], np.array([np.datetime64(5, "ns"), 1.5], dtype=object)],
     [[3.0], np.array([np.timedelta64(5)], dtype=object)],
     # ... and void data as the number its bytes spell.
     [[3.0], np.array([b"7"], dtype="V1")], [[3.0], [np.void(b"7"), 1.5]],
     [[3.0], (1.5, np.void(b"7"))], [[3.0], np.array([np.void(b"7"), 1.5], dtype=object)]],
)
def test_text_and_complex_entries_rejected(engine, bad):
    with pytest.raises(InputError, match="^vector 1 is not a sequence of reals$"):
        engine(bad, 1)


# float() reads the numpy scalars as counts or, with a warning, as real parts.
# They are refused whatever the caller's warning filters, in short lists and
# in lists long enough to be read in one pass.
@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("engine", [tree_top_k, tensor_top_k, brute_force_top_k])
@pytest.mark.parametrize("entry", [
    np.datetime64(5, "ns"), np.timedelta64(5), np.timedelta64(5, "ns"), np.complex128(1.5),
    np.complex64(1), np.array([2.0]), None, b"1", "2", 1j])
@pytest.mark.parametrize("length", [1, ONE_PASS_MIN])
def test_non_real_entry_in_a_list_rejected(engine, entry, length):
    for vec in ([0.5] * length + [entry], (entry, *[0.5] * length)):
        with pytest.raises(InputError, match="^vector 1 is not a sequence of reals$"):
            engine([[3.0], vec], 1)


class FloatLike:
    """Not a numbers.Number, but float() reads it."""

    def __init__(self, value):
        self.value = value

    def __float__(self):
        return self.value


class IndexLike:
    """Not a numbers.Number, but float() reads it as an integer."""

    def __index__(self):
        return 7


@pytest.mark.parametrize("engine", [tree_top_k, tensor_top_k, brute_force_top_k])
@pytest.mark.parametrize(
    "entries,expected",
    [([2, 1], [2.0, 1.0]), ([True, False], [1.0, 0.0]), ([2**63], [2.0**63]),
     ([Fraction(1, 4)], [0.25]), ([Decimal("1.5")], [1.5]),
     (np.array([1.5], dtype=np.float32), [1.5]), (np.array([-3], dtype=np.int8), [-3.0]),
     (np.array([Fraction(1, 2), 2**64, True], dtype=object), [2.0**64, 1.0, 0.5]),
     (np.ma.array([1.0, 2.0], mask=[False, False]), [2.0, 1.0]),
     ([FloatLike(2.5), 1, IndexLike()], [7.0, 2.5, 1.0]),
     (np.array([FloatLike(0.5), IndexLike()], dtype=object), [7.0, 0.5])],
)
def test_real_entries_of_any_type_accepted(engine, entries, expected):
    assert engine([entries], 3).values == expected
    # A vector of another length keeps the input off the equal-length block.
    converted, _ = as_float_vectors([entries, [0.0] * (len(entries) + 1)])
    assert sorted(converted.tolist(), reverse=True) == expected


@pytest.mark.parametrize("entries", [
    [FloatLike(0.25), Fraction(1, 3), Decimal("1.5"), np.float32(1.5), np.float64(-0.75)],
    [FloatLike(0.25), 2, True, IndexLike(), 0.5], [0.5, 2.0**60, -0.0, 1.5]])
def test_long_lists_of_reals_accepted(entries):
    vec = entries * (ONE_PASS_MIN // len(entries) + 1)
    arr, _ = as_float_vectors([vec, [0.0]])
    assert arr.tolist() == [float(x) for x in vec]


@settings(max_examples=200)
@given(st.lists(st.one_of(st.integers(-2**70, 2**70), st.booleans(),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=12))
def test_lists_convert_bit_identically_to_numpy(entries):
    # Repeated past ONE_PASS_MIN, a list of non-integral floats is read in
    # one pass. A vector of another length keeps the input off the
    # equal-length block.
    long = entries * (ONE_PASS_MIN // len(entries) + 1)
    for vec in (entries, tuple(entries), long, tuple(long)):
        arr, _ = as_float_vectors([vec, [0.0] * (len(vec) + 1)])
        assert arr.tobytes() == np.asarray(vec).astype(float).tobytes()


@pytest.mark.parametrize("engine", [tree_top_k, tensor_top_k, brute_force_top_k])
def test_conversion_leaves_warning_filters_as_they_were(engine):
    before = list(warnings.filters)
    engine([[0.5] * ONE_PASS_MIN, [3.0]], 2)
    with pytest.raises(InputError, match="^vector 0 is not a sequence of reals$"):
        engine([[0.5] * ONE_PASS_MIN + [np.complex128(1.5)], [3.0]], 1)
    assert warnings.filters == before


@pytest.mark.parametrize("engine", [tree_top_k, tensor_top_k, brute_force_top_k])
def test_masked_entries_rejected(engine):
    # np.asarray drops the mask, so the hidden 2.0 would be read as data.
    with pytest.raises(InputError, match="^vector 1 has masked entries$"):
        engine([[3.0], np.ma.array([1.0, 2.0], mask=[False, True])], 2)


@pytest.mark.parametrize("engine", [tree_top_k, tensor_top_k, brute_force_top_k])
@pytest.mark.parametrize("vector", [[np.ma.masked], (2.0, np.ma.masked),
                                    np.array([2.0, np.ma.masked], dtype=object)])
def test_masked_constant_in_a_sequence_rejected(engine, vector):
    # np.asarray would read the masked constant as NaN, with a UserWarning.
    with pytest.raises(InputError, match="^vector 1 has masked entries$"):
        engine([[1.0], vector], 1)


@pytest.mark.parametrize("engine", [tree_top_k, tensor_top_k, brute_force_top_k])
@pytest.mark.parametrize("big", [10**400, Fraction(10**400, 3)])
def test_entry_beyond_the_float_range_is_non_finite(engine, big):
    with pytest.raises(InputError, match="^vector 1 contains a non-finite entry$"):
        engine([[1.0], [big]], 1)


@pytest.mark.parametrize("engine", [tree_top_k, tensor_top_k, brute_force_top_k])
def test_sum_overflow_is_one_named_error(engine):
    with pytest.raises(SumOverflowError, match="^Cartesian sum overflowed the float range$"):
        engine([[1e308], [1e308]], 1)


# The oracle computes every cell; a heap engine only the cells it returns and
# the frontier it pushes. At k=1 the heap engines return the top cell before
# reaching the overflowing corner; at k=2 the tree returns [2.0, -1e308] while
# the tensor has already pushed the corner, so k=2 is left unpinned.
OVERFLOW_EDGE = [[1.0, -1e308], [1.0, -1e308]]


@pytest.mark.parametrize("engine", [tree_top_k, tensor_top_k])
def test_heap_engines_return_cells_short_of_the_overflow(engine):
    assert engine(OVERFLOW_EDGE, 1).values == [2.0]
    with pytest.raises(SumOverflowError):
        brute_force_top_k(OVERFLOW_EDGE, 1)


@pytest.mark.parametrize("engine", [tree_top_k, tensor_top_k, brute_force_top_k])
def test_returning_an_overflowed_cell_raises(engine):
    with pytest.raises(SumOverflowError, match="^Cartesian sum overflowed the float range$"):
        engine(OVERFLOW_EDGE, 3)


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


# Equal sums pop in push order: these are the index tuples of every cell, in
# the order each engine reported them when its fringe was a MaxIndexHeap.
TIE_ORDERS = {
    ((1.0, 1.0, 1.0), (0.0, 0.0)): {
        "tree": [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (2, 1)],
        "tensor": [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (2, 1)],
    },
    ((0.0,) * 3,) * 3: {
        "tree": [(0, 0, 0), (1, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 1), (0, 0, 2), (2, 0, 0),
                 (0, 1, 1), (1, 0, 2), (1, 1, 0), (2, 0, 1), (0, 1, 2), (0, 2, 0), (1, 1, 1),
                 (2, 0, 2), (2, 1, 0), (0, 2, 1), (1, 1, 2), (1, 2, 0), (2, 1, 1), (0, 2, 2),
                 (2, 2, 0), (1, 2, 1), (2, 1, 2), (2, 2, 1), (1, 2, 2), (2, 2, 2)],
        "tensor": [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (1, 0, 1),
                   (0, 2, 0), (0, 1, 1), (0, 0, 2), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
                   (1, 0, 2), (0, 2, 1), (0, 1, 2), (2, 2, 0), (2, 1, 1), (2, 0, 2), (1, 2, 1),
                   (1, 1, 2), (0, 2, 2), (2, 2, 1), (2, 1, 2), (1, 2, 2), (2, 2, 2)],
    },
}


@pytest.mark.parametrize("vectors", list(TIE_ORDERS))
@pytest.mark.parametrize("engine", ["tree", "tensor"])
def test_tie_order_pinned(vectors, engine):
    expected = TIE_ORDERS[vectors][engine]
    result = ENGINES[engine](vectors, len(expected))
    assert result.index_tuples == expected
    assert result.values == [sum(v[i] for v, i in zip(vectors, t)) for t in expected]


def test_total_fringe_bounded_by_pops_plus_nodes():
    for m, n, k, seed in [(3, 5, 30, 0), (6, 4, 64, 1), (5, 5, 100, 2)]:
        vectors = generate_instance(m, n, seed)
        counters = tree_top_k(vectors, k).counters
        assert counters.peak_fringe_entries <= 2 * counters.heap_pops + m


LEAF_SIZES = (1, FIRST_LAYER - 1, FIRST_LAYER, FIRST_LAYER + 1, 4 * FIRST_LAYER + 3, 20000)


def leaf_input(kind, n, seed):
    rnd = random.Random(seed)
    if kind == "distinct":
        values = [rnd.uniform(-5, 5) for _ in range(n)]
    elif kind == "ties":
        values = [float(rnd.randint(0, 2)) for _ in range(n)]
    else:  # signed zeros among ties
        values = [rnd.choice((0.0, -0.0, 1.0, -1.0)) for _ in range(n)]
    return np.array(values)


def check_layered_leaf(arr):
    """A leaf holds the first layer of the stable full sort when built, and
    all of it once drained, without copying or changing its row."""
    before = arr.copy()
    values, permutation = sort_descending(arr)
    leaf = LeafSource(arr)
    first = min(len(arr), FIRST_LAYER)
    # repr tells -0.0 from 0.0, which == does not.
    assert list(map(repr, leaf.sorted_values)) == list(map(repr, values[:first]))
    assert leaf.permutation == permutation[:first]
    while leaf.extend():
        assert len(leaf.sorted_values) <= FIRST_LAYER + LAYER_GROWTH * leaf.cursor
    assert leaf.cursor == len(arr)
    assert list(map(repr, leaf.sorted_values)) == list(map(repr, values))
    assert leaf.permutation == permutation
    assert leaf._row is arr
    assert list(map(repr, arr)) == list(map(repr, before))


@pytest.mark.parametrize("kind", ["distinct", "ties", "signed_zeros"])
@pytest.mark.parametrize("n", LEAF_SIZES)
def test_layered_leaf_equals_full_sort(kind, n):
    check_layered_leaf(leaf_input(kind, n, seed=n))


def test_first_cut_inside_a_run_of_ties():
    values = [3.0] * 200 + [2.0] * 100 + [1.0] * 300
    random.Random(0).shuffle(values)
    arr = np.array(values)
    assert sorted(values, reverse=True)[FIRST_LAYER - 1:FIRST_LAYER + 1] == [2.0, 2.0]
    check_layered_leaf(arr)


def test_engines_agree_on_long_tied_vectors():
    vectors = [leaf_input("ties", 700, seed=d).tolist() for d in range(2)] + [
        leaf_input("signed_zeros", 300, seed=2).tolist()]
    for k in (1, 300, 3000):
        tree = tree_top_k(vectors, k)
        tensor = tensor_top_k(vectors, k)
        assert tree.values == tensor.values
        assert_well_formed(vectors, tree, k)
        assert_well_formed(vectors, tensor, k)


BLOCK_SIZES = (1, BLOCK_LAYER - 1, BLOCK_LAYER, BLOCK_LAYER + 1, FIRST_LAYER)


@pytest.mark.parametrize("kind", ["ties", "signed_zeros"])
@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("m", [1, 2, 7])
def test_block_leaves_equal_full_sort(kind, n, m):
    rows = np.array([leaf_input(kind, n, seed=100 * m + d) for d in range(m)])
    full = [sort_descending(row) for row in rows]
    if n > BLOCK_LAYER:
        # Some row's cut value repeats on both sides of the block layer.
        assert any(values[BLOCK_LAYER - 1] == values[BLOCK_LAYER] for values, _ in full)
    for leaf, (values, permutation) in zip(leaf_sources(rows), full):
        first = min(n, BLOCK_LAYER)
        assert len(leaf.sorted_values) == first
        while leaf.extend():
            bound = first if leaf.cursor <= first else FIRST_LAYER
            assert len(leaf.sorted_values) <= bound + LAYER_GROWTH * leaf.cursor
        assert leaf.cursor == n
        # repr tells -0.0 from 0.0, which == does not.
        assert list(map(repr, leaf.sorted_values)) == list(map(repr, values))
        assert leaf.permutation == permutation


def per_row_leaves(vectors):
    return [LeafSource(np.asarray(v, dtype=float)) for v in vectors]


def test_equal_length_input_converts_as_one_block(ma_loaded):
    vecs = as_float_vectors([[1, 2.5], [3.0, True]])
    assert isinstance(vecs, np.ndarray) and vecs.shape == (2, 2)
    assert vecs.tolist() == [[1.0, 2.5], [3.0, 1.0]]


def test_unmasked_masked_arrays_convert_as_one_block():
    vecs = as_float_vectors([np.ma.array([1.0, 2.5], mask=[False, False]),
                             np.ma.array([3.0, 4.0])])
    assert type(vecs) is np.ndarray and vecs.tolist() == [[1.0, 2.5], [3.0, 4.0]]


@pytest.mark.parametrize("engine", [tree_top_k, tensor_top_k, brute_force_top_k])
def test_masked_entries_named_before_an_earlier_fault(engine):
    # Masked entries are refused before any vector is converted, so the
    # masked vector is named although vector 0 is text.
    with pytest.raises(InputError, match="^vector 1 has masked entries$"):
        engine([["x"], np.ma.array([1.0], mask=[True])], 1)


EQUAL_LENGTH = {
    "deep": generate_instance(64, 64, 1),
    "short": generate_instance(7, 9, 2),
    "ties": [leaf_input("ties", 12, seed=d).tolist() for d in range(5)],
    "signed_zeros": [leaf_input("signed_zeros", 9, seed=d).tolist() for d in range(4)],
    "narrow": [[2, 0, 2, 1, 2, 0], [1, 1, 0, 1, 1, 1], [0, 2, 2, 2, 0, 2]],
    "single": [leaf_input("ties", 40, seed=7).tolist()],
    "long": generate_instance(2, FIRST_LAYER + 44, 4),
    "fortran_order": np.asfortranarray(generate_instance(6, 20, 5)),
}


@pytest.mark.parametrize("name", list(EQUAL_LENGTH))
def test_equal_length_engines_match_per_row_leaves(name, ma_loaded, monkeypatch):
    vectors = EQUAL_LENGTH[name]
    n = len(vectors[0])
    for k in (1, n, 4 * n + 3, 3000):
        tree = tree_top_k(vectors, k)
        reference = select(per_row_leaves(vectors), k)
        assert list(map(repr, tree.values)) == list(map(repr, reference.values))
        assert tree.index_tuples == reference.index_tuples
        assert tree.counters == reference.counters
    built = build_tree(vectors)
    reference = assemble_tree(per_row_leaves(vectors))
    for _ in range(3000):
        item = built.pop_next()
        assert repr(item) == repr(reference.pop_next())
        assert built.counters == reference.counters
        if item is None:
            break
    tensors = [tensor_top_k(vectors, k) for k in (1, n, 4 * n + 3)]
    monkeypatch.setattr(summit.tree, "leaf_sources", per_row_leaves)
    for k, tensor in zip((1, n, 4 * n + 3), tensors):
        reference = tensor_top_k(vectors, k)
        assert list(map(repr, tensor.values)) == list(map(repr, reference.values))
        assert tensor.index_tuples == reference.index_tuples
        assert tensor.counters == reference.counters


@pytest.mark.parametrize("engine", [tree_top_k, tensor_top_k, brute_force_top_k])
@pytest.mark.parametrize("vectors,message", [
    ([[1.0, 2.0], [3.0, 4.0], [5.0, math.nan]], "vector 2 contains a non-finite entry"),
    ([[1.0], ["2"]], "vector 1 is not a sequence of reals"),
    ([[1.0], [1 + 0j]], "vector 1 is not a sequence of reals"),
    ([[1.0], np.array(["2020-01-01"], dtype="datetime64[D]")],
     "vector 1 is not a sequence of reals"),
    ([[[1.0, 2.0]], [[3.0, 4.0]]], "vector 0 is not one-dimensional"),
    ([[1.0], [10**400]], "vector 1 contains a non-finite entry"),
    ([[], []], "vector 0 is empty"),
    (np.array([[1.0, 2.0], [math.inf, 3.0]]), "vector 1 contains a non-finite entry"),
    # np.asarray refuses the block, so each vector is converted on its own.
    ([[1.0, [2.0]], [3.0, 4.0]], "vector 0 is not a sequence of reals"),
], ids=["nan", "text", "complex", "date", "nested", "big_int", "empty", "ndarray", "inhomogeneous"])
def test_equal_length_input_errors_keep_their_vector(engine, vectors, message, ma_loaded):
    with pytest.raises(InputError, match=f"^{message}$"):
        engine(vectors, 1)


@pytest.mark.parametrize("vectors", [
    [[2**64, 0.5], [1.0, 2**70]],
    [[2**53 + 1, 0.5], [3, 2**63 - 1]],
    [[True, False], [False, True]],
    [[True, 2.5], [1, False]],
    np.array([[1.5, -2.0], [0.25, 3.0]]),
    np.array([[1, -2], [3, 4]], dtype=np.int8),
], ids=["big_ints", "int64", "bools", "mixed", "ndarray", "int8"])
def test_equal_length_input_converts_like_each_vector(vectors, ma_loaded):
    expected = [[float(x) for x in row] for row in vectors]
    assert [v.tolist() for v in as_float_vectors(vectors)] == expected
    for engine in (tree_top_k, tensor_top_k, brute_force_top_k):
        result = engine(vectors, 4)
        assert result.values == engine(expected, 4).values
        assert result.index_tuples == engine(expected, 4).index_tuples


# (m, n, seed) -> {(engine, k): (heap_pushes, heap_pops, peak_fringe_entries,
# peak_entry_bytes_estimate, heap_pushes - heap_pops)}, as first reported by the engines
# before the layered leaves and the heapq pair-node fringe. k runs over 1, n
# and every cell (2000 where the cells are more than 100,000).
PINNED_COUNTERS = {
    (1, 7, 1): {("tree", 1): (0, 0, 1, 16, 0), ("tensor", 1): (2, 1, 1, 16, 1),
                ("tree", 7): (0, 0, 1, 16, 0), ("tensor", 7): (7, 7, 1, 16, 0)},
    (1, 1000, 11): {("tree", 1): (0, 0, 1, 16, 0), ("tensor", 1): (2, 1, 1, 16, 1),
                    ("tree", 1000): (0, 0, 1, 16, 0),
                    ("tensor", 1000): (1000, 1000, 1, 16, 0)},
    (2, 6, 2): {("tree", 1): (3, 1, 2, 48, 2), ("tensor", 1): (3, 1, 2, 48, 2),
                ("tree", 6): (9, 6, 3, 72, 3), ("tensor", 6): (11, 6, 5, 120, 5),
                ("tree", 36): (36, 36, 5, 120, 0), ("tensor", 36): (36, 36, 7, 168, 0)},
    (2, 300, 12): {("tree", 1): (3, 1, 2, 48, 2), ("tensor", 1): (3, 1, 2, 48, 2),
                   ("tree", 300): (326, 300, 26, 624, 26),
                   ("tensor", 300): (339, 300, 39, 936, 39),
                   ("tree", 90000): (90000, 90000, 300, 7200, 0)},
    (3, 5, 3): {("tree", 1): (8, 3, 5, 120, 5), ("tensor", 1): (4, 1, 3, 96, 3),
                ("tree", 5): (16, 11, 5, 120, 5), ("tensor", 5): (14, 5, 9, 288, 9),
                ("tree", 125): (150, 150, 8, 192, 0),
                ("tensor", 125): (125, 125, 29, 928, 0)},
    (8, 3, 8): {("tree", 1): (34, 15, 19, 456, 19), ("tensor", 1): (9, 1, 8, 576, 8),
                ("tree", 3): (41, 21, 20, 480, 20), ("tensor", 3): (24, 3, 21, 1512, 21),
                ("tree", 6561): (6759, 6759, 83, 1992, 0),
                ("tensor", 6561): (6561, 6561, 1971, 141912, 0)},
    (64, 3, 64): {("tree", 1): (345, 173, 172, 4128, 172),
                  ("tensor", 1): (65, 1, 64, 33280, 64),
                  ("tree", 3): (362, 185, 177, 4248, 177),
                  ("tensor", 3): (192, 3, 189, 98280, 189),
                  ("tree", 2000): (3552, 2872, 680, 16320, 680)},
    # One-entry vectors: every inner node is drained while the tree is built,
    # so the peak comes before the build ends and must be sampled as each
    # node is built.
    (5, 1, 5): {("tree", 1): (4, 4, 2, 48, 0), ("tensor", 1): (1, 1, 1, 48, 0)},
    (8, 1, 8): {("tree", 1): (7, 7, 3, 72, 0), ("tensor", 1): (1, 1, 1, 72, 0)},
    (17, 1, 17): {("tree", 1): (16, 16, 4, 96, 0), ("tensor", 1): (1, 1, 1, 144, 0)},
}


def pinned_fields(c):
    return (c.heap_pushes, c.heap_pops, c.peak_fringe_entries,
            c.peak_entry_bytes_estimate, c.heap_pushes - c.heap_pops)


@pytest.mark.parametrize("m,n,seed", list(PINNED_COUNTERS))
def test_counters_pinned(m, n, seed):
    vectors = generate_instance(m, n, seed)
    for (engine, k), expected in PINNED_COUNTERS[(m, n, seed)].items():
        c = ENGINES[engine](vectors, k).counters
        assert pinned_fields(c) == expected, (engine, k)


def test_build_peak_pinned_on_mixed_lengths():
    # As with the one-entry vectors above, the tree's peak comes in its build.
    vectors = [[0.5], [0.25, 0.75], [1.0], [0.625], [0.875], [0.125]]
    assert pinned_fields(tree_top_k(vectors, 1).counters) == (8, 7, 3, 72, 1)
    assert pinned_fields(tensor_top_k(vectors, 1).counters) == (2, 1, 1, 56, 1)


def test_result_holders_compare_and_print_by_field():
    counters = InstrumentationCounters(1, 1, 1, 24)
    assert counters == InstrumentationCounters(heap_pushes=1, heap_pops=1,
                                               peak_fringe_entries=1, entry_bytes=24)
    assert counters != InstrumentationCounters(1, 1, 1, 16)
    assert counters != (1, 1, 1, 24)
    assert repr(counters) == ("InstrumentationCounters(heap_pushes=1, heap_pops=1, "
                              "peak_fringe_entries=1, entry_bytes=24)")
    result = tree_top_k([[1.0], [2.0]], 1)
    assert result == TopKResult([(3.0, (0, 0))], counters)
    assert result != TopKResult([], counters)
    assert repr(result) == ("TopKResult(items=[IndexedValue(value=3.0, indices=(0, 0))], "
                            f"counters={counters!r})")


@pytest.mark.parametrize("engine", [tree_top_k, tensor_top_k, brute_force_top_k])
@pytest.mark.parametrize("vectors,k", [
    ([[3.0, 1.0, 2.0], [4.0, 2.0]], 4),
    (generate_instance(3, 5, seed=1), 40),
    ([[float(x) for x in range(300)]], 5),  # a lone leaf root sorts ahead of k
    ([[1.0], [2.0]], 0),
])
def test_result_columns_agree_with_items(engine, vectors, k):
    result = engine(vectors, k)
    items = result.items
    assert all(type(item) is IndexedValue for item in items)
    assert result.values == [item.value for item in items]
    assert result.index_tuples == [item.indices for item in items]
    assert all(type(v) is float for v in result.values)
    assert all(type(i) is int for indices in result.index_tuples for i in indices)
    assert len(result.values) == min(k, math.prod(map(len, vectors)))
    rebuilt = TopKResult(items, result.counters)
    assert rebuilt == result
    assert repr(rebuilt) == repr(result)


@pytest.mark.parametrize("holder", [
    InstrumentationCounters(),
    TopKResult([], InstrumentationCounters()),
    build_tree([[1.0], [2.0]]),
    expand_element("C", 2),
], ids=lambda holder: type(holder).__name__)
def test_result_holders_take_no_new_attributes(holder):
    with pytest.raises(AttributeError):
        holder.extra = 1
