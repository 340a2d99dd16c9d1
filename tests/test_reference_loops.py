"""Both heap engines against their earlier pop loops, kept here as references.

The engines now peek at the fringe's top and replace it with the first
successor. The tensor keys its visited set on integer cell numbers and tests
it before it reads a successor's position or extends a source, sums each new
successor from the popped cell's row of values, pushes entries that share the
popped cell's position tuple, and joins all index tuples once, after the
walk. The arithmetic is unchanged, so values (compared by ``float.hex``),
index tuples and every counter must equal those of the loops below, which pop
first, join each pop's index tuple as it pops, build successors from slices,
grow a leaf before the visited test, test a visited set of position tuples
with ``in`` before adding and sum each key from the sorted vectors. The tensor
must also extend each source exactly as far as the reference pushes along its
axis. The inputs are small integers, so ties are everywhere and any change in
tie order shows.
"""

import math
import random
from heapq import heappop, heappush
from math import isfinite
from operator import getitem

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from summit import (
    InstrumentationCounters,
    PairNode,
    SumOverflowError,
    TopKResult,
    expand_element,
    generate_instance,
    parse_formula,
    tensor_top_k,
    top_peaks,
    tree_top_k,
)
from summit.core import NUMBER_BYTES, capacity, normalize_k
from summit.tensor import tensor_select
from summit.tree import as_float_vectors, leaf_sources

from helpers import FAKE_COMPOUND

MAX_CELLS = 3000
MAX_LENGTH = 300  # past FIRST_LAYER, so a lone vector's leaf grows a layer


def reference_tensor_top_k(vectors, k: int) -> tuple[TopKResult, list[int]]:
    """The tensor engine's loop as it was: heappop first, successors from
    slices, then ``in`` before ``add``. Also returns the highest coordinate
    pushed on each axis, -1 where nothing was."""
    axes = as_float_vectors(vectors)
    want = normalize_k(k, capacity(len(a) for a in axes))
    m = len(axes)
    if want == 0:
        return TopKResult([], InstrumentationCounters()), [-1] * m
    leaves = leaf_sources(axes)
    sorted_axes = [leaf.values for leaf in leaves]
    perms = [leaf.permutation for leaf in leaves]
    origin = (0,) * m
    key = sum((axis[0] for axis in sorted_axes), -0.0)
    if not isfinite(key):
        raise SumOverflowError()
    fringe = [(-key, 1, origin)]
    visited = {origin}
    reach = [0] * m
    peak = 1
    values, index_tuples = [], []
    while len(values) < want:
        neg_key, _, pos = heappop(fringe)
        values.append(-neg_key)
        index_tuples.append(tuple(map(getitem, perms, pos)))
        for d in range(m):
            nxt = pos[d] + 1
            if nxt == len(sorted_axes[d]) and not leaves[d].grow():
                continue
            succ = pos[:d] + (nxt,) + pos[d + 1 :]
            if succ in visited:
                continue
            visited.add(succ)
            key = sum(map(getitem, sorted_axes, succ), -0.0)
            if not isfinite(key):
                raise SumOverflowError()
            heappush(fringe, (-key, len(visited), succ))
            reach[d] = max(reach[d], nxt)
        if len(fringe) > peak:
            peak = len(fringe)
    counters = InstrumentationCounters(len(visited), want, peak, (1 + m) * NUMBER_BYTES)
    return TopKResult((), counters, (values, index_tuples)), reach


def reference_extend(self) -> bool:
    """``PairNode.extend`` as it was: heappop first, then one heappush per
    successor."""
    fringe = self.fringe
    if not fringe:
        return False
    neg_key, _, i, j = heappop(fringe)
    c = self._counters
    c.heap_pops += 1
    left, right = self.left, self.right
    li, ri = left.indices, right.indices
    self.values.append(-neg_key)
    self.indices.append(li[i] + ri[j])
    lv, rv = left.values, right.values
    i += 1
    if i < len(li) or left.extend():
        key = lv[i] + rv[j]
        if not isfinite(key):
            raise SumOverflowError()
        c.heap_pushes += 1
        heappush(fringe, (-key, c.heap_pushes, i, j))
    if i == 1:
        j += 1
        if j < len(ri) or right.extend():
            key = lv[0] + rv[j]
            if not isfinite(key):
                raise SumOverflowError()
            c.heap_pushes += 1
            heappush(fringe, (-key, c.heap_pushes, 0, j))
    live = c.heap_pushes - c.heap_pops
    if live > c.peak_fringe_entries:
        c.peak_fringe_entries = live
    return True


def reference_tree_top_k(vectors, k: int) -> TopKResult:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PairNode, "extend", reference_extend)
        return tree_top_k(vectors, k)


def assert_same_run(result, reference):
    assert [v.hex() for v in result.values] == [v.hex() for v in reference.values]
    assert result.index_tuples == reference.index_tuples
    assert result.counters == reference.counters


@st.composite
def tied_instances(draw):
    """m from 1 to 6 vectors of small integers, equal-length or ragged, and
    k up to the cell count + 2."""
    m = draw(st.integers(1, 6))
    longest = min(MAX_LENGTH, int(MAX_CELLS ** (1 / m)))
    if draw(st.booleans()):
        sizes = [draw(st.integers(1, longest))] * m
    else:
        sizes = draw(st.lists(st.integers(1, longest), min_size=m, max_size=m))
    values = st.integers(-3, 3)
    vectors = [draw(st.lists(values, min_size=n, max_size=n)) for n in sizes]
    k = draw(st.integers(0, math.prod(sizes) + 2))
    return vectors, k


def small_ints(seed, *sizes):
    rng = random.Random(seed)
    return [[rng.randint(-3, 3) for _ in range(n)] for n in sizes]


def assert_same_walk(vectors, k):
    """tensor_top_k runs as the reference loop does, and tensor_select, given
    k unclamped, stops with the same run when the fringe runs dry and leaves
    each leaf served to exactly 1 + the highest coordinate pushed on its axis."""
    reference, reach = reference_tensor_top_k(vectors, k)
    assert_same_run(tensor_top_k(vectors, k), reference)
    leaves = leaf_sources(as_float_vectors(vectors))
    assert_same_run(tensor_select(leaves, k), reference)
    assert [len(leaf.indices) for leaf in leaves] == [r + 1 for r in reach]


@settings(max_examples=150)
@given(tied_instances())
# Shapes that tied_instances rarely or never draws: a long axis that grows
# past FIRST_LAYER, a block whose rows grow past BLOCK_LAYER, and cell
# numbers past 2**63. Then the join's edge cases: k=1, where a gather over
# one position returns a bare int, at m=1, m=3 and on a vector past
# FIRST_LAYER, and a k past the cell count, where the fringe runs dry.
@example((small_ints(1, 600, 2, 3), 1500))
@example((small_ints(2, 40, 40, 40), 500))
@example((small_ints(3, *[2] * 70), 300))
@example((small_ints(4, 5), 1))
@example((small_ints(5, 3, 4, 2), 1))
@example((small_ints(6, 3, 2), 9))
@example((small_ints(7, 600), 1))
def test_tensor_matches_its_reference_loop(case):
    assert_same_walk(*case)


def fake_compound_expansion():
    counts = parse_formula(FAKE_COMPOUND)
    return [expand_element(symbol, n).log_abundances for symbol, n in counts]


# tied_instances draws m <= 6; these run the pop loop at m=64 and on the fake
# compound's ragged expansion (m=13, up to 321,201 entries per vector).
@pytest.mark.parametrize("build, k", [(lambda: generate_instance(64, 64, 1), 64),
                                      (fake_compound_expansion, 512)],
                         ids=["m=n=k=64", "fake-compound"])
def test_tensor_matches_its_reference_loop_at_large_m(build, k):
    assert_same_walk(build(), k)


@settings(max_examples=150)
@given(tied_instances())
def test_pair_node_matches_its_reference_loop(case):
    vectors, k = case
    assert_same_run(tree_top_k(vectors, k), reference_tree_top_k(vectors, k))


def test_element_trees_match_the_reference_loop():
    # Pair nodes over element sources, as top_peaks builds them.
    formula = "C254H377N65O75S6"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PairNode, "extend", reference_extend)
        reference = top_peaks(formula, 512)
    assert repr(top_peaks(formula, 512)) == repr(reference)
