import pytest

from summit import InputError, PairNode, generate_instance, tensor_top_k
from summit.core import InstrumentationCounters, select
from summit.tensor import tensor_select
from summit.tree import as_float_vectors, leaf_sources


def test_exact_traffic_on_distinct_value_grid():
    # 2x2 grid with distinct sums: the successor rule pushes each cell once.
    result = tensor_top_k([[10, 1], [5, 2]], 4)
    assert result.values == [15.0, 12.0, 6.0, 3.0]
    c = result.counters
    assert c.heap_pushes == 4
    assert c.heap_pops == 4
    assert c.peak_fringe_entries == 2


def test_push_bound_m_k_plus_one():
    # One long vector serves exactly pops + 1 entries, the bound below.
    cases = [(2, 6, 9, 1), (3, 4, 20, 2), (5, 3, 40, 3), (1, 600, 301, 4), (4, 40, 30, 5)]
    for m, n, k, seed in cases:
        sources = leaf_sources(as_float_vectors(generate_instance(m, n, seed)))
        result = tensor_select(sources, k)
        assert result.counters.heap_pushes <= m * k + 1
        # No source serves more than pops + 1 entries, so no coordinate
        # exceeds k and cell numbers in radix k + 1 cannot collide.
        assert all(len(source.indices) <= len(result.values) + 1 for source in sources)


@pytest.mark.parametrize("engine", [tensor_select, select])
def test_no_sources(engine):
    # Both heap engines refuse an empty source list, unless k=0 asks for nothing.
    assert engine([], 0).values == []
    with pytest.raises(InputError, match="need at least one source"):
        engine([], 3)


@pytest.mark.parametrize("pair_first", [True, False])
def test_sources_must_serve_one_entry_index_tuples(pair_first):
    # A pair node serves two-entry index tuples; the tensor raises InputError
    # before its first pop, instead of failing in the loop or joining wrong indices.
    first, second, third = leaf_sources(as_float_vectors([[3, 1], [2, 0], [5, 4]]))
    pair = PairNode(first, second, InstrumentationCounters())
    sources = [pair, third] if pair_first else [third, pair]
    with pytest.raises(InputError, match="one-entry index tuples"):
        tensor_select(sources, 3)


class Empty:
    """A source whose first extend() serves nothing."""

    def __init__(self):
        self.values, self.indices = [], []

    def extend(self):
        return False


@pytest.mark.parametrize("beside", [False, True], ids=["alone", "beside-a-leaf"])
@pytest.mark.parametrize("engine", [tensor_select, select])
def test_a_source_that_serves_nothing(engine, beside):
    # A named error from either engine, alone or beside a leaf (under a pair
    # node, for select), not an IndexError or an empty result.
    sources = leaf_sources(as_float_vectors([[3, 1]])) if beside else []
    sources.append(Empty())
    with pytest.raises(InputError, match="serves no entries"):
        engine(sources, 2)
