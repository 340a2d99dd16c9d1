import itertools
import math
import random

import pytest

from summit import InputError, brute_force_top_k

from helpers import assert_well_formed


def test_example_with_deterministic_tie_order():
    result = brute_force_top_k([[3, 1], [4, 2]], 4)
    assert [(item.value, item.indices) for item in result.items] == [
        (7.0, (0, 0)),
        (5.0, (0, 1)),
        (5.0, (1, 0)),
        (3.0, (1, 1)),
    ]


def test_single_vector_is_a_sort():
    result = brute_force_top_k([[2, 9, 4]], 3)
    assert result.values == [9.0, 4.0, 2.0]
    assert result.index_tuples == [(1,), (2,), (0,)]


def test_k_clamped_to_cell_count():
    result = brute_force_top_k([[1, 2], [3]], 99)
    assert len(result.items) == 2


def test_k_zero_is_empty():
    assert brute_force_top_k([[1, 2]], 0).items == []


def test_cap_exceeded_is_explicit():
    vectors = [[0.0] * 200 for _ in range(3)]  # 8e6 cells
    with pytest.raises(InputError, match="too large for oracle"):
        brute_force_top_k(vectors, 1)


@pytest.mark.parametrize(
    "bad",
    [[], [[]], [[1.0], []], [[1.0, float("nan")]], [[float("inf")]]],
)
def test_domain_errors(bad):
    with pytest.raises(InputError):
        brute_force_top_k(bad, 1)


def test_matches_exhaustive_itertools_enumeration():
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
        result = brute_force_top_k(vectors, cells)
        assert result.values == pytest.approx(expected, rel=1e-9, abs=1e-9)
        assert_well_formed(vectors, result, cells)


def test_full_enumeration_covers_every_tuple():
    vectors = [[1, 2], [0, -1, 5], [3]]
    result = brute_force_top_k(vectors, 6)
    assert set(result.index_tuples) == {
        (i, j, 0) for i in range(2) for j in range(3)
    }


def test_counters_report_materialized_grid():
    result = brute_force_top_k([[1, 2], [3, 4]], 2)
    c = result.counters
    assert c.heap_pushes == 0 and c.heap_pops == 0
    assert c.peak_fringe_entries == 4
    assert c.peak_entry_bytes_estimate == 4 * 3 * 8
