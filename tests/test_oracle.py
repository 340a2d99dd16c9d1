import pytest

from summit import InputError, brute_force_top_k


def test_example_with_deterministic_tie_order():
    result = brute_force_top_k([[3, 1], [4, 2]], 4)
    assert [(item.value, item.indices) for item in result.items] == [
        (7.0, (0, 0)),
        (5.0, (0, 1)),
        (5.0, (1, 0)),
        (3.0, (1, 1)),
    ]


def test_cap_exceeded_is_explicit():
    # 8e6 cells, and 2**64 cells, which capacity() counts only up to 2**63:
    # the refusal names the cap, not a count.
    for vectors in ([[0.0] * 200] * 3, [[1.0, 2.0]] * 64):
        with pytest.raises(InputError,
                           match="^instance too large for oracle: more than 2000000 cells$"):
            brute_force_top_k(vectors, 1)


def test_counters_report_materialized_grid():
    result = brute_force_top_k([[1, 2], [3, 4]], 2)
    c = result.counters
    assert c.heap_pushes == 0 and c.heap_pops == 0
    assert c.peak_fringe_entries == 4
    assert c.peak_entry_bytes_estimate == 4 * 3 * 8
