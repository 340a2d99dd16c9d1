import math
import time

import pytest

from summit import (
    ENGINES,
    InputError,
    brute_force_top_k,
    generate_instance,
    measure,
    mix64,
    run_bench,
    tensor_top_k,
    tree_top_k,
)

from helpers import assert_values_match


def test_mix64_reference_vector():
    # splitmix64's published first output for state 0.
    assert mix64(0) == 0xE220A8397B1DCDAF


def test_generate_instance_deterministic():
    assert generate_instance(3, 4, seed=42) == generate_instance(3, 4, seed=42)


def test_generate_instance_shape_and_range():
    vectors = generate_instance(2, 3, seed=9)
    assert len(vectors) == 2
    assert all(len(v) == 3 for v in vectors)
    assert all(0.0 < x < 1.0 and math.isfinite(x) for v in vectors for x in v)


def test_different_seeds_differ():
    a = generate_instance(4, 4, seed=1)
    b = generate_instance(4, 4, seed=2)
    assert sorted(x for v in a for x in v) != sorted(x for v in b for x in v)


def test_shape_dependence():
    # (m, n) feed the mix, so instances of different shapes do not share values.
    a = generate_instance(2, 4, seed=5)
    b = generate_instance(4, 2, seed=5)
    assert {x for v in a for x in v} != {x for v in b for x in v}


def test_invalid_shape_rejected():
    with pytest.raises(InputError):
        generate_instance(0, 3, seed=1)
    for args in [(2.5, 3, 1), (2, 3.0, 1), (2, 3, 1.5), (True, 3, 1), (2, True, 1), (2, 3, False)]:
        with pytest.raises(InputError, match="must be an integer"):
            generate_instance(*args)


def test_measure_oracle_identity():
    vectors = generate_instance(2, 3, seed=3)
    result, wall = measure(brute_force_top_k, vectors, 5)
    direct = brute_force_top_k(vectors, 5)
    assert result.values == direct.values
    assert result.index_tuples == direct.index_tuples
    assert wall > 0.0


def test_engines_match_at_bench_scale():
    vectors = generate_instance(64, 64, seed=17)
    a, _ = measure(tensor_top_k, vectors, 64)
    b, _ = measure(tree_top_k, vectors, 64)
    assert_values_match(a.values, b.values)


def test_run_bench_rows():
    rows = run_bench([4, 8], ["tree", "tensor"], seed=11)
    assert len(rows) == 4
    assert [(r["m"], r["n"], r["k"]) for r in rows] == [(4, 4, 4), (4, 4, 4), (8, 8, 8), (8, 8, 8)]
    assert {r["method"] for r in rows} == {"tree", "tensor"}
    for r in rows:
        assert r["wall_seconds"] > 0
        assert r["heap_pops"] <= r["heap_pushes"]
        assert r["peak_fringe_entries"] >= 1


def test_run_bench_deterministic_except_wall():
    def strip(rows):
        return [{k: v for k, v in r.items() if k != "wall_seconds"} for r in rows]

    a = run_bench([6], ["tree", "tensor"], seed=7)
    b = run_bench([6], ["tree", "tensor"], seed=7)
    assert strip(a) == strip(b)


def test_run_bench_times_a_warm_call(monkeypatch):
    # A first call that pays a one-off cost is made untimed; the row times
    # the second call on the same instance.
    calls = []

    def cold_start(vectors, k):
        if not calls:
            time.sleep(0.5)
        calls.append(vectors)
        return tree_top_k(vectors, k)

    monkeypatch.setitem(ENGINES, "cold_start", cold_start)
    [row] = run_bench([4], ["cold_start"], seed=3)
    assert row["wall_seconds"] < 0.25
    assert len(calls) == 2 and calls[0] is calls[1]


def test_run_bench_unknown_method():
    with pytest.raises(KeyError):
        run_bench([4], ["quantum"], seed=1)


def test_engine_registry():
    assert set(ENGINES) == {"tree", "tensor", "oracle"}
