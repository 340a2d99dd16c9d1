"""End-to-end acceptance checks, one test per numbered criterion.

Each test exercises its criterion at the stated tolerance and runtime budget
and prints one pass line (visible with `pytest -s`); a failed assertion is
the corresponding fail line.
"""

import math
import random
import time

import pytest

from summit import (
    brute_force_top_k,
    build_tree,
    expand_element,
    generate_instance,
    measure,
    parse_formula,
    run_bench,
    tensor_top_k,
    tree_top_k,
    top_peaks,
)

from helpers import (
    FAKE_COMPOUND,
    assert_values_match,
    assert_well_formed,
    check_tree_laziness,
    pair_nodes,
    run_cli,
)

ENGINES = (("tensor", tensor_top_k), ("tree", tree_top_k))


def _report(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def _instance_pool():
    """1000+ deterministic random instances spanning m in 1..6, n_d in 1..6.

    Products are capped at 720 cells (plus two larger stress shapes) so the
    exhaustive sweep stays inside the runtime budget; every m and every
    dimension length still appears.
    """
    rnd = random.Random(0x5EED)
    shapes = []
    for m in range(1, 7):
        shapes.append(tuple([6, 6, 6, 1, 1, 1][:m]))
        shapes.append((2,) * m)
    shapes.append((4, 4, 4, 4, 4))
    shapes.append((4,) * 6)
    while len(shapes) < 1002:
        m = rnd.randint(1, 6)
        dims = tuple(rnd.randint(1, 6) for _ in range(m))
        if math.prod(dims) > 720:
            continue
        shapes.append(dims)
    instances = []
    for t, dims in enumerate(shapes):
        if t % 5 == 0:
            # integer-valued vectors force duplicate sums, exercising ties
            vectors = [[float(rnd.randint(-8, 8)) for _ in range(n)] for n in dims]
        else:
            vectors = [[rnd.uniform(-10.0, 10.0) for _ in range(n)] for n in dims]
        instances.append(vectors)
    return instances


def test_c1_oracle_equivalence():
    start = time.perf_counter()
    pool = _instance_pool()
    assert len(pool) >= 1000
    exhaustive = 0
    for vectors in pool:
        cells = math.prod(len(v) for v in vectors)
        expected = brute_force_top_k(vectors, cells)
        full = {}
        for name, engine in ENGINES:
            result = engine(vectors, cells)
            assert_values_match(result.values, expected.values)
            assert_well_formed(vectors, result, cells)
            full[name] = result
        # Engines are deterministic iterators: a k-run is literally the
        # prefix of the full run, so the full-sequence match covers every k.
        # Verify that prefix property directly, exhaustively when cheap.
        if cells <= 24:
            exhaustive += 1
            ks = range(cells + 1)
        else:
            ks = (0, 1, cells // 2)
        for k in ks:
            for name, engine in ENGINES:
                result = engine(vectors, k)
                assert result.items == full[name].items[:k]
                assert_values_match(result.values, expected.values[:k])
    assert exhaustive >= 200
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    _report(1, "oracle equivalence over 1000+ instances, all k")


def test_c2_tree_laziness():
    rnd = random.Random(0x1A2B)
    nodes_checked = 0
    for _ in range(60):
        m = rnd.randint(2, 6)
        dims = [rnd.randint(1, 5) for _ in range(m)]
        vectors = [[rnd.uniform(-5.0, 5.0) for _ in range(n)] for n in dims]
        tree = build_tree(vectors)
        check_tree_laziness(tree)
        while True:
            item = tree.pop_next()
            check_tree_laziness(tree)
            if item is None:
                break
        nodes = list(pair_nodes(tree))
        nodes_checked += len(nodes)
        # counter exactness: every fringe pop is exactly one node pop
        assert tree.counters.heap_pops == sum(node.pops for node in nodes)
        assert tree.counters.peak_fringe_entries <= 2 * tree.counters.heap_pops + m
    assert nodes_checked > 100
    _report(2, "laziness: each child realized exactly what its node references")


def test_c3_isotope_correctness():
    start = time.perf_counter()
    code, out, _ = run_cli(["isotopes", "--formula", "C3H8", "--k", "36"])
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert len(rows) == 36
    total = sum(float(row[2]) for row in rows)
    assert abs(total - 1.0) <= 1e-6
    top = top_peaks("C3H8", 1)[0]
    expected = 0.9892**3 * 0.9999**8
    assert abs(top.abundance - expected) <= 1e-12 * expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 3 took {elapsed:.2f}s"
    _report(3, "C3H8 normalization and top-1 abundance")


def test_c4_fake_compound_engines():
    start = time.perf_counter()
    counts = parse_formula(FAKE_COMPOUND)
    expanded = [expand_element(symbol, count) for symbol, count in counts]
    vectors = [vec.log_abundances for vec in expanded]
    # One untimed warmup per engine, then interleaved min-of-5, so cache
    # warmth cannot bias whichever engine happens to run first.
    results = {}
    walls = {"tree": float("inf"), "tensor": float("inf")}
    for name, engine in (("tree", tree_top_k), ("tensor", tensor_top_k)):
        results[name] = engine(vectors, 512)
    for _ in range(5):
        for name, engine in (("tree", tree_top_k), ("tensor", tensor_top_k)):
            _, wall = measure(engine, vectors, 512)
            walls[name] = min(walls[name], wall)
    assert len(results["tree"].items) == 512
    assert len(results["tensor"].items) == 512
    # both sequences are sorted non-increasing, so element-wise comparison
    # is the multiset comparison
    assert_values_match(results["tree"].values, results["tensor"].values)
    assert walls["tree"] <= walls["tensor"], walls
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"criterion 4 took {elapsed:.1f}s"
    _report(4, "fake compound k=512: engines agree, tree not slower")


def test_c5_memory_trend():
    start = time.perf_counter()
    sizes = (64, 128, 256)
    rows = run_bench(sizes, ["tensor", "tree"], seed=2024)
    by = {(r["m"], r["method"]): r for r in rows}
    ratios = [
        by[(m, "tensor")]["peak_fringe_entries"] / by[(m, "tree")]["peak_fringe_entries"]
        for m in sizes
    ]
    assert ratios[0] < ratios[1] < ratios[2], ratios
    # tree memory stays O(m*k): fit the constant at the smallest size with
    # 1.5x headroom and hold the larger sizes to it
    fitted_c = 1.5 * by[(64, "tree")]["peak_entry_bytes_estimate"] / (64 * 64)
    for m in (128, 256):
        bytes_est = by[(m, "tree")]["peak_entry_bytes_estimate"]
        assert bytes_est <= fitted_c * m * m, (m, bytes_est, fitted_c)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 5 took {elapsed:.1f}s"
    _report(5, "peak fringe ratio grows with m; tree bytes stay O(m*k)")


def test_c6_tensor_fringe_growth():
    start = time.perf_counter()
    peaks = []
    for m in (2, 3, 4):
        vectors = generate_instance(m, 8, seed=7)
        result = tensor_top_k(vectors, 8**m // 2)
        peaks.append(result.counters.peak_fringe_entries)
    assert peaks[1] >= 4 * peaks[0], peaks
    assert peaks[2] >= 4 * peaks[1], peaks
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 6 took {elapsed:.1f}s"
    _report(6, "tensor fringe grows >= 4x per added dimension")


def test_c7_cli_contract(tmp_path):
    start = time.perf_counter()

    # --- topk ---
    pair = tmp_path / "pair.txt"
    pair.write_text("3,1\n4,2\n")
    code, out, _ = run_cli(["topk", "--input", str(pair), "--k", "3", "--method", "tree"])
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert [row[0] for row in rows] == ["1", "2", "3"]
    assert float(rows[0][1]) == 7.0 and rows[0][2] == "0,0"
    assert [float(row[1]) for row in rows[1:]] == [5.0, 5.0]
    assert {rows[1][2], rows[2][2]} == {"0,1", "1,0"}

    code, out, _ = run_cli(["topk", "--input", str(pair), "--k", "1"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 and float(lines[0].split("\t")[1]) == 7.0

    bad = tmp_path / "bad.txt"
    bad.write_text("3,,1\n")
    code, _, err = run_cli(["topk", "--input", str(bad), "--k", "1"])
    assert code == 3 and err != ""

    # --- isotopes ---
    code, out, _ = run_cli(["isotopes", "--formula", "C3H8", "--k", "1"])
    assert code == 0
    abundance = float(out.splitlines()[0].split("\t")[2])
    assert abs(abundance - 0.9892**3 * 0.9999**8) <= 1e-11

    code, _, err = run_cli(["isotopes", "--formula", "C3W8", "--k", "1"])
    assert code == 3 and "offset" in err

    code, out, _ = run_cli(["isotopes", "--formula", FAKE_COMPOUND, "--k", "512"])
    assert code == 0
    assert len(out.splitlines()) == 512

    # --- bench ---
    code, out, _ = run_cli(["bench", "--sizes", "8", "--methods", "tree,tensor"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert all(line.split(",")[:3] == ["8", "8", "8"] for line in lines[1:])

    def strip_wall(text):
        return [row.split(",")[:4] + row.split(",")[5:] for row in text.splitlines()]

    seed_args = ["bench", "--sizes", "6", "--methods", "tree,tensor", "--seed", "3"]
    assert strip_wall(run_cli(seed_args)[1]) == strip_wall(run_cli(seed_args)[1])

    code, out, _ = run_cli(["bench", "--sizes", "64,128,256", "--methods", "tree,tensor"])
    assert code == 0
    fringe = {}
    for line in out.splitlines()[1:]:
        fields = line.split(",")
        fringe[(int(fields[0]), fields[3])] = int(fields[7])
    ratios = [fringe[(m, "tensor")] / fringe[(m, "tree")] for m in (64, 128, 256)]
    assert ratios[0] < ratios[1] < ratios[2], ratios

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 7 took {elapsed:.1f}s"
    _report(7, "CLI contract: outputs and exit codes")
