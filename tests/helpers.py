"""Shared checks used across the test modules."""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

from summit import LeafSource
from summit.cli import main


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def assert_values_match(actual, expected):
    assert len(actual) == len(expected), f"{len(actual)} values, expected {len(expected)}"
    for pos, (a, b) in enumerate(zip(actual, expected)):
        assert close(a, b), f"position {pos}: {a} vs {b}"


def assert_well_formed(vectors, result, k):
    """Contract shared by all engines: order, uniqueness, length, recomputation."""
    cells = math.prod(len(v) for v in vectors)
    assert len(result.items) == min(k, cells)
    values = result.values
    assert all(values[i] >= values[i + 1] or close(values[i], values[i + 1])
               for i in range(len(values) - 1))
    tuples = result.index_tuples
    assert len(set(tuples)) == len(tuples), "duplicate index tuple"
    for item in result.items:
        assert len(item.indices) == len(vectors)
        for d, i in enumerate(item.indices):
            assert 0 <= i < len(vectors[d])
        recomputed = sum(vectors[d][i] for d, i in enumerate(item.indices))
        assert close(item.value, recomputed), (item, recomputed)


def tree_depth(tree):
    """Pair nodes on the longest root-to-leaf path of a built tree."""
    def walk(node):
        if isinstance(node, LeafSource):
            return 0
        return 1 + max(walk(node.left), walk(node.right))

    return walk(tree.root)


def check_tree_laziness(tree):
    """Realized-per-child and fringe size never exceed pops-from-node + 1."""
    for node in tree.pair_nodes():
        assert len(node.realized_left) <= node.pops + 1
        assert len(node.realized_right) <= node.pops + 1
        assert len(node.fringe) <= node.pops + 1


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
    return code, out.getvalue(), err.getvalue()
