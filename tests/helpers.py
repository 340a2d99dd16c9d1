"""Shared checks used across the test modules."""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

from summit import PairNode
from summit.cli import main

# The paper's fake compound: 13 elements, twelve of them at 800 atoms.
FAKE_COMPOUND = "Cl800V800He800C800H800N800O100S6Cu800Ga800Ag800Tl800Ne800"


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
        if not isinstance(node, PairNode):
            return 0
        return 1 + max(walk(node.left), walk(node.right))

    return walk(tree.root)


def pair_nodes(tree):
    """The pair nodes of a built tree, root first."""
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if isinstance(node, PairNode):
            yield node
            stack.append(node.left)
            stack.append(node.right)


def check_tree_laziness(tree):
    """Every pair node has asked each child for exactly the entries its cells
    need, and its fringe holds at most pops-from-node + 1 entries.

    A child's realized count must equal 1 + the largest position of that
    child referenced by the node's popped cells and its fringe cells. Popped
    cells are recovered from the node's index tuples, whose left and right
    parts are distinct within their child, so an eager child shows even
    when it stays within pops + 1.
    """
    for node in pair_nodes(tree):
        left, right = node.realized_left, node.realized_right
        split = len(left[0])
        assert len(left) == 1 + _largest_position(
            left, [i for _, _, i, _ in node.fringe], (t[:split] for t in node.indices))
        assert len(right) == 1 + _largest_position(
            right, [j for _, _, _, j in node.fringe], (t[split:] for t in node.indices))
        assert len(node.fringe) <= node.pops + 1


def _largest_position(realized, fringe_positions, popped_parts):
    """The largest position in realized that the given fringe positions and
    popped index tuple parts reference. The popped parts are looked up only
    when the fringe does not already reach the last realized entry."""
    largest = max(fringe_positions, default=-1)
    if largest >= len(realized) - 1:
        return largest
    at = dict(zip(realized, range(len(realized))))
    return max([largest, *map(at.__getitem__, popped_parts)])


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
    return code, out.getvalue(), err.getvalue()
