"""Brute-force reference engine: materialize every sum, sort, truncate.

Deliberately unoptimized; its value is its obviousness. Every property test
in the suite treats this module as ground truth.
"""

from __future__ import annotations

from .core import (
    NUMBER_BYTES,
    InputError,
    InstrumentationCounters,
    SumOverflowError,
    TopKResult,
    as_float_vectors,
    capacity,
    normalize_k,
)

# The oracle is for desk-scale instances only.
ORACLE_CELL_CAP = 2_000_000


def brute_force_top_k(vectors, k: int) -> TopKResult:
    """Exact top-k of the Cartesian sum by full enumeration.

    Ties are ordered deterministically: value descending, then lexicographic
    index tuple, so oracle runs are reproducible. Counters report the
    materialized grid as peak occupancy (the oracle holds every cell live at
    once); no heaps are involved, so push/pop counts stay zero.
    """
    import numpy as np

    axes = as_float_vectors(vectors)
    cells = capacity(len(a) for a in axes)
    if cells > ORACLE_CELL_CAP:
        raise InputError(
            f"instance too large for oracle: {cells} cells exceed cap {ORACLE_CELL_CAP}"
        )
    want = normalize_k(k, cells)
    counters = InstrumentationCounters()
    if want == 0:
        return TopKResult([], counters)

    grid = axes[0]
    # Overflow is reported as SumOverflowError below, not as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for arr in axes[1:]:
            grid = np.add.outer(grid, arr)
    flat = grid.reshape(-1)
    if not np.isfinite(flat).all():
        raise SumOverflowError()

    # argsort of the negated grid is stable, so equal values keep C order,
    # i.e. lexicographic index tuples.
    order = np.argsort(-flat, kind="stable")[:want]
    positions = [axis.tolist() for axis in np.unravel_index(order, grid.shape)]
    columns = flat[order].tolist(), list(zip(*positions))
    counters.peak_fringe_entries = cells
    counters.entry_bytes = (1 + len(axes)) * NUMBER_BYTES
    return TopKResult((), counters, columns)
