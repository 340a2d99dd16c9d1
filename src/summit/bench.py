"""Deterministic instance generation and instrumented timing for the engines."""

from __future__ import annotations

import time
from typing import Callable, Sequence

from .core import InputError, TopKResult, require_int
from .oracle import brute_force_top_k
from .tensor import tensor_top_k
from .tree import tree_top_k

ENGINES: dict[str, Callable[..., TopKResult]] = {
    "tree": tree_top_k,
    "tensor": tensor_top_k,
    "oracle": brute_force_top_k,
}

_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """splitmix64 finalizer; the whole instance generator reduces to this.

    A fixed, documented mix function keeps instances bit-reproducible across
    platforms and implementations, unlike an ambient RNG.
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def generate_instance(m: int, n: int, seed: int) -> list[list[float]]:
    """m vectors of n values in the open interval (0, 1).

    Pure function of (m, n, seed): value (i, j) is mix64 chained over the
    arguments, mapped to ((h >> 11) + 0.5) * 2**-53.
    """
    m, n, seed = require_int(m, "m"), require_int(n, "n"), require_int(seed, "seed")
    if m < 1 or n < 1:
        raise InputError(f"instance shape must be at least 1x1, got {m}x{n}")
    base = mix64(mix64(mix64(seed & _MASK64) ^ m) ^ n)
    vectors = []
    for i in range(m):
        row_state = mix64(base ^ i)
        vectors.append(
            [((mix64(row_state ^ j) >> 11) + 0.5) * 2.0**-53 for j in range(n)]
        )
    return vectors


def measure(engine: Callable[..., TopKResult], vectors, k: int) -> tuple[TopKResult, float]:
    """Run engine(vectors, k) once; returns the result and its wall time.

    Only the engine call is timed; instance generation and any preprocessing
    done by the caller stay outside the clock.
    """
    start = time.perf_counter()
    result = engine(vectors, k)
    return result, time.perf_counter() - start


def run_bench(sizes: Sequence[int], methods: Sequence[str], seed: int) -> list[dict]:
    """One row per (size, method): m vectors of length m, top m values.

    Counter columns are exact and deterministic for a fixed seed; only
    wall_seconds varies between runs. Each engine is called once untimed on
    the instance before the timed call, so one-off costs of a first call
    stay out of the row.
    """
    for name in methods:
        if name not in ENGINES:
            raise KeyError(f"unknown method {name!r}")
    rows = []
    for m in sizes:
        vectors = generate_instance(m, m, seed)
        for name in methods:
            engine = ENGINES[name]
            engine(vectors, m)
            result, wall = measure(engine, vectors, m)
            c = result.counters
            rows.append(
                {
                    "m": m,
                    "n": m,
                    "k": m,
                    "method": name,
                    "wall_seconds": wall,
                    "heap_pushes": c.heap_pushes,
                    "heap_pops": c.heap_pops,
                    "peak_fringe_entries": c.peak_fringe_entries,
                    "peak_entry_bytes_estimate": c.peak_entry_bytes_estimate,
                }
            )
    return rows
