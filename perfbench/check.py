"""References and output checks.

A reference comes from an engine other than the one being timed: the oracle
when the cell count fits ORACLE_CELL_CAP, else the other heap engine. Where
that other engine is tensor and its frontier work (about k * m**2 key
additions) would take minutes, as at deep-sum's m=512, the reference is
instead built by truncated outer sums in numpy. A timed
output passes when its values are non-increasing, each value re-adds from its
index tuple (for peaks: from its isotope composition), and the values match
the reference as a multiset within REL_TOL.
"""

from __future__ import annotations

import math

import numpy as np
from summit import (
    ORACLE_CELL_CAP,
    brute_force_top_k,
    builtin_isotope_table,
    tensor_top_k,
    tree_top_k,
)
from summit.core import capacity

from workloads import Query, expanded_vectors

REL_TOL = 1e-9
TENSOR_REF_WORK = 2**25


def outer_sum_top_k(vectors, k: int) -> list[float]:
    """Top k of X1 + ... + Xm by folding in one vector at a time.

    Exact because a cell whose partial sum over the first vectors is not in
    the partial top k is beaten by k cells that share its remaining indices.
    """
    best = np.sort(np.asarray(vectors[0], dtype=float))[::-1][:k]
    for vec in vectors[1:]:
        sums = np.add.outer(best, np.asarray(vec, dtype=float)).ravel()
        best = np.sort(sums)[::-1][:k]
    return best.tolist()


def reference_values(query: Query) -> list[float]:
    """Reference top-k values, non-increasing, for one query."""
    vectors = query.vectors if query.vectors is not None else expanded_vectors(query.counts)
    if capacity(len(v) for v in vectors) <= ORACLE_CELL_CAP:
        return brute_force_top_k(vectors, query.k).values
    if query.kind == "tensor":
        return tree_top_k(vectors, query.k).values
    if query.k * len(vectors) ** 2 > TENSOR_REF_WORK:
        return outer_sum_top_k(vectors, query.k)
    return tensor_top_k(vectors, query.k).values


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _matches(values: list[float], ref: list[float]) -> bool:
    if len(values) != len(ref):
        return False
    if any(a < b for a, b in zip(values, values[1:])):
        return False
    # Both lists are non-increasing, so pairing them in order compares the
    # multisets; ties at the cut may pick different cells of equal value.
    return all(_close(a, b) for a, b in zip(values, ref))


def _log_multinomial(isotopes, composition) -> tuple[float, float]:
    """Log probability and mass of one element's isotope composition."""
    log_p = math.lgamma(sum(composition) + 1)
    mass = 0.0
    for iso, n in zip(isotopes, composition):
        log_p += n * math.log(iso.abundance) - math.lgamma(n + 1)
        mass += n * iso.mass
    return log_p, mass


def peaks_ok(query: Query, peaks, ref: list[float]) -> bool:
    table = builtin_isotope_table()
    for peak in peaks:
        if len(peak.configuration) != len(query.counts):
            return False
        log_p = mass = 0.0
        for (symbol, count), composition in zip(query.counts, peak.configuration):
            isotopes = table[symbol]
            if len(composition) != len(isotopes) or sum(composition) != count:
                return False
            lp, ms = _log_multinomial(isotopes, composition)
            log_p += lp
            mass += ms
        if not (_close(peak.log_abundance, log_p) and _close(peak.mass, mass)
                and _close(peak.abundance, math.exp(peak.log_abundance))):
            return False
    return _matches([p.log_abundance for p in peaks], ref)


def result_ok(query: Query, result, ref: list[float]) -> bool:
    vectors = query.vectors
    for item in result.items:
        if len(item.indices) != len(vectors):
            return False
        readd = sum(vec[i] for vec, i in zip(vectors, item.indices))
        if not _close(item.value, readd):
            return False
    return _matches(result.values, ref)


class Checker:
    """Checks every timed output against the query's reference.

    An output identical to one that already passed the full check for the
    same query passes without repeating it, which keeps checking cheap next
    to the call it follows.
    """

    def __init__(self, refs: dict[str, list[float]]):
        self._refs = refs
        self._passed: dict[str, object] = {}

    def __call__(self, query: Query, output) -> bool:
        if query.kind == "peaks":
            fingerprint = [(p.log_abundance, p.abundance, p.mass, p.configuration)
                           for p in output]
        else:
            fingerprint = (output.values, output.index_tuples)
        if self._passed.get(query.id) == fingerprint:
            return True
        ref = self._refs[query.id]
        try:
            ok = (peaks_ok if query.kind == "peaks" else result_ok)(query, output, ref)
        except (IndexError, TypeError, ValueError, KeyError):
            ok = False  # a malformed index tuple or composition is a wrong output
        if ok:
            self._passed[query.id] = fingerprint
        return ok
