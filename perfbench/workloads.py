"""Seeded inputs for the four benchmark workloads.

Each workload is a fixed cycle of queries that the closed loop replays in
order. A query names the public entry point it calls ("peaks" is
`top_peaks`, "tree" is `tree_top_k`, "tensor" is `tensor_top_k`) and carries
everything that call needs, so the timed region holds nothing but the call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from summit import expand_element, generate_instance

# The paper's fake compound. Ne800 alone expands to 321,201 entries.
FAKE_COMPOUND = (
    ("Cl", 800), ("V", 800), ("He", 800), ("C", 800), ("H", 800), ("N", 800),
    ("O", 100), ("S", 6), ("Cu", 800), ("Ga", 800), ("Ag", 800), ("Tl", 800),
    ("Ne", 800),
)
FAKE_TENSOR_REPEATS = 3  # tensor calls per cycle on the fake compound

# Averagine: the mean elemental composition of one peptide residue.
AVERAGINE = (("C", 4.9384), ("H", 7.7583), ("N", 1.3577), ("O", 1.4773), ("S", 0.0417))
PEPTIDES = 48
PEPTIDE_RESIDUES = (5, 120)
PEPTIDE_KS = (1, 36, 512)
PROPANE = (("C", 3), ("H", 8))

DEEP_SUM = ((64, 64, 64), (128, 128, 128), (256, 256, 256), (512, 16, 512))  # (m, n, k)
DEEP_SUM_TENSOR = (64, 64, 64)  # tensor takes ~1.6 s at m=256, so only the smallest
WIDE_SUM = ((2, 20000, 20000), (8, 4096, 4096))

# Query kinds behind latency_ref_s; "tensor" queries are reported apart, as
# tensor_latency_ref_s.
PRIMARY_KINDS = ("peaks", "tree")
ALL_KINDS = (*PRIMARY_KINDS, "tensor")


@dataclass
class Query:
    """One distinct input, called the same way every cycle."""

    id: str
    kind: str  # "peaks", "tree" or "tensor"
    k: int
    counts: tuple[tuple[str, int], ...] = ()  # element counts, for "peaks"
    formula: str = ""  # the same counts as text, built outside the timer
    vectors: list[list[float]] | None = None  # engine input, for "tree"/"tensor"


def expanded_vectors(counts) -> list[list[float]]:
    """The log-abundance vectors that `top_peaks` hands to its engine."""
    return [expand_element(symbol, count).log_abundances for symbol, count in counts]


def _formula_pair(qid: str, counts, k: int, kinds) -> list[Query]:
    """A `top_peaks` query and a tensor query on the same expansion."""
    queries = [
        Query(f"{qid}/peaks", "peaks", k, counts=tuple(counts),
              formula="".join(f"{symbol}{count}" for symbol, count in counts)),
    ]
    if "tensor" in kinds:
        queries.append(Query(f"{qid}/tensor", "tensor", k, vectors=expanded_vectors(counts)))
    return queries


def _peptides(seed: int) -> list[tuple[tuple[str, int], ...]]:
    """Averagine peptides with stratified lengths.

    Lengths are spread evenly over PEPTIDE_RESIDUES, jittered within their
    stratum, so the size mix (which sets the cost) is the same for every
    seed while the formulas differ. Atom counts are averagine times length,
    rounded up or down at random in proportion to the fraction.
    """
    rng = random.Random(f"peptide-mix:{seed}")
    lo, hi = PEPTIDE_RESIDUES
    out = []
    for i in range(PEPTIDES):
        residues = lo + int((hi - lo) * (i + rng.random()) / PEPTIDES)
        counts = []
        for symbol, per_residue in AVERAGINE:
            count = int(per_residue * residues + rng.random())
            if count:
                counts.append((symbol, count))
        out.append(tuple(counts))
    return out


def _instance(m: int, n: int, k: int, seed: int, kinds) -> list[Query]:
    vectors = generate_instance(m, n, seed)
    return [Query(f"m{m}n{n}k{k}/{kind}", kind, k, vectors=vectors)
            for kind in ("tree", "tensor") if kind in kinds]


def build_queries(workload: str, seed: int, kinds=ALL_KINDS) -> list[Query]:
    """The workload's query cycle, a pure function of (workload, seed).

    Only queries of the given kinds are built, and with them their inputs.
    """
    if workload == "fake-compound":
        # The formula is the paper's and does not depend on the seed. The
        # tensor call takes a fifth of the top_peaks call and, being mostly
        # numpy work on large arrays, spreads more against the reference
        # work, so it runs several times a cycle for more samples.
        peaks, *tensor = _formula_pair("fake", FAKE_COMPOUND, 512, kinds)
        return [peaks, *tensor * FAKE_TENSOR_REPEATS]
    if workload == "peptide-mix":
        queries = []
        for i, counts in enumerate(_peptides(seed)):
            queries += _formula_pair(f"pep{i:02d}", counts, PEPTIDE_KS[i % len(PEPTIDE_KS)],
                                     kinds)
        for k in PEPTIDE_KS:
            queries += _formula_pair(f"C3H8k{k}", PROPANE, k, kinds)
        return queries
    if workload == "deep-sum":
        queries = []
        for m, n, k in DEEP_SUM:
            here = kinds if (m, n, k) == DEEP_SUM_TENSOR else ("tree",)
            queries += _instance(m, n, k, seed, here)
        return queries
    if workload == "wide-sum":
        queries = []
        for m, n, k in WIDE_SUM:
            queries += _instance(m, n, k, seed, kinds)
        return queries
    raise ValueError(f"unknown workload {workload!r}")
