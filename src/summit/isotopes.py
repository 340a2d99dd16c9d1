"""Isotope peaks of a molecular formula via top-k selection.

A formula with m distinct elements becomes m vectors of log abundances, one
entry per way of distributing that element's atoms over its isotopes. The
most abundant molecular configurations are then exactly the top values of the
Cartesian sum of those vectors, and each winning index tuple maps back to an
isotope composition and a mass.

Everything runs in the natural-log domain so probabilities multiply by
addition; linear abundance is materialized only at output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .core import InputError, normalize_k
from .tree import tree_top_k

# Refuse naive expansion beyond this many configurations unless the caller
# opts into pruning.
EXPANSION_CAP = 10_000_000

_MAX_COUNT = 2**31 - 1


class FormulaError(InputError):
    """Unparseable formula text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Isotope:
    mass: float  # Da
    abundance: float  # linear probability in (0, 1]


class IsotopeTable:
    """Isotope lists keyed by element symbol, each sorted by ascending mass."""

    def __init__(self, elements: dict[str, list[Isotope]]):
        self._elements = elements

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._elements

    def __getitem__(self, symbol: str) -> list[Isotope]:
        try:
            return self._elements[symbol]
        except KeyError:
            raise InputError(f"element {symbol!r} not in isotope table") from None

    def symbols(self) -> list[str]:
        return sorted(self._elements)


def _build_table(
    rows: list[tuple[int, str, float, float]], source: str, renormalize: bool
) -> IsotopeTable:
    grouped: dict[str, list[tuple[int, Isotope]]] = {}
    for lineno, symbol, mass, abundance in rows:
        if mass <= 0:
            raise InputError(f"{source}:{lineno}: isotope mass must be positive")
        if not 0 < abundance <= 1:
            raise InputError(f"{source}:{lineno}: abundance must be in (0, 1]")
        bucket = grouped.setdefault(symbol, [])
        if any(iso.mass == mass for _, iso in bucket):
            raise InputError(f"{source}:{lineno}: duplicate isotope ({symbol}, {mass})")
        bucket.append((lineno, Isotope(mass, abundance)))

    elements: dict[str, list[Isotope]] = {}
    for symbol, bucket in grouped.items():
        isotopes = sorted((iso for _, iso in bucket), key=lambda iso: iso.mass)
        total = sum(iso.abundance for iso in isotopes)
        if abs(total - 1.0) > 1e-3:
            if not renormalize:
                raise InputError(
                    f"{source}: abundances for {symbol} sum to {total:.6f}, not 1"
                )
            isotopes = [Isotope(iso.mass, iso.abundance / total) for iso in isotopes]
        elements[symbol] = isotopes
    if not elements:
        raise InputError(f"{source}: no isotope rows found")
    return IsotopeTable(elements)


def _parse_tsv(text: str, source: str, renormalize: bool) -> IsotopeTable:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise InputError(
                f"{source}:{lineno}: expected element<TAB>mass_da<TAB>abundance"
            )
        symbol = fields[0].strip()
        try:
            mass = float(fields[1])
            abundance = float(fields[2])
        except ValueError:
            raise InputError(f"{source}:{lineno}: non-numeric mass or abundance") from None
        rows.append((lineno, symbol, mass, abundance))
    return _build_table(rows, source, renormalize)


def load_isotope_table(path: str | Path, renormalize: bool = False) -> IsotopeTable:
    """Load a TSV of `element<TAB>mass_da<TAB>abundance` rows.

    Blank lines and lines starting with '#' are ignored. Per element, the
    abundances must sum to 1 within 1e-3 unless renormalize is set.
    """
    path = Path(path)
    return _parse_tsv(path.read_text(encoding="utf-8"), str(path), renormalize)


@lru_cache(maxsize=1)
def builtin_isotope_table() -> IsotopeTable:
    """The table shipped with the package (H, C, N, O, S, Cl, V, He, Cu, Ga, Ag, Tl, Ne)."""
    text = resources.files("summit").joinpath("data/isotopes.tsv").read_text("utf-8")
    return _parse_tsv(text, "builtin isotopes.tsv", renormalize=False)


def parse_formula(text: str, table: IsotopeTable | None = None) -> list[tuple[str, int]]:
    """Parse `El` or `ElCount` runs into (symbol, count) pairs in appearance order.

    Grammar: (UppercaseLetter LowercaseLetter? Digits?)+ with no parentheses;
    a missing count means 1. Unknown elements, repeats, zero counts, and any
    character outside the grammar raise FormulaError with a byte offset.
    """
    if not text:
        raise FormulaError("empty formula", 0)
    tbl = builtin_isotope_table() if table is None else table
    out: list[tuple[str, int]] = []
    seen: set[str] = set()
    i, n = 0, len(text)
    while i < n:
        if not "A" <= text[i] <= "Z":
            raise FormulaError(f"expected an element symbol, found {text[i]!r}", i)
        start = i
        i += 1
        if i < n and "a" <= text[i] <= "z":
            i += 1
        symbol = text[start:i]
        if symbol not in tbl:
            raise FormulaError(f"unknown element {symbol!r}", start)
        if symbol in seen:
            raise FormulaError(f"repeated element {symbol!r}", start)
        seen.add(symbol)
        digits_start = i
        while i < n and "0" <= text[i] <= "9":
            i += 1
        count = 1
        if i > digits_start:
            count = int(text[digits_start:i])
            if count == 0:
                raise FormulaError("element count must be positive", digits_start)
            if count > _MAX_COUNT:
                raise FormulaError("element count exceeds 32-bit range", digits_start)
        out.append((symbol, count))
    return out


@dataclass
class IsotopologueVector:
    """All ways of distributing `count` atoms of one element over its isotopes.

    Parallel arrays: entry t has probability exp(log_abundances[t]), mass
    masses[t], and isotope counts compositions[t] (mass-ascending isotope
    order, summing to count).
    """

    symbol: str
    count: int
    log_abundances: list[float]
    masses: list[float]
    compositions: list[tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.log_abundances)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def expand_element(
    symbol: str,
    count: int,
    table: IsotopeTable | None = None,
    prune_delta: float | None = None,
    cap: int = EXPANSION_CAP,
) -> IsotopologueVector:
    """Multinomial expansion of one element: every composition gets a log
    probability (log-gamma multinomial coefficient plus per-isotope terms)
    and a mass.

    Generation is naive full enumeration. With prune_delta set, entries more
    than prune_delta below the best log abundance are dropped afterwards and
    the cap is waived (enumeration time is still proportional to the full
    count). Output order is unspecified; the selection engines sort anyway.
    """
    tbl = builtin_isotope_table() if table is None else table
    isotopes = tbl[symbol]
    if count < 1:
        raise InputError(f"atom count must be >= 1, got {count}")
    e = len(isotopes)
    n_configs = math.comb(count + e - 1, e - 1)
    if prune_delta is None and n_configs > cap:
        raise InputError(
            f"element {symbol} with {count} atoms expands to {n_configs} "
            f"configurations (cap {cap}); set prune_delta to proceed"
        )

    log_p = [math.log(iso.abundance) for iso in isotopes]
    iso_mass = [iso.mass for iso in isotopes]
    lg = [math.lgamma(t + 1) for t in range(count + 1)]  # lgamma memo, exact same values
    lg_total = lg[count]

    log_abundances: list[float] = []
    masses: list[float] = []
    compositions: list[tuple[int, ...]] = []
    for comp in _compositions(count, e):
        la = lg_total
        mass = 0.0
        for kj, lpj, mj in zip(comp, log_p, iso_mass):
            la += kj * lpj - lg[kj]
            mass += kj * mj
        log_abundances.append(la)
        masses.append(mass)
        compositions.append(comp)

    if prune_delta is not None:
        if prune_delta < 0:
            raise InputError(f"prune_delta must be >= 0, got {prune_delta}")
        floor = max(log_abundances) - prune_delta
        keep = [t for t, la in enumerate(log_abundances) if la >= floor]
        log_abundances = [log_abundances[t] for t in keep]
        masses = [masses[t] for t in keep]
        compositions = [compositions[t] for t in keep]

    return IsotopologueVector(symbol, count, log_abundances, masses, compositions)


@dataclass(frozen=True)
class Peak:
    """One isotope peak: mass, abundance, and the per-element composition."""

    mass: float
    abundance: float
    log_abundance: float
    configuration: tuple[tuple[int, ...], ...]


def peaks_from_items(expanded: list[IsotopologueVector], items) -> list[Peak]:
    """Map selection results (index tuples into the expanded vectors) to peaks."""
    peaks = []
    for item in items:
        mass = 0.0
        config = []
        for vec, t in zip(expanded, item.indices):
            mass += vec.masses[t]
            config.append(vec.compositions[t])
        peaks.append(
            Peak(
                mass=mass,
                abundance=math.exp(item.value),
                log_abundance=item.value,
                configuration=tuple(config),
            )
        )
    return peaks


def top_peaks(
    formula: str,
    k: int,
    table: IsotopeTable | None = None,
    prune_delta: float | None = None,
) -> list[Peak]:
    """The k most abundant isotope peaks of a molecular formula.

    One multinomial vector per distinct element, then the tree engine selects
    the top k log-abundance sums; k is clamped to the number of distinct
    configurations. Peaks come back in non-increasing abundance order.
    """
    if normalize_k(k, 1) < 1:
        raise InputError(f"k must be >= 1, got {k}")
    tbl = builtin_isotope_table() if table is None else table
    counts = parse_formula(formula, tbl)
    expanded = [
        expand_element(symbol, count, tbl, prune_delta) for symbol, count in counts
    ]
    result = tree_top_k([vec.log_abundances for vec in expanded], k)
    return peaks_from_items(expanded, result.items)
