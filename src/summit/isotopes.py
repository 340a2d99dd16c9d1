"""Isotope peaks of a molecular formula via top-k selection.

A formula with m distinct elements becomes m ordered sources of log
abundances, one entry per way of distributing that element's atoms over its
isotopes. The most abundant molecular configurations are then exactly the top
values of the Cartesian sum of those sources, and each winning index tuple
maps back to an isotope composition and a mass. Each source walks out from
its element's multinomial mode, so only the compositions the top k reach are
ever computed; `expand_element` enumerates them all and is the reference.

Everything runs in the natural-log domain so probabilities multiply by
addition; linear abundance is materialized only at output.
"""

from __future__ import annotations

import heapq
import math
import re
from functools import lru_cache
from importlib import resources
from itertools import repeat
from operator import add
from pathlib import Path
from typing import NamedTuple

from .core import InputError, data_lines, gc_paused, require_int
from .tree import select
from .tree import tree_top_k  # noqa: F401  (perfbench/tracing.py rebinds this name)

# Refuse naive expansion beyond this many configurations. ElementSource never
# enumerates, so the cap is expand_element's alone.
EXPANSION_CAP = 10_000_000

# Most compositions an ElementSource may explore beyond those it has emitted.
# It explores ahead only through compositions whose log abundances lie within
# rounding error of each other; this many means the error exceeds their
# spacing (counts near 2**31), and the walk refuses rather than exhaust memory.
LOOKAHEAD_CAP = 100_000

_MAX_COUNT = 2**31 - 1
_MAX_COUNT_DIGITS = len(str(_MAX_COUNT))
# An element symbol, and one element run of a formula: a symbol, then an
# optional count.
_SYMBOL = re.compile("[A-Z][a-z]?")
_ELEMENT = re.compile(f"({_SYMBOL.pattern})([0-9]*)")

_new_tuple = tuple.__new__


class FormulaError(InputError):
    """Unparseable formula text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class Isotope(NamedTuple):
    mass: float  # Da
    abundance: float  # linear probability in (0, 1]


class IsotopeTable(dict):
    """Isotope lists keyed by element symbol, each sorted by ascending mass."""

    def __missing__(self, symbol: str) -> list[Isotope]:
        raise InputError(f"element {symbol!r} not in isotope table")


def _parse_tsv(file, source: str) -> IsotopeTable:
    malformed = "non-numeric mass or abundance"
    table = IsotopeTable()
    for where, line in data_lines(file, source, malformed):
        fields = line.split("\t")
        if len(fields) != 3:
            raise InputError(f"{where}: expected element<TAB>mass_da<TAB>abundance")
        symbol = fields[0].strip()
        if not _SYMBOL.fullmatch(symbol):
            raise InputError(f"{where}: element symbol {symbol!r} is not an uppercase letter "
                             "optionally followed by a lowercase letter")
        try:
            mass = float(fields[1])
            abundance = float(fields[2])
        except ValueError:
            raise InputError(f"{where}: {malformed}") from None
        if not 0 < mass < math.inf:  # NaN too
            raise InputError(f"{where}: isotope mass must be positive and finite")
        if not 0 < abundance <= 1:
            raise InputError(f"{where}: abundance must be in (0, 1]")
        isotopes = table.setdefault(symbol, [])
        if any(iso.mass == mass for iso in isotopes):
            raise InputError(f"{where}: duplicate isotope ({symbol}, {mass})")
        isotopes.append(Isotope(mass, abundance))

    for symbol, isotopes in table.items():
        isotopes.sort(key=lambda iso: iso.mass)
        total = sum(iso.abundance for iso in isotopes)
        if abs(total - 1.0) > 1e-3:
            raise InputError(f"{source}: abundances for {symbol} sum to {total:.6f}, not 1")
    if not table:
        raise InputError(f"{source}: no isotope rows found")
    return table


def load_isotope_table(path: str | Path) -> IsotopeTable:
    """Load a TSV of `element<TAB>mass_da<TAB>abundance` rows.

    Lines are read by core.data_lines. Symbols must be ones a formula can
    name (parse_formula's `[A-Z][a-z]?`), masses positive and finite, and
    per element the abundances must sum to 1 within 1e-3.
    """
    path = Path(path)
    return _parse_tsv(path, str(path))


@lru_cache(maxsize=1)
def builtin_isotope_table() -> IsotopeTable:
    """The table shipped with the package (H, C, N, O, S, Cl, V, He, Cu, Ga, Ag, Tl, Ne)."""
    return _parse_tsv(resources.files("summit").joinpath("data/isotopes.tsv"),
                      "builtin isotopes.tsv")


def parse_formula(text: str, table: IsotopeTable | None = None) -> list[tuple[str, int]]:
    """Parse `El` or `ElCount` runs into (symbol, count) pairs in appearance order.

    Grammar: (UppercaseLetter LowercaseLetter? Digits?)+ with no parentheses;
    a missing count means 1. Unknown elements, repeats, zero counts, and any
    character outside the grammar raise FormulaError with a byte offset; a
    formula that is not a str raises InputError.
    """
    if not isinstance(text, str):
        raise InputError(f"formula must be a str, got {type(text).__name__}")
    if not text:
        raise FormulaError("empty formula", 0)
    tbl = builtin_isotope_table() if table is None else table
    out: list[tuple[str, int]] = []
    seen: set[str] = set()
    i = 0
    while i < len(text):
        run = _ELEMENT.match(text, i)
        if run is None:
            raise FormulaError(f"expected an element symbol, found {text[i]!r}", i)
        symbol, digits = run.groups()
        if symbol not in tbl:
            raise FormulaError(f"unknown element {symbol!r}", i)
        if symbol in seen:
            raise FormulaError(f"repeated element {symbol!r}", i)
        seen.add(symbol)
        count = 1
        if digits:
            # Leading zeros go first: int() refuses more than 4300 digits, and
            # more significant digits than _MAX_COUNT has are out of range.
            significant = digits.lstrip("0")
            if not significant:
                raise FormulaError("element count must be positive", run.start(2))
            if len(significant) > _MAX_COUNT_DIGITS or int(significant) > _MAX_COUNT:
                raise FormulaError("element count exceeds 32-bit range", run.start(2))
            count = int(significant)
        out.append((symbol, count))
        i = run.end()
    return out


class IsotopologueVector:
    """All ways of distributing `count` atoms of one element over its isotopes.

    Parallel arrays: entry t has probability exp(log_abundances[t]), mass
    masses[t], and isotope counts compositions[t] (mass-ascending isotope
    order, summing to count).
    """

    __slots__ = ("log_abundances", "masses", "compositions")

    def __init__(self, log_abundances: list[float], masses: list[float],
                 compositions: list[tuple[int, ...]]):
        self.log_abundances = log_abundances
        self.masses = masses
        self.compositions = compositions

    def __len__(self) -> int:
        return len(self.log_abundances)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _element_isotopes(symbol: str, count: int,
                      table: IsotopeTable | None) -> tuple[list[Isotope], int]:
    """The isotopes of `symbol`, and `count` as an int: an integer >= 1, not a bool."""
    isotopes = (builtin_isotope_table() if table is None else table)[symbol]
    count = require_int(count, "atom count")
    if count < 1:
        raise InputError(f"atom count must be >= 1, got {count}")
    return isotopes, count


def expand_element(symbol: str, count: int,
                   table: IsotopeTable | None = None) -> IsotopologueVector:
    """Multinomial expansion of one element: every composition gets a log
    probability (log-gamma multinomial coefficient plus per-isotope terms)
    and a mass.

    This is the naive path, kept as the reference that ElementSource is
    tested against: plain enumeration, refused beyond EXPANSION_CAP. Output
    order is unspecified; the selection engines sort anyway.
    """
    isotopes, count = _element_isotopes(symbol, count, table)
    e = len(isotopes)
    n_configs = math.comb(count + e - 1, e - 1)
    if n_configs > EXPANSION_CAP:
        raise InputError(
            f"element {symbol} with {count} atoms expands to {n_configs} "
            f"configurations (cap {EXPANSION_CAP}); top_peaks and ElementSource "
            "walk them lazily instead"
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
    return IsotopologueVector(log_abundances, masses, compositions)


class ElementSource:
    """One element's isotope compositions, served lazily in non-increasing
    log abundance: an ordered source for the tree engine.

    The walk starts at the multinomial mode and goes best-first over
    single-atom isotope moves with a visited set (the IsoSpec strategy).
    Every composition that is not a mode has a strictly more likely
    neighbour, and the modes are linked by moves between equally likely
    compositions, so from any composition a chain of moves that never lowers
    the abundance leads back to the start. Values use expand_element's
    expression and are bit-identical to it.

    Rounding can order two equally likely compositions an ulp apart against
    the walk, so the heap keys a composition whose moves are not yet explored
    by its log abundance plus `slack`, a bound on that rounding error, and
    an explored one by its log abundance. The heap's top is then either safe
    to emit or the next composition to explore. A composition just explored
    is emitted only if no heap entry ties with it, so compositions with
    bit-equal log abundances come out in ascending composition order,
    whichever mode the walk starts at. A walk that would explore
    more than LOOKAHEAD_CAP compositions ahead of those it has emitted raises
    InputError.

    Only emitted entries are recorded, in the parallel lists `values`,
    `compositions` and `masses`, so peaks_from_items maps results through an
    ElementSource as it does through an IsotopologueVector.
    """

    __slots__ = ("values", "indices", "compositions", "masses", "_name", "_log_p", "_iso_mass",
                 "_lg_total", "_slack", "_moves", "_heap", "_seen", "_ahead")

    def __init__(self, symbol: str, count: int, table: IsotopeTable | None = None):
        isotopes, count = _element_isotopes(symbol, count, table)
        self.values: list[float] = []
        self.indices: list[tuple[int]] = []
        self.compositions: list[tuple[int, ...]] = []
        self.masses: list[float] = []
        self._name = f"element {symbol} with {count} atoms"
        self._log_p = [math.log(iso.abundance) for iso in isotopes]
        self._iso_mass = [iso.mass for iso in isotopes]
        self._lg_total = math.lgamma(count + 1)
        e = len(isotopes)
        # A log abundance takes about 3e float operations plus log and lgamma
        # calls on values no larger than `scale`, each erring by a few units
        # of 2**-53 of it; slack covers the difference of two such errors
        # four times over.
        scale = 2 * self._lg_total + count * max(-lp for lp in self._log_p)
        self._slack = (3 * e + 5) * scale * 2.0**-50
        self._moves = [(i, j) for i in range(e) for j in range(e) if i != j]
        # The walk starts at a mode. Some mode lies at or above the floors of
        # count * p (Finucan 1964), and the log-multinomial is a sum of one
        # concave term per isotope, so handing each of the at most e - 1
        # remaining atoms to the isotope it adds most log abundance to, the
        # first on ties, reaches one. A floor that rounding lifts above every
        # mode only makes the walk explore more: best-first climbs from any start.
        total = sum(iso.abundance for iso in isotopes)
        comp = [int(count * iso.abundance / total) for iso in isotopes]
        gains = [lp - math.log(c + 1) for lp, c in zip(self._log_p, comp)]
        for _ in range(count - sum(comp)):
            i = gains.index(max(gains))
            comp[i] += 1
            gains[i] = self._log_p[i] - math.log(comp[i] + 1)
        mode = tuple(comp)
        # Entries are (-key, unexplored, composition, log abundance): at equal
        # keys an explored composition comes first, and compositions are
        # distinct int tuples, so the order is total and deterministic.
        self._heap: list[tuple[float, int, tuple[int, ...], float]] = []
        self._seen = {mode}
        self._ahead = 0  # explored but not yet emitted
        self._push(mode)

    def __len__(self) -> int:
        return len(self.compositions)

    def _push(self, comp: tuple[int, ...]) -> None:
        lgamma = math.lgamma
        la = self._lg_total
        for kj, lpj in zip(comp, self._log_p):
            la += kj * lpj - lgamma(kj + 1)
        heapq.heappush(self._heap, (-(la + self._slack), 1, comp, la))

    def _explore(self, comp: tuple[int, ...]) -> None:
        seen = self._seen
        for i, j in self._moves:
            if comp[i]:
                moved = list(comp)
                moved[i] -= 1
                moved[j] += 1
                nxt = tuple(moved)
                if nxt not in seen:
                    seen.add(nxt)
                    self._push(nxt)

    def extend(self) -> bool:
        heap = self._heap
        while heap:
            _, unexplored, comp, la = heapq.heappop(heap)
            if unexplored:
                self._ahead += 1
                if self._ahead > LOOKAHEAD_CAP:
                    raise InputError(
                        f"{self._name}: over {LOOKAHEAD_CAP} compositions lie within "
                        "rounding error of each other, too close to order"
                    )
                self._explore(comp)
                if heap and -heap[0][0] >= la:
                    heapq.heappush(heap, (-la, 0, comp, la))
                    continue
            mass = 0.0
            for kj, mj in zip(comp, self._iso_mass):
                mass += kj * mj
            self._ahead -= 1
            self.indices.append((len(self.values),))
            self.values.append(la)
            self.compositions.append(comp)
            self.masses.append(mass)
            return True
        return False


class Peak(NamedTuple):
    """One isotope peak: mass, abundance, and the per-element composition."""

    mass: float
    abundance: float
    log_abundance: float
    configuration: tuple[tuple[int, ...], ...]


def peaks_from_items(expanded: list[IsotopologueVector], items) -> list[Peak]:
    """Map selection results to peaks; index tuples point into each element's
    IsotopologueVector or ElementSource."""
    if not items:
        return []
    values, index_tuples = zip(*items)
    columns = list(zip(expanded, zip(*index_tuples)))
    # Summed in element order, one element at a time: sum() compensates
    # float sums from Python 3.12 on, which would change the last bits.
    masses = repeat(0.0)
    for vec, column in columns:
        masses = map(add, masses, map(vec.masses.__getitem__, column))
    configurations = zip(*[map(vec.compositions.__getitem__, column) for vec, column in columns])
    peaks = zip(masses, map(math.exp, values), values, configurations)
    return [_new_tuple(Peak, peak) for peak in peaks]


@gc_paused
def top_peaks(formula: str, k: int, table: IsotopeTable | None = None) -> list[Peak]:
    """The k most abundant isotope peaks of a molecular formula.

    One ElementSource per distinct element, and the tree engine selects the
    top k log-abundance sums from them. Fewer than k peaks come back when
    the formula has fewer configurations. Peaks come back in non-increasing
    abundance order.
    """
    tbl = builtin_isotope_table() if table is None else table
    sources = [ElementSource(symbol, count, tbl) for symbol, count in parse_formula(formula, tbl)]
    return peaks_from_items(sources, select(sources, k).items)
