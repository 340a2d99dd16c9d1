"""Isotope peaks of a molecular formula via top-k selection.

A formula with m distinct elements becomes m ordered sources of log
abundances, one entry per way of distributing that element's atoms over its
isotopes. The most abundant molecular configurations are then exactly the top
values of the Cartesian sum of those sources, and each winning index tuple
maps back to an isotope composition and a mass. Each source walks out from
its element's multinomial mode, so only the compositions the top k reach are
ever computed; `summit.expansion.expand_element` enumerates them all and is
the reference.

Everything runs in the natural-log domain so probabilities multiply by
addition; linear abundance is materialized only at output.
"""

import heapq
import math
import os
import re
from collections import namedtuple
from functools import lru_cache, reduce
from itertools import permutations, repeat
from operator import add, itemgetter, lt, mul

from .core import InputError, data_lines, gc_paused, require_int, select

# The naive reference, served from summit.expansion on first access.
_EXPANSION = ("EXPANSION_CAP", "IsotopologueVector", "expand_element")


def __getattr__(name: str):
    # perfbench/tracing.py reads and rebinds tree_top_k and expand_element
    # here, though top_peaks calls neither, and code written against this
    # module imports the expansion's names from it. ROADMAP item 3 deletes
    # the tree_top_k branch.
    if name == "tree_top_k":
        from .tree import tree_top_k
        return tree_top_k
    if name in _EXPANSION:
        from . import expansion
        return getattr(expansion, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


# mass in Da, abundance a linear probability in (0, 1]
Isotope = namedtuple("Isotope", ["mass", "abundance"])


class IsotopeTable(dict):
    """Isotope lists keyed by element symbol, each sorted by ascending mass."""

    def __missing__(self, symbol: str) -> list[Isotope]:
        raise InputError(f"element {symbol!r} not in isotope table")


def _parse_tsv(path: str, source: str) -> IsotopeTable:
    malformed = "non-numeric mass or abundance"
    table = IsotopeTable()
    for where, line in data_lines(path, source, malformed):
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
        table.setdefault(symbol, []).append(Isotope(mass, abundance))

    for symbol, isotopes in table.items():
        isotopes.sort(key=lambda iso: iso.mass)
        try:
            _walk_constants(symbol, tuple(isotopes))
        except InputError as exc:
            raise InputError(f"{source}: {exc}") from None
    if not table:
        raise InputError(f"{source}: no isotope rows found")
    return table


def load_isotope_table(path: str | os.PathLike[str]) -> IsotopeTable:
    """Load a TSV of `element<TAB>mass_da<TAB>abundance` rows.

    Lines are read by core.data_lines. Symbols must be ones a formula can
    name (parse_formula's `[A-Z][a-z]?`), masses positive and finite, and
    each element's list must pass the check every isotope table passes (see
    _walk_constants): distinct masses, abundances that sum to 1 within 1e-3.
    """
    path = os.fspath(path)
    return _parse_tsv(path, path)


@lru_cache(maxsize=1)
def builtin_isotope_table() -> IsotopeTable:
    """The table shipped with the package (H, C, N, O, S, Cl, V, He, Cu, Ga, Ag, Tl, Ne)."""
    return _parse_tsv(os.path.join(os.path.dirname(__file__), "data", "isotopes.tsv"),
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


def _element_isotopes(symbol: str, count: int,
                      table: IsotopeTable | None) -> tuple[list[Isotope], int, tuple]:
    """`symbol`'s isotopes, `count` as an int in 1..2**31 - 1 (not a bool), walk constants."""
    isotopes = (builtin_isotope_table() if table is None else table)[symbol]
    count = require_int(count, "atom count")
    if count < 1:
        raise InputError(f"atom count must be >= 1, got {count}")
    if count > _MAX_COUNT:
        raise InputError(f"element {symbol}: atom count {count} exceeds 32-bit range")
    return isotopes, count, _walk_constants(symbol, tuple(isotopes))


@lru_cache(maxsize=None)
def _walk_constants(symbol: str, isotopes: tuple[Isotope, ...]) -> tuple:
    """Log abundances, masses, moves (i, j), abundance total and max -log p, keyed by value.

    The one check of every isotope list, from a file or built in memory: it
    is nonempty, its masses are positive, finite and strictly ascending, and
    its abundances lie in (0, 1] and sum to 1 within 1e-3.
    """
    masses = tuple(iso.mass for iso in isotopes)
    total = sum(iso.abundance for iso in isotopes)
    if not (isotopes and all(0 < m < math.inf and 0 < a <= 1 for m, a in isotopes)
            and all(map(lt, masses, masses[1:])) and abs(total - 1.0) <= 1e-3):
        raise InputError(f"element {symbol}: needs isotopes, each with a positive finite mass "
                         "and an abundance in (0, 1], masses strictly ascending (no duplicates) "
                         f"and abundances that sum to 1 within 1e-3 (these sum to {total:.6f})")
    log_p = tuple(math.log(iso.abundance) for iso in isotopes)
    return (log_p, masses, tuple(permutations(range(len(log_p)), 2)), total,
            max(-lp for lp in log_p))


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
    `indices`, `compositions` and `masses`, so peaks_from_items maps results
    through an ElementSource as it does through an IsotopologueVector.
    """

    __slots__ = ("values", "indices", "compositions", "masses", "_symbol", "_count", "_log_p",
                 "_iso_mass", "_lg_total", "_slack", "_moves", "_heap", "_seen", "_ahead")

    def __init__(self, symbol: str, count: int, table: IsotopeTable | None = None):
        isotopes, count, constants = _element_isotopes(symbol, count, table)
        self.values, self.indices, self.compositions, self.masses = [], [], [], []
        self._symbol, self._count = symbol, count
        self._log_p, self._iso_mass, self._moves, total, steepest = constants
        self._lg_total = math.lgamma(count + 1)
        # A log abundance takes about 3e float operations plus log and lgamma
        # calls on values no larger than `scale`, each erring by a few units
        # of 2**-53 of it; slack covers the difference of two such errors
        # four times over.
        scale = 2 * self._lg_total + count * steepest
        self._slack = (3 * len(isotopes) + 5) * scale * 2.0**-50
        # The walk starts at a mode. Some mode lies at or above the floors of
        # count * p (Finucan 1964), and the log-multinomial is a sum of one
        # concave term per isotope, so handing each of the at most e - 1
        # remaining atoms to the isotope it adds most log abundance to, the
        # first on ties, reaches one. A floor that rounding lifts above every
        # mode only makes the walk explore more: best-first climbs from any start.
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
                        f"element {self._symbol} with {self._count} atoms: over {LOOKAHEAD_CAP} "
                        "compositions lie within rounding error of each other, too close to order"
                    )
                self._explore(comp)
                if heap and -heap[0][0] >= la:
                    heapq.heappush(heap, (-la, 0, comp, la))
                    continue
            mass = reduce(add, map(mul, comp, self._iso_mass), 0.0)
            self._ahead -= 1
            self.indices.append((len(self.values),))
            self.values.append(la)
            self.compositions.append(comp)
            self.masses.append(mass)
            return True
        return False


Peak = namedtuple("Peak", ["mass", "abundance", "log_abundance", "configuration"])
Peak.__doc__ = "One isotope peak: mass, abundance, and the per-element composition."


def peaks_from_items(expanded: "list[IsotopologueVector | ElementSource]",
                     items) -> list[Peak]:
    """Map selection results to peaks; index tuples point into each element's
    IsotopologueVector or ElementSource."""
    if not items:
        return []
    values, index_tuples = zip(*items)
    # One C-level gather per element column; a spare first row keeps k=1 a tuple.
    getters = [itemgetter(*column) for column in zip(*index_tuples, index_tuples[0])]
    # Summed in element order, one element at a time: sum() compensates
    # float sums from Python 3.12 on, which would change the last bits.
    masses = repeat(0.0)
    for vec, get in zip(expanded, getters):
        masses = map(add, masses, get(vec.masses))
    configurations = zip(*[get(vec.compositions) for vec, get in zip(expanded, getters)])
    peaks = zip(masses, map(math.exp, values), values, configurations)
    return list(map(_new_tuple, repeat(Peak), peaks))


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
