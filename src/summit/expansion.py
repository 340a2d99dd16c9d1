"""Naive isotope expansion: every composition of an element, enumerated.

The reference that ElementSource's lazy walk is tested against, as the
oracle is the engines'. top_peaks never calls it, so `import summit` does not
load this module; the package and summit.isotopes serve its names on first
access. It imports no numpy.
"""

import math

from .core import InputError
from .isotopes import IsotopeTable, _element_isotopes

# Refuse naive expansion beyond this many configurations. ElementSource never
# enumerates, so the cap is expand_element's alone.
EXPANSION_CAP = 10_000_000


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


def expand_element(symbol: str, count: int,
                   table: IsotopeTable | None = None) -> IsotopologueVector:
    """Multinomial expansion of one element: every composition gets a log
    probability (log-gamma multinomial coefficient plus per-isotope terms)
    and a mass.

    This is the naive path, kept as the reference that ElementSource is
    tested against: plain enumeration, refused beyond EXPANSION_CAP. Output
    order is unspecified; the selection engines sort anyway.
    """
    isotopes, count, (log_p, iso_mass, *_) = _element_isotopes(symbol, count, table)
    e = len(isotopes)
    n_configs = math.comb(count + e - 1, e - 1)
    if n_configs > EXPANSION_CAP:
        raise InputError(
            f"element {symbol} with {count} atoms expands to {n_configs} "
            f"configurations (cap {EXPANSION_CAP}); top_peaks and ElementSource "
            "walk them lazily instead"
        )

    # lgamma memo, exact same values. count + 1 <= n_configs bounds it for
    # e >= 2; one isotope gives one composition, which reads only lg[count].
    lg_total = math.lgamma(count + 1)
    lg = [math.lgamma(t + 1) for t in range(count + 1)] if e > 1 else {count: lg_total}

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
