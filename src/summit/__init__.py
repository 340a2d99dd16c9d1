"""summit: top-k values of Cartesian sums of vectors.

Three interchangeable engines compute the k largest values of
X1 + X2 + ... + Xm together with the index tuples that produce them:

- brute_force_top_k: full enumeration, the reference for everything else
- tensor_top_k: best-first frontier over the implicit m-dimensional tensor
- tree_top_k: balanced binary tree of lazy pairwise sum heaps

On top of the tree engine, top_peaks computes the most abundant isotope
peaks of a molecular formula from lazy per-element sources (ElementSource).

`import summit` loads core and isotopes, all that top_peaks and `summit
isotopes` run. The array engines (oracle, tensor and tree's numpy front end),
the naive isotope expansion (expansion) and the benchmark harness (bench)
load on first access to one of their names.
"""

from importlib import import_module

from .core import (
    CartesianSumTree,
    IndexedValue,
    InputError,
    InstrumentationCounters,
    PairNode,
    SumOverflowError,
    TopKResult,
)
from .isotopes import (
    ElementSource,
    FormulaError,
    Isotope,
    IsotopeTable,
    Peak,
    builtin_isotope_table,
    load_isotope_table,
    parse_formula,
    peaks_from_items,
    top_peaks,
)

__version__ = "0.1.0"

__all__ = [
    "ENGINES",
    "ORACLE_CELL_CAP",
    "CartesianSumTree",
    "ElementSource",
    "FormulaError",
    "IndexedValue",
    "InputError",
    "InstrumentationCounters",
    "Isotope",
    "IsotopeTable",
    "IsotopologueVector",
    "LeafSource",
    "PairNode",
    "Peak",
    "SumOverflowError",
    "TopKResult",
    "brute_force_top_k",
    "build_tree",
    "builtin_isotope_table",
    "expand_element",
    "generate_instance",
    "load_isotope_table",
    "measure",
    "mix64",
    "parse_formula",
    "peaks_from_items",
    "run_bench",
    "tensor_top_k",
    "top_peaks",
    "tree_top_k",
]


# Names served by a module that loads on first access (PEP 562).
_LAZY = {
    "ENGINES": "bench",
    "generate_instance": "bench",
    "measure": "bench",
    "mix64": "bench",
    "run_bench": "bench",
    "IsotopologueVector": "expansion",
    "expand_element": "expansion",
    "ORACLE_CELL_CAP": "oracle",
    "brute_force_top_k": "oracle",
    "tensor_top_k": "tensor",
    "LeafSource": "tree",
    "build_tree": "tree",
    "tree_top_k": "tree",
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
