"""summit: top-k values of Cartesian sums of vectors.

Three interchangeable engines compute the k largest values of
X1 + X2 + ... + Xm together with the index tuples that produce them:

- brute_force_top_k: full enumeration, the reference for everything else
- tensor_top_k: best-first frontier over the implicit m-dimensional tensor
- tree_top_k: balanced binary tree of lazy pairwise sum heaps

On top of the tree engine, top_peaks computes the most abundant isotope
peaks of a molecular formula from lazy per-element sources (ElementSource).
"""

from .bench import ENGINES, generate_instance, measure, mix64, run_bench
from .core import (
    IndexedValue,
    InputError,
    InstrumentationCounters,
    MaxIndexHeap,
    SumOverflowError,
    TopKResult,
)
from .isotopes import (
    ElementSource,
    FormulaError,
    Isotope,
    IsotopeTable,
    IsotopologueVector,
    Peak,
    builtin_isotope_table,
    expand_element,
    load_isotope_table,
    parse_formula,
    peaks_from_items,
    top_peaks,
)
from .oracle import ORACLE_CELL_CAP, brute_force_top_k
from .tensor import tensor_top_k
from .tree import CartesianSumTree, LeafSource, PairNode, build_tree, tree_top_k

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
    "MaxIndexHeap",
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
