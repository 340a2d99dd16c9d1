"""Apply each seeded mutant to a copy of the checkout and require that its tests fail.

    python3 tools/mutants.py

Run from the root of a summit checkout. A mutant is one exact text
replacement in one file under src/summit, the tier-1 test ids that must fail
on it, and the CHANGES.md line or ROADMAP item it comes from. The checkout is
copied to a temporary directory, where the named tests must first pass
unchanged. Then each mutant is applied in turn (text that is not found
exactly once is an error), only its tests run, and the file is restored.
Prints one line per mutant; exits 1 if any mutant survives, that is if any
of its tests does not fail, and 2 on an error.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path.cwd()


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    origin: str


LOOP = "CHANGES.md: the tensor pop loop that joins once and tests visited first"
REFERENCE = "tests/test_reference_loops.py::test_tensor_matches_its_reference_loop"
MUTANTS = [
    Mutant("tensor: no visited test, so a cell is pushed again", "src/summit/tensor.py",
           "            if succ in visited:\n                continue\n", "",
           (REFERENCE, "tests/test_tensor.py::test_exact_traffic_on_distinct_value_grid"),
           LOOP),
    Mutant("tensor: a source extended on every successor", "src/summit/tensor.py",
           "            if nxt == len(flat[d]):\n",
           "            sources[d].extend()\n            if nxt == len(flat[d]):\n",
           (REFERENCE, "tests/test_tensor.py::test_push_bound_m_k_plus_one"),
           LOOP),
    Mutant("tensor: no finite check on successor keys", "src/summit/tensor.py",
           "            if not isfinite(key):\n                raise SumOverflowError()\n"
           "            put(",
           "            put(",
           ("tests/test_tree.py::test_returning_an_overflowed_cell_raises[tensor_top_k]",),
           LOOP),
    Mutant("tensor: the join's spare row left out", "src/summit/tensor.py",
           "map(itemgetter, *positions, positions[0])", "map(itemgetter, *positions)",
           (REFERENCE,
            "tests/test_tree.py::test_heap_engines_return_cells_short_of_the_overflow"
            "[tensor_top_k]"),
           LOOP),
    Mutant("PairNode.extend: one more right.extend() per pop", "src/summit/core.py",
           "        left, right = self.left, self.right\n        li, ri =",
           "        left, right = self.left, self.right\n        right.extend()\n        li, ri =",
           ("tests/test_acceptance.py::test_c2_tree_laziness",
            "tests/test_isotopes.py::test_element_trees_stay_lazy",
            "tests/test_sweep.py::test_tree_stays_lazy_after_every_pop"),
           "ROADMAP item 1"),
    Mutant("_element_isotopes: the built-in list whenever the symbol is built in",
           "src/summit/isotopes.py",
           "(builtin_isotope_table() if table is None else table)[symbol]",
           "(builtin_isotope_table() if table is None or symbol in builtin_isotope_table()"
           " else table)[symbol]",
           ("tests/test_isotopes.py::TestTopPeaks::test_table_that_redefines_a_builtin_element",),
           "ROADMAP item 12"),
]


def environment(copy: Path) -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=path)


def run_tests(copy: Path, tests) -> dict[str, str]:
    """Each named test's outcome (PASSED, FAILED, ERROR, ...) in the copy."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rA",
         *tests], cwd=copy, env=environment(copy), capture_output=True, text=True)
    outcomes = {}
    for line in proc.stdout.splitlines():
        status, _, rest = line.partition(" ")
        if status.isupper() and rest.startswith("tests/"):
            outcomes[rest.split(" - ")[0]] = status
    return outcomes


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", ".hypothesis", ".pytest_cache", "__pycache__", "*.egg-info"))
        where = subprocess.run([sys.executable, "-c", "import summit; print(summit.__file__)"],
                               cwd=copy, env=environment(copy), capture_output=True, text=True)
        if not where.stdout.startswith(str(copy)):
            print(f"the copy imports summit from elsewhere: {where.stdout or where.stderr}")
            return 2
        tests = sorted({test for mutant in MUTANTS for test in mutant.tests})
        clean = run_tests(copy, tests)
        broken = [f"{test} {clean.get(test, 'NOT RUN')}" for test in tests
                  if clean.get(test) != "PASSED"]
        if broken:
            print("tests that do not pass unmutated: " + ", ".join(broken))
            return 2
        survived = 0
        for mutant in MUTANTS:
            path = copy / mutant.path
            original = path.read_text(encoding="utf-8")
            if original.count(mutant.old) != 1:
                print(f"{mutant.name}: its text is not found exactly once in {mutant.path}")
                return 2
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                outcomes = run_tests(copy, mutant.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            missed = [f"{test} {outcomes.get(test, 'NOT RUN')}" for test in mutant.tests
                      if outcomes.get(test) != "FAILED"]
            survived += bool(missed)
            verdict = "SURVIVED: " + ", ".join(missed) if missed else "caught"
            print(f"{mutant.name} ({mutant.origin}): {verdict}")
        print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants caught")
        return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
