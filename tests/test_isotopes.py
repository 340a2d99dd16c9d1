import bisect
import decimal
import math
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import summit.isotopes
from summit import (
    ORACLE_CELL_CAP,
    ElementSource,
    FormulaError,
    IndexedValue,
    InputError,
    Isotope,
    IsotopeTable,
    brute_force_top_k,
    builtin_isotope_table,
    expand_element,
    load_isotope_table,
    parse_formula,
    peaks_from_items,
    tensor_top_k,
    top_peaks,
    tree_top_k,
)
from summit.tensor import tensor_select
from summit.tree import assemble_tree, select

from helpers import FAKE_COMPOUND, assert_values_match, check_tree_laziness


class TestParseFormula:
    def test_propane(self):
        assert parse_formula("C3H8") == [("C", 3), ("H", 8)]

    def test_water_default_count(self):
        assert parse_formula("H2O") == [("H", 2), ("O", 1)]

    def test_multi_digit_counts(self):
        assert parse_formula("O100S6") == [("O", 100), ("S", 6)]

    def test_unknown_element(self):
        with pytest.raises(FormulaError) as exc:
            parse_formula("Xq5")
        assert exc.value.offset == 0

    def test_unknown_element_mid_formula(self):
        with pytest.raises(FormulaError) as exc:
            parse_formula("H2Xq5")
        assert exc.value.offset == 2

    def test_repeated_element(self):
        with pytest.raises(FormulaError) as exc:
            parse_formula("CC4")
        assert exc.value.offset == 1

    def test_zero_count(self):
        with pytest.raises(FormulaError) as exc:
            parse_formula("H0")
        assert exc.value.offset == 1

    def test_trailing_garbage(self):
        with pytest.raises(FormulaError) as exc:
            parse_formula("C3H8)")
        assert exc.value.offset == 4

    def test_lowercase_start(self):
        with pytest.raises(FormulaError) as exc:
            parse_formula("cH")
        assert exc.value.offset == 0

    def test_empty(self):
        with pytest.raises(FormulaError):
            parse_formula("")

    def test_non_string_formula(self):
        for text, kind in [(None, "NoneType"), (b"C3", "bytes"), (123, "int")]:
            for call in (lambda: parse_formula(text), lambda: top_peaks(text, 3)):
                with pytest.raises(InputError, match=f"^formula must be a str, got {kind}$"):
                    call()

    def test_count_must_fit_32_bits(self):
        assert parse_formula("C2147483647") == [("C", 2**31 - 1)]
        with pytest.raises(FormulaError):
            parse_formula("C2147483648")

    def test_count_beyond_int_digit_limit(self):
        # int() refuses text of more than 4300 digits; the parser must not
        # hand it any.
        with pytest.raises(FormulaError, match=r"^element count exceeds 32-bit range") as exc:
            parse_formula("C" + "1" * 5000)
        assert exc.value.offset == 1

    def test_zero_padded_counts(self):
        assert parse_formula("C" + "0" * 5000 + "1") == [("C", 1)]
        assert parse_formula("H002147483647") == [("H", 2**31 - 1)]
        with pytest.raises(FormulaError, match="^element count must be positive") as exc:
            parse_formula("C" + "0" * 5000)
        assert exc.value.offset == 1

    def test_fake_compound_parses(self):
        counts = parse_formula(FAKE_COMPOUND)
        assert len(counts) == 13
        assert counts[0] == ("Cl", 800)
        assert counts[6] == ("O", 100)
        assert counts[7] == ("S", 6)


class TestIsotopeTable:
    def test_builtin_carbon_abundances(self):
        table = builtin_isotope_table()
        assert [iso.abundance for iso in table["C"]] == [0.9892, 0.0108]

    def test_builtin_hydrogen_abundances(self):
        table = builtin_isotope_table()
        assert [iso.abundance for iso in table["H"]] == [0.9999, 0.0001]

    def test_builtin_covers_fake_compound_elements(self):
        table = builtin_isotope_table()
        for symbol in ("H", "C", "N", "O", "S", "Cl", "V", "He", "Cu", "Ga", "Ag", "Tl", "Ne"):
            assert symbol in table
            assert all(iso.mass > 0 for iso in table[symbol])
            assert abs(sum(iso.abundance for iso in table[symbol]) - 1.0) <= 1e-3

    def test_builtin_sorted_by_mass(self):
        table = builtin_isotope_table()
        for symbol in sorted(table):
            masses = [iso.mass for iso in table[symbol]]
            assert masses == sorted(masses)

    def test_single_isotope_element(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("F\t18.99840322\t1.0\n")
        table = load_isotope_table(path)
        vec = expand_element("F", 1, table)
        assert len(vec) == 1
        assert vec.log_abundances == [0.0]

    def test_duplicate_isotope_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("C\t12.0\t0.9\nC\t12.0\t0.1\n")
        with pytest.raises(InputError, match="duplicate"):
            load_isotope_table(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("C\ttwelve\t0.9\n")
        with pytest.raises(InputError, match="non-numeric"):
            load_isotope_table(path)

    def test_two_field_row_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# mass only\nC\t12.0\n")
        with pytest.raises(InputError, match=f"{re.escape(str(path))}:2: expected element"):
            load_isotope_table(path)

    @pytest.mark.parametrize("abundance", ["0", "1.5"])
    def test_abundance_outside_unit_interval_rejected(self, tmp_path, abundance):
        path = tmp_path / "t.tsv"
        path.write_text(f"C\t12.0\t{abundance}\n")
        with pytest.raises(InputError, match=re.escape(f"{path}:1: abundance must be in (0, 1]")):
            load_isotope_table(path)

    def test_only_comments_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# element\tmass_da\tabundance\n\n")
        with pytest.raises(InputError, match="no isotope rows found"):
            load_isotope_table(path)

    def test_table_is_a_dict_that_names_a_missing_symbol(self):
        table = builtin_isotope_table()
        assert isinstance(table, dict)
        assert "Xx" not in table
        with pytest.raises(InputError, match="element 'Xx' not in isotope table"):
            table["Xx"]

    def test_abundance_sum_violation(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("C\t12.0\t0.5\nC\t13.0\t0.4\n")
        with pytest.raises(InputError, match="sum to"):
            load_isotope_table(path)

    @pytest.mark.parametrize("mass", ["nan", "inf", "-inf", "0", "-1.0"])
    def test_mass_not_positive_and_finite_rejected(self, tmp_path, mass):
        path = tmp_path / "t.tsv"
        path.write_text(f"H\t1.0\t0.5\nH\t{mass}\t0.5\n")
        with pytest.raises(InputError, match=f"{re.escape(str(path))}:2: isotope mass "
                                             "must be positive and finite"):
            load_isotope_table(path)

    @pytest.mark.parametrize("row", ["C\t1_2.0\t1.0", "C\t12.0\t1_0"],
                             ids=["mass", "abundance"])
    def test_digit_separator_rejected(self, tmp_path, row):
        # float() reads "1_0" as 10.0; the table takes decimal reals only.
        path = tmp_path / "t.tsv"
        path.write_text(f"# comment\n{row}\n")
        with pytest.raises(InputError, match=f"{re.escape(str(path))}:2: non-numeric"):
            load_isotope_table(path)

    @pytest.mark.parametrize("symbol", ["Cl1", "h", "12"])
    def test_symbol_no_formula_can_name_rejected(self, tmp_path, symbol):
        # No formula can name such a symbol, so the row could never be used.
        path = tmp_path / "t.tsv"
        path.write_text(f"F\t18.99840322\t1.0\n{symbol}\t1.0\t1.0\n")
        with pytest.raises(InputError, match=re.escape(
                f"{path}:2: element symbol {symbol!r} is not an uppercase letter "
                "optionally followed by a lowercase letter")):
            load_isotope_table(path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# header\n\nC\t12.0\t0.9892\nC\t13.0033548378\t0.0108\n")
        assert "C" in load_isotope_table(path)

    def test_byte_order_mark_before_a_row(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("H\t1.00782503207\t0.9999\nH\t2.0141017778\t0.0001\n",
                        encoding="utf-8-sig")
        assert sorted(load_isotope_table(path)) == ["H"]

    def test_byte_order_mark_before_a_comment(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# element\tmass_da\tabundance\nF\t18.99840322\t1.0\n",
                        encoding="utf-8-sig")
        assert sorted(load_isotope_table(path)) == ["F"]


class TestExpandElement:
    def test_carbon_three_atoms(self):
        vec = expand_element("C", 3)
        assert len(vec) == 4
        by_comp = dict(zip(vec.compositions, vec.log_abundances))
        assert by_comp[(3, 0)] == pytest.approx(3 * math.log(0.9892), rel=1e-12)
        assert by_comp[(3, 0)] == pytest.approx(-0.0326, abs=5e-5)
        expected_21 = math.log(3) + 2 * math.log(0.9892) + math.log(0.0108)
        assert by_comp[(2, 1)] == pytest.approx(expected_21, rel=1e-12)
        assert by_comp[(2, 1)] == pytest.approx(-3.4513, abs=5e-5)

    def test_count_one_degenerates_to_isotope_list(self):
        table = builtin_isotope_table()
        for symbol in ("C", "O", "S"):
            vec = expand_element(symbol, 1)
            isotopes = table[symbol]
            assert len(vec) == len(isotopes)
            by_mass = dict(zip(vec.masses, vec.log_abundances))
            for iso in isotopes:
                assert by_mass[iso.mass] == pytest.approx(math.log(iso.abundance), rel=1e-12)

    def test_sulfur_six_stars_and_bars(self):
        vec = expand_element("S", 6)
        assert len(vec) == math.comb(9, 3) == 84
        assert all(sum(comp) == 6 for comp in vec.compositions)
        assert len(set(vec.compositions)) == 84

    @pytest.mark.parametrize("symbol,count", [("C", 3), ("H", 8), ("S", 6), ("O", 5)])
    def test_unpruned_probabilities_normalize(self, symbol, count):
        vec = expand_element(symbol, count)
        assert sum(math.exp(la) for la in vec.log_abundances) == pytest.approx(1.0, abs=1e-6)

    def test_masses_are_exact_composition_sums(self):
        table = builtin_isotope_table()
        vec = expand_element("O", 4)
        masses = [iso.mass for iso in table["O"]]
        for comp, mass in zip(vec.compositions, vec.masses):
            assert mass == sum(kj * mj for kj, mj in zip(comp, masses))

    def test_cap_names_the_element(self):
        # 12,507,501 compositions, refused before any is enumerated.
        with pytest.raises(InputError, match="Ne"):
            expand_element("Ne", 5000)

    def test_zero_count_rejected(self):
        with pytest.raises(InputError):
            expand_element("C", 0)
        for count in (2.5, 2.0, True, "3"):
            with pytest.raises(InputError, match="atom count must be an integer"):
                expand_element("C", count)


class TestTopPeaks:
    def test_peak_is_a_named_tuple_in_field_order(self):
        peak = top_peaks("C3H8", 1)[0]
        assert tuple(peak) == (peak.mass, peak.abundance, peak.log_abundance,
                               peak.configuration)
        assert peak == (peak.mass, peak.abundance, peak.log_abundance, peak.configuration)
        with pytest.raises(AttributeError):
            peak.mass = 0.0

    def test_isotope_is_a_named_tuple_in_field_order(self):
        carbon = builtin_isotope_table()["C"][0]
        assert tuple(carbon) == (carbon.mass, carbon.abundance) == (12.0, 0.9892)
        with pytest.raises(AttributeError):
            carbon.abundance = 1.0

    def test_single_isotope_formula(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("F\t18.99840322\t1.0\n")
        table = load_isotope_table(path)
        peaks = top_peaks("F7", 1, table)
        assert peaks[0].abundance == pytest.approx(1.0)
        assert peaks[0].mass == pytest.approx(7 * 18.99840322, rel=1e-12)

    def test_abundances_non_increasing_and_roundtrip(self):
        peaks = top_peaks("H2O", 12)
        for a, b in zip(peaks, peaks[1:]):
            assert a.abundance >= b.abundance
        for p in peaks:
            assert abs(math.exp(p.log_abundance) - p.abundance) <= 1e-12 * p.abundance

    def test_monoisotopic_first_for_small_counts(self):
        # Holds when count * (second abundance / top abundance) < 1 for every
        # element, which covers these formulas.
        table = builtin_isotope_table()
        for formula in ("C3H8", "H2O", "C2N2"):
            peak = top_peaks(formula, 1)[0]
            for (symbol, count), comp in zip(parse_formula(formula), peak.configuration):
                best = max(range(len(comp)), key=lambda j: table[symbol][j].abundance)
                assert comp[best] == count

    def test_k_clamped_to_configuration_count(self):
        assert len(top_peaks("C2", 50)) == 3

    def test_k_zero_gives_no_peaks(self):
        assert top_peaks("C3H8", 0) == []

    @pytest.mark.parametrize("k", [10**30, 2**63])
    def test_huge_k_gives_every_peak(self, k):
        assert top_peaks("C3H8", k) == top_peaks("C3H8", 36)

    def test_no_elements_rejected(self):
        with pytest.raises(FormulaError, match="empty formula"):
            top_peaks("", 3)

    def test_repeated_element_rejected(self):
        # One element given twice would map one isotopologue to several peaks.
        with pytest.raises(FormulaError, match="repeated element 'C'") as exc:
            top_peaks("C3C2", 3)
        assert exc.value.offset == 2

    def test_negative_k_rejected(self):
        with pytest.raises(InputError):
            top_peaks("C3H8", -1)

    @pytest.mark.parametrize("bad", ["5", True, 2.0])
    def test_non_integer_k_rejected(self, bad):
        with pytest.raises(InputError):
            top_peaks("C3H8", bad)

    def test_engines_agree_on_masses_and_configs(self):
        counts = parse_formula("C6H12O6N3S2")
        expanded = [expand_element(s, c) for s, c in counts]
        vectors = [v.log_abundances for v in expanded]
        k = 40
        a = peaks_from_items(expanded, tree_top_k(vectors, k).items)
        b = peaks_from_items(expanded, tensor_top_k(vectors, k).items)
        assert sorted(p.mass for p in a) == pytest.approx(
            sorted(p.mass for p in b), rel=1e-9
        )
        assert sorted(p.abundance for p in a) == pytest.approx(
            sorted(p.abundance for p in b), rel=1e-9
        )


# Exact ties everywhere: 0.5/0.5, 1/3 each and 1/6 each. At 8 atoms of Cc,
# a walk without rounding slack emits two tied compositions an ulp out of
# order.
TIE_TABLE = IsotopeTable({
    "Aa": [Isotope(1.0, 0.5), Isotope(2.0, 0.5)],
    "Bb": [Isotope(1.0, 1 / 3), Isotope(2.0, 1 / 3), Isotope(3.0, 1 / 3)],
    "Cc": [Isotope(float(mass), 1 / 6) for mass in range(1, 7)],
})


def drain_against_enumeration(symbol, count, table):
    """Extend an ElementSource until it is dry and compare it with expand_element."""
    e = len(table[symbol])
    naive = expand_element(symbol, count, table)
    expected = sorted(naive.log_abundances, reverse=True)
    ascending = expected[::-1]
    source = ElementSource(symbol, count, table)
    values = []
    while source.extend():
        assert source.indices[-1] == (len(values),)
        values.append(source.values[-1])
        # Laziness: the walk computes at most e(e-1) neighbours of each
        # composition it explores. It explores those it has emitted, plus
        # any tied with the last one within rounding, which it must look
        # past to stay exact.
        explored = len(ascending) - bisect.bisect_left(ascending, values[-1] - 1e-9)
        assert len(source._seen) <= e * (e - 1) * explored + 1
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values == expected  # bit-identical, not merely close
    assert set(source.compositions) == set(naive.compositions)
    assert len(source) == len(naive)
    naive_mass = dict(zip(naive.compositions, naive.masses))
    assert all(naive_mass[comp] == mass
               for comp, mass in zip(source.compositions, source.masses))


class TestElementSource:
    @pytest.mark.parametrize("symbol", sorted(builtin_isotope_table()))
    def test_builtin_elements_match_full_enumeration(self, symbol):
        table = builtin_isotope_table()
        for count in range(1, 31):
            drain_against_enumeration(symbol, count, table)

    @pytest.mark.parametrize("symbol,max_count", [("Aa", 60), ("Bb", 60), ("Cc", 10)])
    def test_tied_abundances_match_full_enumeration(self, symbol, max_count):
        for count in range(1, max_count + 1):
            drain_against_enumeration(symbol, count, TIE_TABLE)

    @settings(max_examples=60)
    @given(st.sampled_from(sorted(builtin_isotope_table())), st.integers(1, 40))
    def test_values_within_rounding_bound_of_exact(self, symbol, count):
        # Slack covers the difference of two values' rounding errors four
        # times over, so each value must lie within slack / 8 of the exact
        # log abundance of its composition, taken from the table's floats.
        with decimal.localcontext() as context:
            context.prec = 50
            log_p = [decimal.Decimal(iso.abundance).ln()
                     for iso in builtin_isotope_table()[symbol]]
            log_fact = [decimal.Decimal(math.factorial(n)).ln() for n in range(count + 1)]
            source = ElementSource(symbol, count)
            bound = decimal.Decimal(source._slack) / 8
            while source.extend():
                comp = source.compositions[-1]
                exact = log_fact[count] + sum(k * lp - log_fact[k] for k, lp in zip(comp, log_p))
                assert abs(decimal.Decimal(source.values[-1]) - exact) <= bound

    @pytest.mark.parametrize("symbol", sorted(builtin_isotope_table()))
    def test_start_is_a_mode_far_past_enumerable_counts(self, symbol):
        # The walk starts at a mode: no single-atom move from its start gains
        # log abundance. Moving an atom from isotope i to j multiplies the
        # abundance by p_j c_i / (p_i (c_j + 1)); that ratio takes four
        # roundings of 2**-53 relative error each, so its log errs by under
        # 1e-15, and 1e-12 bounds it. A misplaced atom gains at least 2e-10
        # at these counts. Building a source computes only its start, so
        # these counts cost nothing.
        abundances = [iso.abundance for iso in builtin_isotope_table()[symbol]]
        for count in (10**7 + 3, 123_456_789, 10**9 + 7, 2**31 - 1):
            source = ElementSource(symbol, count)
            (start,) = source._seen
            for i, j in source._moves:
                if start[i]:
                    ratio = abundances[j] * start[i] / (abundances[i] * (start[j] + 1))
                    assert math.log(ratio) <= 1e-12, (count, start, i, j)

    @pytest.mark.parametrize("symbol,count,table", [
        ("Tl", 1249, None), ("Tl", 2499, None), ("V", 2799, None), ("C", 7, None),
        ("S", 9, None), ("Aa", 12, TIE_TABLE), ("Bb", 9, TIE_TABLE), ("Cc", 4, TIE_TABLE),
    ])
    def test_bit_equal_values_come_out_in_composition_order(self, symbol, count, table):
        # Tl1249, Tl2499 and V2799 each have two modes of bit-equal
        # abundance. The walk emits them, and every other run of bit-equal
        # values, in ascending composition order whichever mode it starts at.
        table = table or builtin_isotope_table()
        naive = expand_element(symbol, count, table)
        expected = sorted(zip(naive.log_abundances, naive.compositions),
                          key=lambda entry: (-entry[0], entry[1]))
        modes = [comp for value, comp in expected if value == expected[0][0]]
        assert symbol not in ("Tl", "V") or len(modes) == 2
        for mode in modes:
            source = ElementSource(symbol, count, table)
            source._heap.clear()
            source._seen = {mode}
            source._push(mode)
            while source.extend():
                pass
            assert list(zip(source.values, source.compositions)) == expected, mode

    def test_single_isotope_element(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("F\t18.99840322\t1.0\n")
        source = ElementSource("F", 9, load_isotope_table(path))
        assert source.extend()
        assert source.values[-1] == 0.0
        assert not source.extend()
        assert source.compositions == [(9,)]

    def test_bad_count_and_prune_delta_rejected(self):
        with pytest.raises(InputError):
            ElementSource("C", 0)
        for count in (2.5, 2.0, True, "3"):
            with pytest.raises(InputError, match="atom count must be an integer"):
                ElementSource("C", count)
        with pytest.raises(TypeError, match="prune_delta"):  # the option is gone
            ElementSource("C", 2, prune_delta=1.0)
        with pytest.raises(InputError, match="Xq"):
            ElementSource("Xq", 2)

    def test_numpy_integer_count_yields_int_compositions(self):
        source = ElementSource("C", np.int64(3))
        while source.extend():
            pass
        expanded = expand_element("C", np.int64(3))
        for comp in source.compositions + expanded.compositions:
            assert all(type(c) is int for c in comp), comp


def naive_top_peaks(formula, k):
    expanded = [expand_element(symbol, count) for symbol, count in parse_formula(formula)]
    result = tree_top_k([vec.log_abundances for vec in expanded], k)
    return peaks_from_items(expanded, result.items)


def rederive(formula, peak):
    """Log abundance and mass of a peak, recomputed from its configuration."""
    table = builtin_isotope_table()
    log_p = mass = 0.0
    for (symbol, count), comp in zip(parse_formula(formula), peak.configuration):
        assert sum(comp) == count
        log_p += math.lgamma(count + 1)
        for iso, n in zip(table[symbol], comp):
            log_p += n * math.log(iso.abundance) - math.lgamma(n + 1)
            mass += n * iso.mass
    return log_p, mass


formulas = st.lists(
    st.tuples(st.sampled_from(sorted(builtin_isotope_table())), st.integers(1, 40)),
    min_size=1,
    max_size=5,
    unique_by=lambda pair: pair[0],
).map(lambda pairs: "".join(f"{symbol}{count}" for symbol, count in pairs))


@settings(max_examples=200)
@given(formulas, st.integers(1, 600))
def test_top_peaks_matches_naive_path(formula, k):
    lazy = top_peaks(formula, k)
    naive = naive_top_peaks(formula, k)
    assert [p.log_abundance for p in lazy] == [p.log_abundance for p in naive]
    naive_mass = {p.configuration: p.mass for p in naive}
    for peak in lazy:
        if peak.configuration in naive_mass:
            assert math.isclose(peak.mass, naive_mass[peak.configuration], rel_tol=1e-9)
    if lazy:
        # Peaks tied with the last one may be different cells of equal value.
        cut = lazy[-1].log_abundance
        assert (Counter(p.configuration for p in lazy if p.log_abundance > cut)
                == Counter(p.configuration for p in naive if p.log_abundance > cut))


@settings(max_examples=200)
@given(formulas, st.integers(1, 600))
@example(FAKE_COMPOUND, 600)
def test_element_trees_stay_lazy(formula, k):
    # The per-node laziness bound, on the tree top_peaks builds.
    tree = assemble_tree([ElementSource(symbol, count) for symbol, count in parse_formula(formula)])
    check_tree_laziness(tree)
    for _ in range(k):
        if not tree.root.extend():
            break
        check_tree_laziness(tree)


def walk_and_select(formula, k):
    """tensor_select and select, each over fresh ElementSources of formula."""
    def sources():
        return [ElementSource(symbol, count) for symbol, count in parse_formula(formula)]
    return tensor_select(sources(), k), select(sources(), k)


@settings(max_examples=60)
@given(formulas, st.integers(1, 600))
def test_top_peaks_matches_the_oracle(formula, k):
    # A reference that shares no heap code with top_peaks: full enumeration
    # of the naive expansions. The tensor walk over the same element sources
    # must pick the cells that select picks, in the same order.
    expanded = [expand_element(symbol, count) for symbol, count in parse_formula(formula)]
    assume(math.prod(map(len, expanded)) <= ORACLE_CELL_CAP)
    oracle = brute_force_top_k([vec.log_abundances for vec in expanded], k)
    assert_values_match([p.log_abundance for p in top_peaks(formula, k)], oracle.values)
    walked, selected = walk_and_select(formula, k)
    assert walked.index_tuples == selected.index_tuples
    assert_values_match(walked.values, oracle.values)


@pytest.mark.parametrize("formula, tolerance", [(FAKE_COMPOUND, 0.0), ("C254H377N65O75S6", 1e-12)])
def test_tensor_walk_picks_the_cells_select_picks(formula, tolerance):
    # The tensor over lazy per-element sources is the IsoSpec walk. Its keys
    # add each cell's entries in another order than the tree's pair nodes,
    # so on the peptide the values may differ in the last bits.
    walked, selected = walk_and_select(formula, 512)
    assert walked.index_tuples == selected.index_tuples
    assert len(walked.values) == 512
    assert all(abs(a - b) <= tolerance for a, b in zip(walked.values, selected.values))


def test_huge_element_no_longer_hits_the_cap():
    with pytest.raises(InputError, match="cap"):
        expand_element("S", 10000)
    start = time.perf_counter()
    peaks = top_peaks("S10000", 5)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"S10000 took {elapsed:.2f}s"
    assert len(peaks) == 5
    assert all(a.log_abundance >= b.log_abundance for a, b in zip(peaks, peaks[1:]))
    for peak in peaks:
        log_p, mass = rederive("S10000", peak)
        assert math.isclose(peak.log_abundance, log_p, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(peak.mass, mass, rel_tol=1e-12)


def test_counts_beyond_float_resolution_refused(monkeypatch):
    # Near 2**31 atoms of S, the rounding error of a log abundance exceeds
    # the spacing between compositions near the mode, so ordering them
    # exactly would mean exploring millions of near-ties.
    monkeypatch.setattr(summit.isotopes, "LOOKAHEAD_CAP", 2000)
    with pytest.raises(InputError, match="S with 2147483647 atoms.*too close to order"):
        top_peaks("S2147483647", 1)
    # Two isotopes at the same count leave few near-ties.
    peaks = top_peaks("C2147483647", 3)
    assert all(a.log_abundance >= b.log_abundance for a, b in zip(peaks, peaks[1:]))


def test_fake_compound_matches_naive_path():
    start = time.perf_counter()
    peaks = top_peaks(FAKE_COMPOUND, 512)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.25, f"lazy top_peaks took {elapsed:.3f}s"
    naive = naive_top_peaks(FAKE_COMPOUND, 512)
    assert [p.log_abundance for p in peaks] == [p.log_abundance for p in naive]


def spy_on_mapping(monkeypatch):
    """Record each (sources, items) pair that top_peaks maps to peaks,
    through the module name it looks up."""
    calls = []
    original = summit.isotopes.peaks_from_items

    def spy(expanded, items):
        calls.append((expanded, items))
        return original(expanded, items)

    monkeypatch.setattr(summit.isotopes, "peaks_from_items", spy)
    return calls


def assert_peaks_match_a_loop(peaks, expanded, items):
    """Each peak's fields as a per-peak loop gives them, to the bit: the
    mass summed from 0.0 in element order."""
    assert len(peaks) == len(items)
    for peak, (value, indices) in zip(peaks, items):
        mass = 0.0
        for vec, t in zip(expanded, indices):
            mass += vec.masses[t]
        assert peak.mass.hex() == mass.hex()
        assert peak.abundance.hex() == math.exp(value).hex()
        assert peak.log_abundance.hex() == value.hex()
        assert peak.configuration == tuple(vec.compositions[t]
                                           for vec, t in zip(expanded, indices))


def test_top_peaks_maps_through_the_module_name(monkeypatch):
    calls = spy_on_mapping(monkeypatch)
    peaks = top_peaks("C3H8", 3)
    [(expanded, items)] = calls
    assert all(type(item) is IndexedValue for item in items)
    assert [type(source) for source in expanded] == [ElementSource, ElementSource]
    assert_peaks_match_a_loop(peaks, expanded, items)


def test_fake_compound_peak_bits_match_a_loop(monkeypatch):
    calls = spy_on_mapping(monkeypatch)
    peaks = top_peaks(FAKE_COMPOUND, 512)
    [(expanded, items)] = calls
    assert len(peaks) == 512
    assert_peaks_match_a_loop(peaks, expanded, items)


@settings(max_examples=100)
@given(formulas, st.integers(0, 300))
def test_peak_bits_match_a_loop(formula, k):
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = spy_on_mapping(monkeypatch)
        peaks = top_peaks(formula, k)
    [(expanded, items)] = calls
    assert_peaks_match_a_loop(peaks, expanded, items)


NUMPY_FREE_PATH = """
import sys
dataclasses_at_start = "dataclasses" in sys.modules
import summit
from summit.cli import main
summit.builtin_isotope_table()
summit.top_peaks("C3H8", 3)
assert main(["isotopes", "--formula", "C3H8", "--k", "3"]) == 0
assert "numpy" not in sys.modules, "the isotope path loaded numpy"
assert "array" not in sys.modules, "the isotope path loaded array"
vectors = [[3.0, 1.0, 2.0], [4.0, 2.0]]
runs = [engine(vectors, 4).items for engine in
        (summit.tree_top_k, summit.tensor_top_k, summit.brute_force_top_k)]
assert "numpy" in sys.modules
assert runs[0] == runs[1] == runs[2], runs
assert "numpy.ma" not in sys.modules, "the masked-entry check loaded numpy.ma"
assert dataclasses_at_start or "dataclasses" not in sys.modules, "summit loaded dataclasses"
"""


def test_isotope_path_loads_no_numpy():
    # A fresh interpreter: this test process has numpy loaded already.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", NUMPY_FREE_PATH], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 3
