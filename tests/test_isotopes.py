import bisect
import math
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import summit.isotopes
from summit import (
    ElementSource,
    FormulaError,
    InputError,
    Isotope,
    IsotopeTable,
    builtin_isotope_table,
    expand_element,
    load_isotope_table,
    parse_formula,
    peaks_from_items,
    tensor_top_k,
    top_peaks,
    tree_top_k,
)


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

    def test_count_must_fit_32_bits(self):
        assert parse_formula("C2147483647") == [("C", 2**31 - 1)]
        with pytest.raises(FormulaError):
            parse_formula("C2147483648")

    def test_fake_compound_parses(self):
        counts = parse_formula("Cl800V800He800C800H800N800O100S6Cu800Ga800Ag800Tl800Ne800")
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
        for symbol in table.symbols():
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

    def test_abundance_sum_violation(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("C\t12.0\t0.5\nC\t13.0\t0.4\n")
        with pytest.raises(InputError, match="sum to"):
            load_isotope_table(path)

    def test_renormalize_flag(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("C\t12.0\t0.5\nC\t13.0\t0.4\n")
        table = load_isotope_table(path, renormalize=True)
        assert sum(iso.abundance for iso in table["C"]) == pytest.approx(1.0)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# header\n\nC\t12.0\t0.9892\nC\t13.0033548378\t0.0108\n")
        assert "C" in load_isotope_table(path)


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
        with pytest.raises(InputError, match="Ne"):
            expand_element("Ne", 800, cap=1000)

    def test_prune_delta_waives_cap_and_filters(self):
        full = expand_element("Ne", 50)
        pruned = expand_element("Ne", 50, prune_delta=10.0, cap=10)
        assert 0 < len(pruned) < len(full)
        best = max(full.log_abundances)
        assert max(pruned.log_abundances) == best
        assert all(la >= best - 10.0 for la in pruned.log_abundances)
        kept = {comp for comp, la in zip(full.compositions, full.log_abundances)
                if la >= best - 10.0}
        assert set(pruned.compositions) == kept

    def test_negative_prune_delta_rejected(self):
        for bad in (-1.0, float("nan")):
            with pytest.raises(InputError):
                expand_element("C", 2, prune_delta=bad)

    def test_zero_count_rejected(self):
        with pytest.raises(InputError):
            expand_element("C", 0)


class TestTopPeaks:
    def test_propane_top_peak(self):
        peak = top_peaks("C3H8", 1)[0]
        expected = 0.9892**3 * 0.9999**8
        assert abs(peak.abundance - expected) <= 1e-12 * expected
        assert peak.configuration == ((3, 0), (8, 0))
        assert peak.mass == pytest.approx(3 * 12.0 + 8 * 1.00782503207, rel=1e-12)

    def test_propane_exhaustive_normalizes(self):
        peaks = top_peaks("C3H8", 4 * 9)
        assert len(peaks) == 36
        assert sum(p.abundance for p in peaks) == pytest.approx(1.0, abs=1e-6)

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

    def test_k_below_one_rejected(self):
        with pytest.raises(InputError):
            top_peaks("C3H8", 0)

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

FAKE_COMPOUND = "Cl800V800He800C800H800N800O100S6Cu800Ga800Ag800Tl800Ne800"


def drain_against_enumeration(symbol, count, table, prune_delta=None):
    """Pop an ElementSource dry and compare it with expand_element."""
    e = len(table[symbol])
    naive = expand_element(symbol, count, table, prune_delta)
    expected = sorted(naive.log_abundances, reverse=True)
    ascending = sorted(expand_element(symbol, count, table).log_abundances)
    source = ElementSource(symbol, count, table, prune_delta)
    values = []
    while (item := source.pop_next()) is not None:
        assert item.indices == (len(values),)
        values.append(item.value)
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
    @pytest.mark.parametrize("symbol", builtin_isotope_table().symbols())
    def test_builtin_elements_match_full_enumeration(self, symbol):
        table = builtin_isotope_table()
        for count in range(1, 31):
            for prune_delta in (None, 0.0, 4.0):
                drain_against_enumeration(symbol, count, table, prune_delta)

    @pytest.mark.parametrize("symbol,max_count", [("Aa", 60), ("Bb", 60), ("Cc", 10)])
    def test_tied_abundances_match_full_enumeration(self, symbol, max_count):
        for count in range(1, max_count + 1):
            for prune_delta in (None, 0.0, 3.0):
                drain_against_enumeration(symbol, count, TIE_TABLE, prune_delta)

    def test_single_isotope_element(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("F\t18.99840322\t1.0\n")
        source = ElementSource("F", 9, load_isotope_table(path))
        assert source.pop_next().value == 0.0
        assert source.pop_next() is None
        assert source.compositions == [(9,)]

    def test_bad_count_and_prune_delta_rejected(self):
        with pytest.raises(InputError):
            ElementSource("C", 0)
        for bad in (-1.0, float("nan")):
            with pytest.raises(InputError):
                ElementSource("C", 2, prune_delta=bad)
        with pytest.raises(InputError, match="Xq"):
            ElementSource("Xq", 2)


def naive_top_peaks(formula, k, prune_delta=None):
    expanded = [expand_element(symbol, count, prune_delta=prune_delta)
                for symbol, count in parse_formula(formula)]
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
    st.tuples(st.sampled_from(builtin_isotope_table().symbols()), st.integers(1, 40)),
    min_size=1,
    max_size=5,
    unique_by=lambda pair: pair[0],
).map(lambda pairs: "".join(f"{symbol}{count}" for symbol, count in pairs))


@settings(max_examples=200)
@given(formulas, st.integers(1, 600), st.one_of(st.none(), st.floats(0.0, 20.0)))
def test_top_peaks_matches_naive_path(formula, k, prune_delta):
    lazy = top_peaks(formula, k, prune_delta=prune_delta)
    naive = naive_top_peaks(formula, k, prune_delta)
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


@pytest.mark.parametrize("symbol,count", [("C", 20), ("Ne", 20), ("S", 10)])
def test_prune_floor_just_above_an_entry(symbol, count):
    # A floor a hair above an entry, closer than the walk's rounding slack:
    # the entry must still be left out.
    values = sorted(set(expand_element(symbol, count).log_abundances), reverse=True)
    for v in values[1:6]:
        prune_delta = (values[0] - v) * (1 - 1e-12)
        assert values[0] - prune_delta > v
        drain_against_enumeration(symbol, count, builtin_isotope_table(), prune_delta)
