import math

import pytest

from summit import (
    FormulaError,
    InputError,
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
        with pytest.raises(InputError):
            expand_element("C", 2, prune_delta=-1.0)

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
