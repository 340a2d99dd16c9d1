import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from summit import bench, cli

from helpers import run_cli


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("3,1\n4,2\n")
    return str(path)


class TestTopk:
    def test_malformed_line_exits_3(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("3,,1\n")
        code, out, err = run_cli(["topk", "--input", str(path), "--k", "1"])
        assert code == 3
        assert out == ""
        assert "malformed" in err

    def test_data_error_loads_no_numpy(self, tmp_path):
        # A fresh interpreter: this test process has numpy loaded already.
        path = tmp_path / "v.txt"
        path.write_text("3,,1\n")
        script = ("import sys; from summit.cli import main; "
                  f"code = main(['topk', '--input', {str(path)!r}, '--k', '1']); "
                  "print(code, 'numpy' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.stdout == "3 False\n", proc.stderr

    def test_only_comments_exits_3(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("# no data\n\n")
        assert run_cli(["topk", "--input", str(path), "--k", "1"]) == (
            3, "", f"error: {path}: no vectors found\n")

    def test_non_finite_value_exits_3(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("1,nan\n")
        assert run_cli(["topk", "--input", str(path), "--k", "1"])[0] == 3

    def test_missing_file_exits_3(self):
        assert run_cli(["topk", "--input", "/nonexistent/v.txt", "--k", "1"])[0] == 3

    def test_methods_agree(self, pair_file):
        outputs = []
        for method in ("tree", "tensor", "oracle"):
            code, out, _ = run_cli(
                ["topk", "--input", pair_file, "--k", "4", "--method", method]
            )
            assert code == 0
            outputs.append([float(line.split("\t")[1]) for line in out.splitlines()])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_unknown_method_exits_2(self, pair_file):
        assert run_cli(["topk", "--input", pair_file, "--k", "1", "--method", "magic"])[0] == 2

    def test_negative_k_exits_2(self, pair_file):
        assert run_cli(["topk", "--input", pair_file, "--k", "-1"])[0] == 2

    def test_non_integer_k_exits_2(self, pair_file):
        # int() would read "1_0" as 10 and take a sign, spaces and non-ASCII
        # digits; the option takes ASCII digits only, as formula counts do.
        for k in ["abc", "1_0", "+3", " 3", "3 ", "\u0663", ""]:
            code, out, err = run_cli(["topk", "--input", pair_file, "--k", k])
            assert (code, out) == (2, ""), k
            assert f"{k!r} is not an integer" in err

    def test_k_beyond_int_digit_limit_exits_2(self, pair_file):
        code, out, err = run_cli(["topk", "--input", pair_file, "--k", "9" * 5000])
        assert (code, out) == (2, "")
        assert "argument --k: a value of 5000 digits is too long" in err
        assert "9" * 50 not in err


class TestIsotopes:
    def test_count_beyond_int_digit_limit_exits_3(self):
        # More digits than int() converts from text (4300).
        code, out, err = run_cli(["isotopes", "--formula", "C" + "1" * 5000, "--k", "1"])
        assert (code, out) == (3, "")
        assert "element count exceeds 32-bit range (offset 1)" in err
        assert "Traceback" not in err

    def test_config_column_in_formula_order(self):
        _, out, _ = run_cli(["isotopes", "--formula", "H2O", "--k", "2"])
        for line in out.splitlines():
            config = line.split("\t")[3]
            assert re.fullmatch(r"H\[\d+,\d+\];O\[\d+,\d+,\d+\]", config)

    def test_custom_data_file(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("F\t18.99840322\t1.0\n")
        code, out, _ = run_cli(
            ["isotopes", "--formula", "F2", "--k", "1", "--data", str(path)]
        )
        assert code == 0
        assert float(out.splitlines()[0].split("\t")[2]) == 1.0

    def test_data_file_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("F\t18.99840322\t1.0\n", encoding="utf-8-sig")
        code, out, _ = run_cli(
            ["isotopes", "--formula", "F2", "--k", "1", "--data", str(path)]
        )
        assert code == 0
        assert out.splitlines()[0].split("\t")[3] == "F[2]"

    def test_data_file_not_utf8_exits_3(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"F\t18.99\xff\t1.0\n")
        assert run_cli(["isotopes", "--formula", "F2", "--k", "1", "--data", str(path)]) == (
            3, "", f"error: {path}: not UTF-8 text\n")

    def test_non_finite_mass_in_data_file_exits_3(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("H\tnan\t0.5\nH\t2.0\t0.5\n")
        code, out, err = run_cli(
            ["isotopes", "--formula", "H2", "--k", "2", "--data", str(path)]
        )
        assert (code, out) == (3, "")
        assert f"{path}:1: isotope mass must be positive and finite" in err

    def test_symbol_no_formula_can_name_exits_3(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("h\t1.0\t1.0\n")
        code, out, err = run_cli(
            ["isotopes", "--formula", "H2", "--k", "1", "--data", str(path)]
        )
        assert (code, out) == (3, "")
        assert f"{path}:1: element symbol 'h' is not an uppercase letter" in err

    def test_unknown_option_exits_2(self):
        code, out, _ = run_cli(
            ["isotopes", "--formula", "C3H8", "--k", "3", "--prune-delta", "1"]
        )
        assert (code, out) == (2, "")

    def test_k_zero_prints_no_rows(self):
        # The same k contract as top_peaks(formula, 0) and `topk --k 0`.
        assert run_cli(["isotopes", "--formula", "C3H8", "--k", "0"]) == (0, "", "")


class TestBench:
    def test_shape_row_per_size_and_method(self, tmp_path):
        out_path = tmp_path / "bench.csv"
        code, _, _ = run_cli(
            ["bench", "--sizes", "8", "--methods", "tree,tensor", "--out", str(out_path)]
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == (
            "m,n,k,method,wall_seconds,heap_pushes,heap_pops,"
            "peak_fringe_entries,peak_entry_bytes_estimate"
        )
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2
        for row, method in zip(rows, ("tree", "tensor")):
            assert row[:4] == ["8", "8", "8", method]

    def test_unknown_method_exits_2(self):
        code, _, err = run_cli(["bench", "--sizes", "4", "--methods", "tree,warp"])
        assert code == 2
        assert "warp" in err

    def test_bad_sizes_exit_2(self):
        for sizes in ["4,x", "4,1_0", "+4", "4,\u0663"]:
            code, _, err = run_cli(["bench", "--sizes", sizes, "--methods", "tree"])
            assert code == 2
            assert f"{sizes!r} is not a comma list of integers" in err

    def test_bad_seed_exits_2(self):
        for seed in ["1_0", "+3", " 3", "\u0663"]:
            code, out, err = run_cli(["bench", "--sizes", "2", "--methods", "tree", "--seed", seed])
            assert (code, out) == (2, "")
            assert f"{seed!r} is not an integer" in err
        code, out, _ = run_cli(["bench", "--sizes", "2", "--methods", "tree", "--seed", "-3"])
        assert (code, len(out.splitlines())) == (0, 2)

    def test_size_zero_exits_2(self):
        code, out, err = run_cli(["bench", "--sizes", "4,0", "--methods", "tree"])
        assert (code, out) == (2, "")
        assert "sizes must be positive integers" in err


def test_method_choices_are_the_engines():
    # The CLI names the engines without loading bench.
    assert cli.METHODS == tuple(sorted(bench.ENGINES))


def test_missing_subcommand_exits_2():
    assert run_cli([])[0] == 2
