"""Exact CLI outputs, pinned row by row, line by line or by SHA-256.

Every expected value here is the output of the code that first produced it;
a change that alters one is a change of output, not of tolerance.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import FAKE_COMPOUND, run_cli

ROOT = Path(__file__).resolve().parents[1]

# The three most abundant peaks of C3H8, exactly as `summit isotopes` prints
# them: every row of the element walk's output is pinned, not just the count.
PROPANE_ROWS = (
    "1\t44.0626002566\t0.967174572331\tC[3,0];H[8,0]\n"
    "2\t45.0659550944\t0.03167858486\tC[2,1];H[8,0]\n"
    "3\t45.0688770023\t0.000773817039569\tC[3,0];H[7,1]\n"
)

TIED = "2,0,2,1,2,0\n1,1,0,1,1,1\n0,2,2,2,0,2\n"
TIED12 = ("2,0,2,1,2,0,1,2,2,0,1,2\n1,1,0,1,1,1,2,0,1,1,0,1\n"
          "0,2,2,2,0,2,1,1,2,0,2,2\n")
# Two 300-entry tied rows.
LAYERED = (",".join(str(i * i % 7) for i in range(300)) + "\n"
           + ",".join(str(i * 3 % 5) for i in range(300)) + "\n")
# A 300-entry tied row, a 9-entry and a 1-entry row.
RAGGED = ",".join(str(i * i % 7) for i in range(300)) + "\n3,1,4,1,5,9,2,6,5\n7\n"


def topk(tmp_path, text, *args):
    pytest.importorskip("numpy")
    path = tmp_path / "vectors.txt"
    path.write_text(text)
    code, out, err = run_cli(["topk", "--input", str(path), *args])
    assert (code, err) == (0, "")
    return out


def test_propane_rows():
    code, out, err = run_cli(["isotopes", "--formula", "C3H8", "--k", "3"])
    assert (code, out, err) == (0, PROPANE_ROWS, "")


def run_script(args, hash_seed="random"):
    """Runs `python args...` from the repository root with src on the path,
    under PYTHONHASHSEED=hash_seed: a fresh hash seed unless one is given."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": hash_seed}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_topk_three_rows(tmp_path):
    # `python -m summit`, not cli.main in-process: this runs __main__.py.
    pytest.importorskip("numpy")
    path = tmp_path / "vectors.txt"
    path.write_text("3,1\n4,2\n")
    proc = run_script(["-m", "summit", "topk", "--input", str(path), "--k", "3"])
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 3


def test_output_hash_digest():
    # Outputs and counters of all 345 benchmark queries at seeds 1-3, digested
    # by tools/output_hash.py; a speed change must leave this line as it is.
    # The same line under hash seeds 1 and 2 shows that no output depends on
    # set or dict order.
    pytest.importorskip("numpy")
    for hash_seed in ("1", "2"):
        proc = run_script(["tools/output_hash.py"], hash_seed)
        assert (proc.returncode, proc.stdout) == (
            0, "345 78c33a3922c741f0976baee25e896cf5c681a6fc6a1673a2115734ece9d02538\n"
        ), proc.stderr


def test_singles_counters(tmp_path):
    # Five one-entry vectors reach their peak fringe while the tree is built,
    # so the counters line pins that the build samples it.
    out = topk(tmp_path, "1\n2\n3\n4\n5\n", "--k", "1", "--counters")
    assert out.splitlines()[-1] == "# pushes=4 pops=4 peak_fringe=2"


# Tied, equal-length rows are converted and their leaves' first layers cut as
# one block, whether or not numpy.ma is loaded. The 6-entry rows fit in that
# layer; two of the 12-entry rows' leaves serve past it (10, 7 and 10 entries).
@pytest.mark.parametrize("text,k,tail", [
    (TIED, "40", ["40\t5.0\t2,4,2", "# pushes=64 pops=53 peak_fringe=11"]),
    (TIED12, "200", ["200\t5.0\t7,3,10", "# pushes=245 pops=228 peak_fringe=17"]),
], ids=["tied", "tied12"])
def test_tied_block_counters(tmp_path, text, k, tail, ma_loaded):
    assert topk(tmp_path, text, "--k", k, "--counters").splitlines()[-2:] == tail


# No benchmark workload serves a leaf past its first layer. The layered rows
# are served far past it by both engines, so the full outputs pin every later
# layer cut (last lines: tree 60000 3.0 113,299 / pushes=60240 pops=60000
# peak_fringe=284, tensor 60000 3.0 210,86 / pushes=60426 pops=60000
# peak_fringe=576). Ragged rows are not stacked: each leaf is cut from its own
# row, first layer and later ones alike, and both engines drain the 2700
# cells (last lines: 2700 8.0 294,3,0, then tree pushes=5400 pops=5400
# peak_fringe=8, tensor pushes=2700 pops=2700 peak_fringe=302).
@pytest.mark.parametrize("text,args,digest", [
    (LAYERED, ["--k", "60000", "--counters"],
     "e40c83c2f00399900a61f268c86ac82bb4dc18e536ff7264f0ac4b92e2e96cc3"),
    (LAYERED, ["--k", "60000", "--counters", "--method", "tensor"],
     "ea4971f9441847750b947637d7494bea04d3e1cdebc14b1e3aa71b36c5997032"),
    (RAGGED, ["--k", "3000", "--counters", "--method", "tree"],
     "c4cb04c33fd542821109e588a36f0cc1abe499d3d9ba06d82d6c602130ba6573"),
    (RAGGED, ["--k", "3000", "--counters", "--method", "tensor"],
     "98e486adc80156b454ce4deed724cde57a225c7124559bd6351af6eee61c75e7"),
], ids=["layered-tree", "layered-tensor", "ragged-tree", "ragged-tensor"])
def test_layered_output_hashes(tmp_path, text, args, digest):
    out = topk(tmp_path, text, *args)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The paper's fake compound at k=512: 512 rows, each labelled with all 13
# element compositions, so the digest pins every configuration label.
def test_fake_compound_rows_hash():
    code, out, err = run_cli(["isotopes", "--formula", FAKE_COMPOUND, "--k", "512"])
    assert (code, err, len(out.splitlines())) == (0, "", 512)
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "b07236b0ee181e8f6f8c6a6e59172d87cd7b3648a9de0c9a07e69e0a7ef57bcb")


# Counts far past any that can be enumerated: 10^8 C and 2*10^8 H atoms.
def test_huge_counts_rows_hash():
    code, out, err = run_cli(["isotopes", "--formula", "C100000000H200000000", "--k", "16"])
    assert (code, err, len(out.splitlines())) == (0, "", 16)
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "9440f9565a1cdc62874e32bc57ce40e561917340376d294c2b0d0b2d406242d5")
