"""The repository's command-line tools."""

import math
import os
import shutil
import subprocess
import sys

import lerchint

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(lerchint.__file__)))


def _same_numbers(old: str, new: str, ops: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(ROOT, "tools", "same_numbers.py"), old, new,
           "--workload", "verify-reduced", "--seed", "1", "--ops", str(ops)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


def test_same_numbers_finds_a_tree_identical_to_itself():
    proc = _same_numbers(SRC, SRC, 20)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "20 vs 20 operations; identical"
    pass_row = next(line.split() for line in lines if line.startswith("verify.pass_ "))
    assert int(pass_row[1]) > 0 and pass_row[2:] == ["0", "-"]


def test_same_numbers_finds_a_one_ulp_change_in_a_gamma_coefficient(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    special = changed / "lerchint" / "special.py"
    text = special.read_text()
    coeff = "    57.156235665862923517,\n"  # the second Lanczos coefficient
    assert text.count(coeff) == 1
    special.write_text(text.replace(coeff, f"    {math.nextafter(57.156235665862923517, math.inf)!r},\n"))
    proc = _same_numbers(SRC, str(changed), 5)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "5 vs 5 operations; DIFFER"
    rhs_row = next(line.split() for line in lines if line.startswith("verify.rhs.re "))
    assert int(rhs_row[2]) > 0
    assert 0.0 < float(rhs_row[3]) < 1e-12  # one ulp of a coefficient moves the closed form by ulps


def test_ab_layer_times_a_tree_against_itself():
    cmd = [sys.executable, os.path.join(ROOT, "tools", "ab_layer.py"), SRC, SRC,
           "--workload", "verify-reduced", "--seed", "1", "--ops", "20",
           "--function", "quad1d.reduced_eval", "--rounds", "2"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    calls = int(lines[0].split()[1])
    assert calls > 0 and "20 verify-reduced operations" in lines[0]
    assert lines[1].startswith("old ") and lines[2].startswith("new ")
    assert lines[3].startswith("ratio new/old  median ")
    assert lines[-1] == "results identical"
