"""The repository's command-line tools."""

import math
import os
import shutil
import subprocess
import sys

import pytest

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


def _miss_rate(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(ROOT, "tools", "miss_rate.py"), "--src", SRC, *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


def test_miss_rate_counts_seeds_and_repeats_byte_for_byte():
    args = ["symmetric:2:0.5:0:1", "symmetric:2:1:0:1", "symmetric:2:0.5:-0.5:1",
            "--points", "256", "--replicates", "4", "--seeds", "1-6"]
    first, second = _miss_rate(*args), _miss_rate(*args)
    assert first.returncode == 0, first.stdout + first.stderr
    assert first.stdout == second.stdout
    lines = first.stdout.splitlines()
    assert lines[0] == "points 256  replicates 4  seeds 1-6 (6)"
    assert lines[1] == "spec  miss>3 rate wilson95 t3_tail  miss>4 rate wilson95 t3_tail"
    for line in lines[2:4]:
        cols = line.split()
        assert cols[0] in args
        (h3, r3, w3, t3), (h4, r4, w4, t4) = cols[1:5], cols[5:9]
        assert 0 <= int(h4) <= int(h3) <= 6
        for hits, rate, interval in ((h3, r3, w3), (h4, r4, w4)):
            lo, hi = map(float, interval.strip("[]").split(","))
            assert float(rate) == round(int(hits) / 6, 3) and lo <= float(rate) <= hi
        assert (t3, t4) == ("0.0577", "0.0280")  # P(|T_3| > 3) and P(|T_3| > 4)
    assert lines[4] == ("symmetric:2:0.5:-0.5:1  skipped: "
                        "Re s = -0.5 < 0: log factor unbounded at the corner")


@pytest.mark.parametrize("args, message", [
    (["symmetric:2:0.5"], "is not FAMILY:M:Z:S:EXPONENTS"),
    (["symmetric:2:0.5:0:1", "--replicates", "1"], "need at least 2 replicates"),
    (["symmetric:2:0.5:0:1", "--seeds", "5-1"], "empty seed range"),
])
def test_miss_rate_rejects_bad_arguments(args, message):
    proc = _miss_rate(*args)
    assert proc.returncode == 2
    assert message in proc.stderr


def test_miss_rate_t_tail_matches_closed_forms():
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    try:
        from miss_rate import t_tail
    finally:
        sys.path.pop(0)
    assert math.isclose(t_tail(1.0, 1), 0.5, rel_tol=1e-14)  # Cauchy
    for k in (0.5, 3.0, 4.0):
        assert math.isclose(t_tail(k, 2), 1.0 - k / math.sqrt(k * k + 2.0), rel_tol=1e-13)
    assert math.isclose(t_tail(3.0, 7), 0.019942126131992, rel_tol=1e-12)
    assert math.isclose(t_tail(4.0, 7), 0.005189913349297, rel_tol=1e-12)
