"""The repository's command-line tools."""

import os
import subprocess
import sys

import lerchint

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_same_numbers_finds_a_tree_identical_to_itself():
    src = os.path.dirname(os.path.dirname(os.path.abspath(lerchint.__file__)))
    cmd = [sys.executable, os.path.join(ROOT, "tools", "same_numbers.py"), src, src,
           "--workload", "verify-reduced", "--seed", "1", "--ops", "20"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "20 vs 20 operations; identical"
    pass_row = next(line.split() for line in lines if line.startswith("verify.pass_ "))
    assert int(pass_row[1]) > 0 and pass_row[2:] == ["0", "-"]
