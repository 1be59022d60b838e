"""Compare the numbers two source trees give on a benchmark workload's operations.

    python3 tools/same_numbers.py OLD_SRC NEW_SRC --workload verify-qmc --seed 1 --ops 35

OLD_SRC and NEW_SRC are directories that hold a ``lerchint`` package (a
checkout's ``src``).  Each tree runs the first OPS operations of
``bench/workloads.Stream(workload, seed)`` in its own fresh process, with
that tree first on the path; ``bench/`` is only imported.  Every result is
flattened into named fields (a complex value gives ``.re`` and ``.im``, an
operation that raises gives ``error``), and for each field the script prints
how many operations gave identical values, how many differ, and the largest
relative difference |a - b| / max(|a|, |b|).

Exit status: 0 when every field of every operation is identical, 1 when
any differs, 2 when a tree cannot be run.  Whether a difference is small
enough is read from the max_rel_diff column.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads as wl  # noqa: E402  (standard library only; no lerchint)


def _flatten(value, name: str, out: dict) -> dict:
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _flatten(getattr(value, f.name), f"{name}.{f.name}", out)
    elif isinstance(value, (tuple, list)):
        for i, v in enumerate(value):
            _flatten(v, f"{name}[{i}]", out)
    elif isinstance(value, complex):
        out[name + ".re"] = value.real
        out[name + ".im"] = value.imag
    else:  # float, int, bool, str or None; numpy scalars become Python ones
        out[name] = value.item() if hasattr(value, "item") else value
    return out


def dump(workload: str, seed: int, ops: int) -> None:
    """Run the operations with the lerchint on sys.path; print one JSON list of field dicts."""
    import lerchint

    rows = []
    for op in wl.Stream(workload, seed).take(ops):
        try:
            rows.append(_flatten(wl.run_op(lerchint, op), op.kind, {}))
        except Exception as exc:  # a raising operation is a result to compare too
            rows.append({op.kind + ".error": f"{type(exc).__name__}: {exc}"})
    print(json.dumps({"lerchint_file": lerchint.__file__, "rows": rows}))


def _run_tree(src: str, workload: str, seed: int, ops: int) -> list:
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.abspath(__file__), "--dump",
           "--workload", workload, "--seed", str(seed), "--ops", str(ops)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    lib = os.path.realpath(out["lerchint_file"])
    if not lib.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"{src}: lerchint was imported from {lib}")
    return out["rows"]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    diff = abs(a - b)
    return diff / scale if math.isfinite(diff) and scale > 0.0 else math.inf


def compare(old: list, new: list) -> bool:
    """Print per-field identical and differing counts; True when every field is identical."""
    stats: dict[str, list] = {}  # field -> [identical, differing, max rel diff or None]
    for a_row, b_row in zip(old, new):
        for key in sorted(set(a_row) | set(b_row)):
            a, b = a_row.get(key), b_row.get(key)
            st = stats.setdefault(key, [0, 0, 0.0])
            if type(a) is type(b) and repr(a) == repr(b):
                st[0] += 1
                continue
            st[1] += 1
            if _is_number(a) and _is_number(b) and st[2] is not None:
                st[2] = max(st[2], _rel_diff(a, b))
            else:
                st[2] = None  # a non-numeric field differs
    ok = len(old) == len(new)
    width = max((len(k) for k in stats), default=5)
    print(f"{'field':<{width}}  identical  differing  max_rel_diff")
    for key, (same, differ, rel) in stats.items():
        shown = "-" if differ == 0 else ("not numeric" if rel is None else f"{rel:.3g}")
        print(f"{key:<{width}}  {same:>9}  {differ:>9}  {shown}")
        ok = ok and differ == 0
    print(f"{len(old)} vs {len(new)} operations; {'identical' if ok else 'DIFFER'}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trees", nargs="*", metavar="SRC", help="OLD_SRC NEW_SRC")
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--ops", type=int, default=35)
    ap.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.dump:
        dump(args.workload, args.seed, args.ops)
        return 0
    if len(args.trees) != 2:
        ap.error("give two source trees: OLD_SRC NEW_SRC")
    try:
        old, new = (_run_tree(t, args.workload, args.seed, args.ops) for t in args.trees)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if compare(old, new) else 1


if __name__ == "__main__":
    sys.exit(main())
