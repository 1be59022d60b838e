"""Time one library function of two source trees on the same recorded calls.

    python3 tools/ab_layer.py OLD_SRC NEW_SRC --workload verify-reduced --seed 1 \
        --ops 2000 --function quad1d.reduced_eval --rounds 20

OLD_SRC and NEW_SRC are directories that hold a ``lerchint`` package (a
checkout's ``src``).  Both trees are loaded into this one process, each
under its own package name, so they share the interpreter, numpy and the
machine's state at the moment they run.  The old tree runs the first OPS
operations of ``bench/workloads.Stream(workload, seed)`` while every module
attribute that is FUNCTION records the arguments it is called with.  Each
recorded call is then replayed on both trees in alternating rounds, the
first side alternating too, and each round's CPU time (``time.process_time``)
is divided by the number of calls.

The script prints the median microseconds per call of each tree with the
quartiles, the median of the per-round ratios new/old, and whether every
replayed call gave identical results (values compared field by field as
``tools/same_numbers.py`` flattens them; a raised exception is compared by
type and message).  Exit status is 0 when it runs, 2 when a tree cannot be
loaded or the recorded arguments cannot be pickled (a closure, say).  The
absolute time per call moves with the host's load; the ratio,
measured in one process with interleaved rounds, moves far less.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import os
import pickle
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from same_numbers import _flatten  # noqa: E402

SIDES = ("old", "new")


def load_tree(src: str, name: str):
    """Import ``src/lerchint`` as the package ``name``."""
    pkg_dir = os.path.join(src, "lerchint")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"), submodule_search_locations=[pkg_dir])
    if spec is None or spec.loader is None:
        raise ImportError(f"no lerchint package under {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def record_calls(lib, function: str, workload: str, seed: int, ops: int) -> list:
    """Run the workload's operations on ``lib``; return the (args, kwargs) of each call of function."""
    module_name, attr = function.rsplit(".", 1)
    target = getattr(sys.modules[f"{lib.__name__}.{module_name}"], attr)
    calls = []

    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        return target(*args, **kwargs)

    patched = [m for name, m in sys.modules.items()
               if (name == lib.__name__ or name.startswith(lib.__name__ + "."))
               and getattr(m, attr, None) is target]
    for m in patched:
        setattr(m, attr, recorder)
    try:
        for op in wl.Stream(workload, seed).take(ops):
            try:
                wl.run_op(lib, op)
            except Exception:  # a raising operation still made its calls
                pass
    finally:
        for m in patched:
            setattr(m, attr, target)
    return calls


class _Rename(pickle.Unpickler):
    """Unpickle objects of one loaded tree as the same classes of the other."""

    def __init__(self, data: bytes, old: str, new: str):
        super().__init__(io.BytesIO(data))
        self._old, self._new = old, new

    def find_class(self, module: str, name: str):
        if module == self._old or module.startswith(self._old + "."):
            module = self._new + module[len(self._old):]
        return super().find_class(module, name)


def _outcome(fn, args, kwargs) -> dict:
    try:
        return _flatten(fn(*args, **kwargs), "result", {})
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _time_round(fn, calls) -> float:
    start = time.process_time()
    for args, kwargs in calls:
        try:
            fn(*args, **kwargs)
        except Exception:
            pass
    return (time.process_time() - start) / len(calls) * 1e6


def _quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trees", nargs=2, metavar="SRC", help="OLD_SRC NEW_SRC")
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--ops", type=int, default=2000)
    ap.add_argument("--function", default="quad1d.reduced_eval",
                    help="MODULE.NAME of a function in the lerchint package")
    ap.add_argument("--rounds", type=int, default=20)
    args = ap.parse_args()
    if args.rounds < 1 or args.ops < 1:
        ap.error("--rounds and --ops must be positive")
    try:
        libs = {side: load_tree(src, f"lerchint_ab_{side}") for side, src in zip(SIDES, args.trees)}
        module_name, attr = args.function.rsplit(".", 1)
        fns = {side: getattr(sys.modules[f"{lib.__name__}.{module_name}"], attr)
               for side, lib in libs.items()}
    except (ImportError, KeyError, AttributeError, ValueError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2
    old_calls = record_calls(libs["old"], args.function, args.workload, args.seed, args.ops)
    if not old_calls:
        print(f"{args.function} was not called by {args.ops} {args.workload} operations")
        return 0
    try:  # the new tree gets its own copy of each argument, built from its own classes
        new_calls = [_Rename(pickle.dumps(call), libs["old"].__name__, libs["new"].__name__).load()
                     for call in old_calls]
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        print(f"error: the recorded arguments cannot be copied to the new tree: {exc!r}",
              file=sys.stderr)
        return 2
    calls = {"old": old_calls, "new": new_calls}
    outcomes = {side: [_outcome(fns[side], a, k) for a, k in calls[side]] for side in SIDES}
    differing = sum(a != b for a, b in zip(outcomes["old"], outcomes["new"]))

    per_call = {side: [] for side in SIDES}
    for r in range(args.rounds):
        for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
            per_call[side].append(_time_round(fns[side], calls[side]))
    ratios = [n / o for o, n in zip(per_call["old"], per_call["new"])]

    print(f"{args.function}: {len(old_calls)} calls from {args.ops} {args.workload} "
          f"operations (seed {args.seed}), {args.rounds} rounds, CPU time")
    for side, src in zip(SIDES, args.trees):
        lo, hi = _quartiles(per_call[side])
        print(f"{side}  {statistics.median(per_call[side]):9.2f} us/call  "
              f"[{lo:.2f}, {hi:.2f}]  {src}")
    lo, hi = _quartiles(ratios)
    print(f"ratio new/old  median {statistics.median(ratios):.3f}  [{lo:.3f}, {hi:.3f}]")
    print("results identical" if differing == 0
          else f"results DIFFER on {differing} of {len(old_calls)} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
