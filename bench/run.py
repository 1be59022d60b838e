"""lerchint benchmark: three seeded closed-loop workloads, one client each.

    python3 bench/run.py --workload phi-mix --seed 1 --seconds 25 --trace 0

Workloads: phi-mix, verify-reduced, verify-qmc (see workloads.py).  Each run
starts several fresh setup probes (import plus first operation; the median
is setup_s), then one fresh worker process for the workload.  With
--trace 0 the worker runs the closed loop with tracing off and the last line
is the end-to-end metrics; with --trace 1 it runs a fixed operation list
untraced and traced (per-layer metrics, self times, tracing overhead), and a
second worker recounts the same list: the input digests and the calls,
terms, nodes and points counters of the two processes must agree exactly.

Every operation's output is checked (mpmath for phi, the library's own
pass rule for verify and constants, with a 3-sigma QMC miss counted apart
from a wrong result).  The last line of stdout is one JSON object with
keys correct, attempted, failed and metrics.  Exit status is 0 on a
completed run, 1 when a self-check fails, 2 when the library cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("phi-mix", "verify-reduced", "verify-qmc")
SETUP_PROBES = 5
BUDGET_S = 170.0  # a run must end within 180 s

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A child process failed or its output is unusable (exit status 2)."""


class SelfCheckError(BenchError):
    """Two processes disagree on the inputs or the work counters (exit status 1)."""


def _child(script: str, args: list, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, script)] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} {' '.join(args)} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{script} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    lib_file = os.path.realpath(out.get("lerchint_file", ""))
    if not lib_file.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"lerchint was imported from {lib_file}, not from {SRC}")
    return out


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac") or name.endswith(".share"):
        return "fraction"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "lerchint", "__init__.py")):
        print(f"error: no lerchint package under {SRC}", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def left() -> float:
        return BUDGET_S - (time.monotonic() - start)

    try:
        probes = [_child("probe.py", common, 60.0) for _ in range(SETUP_PROBES)]
        totals = [p["import_s"] + p["first_op_s"] for p in probes]
        digests = {p["digest"] for p in probes}
        if args.trace == 0:
            res = _child("worker.py", common + ["--seconds", str(args.seconds)], left())
            digests.add(res["digest"])
            if len(digests) != 1:
                raise SelfCheckError(f"input digests differ across processes: {digests}")
            metrics = dict(res["metrics"])
            metrics["setup_s"] = statistics.median(totals)
            info = dict(res["info"], failed_frac=metrics.pop("failed_frac"),
                        outcomes=res["outcomes"], setup_samples_s=totals)
            shown = {k: (metrics[k], u) for k, u in END_TO_END_UNITS.items()}
        else:
            res = _child("worker.py", common + ["--role", "trace"], left())
            again = _child("worker.py", common + ["--role", "count"], left())
            if res["digest"] != again["digest"] or res["counters"] != again["counters"]:
                diff = {k: (res["counters"].get(k), again["counters"].get(k))
                        for k in set(res["counters"]) | set(again["counters"])
                        if res["counters"].get(k) != again["counters"].get(k)}
                raise SelfCheckError(f"two runs of seed {args.seed} disagree: "
                                 f"digest {res['digest']} vs {again['digest']}, counters {diff}")
            layers = dict(res["layers"])
            layers["setup.import_ms"] = 1e3 * statistics.median(p["import_s"] for p in probes)
            layers["setup.first_op_ms"] = 1e3 * statistics.median(
                p["first_op_s"] for p in probes)
            layers["trace.overhead_frac"] = res["overhead_frac"]
            info = {"outcomes": res["outcomes"], "digest": res["digest"]}
            shown = {k: (v, _unit(k)) for k, v in layers.items()}
    except SelfCheckError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"# lerchint benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} attempted={res['attempted']} failed={res['failed']}")
    print("# " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in shown.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
