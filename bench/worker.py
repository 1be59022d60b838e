"""One workload in a fresh process: the timed run, the traced run or a recount.

Run by ``run.py`` with the library on PYTHONPATH; prints one JSON object.

roles
  measure  closed loop, one client, tracing off, for --seconds
  trace    a fixed operation list, each chunk run untraced and traced (the
           order alternates) for the tracing overhead and per-layer metrics;
           the spans are written to .bench_out/spans-<workload>-<seed>.json
  count    the same fixed list traced once more, for the self-check
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans as tr  # noqa: E402
import workloads as wl  # noqa: E402

# phi-mix and verify-reduced cycle a fixed pool of distinct inputs; each
# input's latency and CPU time are the lower decile of its repeats.  On a
# shared machine execution slows by a third or more for seconds at a time,
# often for most of a run; the low decile of repeats spread across the run
# measures the input's own cost, where a mean or median would carry those
# phases (seed-to-seed spread 0.13 against 0.38 for the median in a noisy
# hour on 2 cores).  verify-qmc's operations take 0.03-2 s, too long to
# repeat, so it runs a stream of distinct inputs and reports the median over
# blocks (rate, CPU) and quantiles over the run; the run stops only after a
# whole cycle of m values, so every run has the same mix of operation costs.
POOL = {"phi-mix": wl.PHI_POOL, "verify-reduced": 2000}
MIN_CYCLES = 5
REPEAT_QUANTILE = 0.1
# the fixed operation list of the traced run and the self-check
TRACE_OPS = {"phi-mix": 3 * wl.PHI_POOL, "verify-reduced": 2000, "verify-qmc": 35}
TRACE_CHUNK = {"phi-mix": wl.PHI_POOL, "verify-reduced": 250, "verify-qmc": 7}
# latency_tail_ms percentile: at least 10 samples beyond it (for the pools,
# distinct inputs: 12 of 120 and 100 of 2000).  verify-reduced's pool is
# drawn afresh per seed, so its few costliest inputs change with the seed:
# across seeds p99 (20 beyond) spread up to 0.28 of its median, p95 about
# half as much
TAIL_PCT = {"phi-mix": 90.0, "verify-reduced": 95.0, "verify-qmc": 80.0}
# the traced run writes its spans here, relative to the checkout root
SPANS_DIR = ".bench_out"


def _quantile(sorted_vals, pct: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, min(len(sorted_vals) - 1, int(-(-pct * len(sorted_vals) // 100)) - 1))
    return sorted_vals[k]


def _low(values) -> float:
    """Lower decile (nearest rank) of one input's repeated measurements."""
    return sorted(values)[int(REPEAT_QUANTILE * len(values))]


def _load_library():
    import lerchint
    import lerchint.constants  # noqa: F401  (explicit: the tracer patches these)
    import lerchint.identities  # noqa: F401
    import lerchint.lerch  # noqa: F401
    import lerchint.qmc  # noqa: F401
    import lerchint.simplex  # noqa: F401

    return lerchint


def _prepare(ops) -> None:
    for op in ops:
        if op.kind == "phi" and op.ref is None:
            op.ref = wl.phi_reference(op)


def _run_one(lib, op, outcome_counts):
    """Run and check one operation.

    Returns its outcome class and the wall and CPU seconds of the library
    call alone (the oracle check is not timed).
    """
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        result = wl.run_op(lib, op)
    except lib.ConvergenceError:
        outcome = "convergence_error"
    except lib.DomainError:
        outcome = "domain_error"
    except Exception as exc:  # noqa: BLE001 - every failure is counted, not fatal
        outcome = "error:" + type(exc).__name__
    else:
        outcome = None
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if outcome is None:
        outcome = wl.check(op, result)
    outcome_counts[outcome] = outcome_counts.get(outcome, 0) + 1
    return outcome, wall, cpu


def _failed(outcome: str) -> bool:
    return outcome not in ("ok", "sigma_miss")


def _measure_pool(lib, stream, workload: str, seconds: float, counts: dict):
    ops = stream.take(POOL[workload])
    _prepare(ops)
    lat = [[] for _ in ops]
    cpu = [[] for _ in ops]
    bad = [False] * len(ops)
    wall = 0.0
    cycles = 0
    for op in ops[:120]:  # warm-up: lazy tables, first-call paths
        _run_one(lib, op, {})
    while wall < seconds or cycles < MIN_CYCLES:
        w0 = time.perf_counter()
        for i, op in enumerate(ops):
            outcome, w, c = _run_one(lib, op, counts)
            lat[i].append(w)
            cpu[i].append(c)
            bad[i] |= _failed(outcome)
        wall += time.perf_counter() - w0
        cycles += 1
    per_lat = sorted(_low(v) for v in lat)
    per_cpu = [_low(v) for v in cpu]
    attempted = cycles * len(ops)
    failed = cycles * sum(bad)
    return attempted, failed, {
        "ops_per_s": (len(ops) - sum(bad)) / sum(per_lat),
        "latency_p50_ms": 1e3 * _quantile(per_lat, 50.0),
        "latency_tail_ms": 1e3 * _quantile(per_lat, TAIL_PCT[workload]),
        "cpu_ms_per_op": 1e3 * sum(per_cpu) / len(per_cpu),
    }, {"pool_inputs": len(ops), "cycles": cycles, "timed_wall_s": wall,
        "mean_ops_per_s": (attempted - failed) / wall}


def _measure_stream(lib, stream, workload: str, seconds: float, counts: dict):
    _run_one(lib, stream.first(), {})  # warm-up
    rates, cpus, lat = [], [], []
    wall = 0.0
    attempted = failed = 0
    b = 0
    while wall < seconds or b % wl.QMC_M_CYCLE:
        ops = stream.block(b)
        b += 1
        w0, block_cpu, block_failed = time.perf_counter(), 0.0, 0
        for op in ops:
            outcome, w, c = _run_one(lib, op, counts)
            lat.append(w)
            block_cpu += c
            block_failed += _failed(outcome)
        w = time.perf_counter() - w0
        wall += w
        rates.append((len(ops) - block_failed) / w)
        cpus.append(block_cpu / len(ops))
        attempted += len(ops)
        failed += block_failed
    lat.sort()
    return attempted, failed, {
        "ops_per_s": statistics.median(rates),
        "latency_p50_ms": 1e3 * _quantile(lat, 50.0),
        "latency_tail_ms": 1e3 * _quantile(lat, TAIL_PCT[workload]),
        "cpu_ms_per_op": 1e3 * statistics.median(cpus),
    }, {"blocks": len(rates), "timed_wall_s": wall,
        "samples_beyond_tail": len(lat) - int(-(-TAIL_PCT[workload] * len(lat) // 100)),
        "mean_ops_per_s": (attempted - failed) / wall}


def measure(lib, stream, workload: str, seconds: float) -> dict:
    counts: dict = {}
    run = _measure_pool if workload in POOL else _measure_stream
    attempted, failed, metrics, info = run(lib, stream, workload, seconds, counts)
    metrics["failed_frac"] = failed / attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info["tail_percentile"] = TAIL_PCT[workload]
    return {"attempted": attempted, "failed": failed, "outcomes": counts,
            "metrics": metrics, "info": info}


def _trace_ops(stream, workload: str) -> list:
    ops = stream.take(TRACE_OPS[workload])
    _prepare(ops)
    return ops


def _traced_pass(lib, tracer, ops, counts, op_offset: int = 0) -> list:
    outcomes = []
    tracer.install(lib)
    try:
        for i, op in enumerate(ops):
            tracer.op_id = op_offset + i
            idx = tracer.begin("op")
            outcome = _run_one(lib, op, counts)[0]
            tracer.end(idx, error=None if outcome == "ok" else outcome)
            outcomes.append(outcome)
    finally:
        tracer.uninstall()
    return outcomes


def counters(spans) -> dict:
    """Deterministic work counters for the self-check."""
    agg = tr.aggregate(spans)
    return {name: [a["calls"], a["work"], a["failed"]] for name, a in sorted(agg.items())}


def _write_spans(spans, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "work", "error", "key"],
                   "spans": spans}, fh)


def traced(lib, stream, workload: str, spans_path: str) -> dict:
    ops = _trace_ops(stream, workload)
    size = TRACE_CHUNK[workload]
    _run_one(lib, ops[0], {})  # warm-up
    tracer = tr.Tracer()
    counts: dict = {}
    outcomes: list = []
    untraced_wall = traced_wall = 0.0
    for c, start in enumerate(range(0, len(ops), size)):
        chunk = ops[start:start + size]
        for traced_now in ((False, True) if c % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            if traced_now:
                outcomes.extend(_traced_pass(lib, tracer, chunk, counts, start))
                traced_wall += time.perf_counter() - t0
            else:
                for op in chunk:
                    _run_one(lib, op, {})
                untraced_wall += time.perf_counter() - t0
    spans = tracer.spans
    _write_spans(spans, spans_path)
    return {
        "attempted": len(ops),
        "failed": sum(_failed(o) for o in outcomes),
        "outcomes": counts,
        "layers": per_layer(spans, ops, outcomes),
        "overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
        "counters": counters(spans),
        "digest": wl.digest(ops),
    }


def recount(lib, stream, workload: str) -> dict:
    ops = _trace_ops(stream, workload)
    tracer = tr.Tracer()
    _traced_pass(lib, tracer, ops, {})
    return {"counters": counters(tracer.spans), "digest": wl.digest(ops)}


def per_layer(spans, ops, outcomes) -> dict:
    agg = tr.aggregate(spans)
    empty = {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0, "work": 0, "failed": 0}
    get = lambda name: agg.get(name, empty)  # noqa: E731
    out: dict = {}
    lerch_calls = sum(get("lerch." + r)["calls"] for r in tr.REGIONS)
    for r in tr.REGIONS:
        a = get("lerch." + r)
        out[f"lerch.{r}.calls"] = a["calls"]
        out[f"lerch.{r}.busy_ms"] = a["busy_ms"]
        out[f"lerch.{r}.terms"] = a["work"]
        out[f"lerch.{r}.failed"] = a["failed"]
        out[f"lerch.{r}.share"] = a["calls"] / lerch_calls if lerch_calls else 0.0
    a = get("special.gamma")
    out["special.gamma.calls"] = a["calls"]
    out["special.gamma.busy_ms"] = a["busy_ms"]
    a = get("simplex.reduce")
    out["simplex.reduce.calls"] = a["calls"]
    out["simplex.reduce.busy_ms"] = a["busy_ms"]
    out["simplex.reduce.terms"] = a["work"]
    out["simplex.reduce.failed"] = a["failed"]
    for name in ("reduced_eval", "tanh_sinh"):
        a = get("quad1d." + name)
        out[f"quad1d.{name}.calls"] = a["calls"]
        out[f"quad1d.{name}.busy_ms"] = a["busy_ms"]
        out[f"quad1d.{name}.nodes"] = a["work"]
    verify_outcomes = [o for op, o in zip(ops, outcomes) if op.kind == "verify"]
    a = get("identities.verify")
    out["identities.verify.calls"] = a["calls"]
    out["identities.verify.self_ms"] = a["self_ms"]
    out["identities.verify.failed"] = sum(_failed(o) for o in verify_outcomes)
    out["identities.verify.qmc_sigma_miss"] = verify_outcomes.count("sigma_miss")
    a = get("identities.lift")
    out["identities.lift.calls"] = a["calls"]
    out["identities.lift.self_ms"] = a["self_ms"]
    out["identities.closed_form_ms"] = tr.closed_form_ms(spans)
    a = get("identities.integrand")
    out["identities.integrand.calls"] = a["calls"]
    out["identities.integrand.points"] = a["work"]
    out["identities.integrand.busy_ms"] = a["busy_ms"]
    a = get("qmc.estimate")
    out["qmc.estimate.calls"] = a["calls"]
    out["qmc.estimate.busy_ms"] = a["busy_ms"]
    out["qmc.estimate.points"] = a["work"]
    out["qmc.estimate.self_ms"] = a["self_ms"]
    out["qmc.shape_repeat_frac"] = tr.shape_repeat_frac(spans)
    for method in ("reduced", "qmc"):
        a = get("constants." + method)
        out[f"constants.{method}.calls"] = a["calls"]
        out[f"constants.{method}.busy_ms"] = a["busy_ms"]
    out["constants.integrand.busy_ms"] = get("constants.integrand")["busy_ms"]
    out["fail.convergence_error"] = outcomes.count("convergence_error")
    out["fail.domain_error"] = outcomes.count("domain_error")
    out["fail.not_passed"] = outcomes.count("wrong")
    out["fail.qmc_sigma_miss"] = outcomes.count("sigma_miss")
    out["fail.other"] = sum(o.startswith("error:") for o in outcomes)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--role", choices=("measure", "trace", "count"), default="measure")
    args = ap.parse_args()
    lib = _load_library()
    stream = wl.Stream(args.workload, args.seed)
    if args.role == "measure":
        out = measure(lib, stream, args.workload, args.seconds)
        out["digest"] = wl.digest(stream.block(0))
    elif args.role == "trace":
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out = traced(lib, stream, args.workload, os.path.join(
            root, SPANS_DIR, f"spans-{args.workload}-{args.seed}.json"))
    else:
        out = recount(lib, stream, args.workload)
    out["lerchint_file"] = lib.__file__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
