"""Seeded miss rates of the QMC verdict, per identity spec.

    python3 tools/miss_rate.py symmetric:2:0.5:0:1 symmetric:2:1:0:1 \
        --points 8192 --replicates 8 --seeds 1-40

Each SPEC is FAMILY:M:Z:S:EXPONENTS, with the exponents comma-separated
and complex numbers written as the CLI reads them (``a``, ``ai``, ``a+bi``).
For every seed in the range the script runs ``verify`` with that seed's QMC
options and reads the report's ``qmc_sigma_gap``: the gap between the QMC
estimate and the closed form in standard errors.  A seed misses at k sigma
when the gap exceeds k.  Per spec and for k = 3 (the pass rule) and k = 4 it
prints the misses, the miss rate with its 95% Wilson interval, and the rate
expected when the replicate means are normal: the two-sided tail of Student's
t with replicates - 1 degrees of freedom, P(|T| > k).  A rate well above the
expectation points to an estimator whose error is not what its std_err says,
an unbounded-variance integrand for one.  A spec that ``verify`` does not
admit to QMC prints its skip reason instead.

The lerchint package is imported from SRC (default: this checkout's
``src``).  The output depends only on the arguments, so two runs agree byte
for byte.  Exit status is 0, or 2 for an unreadable spec, seed range or
QMC setting.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIGMAS = (3.0, 4.0)
WILSON_Z = 1.959963984540054  # the normal 97.5% quantile


def t_tail(k: float, dof: int) -> float:
    """P(|T| > k) for Student's t with an integer number of degrees of freedom.

    The finite series of Abramowitz and Stegun 26.7.3 and 26.7.4 in
    theta = atan(k / sqrt(dof)).
    """
    theta = math.atan(k / math.sqrt(dof))
    c2 = math.cos(theta) ** 2
    if dof % 2 == 0:
        term = total = 1.0
        for j in range(1, dof // 2):
            term *= c2 * (2 * j - 1) / (2 * j)
            total += term
        inside = math.sin(theta) * total
    else:
        term, total = 1.0, float(dof > 1)
        for j in range(1, (dof - 1) // 2):
            term *= c2 * (2 * j) / (2 * j + 1)
            total += term
        inside = 2.0 / math.pi * (theta + math.sin(theta) * math.cos(theta) * total)
    return 1.0 - inside


def wilson(hits: int, n: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval of a binomial proportion."""
    p = hits / n
    scale = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / scale
    half = z / scale * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n))
    return max(0.0, centre - half), min(1.0, centre + half)


def parse_spec(text: str):
    """An IntegrandSpec from FAMILY:M:Z:S:E1,E2,..."""
    from lerchint import IntegrandSpec
    from lerchint.cli import parse_complex

    parts = text.split(":")
    if len(parts) != 5:
        raise ValueError(f"spec {text!r} is not FAMILY:M:Z:S:EXPONENTS")
    family, m, z, s, exps = parts
    return IntegrandSpec(int(m), family, tuple(parse_complex(e) for e in exps.split(",")),
                         parse_complex(z), parse_complex(s))


def parse_seeds(text: str) -> range:
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def miss_rates(spec, points: int, replicates: int, seeds: range) -> list | str:
    """Per sigma in SIGMAS, the number of seeds whose gap exceeds it; or the skip reason."""
    from lerchint import QmcOptions, verify

    misses = [0] * len(SIGMAS)
    for seed in seeds:
        report = verify(spec, qmc=QmcOptions(points=points, replicates=replicates, seed=seed))
        if report.qmc_skip_reason is not None:
            return report.qmc_skip_reason
        for i, k in enumerate(SIGMAS):
            misses[i] += report.qmc_sigma_gap > k
    return misses


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("specs", nargs="+", metavar="SPEC")
    ap.add_argument("--points", type=int, default=8192)
    ap.add_argument("--replicates", type=int, default=8)
    ap.add_argument("--seeds", default="1-40", help="FIRST-LAST, inclusive")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the lerchint package")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    from lerchint import QmcOptions

    try:
        seeds = parse_seeds(args.seeds)
        QmcOptions(points=args.points, replicates=args.replicates)
        specs = [(text, parse_spec(text)) for text in args.specs]
    except ValueError as exc:  # DomainError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    dof = args.replicates - 1
    n = len(seeds)
    print(f"points {args.points}  replicates {args.replicates}  seeds {seeds.start}-{seeds[-1]} ({n})")
    print("spec  " + "  ".join(f"miss>{k:g} rate wilson95 t{dof}_tail" for k in SIGMAS))
    for text, spec in specs:
        misses = miss_rates(spec, args.points, args.replicates, seeds)
        if isinstance(misses, str):
            print(f"{text}  skipped: {misses}")
            continue
        cols = []
        for k, hits in zip(SIGMAS, misses):
            lo, hi = wilson(hits, n)
            cols.append(f"{hits} {hits / n:.3f} [{lo:.3f},{hi:.3f}] {t_tail(k, dof):.4f}")
        print(f"{text}  " + "  ".join(cols))
    return 0


if __name__ == "__main__":
    sys.exit(main())
