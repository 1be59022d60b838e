"""Randomized quasi-Monte Carlo estimation on the open unit cube.

Halton points with Cranley-Patterson random shifts: each replicate adds an
independent uniform vector modulo 1 to the same deterministic point set,
giving an unbiased estimator whose replicate spread yields a standard
error.  The points are taken in blocks of at most 2^14, each Halton block
built on demand, and only each replicate's sum over a block is kept, so the
memory of an estimate does not grow with the point count.  A replicate
mean is the exactly rounded ``math.fsum`` of its block sums, so results
are bit-identical for a given (f, m, points, replicates, seed) whatever
the number of worker threads and the order in which blocks finish.
``sigma_gap`` and ``PASS_SIGMA`` are the verdict that ``verify`` and the
CLI both apply.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, EvaluationError

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
MAX_DIMS = len(_PRIMES)

_BOUNDARY_GAP = 1e-15  # evaluation points stay at least this far from 0 and 1
PASS_SIGMA = 3.0  # an estimate passes within this many standard errors
_BLOCK = 1 << 14  # points per Halton block and per integrand call; bounds a call's memory


def _is_integral(value) -> bool:
    """True for an int or an integer type such as numpy's, False for a bool."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return not isinstance(value, bool)


@dataclass(frozen=True)
class QmcOptions:
    """Settings of one estimate, checked on construction."""

    points: int = 65536
    replicates: int = 8
    seed: int = 1
    threads: int = 1

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not _is_integral(value):
                raise DomainError(f"{field.name} must be an integer, got {value!r}")
        if self.points < 1:
            raise DomainError("points must be positive")
        if self.replicates < 2:
            raise DomainError("need at least 2 replicates for a standard error")
        if self.threads < 1:
            raise DomainError("threads must be positive")
        if self.seed < 0:
            raise DomainError("seed must be nonnegative")


@dataclass(frozen=True)
class QmcResult:
    estimate: complex
    std_err: float
    points: int
    replicates: int
    seed: int

    def __post_init__(self) -> None:
        if self.std_err < 0.0:
            raise ValueError("std_err must be nonnegative")


def sigma_gap(estimate: complex, std_err: float, reference: complex) -> float:
    """|estimate - reference| in standard errors, std_err floored at 1e-15 (1 + |estimate|)."""
    return abs(estimate - reference) / max(std_err, 1e-15 * (1.0 + abs(estimate)))


def _halton_array(n: int, dims: int, start: int = 1) -> np.ndarray:
    """Halton points start .. start + n - 1 in the first ``dims`` prime bases, as (n, dims).

    The result is the transpose of a (dims, n) buffer: ``.T`` of it gives
    each coordinate's values as one contiguous row.

    Column j is the base-b radical inverse (b the j-th prime) that the digit
    loop gives: from 0.0, add d * f for each digit d, low digit first, with
    f = 1 / b divided by b once more per digit.  It is built from a table:

    - ``low[r]`` is the loop's partial sum over the L low digits of r, for
      every r < b^L, built level by level as low[q b^l + r] = low[r] + q f_l
      for q < b.  L is the largest level with b^L <= n, so the table has at
      most max(n, 1) entries, whatever ``start`` is.
    - As n < b^(L+1), the indices fall into at most b + 1 contiguous runs
      that share their digits above the L-th.  Each run copies its slice of
      ``low``, then adds d * f for each of those digits, low digit first.

    Each addition is the loop's own, with the same product in the same
    order, so the result is bit-identical to the loop; the leading zero
    digits the loop also visits add an exact 0.0.
    """
    if not 1 <= dims <= MAX_DIMS:
        raise DomainError(f"dims must lie in [1, {MAX_DIMS}], got {dims}")
    out = np.empty((dims, n))  # coordinate-major, so each run below is contiguous
    for j, base in enumerate(_PRIMES[:dims]):
        low, factor = np.zeros(1), 1.0 / base
        while len(low) * base <= n:
            low = np.add.outer(np.arange(base) * factor, low).ravel()
            factor /= base
        size = len(low)
        for high in range(start // size, (start + n - 1) // size + 1):
            lo, hi = max(start, high * size), min(start + n, (high + 1) * size)
            run = out[j, lo - start:hi - start]
            run[:] = low[lo - high * size:hi - high * size]
            f, rest = factor, high
            while rest:
                rest, d = divmod(rest, base)
                run += d * f
                f /= base
    return out.T


def halton_point(index: int, dims: int) -> tuple[float, ...]:
    """Coordinates of one Halton point, index offset by 1 so none are 0."""
    if index < 0:
        raise DomainError("index must be nonnegative")
    return tuple(float(c) for c in _halton_array(1, dims, index + 1)[0])


def qmc_estimate(
    f,
    m: int,
    points: int = QmcOptions.points,
    replicates: int = QmcOptions.replicates,
    seed: int = QmcOptions.seed,
    threads: int = QmcOptions.threads,
) -> QmcResult:
    """Shifted-Halton estimate of integral of f over (0,1)^m.

    ``f`` receives an (n, m) array of points strictly inside the cube, n at
    most 2^14, and must return an (n,) array (real or complex).  The array
    may be the transposed, F-ordered view of an (m, n) buffer.

    The work is split into items, each one block of at most 2^14
    consecutive Halton points and a group of replicates.  An item builds
    its block on demand, bit-identical to the plain radical-inverse digit
    loop, and keeps only each replicate's sum over the block.  No array of
    all the points or all the values exists, so the memory of a call does
    not grow with ``points``.  Under tracemalloc, a symmetric m = 6 call
    with complex z and s and 8 replicates peaks at 3.7 MB with threads = 1
    and 7.0-7.5 MB with threads = 2, alike at 2^16, 2^18 and 2^20 points.

    Each replicate mean is the ``math.fsum`` of its block sums, real and
    imaginary parts apart, divided by ``points``: exactly rounded, so it
    does not depend on the order in which items finish.  The estimate is
    the mean of the replicate means and std_err is their sample standard
    deviation over sqrt(replicates).

    ``threads`` worker threads take the items.  With fewer blocks than
    threads, each block's replicates are split into ceil(threads / blocks)
    groups (at most ``replicates``), so one block still keeps every thread
    busy.  A block sum does not depend on the grouping, so the result is
    bit-identical for every thread count.
    """
    opts = QmcOptions(points, replicates, seed, threads)
    if not 1 <= m <= MAX_DIMS:
        raise DomainError(f"m must lie in [1, {MAX_DIMS}], got {m}")

    # shifts[r] is an (m, 1) column that broadcasts over an (m, n) block
    shifts = np.random.default_rng(opts.seed).random((opts.replicates, m))[:, :, None]
    starts = range(0, opts.points, _BLOCK)
    groups = min(opts.replicates, -(-opts.threads // len(starts)))
    sums = np.empty((opts.replicates, len(starts)), dtype=complex)

    def one_item(item: tuple[int, int]) -> None:
        block, group = item
        lo = starts[block]
        rows = _halton_array(min(_BLOCK, opts.points - lo), m, lo + 1).T  # (m, n), C-ordered
        n = rows.shape[1]
        for r in range(group * opts.replicates // groups, (group + 1) * opts.replicates // groups):
            pts = rows + shifts[r]
            pts -= pts >= 1.0  # both terms lie in [0, 1): this is the sum mod 1, exactly
            np.clip(pts, _BOUNDARY_GAP, 1.0 - _BOUNDARY_GAP, out=pts)
            vals = np.asarray(f(pts.T))
            if vals.shape != (n,):
                raise EvaluationError(f"integrand returned shape {vals.shape}, expected ({n},)")
            if not np.all(np.isfinite(vals)):  # complex: both parts finite
                raise EvaluationError("integrand returned a non-finite value")
            sums[r, block] = vals.sum()

    with ThreadPoolExecutor(max_workers=opts.threads) as pool:
        items = [(b, g) for b in range(len(starts)) for g in range(groups)]
        list(pool.map(one_item, items))

    arr = np.array(
        [complex(math.fsum(row.real) / opts.points, math.fsum(row.imag) / opts.points)
         for row in sums]
    )
    estimate = complex(arr.mean())
    var = float(np.sum(np.abs(arr - estimate) ** 2)) / (opts.replicates - 1)
    std_err = math.sqrt(var / opts.replicates)
    return QmcResult(estimate, std_err, opts.points, opts.replicates, opts.seed)
