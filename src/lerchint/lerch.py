"""Evaluation of Phi(z,s,u) = sum_{n>=0} z^n / (u+n)^s.

Dispatch keeps the algorithms independent of each other: the direct power
series on the closed unit disk, Euler-Maclaurin at z = 1, alternating-series
acceleration at z = -1.  A 1-D quadrature route exists as an explicitly
enabled fallback and is tagged as such, so identity verification can
always tell when a value came from the same quadrature it is being
compared against.

Supported parameter region: Re u > 0, z off (1, infinity), Re s > 1 on the
unit circle away from z = -1 and Re s > 0 at z = -1; ``LerchArgs`` rejects
the rest at construction.  ``hurwitz_zeta`` and ``alt_lerch`` are phi at
z = +-1.  For |z| > 1 phi raises unless the quadrature fallback is enabled.

The direct series has one term budget, ``_SERIES_BUDGET``, wherever it
runs.  It stops at the first term whose tail bound plus rounding
allowance meets the tolerance.  The terms before the first point the
tail bound could meet the tolerance are summed through
``CompensatedSum.extend`` without a stopping test, which gives the same
numbers as testing each term.  A tolerance the series cannot reach raises
ConvergenceError at once: when that first point lies beyond the term
budget, or when the rounding allowance alone exceeds the tolerance.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

from . import quad1d
from .compsum import EPS, CompensatedSum
from .errors import ConvergenceError, DomainError
from .quad1d import beyond_one, is_one
from .special import (
    METHOD_DIRECT_SERIES,
    METHOD_QUADRATURE_FALLBACK,
    EvalResult,
    _alternating,
    _euler_maclaurin,
    gamma,
)

_SERIES_BUDGET = 2_000_000
_STOP_MARGIN = 8  # terms tested before the predicted stop, against rounding in the bound


def _on_circle(az: float) -> bool:
    """|z| = 1 to within 1e-14: the points ``phi`` sums with the unit circle's tail bound."""
    return abs(az - 1.0) <= 1e-14


@dataclass(frozen=True)
class LerchArgs:
    """The parameter triple (z, s, u); construction checks every rule of Phi's domain."""

    z: complex
    s: complex
    u: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "s", complex(self.s))
        object.__setattr__(self, "u", complex(self.u))
        if not (cmath.isfinite(self.z) and cmath.isfinite(self.s) and cmath.isfinite(self.u)):
            raise DomainError(f"need finite z, s and u, got (z={self.z}, s={self.s}, u={self.u})")
        if self.u.real <= 0.0:
            raise DomainError(f"need Re u > 0, got u={self.u}")
        if is_one(self.z) and self.s.real <= 1.0:
            raise DomainError(f"z=1 needs Re s > 1, got s={self.s}")
        if is_one(-self.z) and self.s.real <= 0.0:
            raise DomainError(f"z=-1 needs Re s > 0, got s={self.s}")
        if _on_circle(abs(self.z)) and not is_one(-self.z) and self.s.real <= 1.0:
            raise DomainError(f"|z|=1 with z != +-1 needs Re s > 1 for the series, got s={self.s}")
        if beyond_one(self.z):
            raise DomainError(f"z={self.z} lies on the real ray [1, infinity)")


def _series_tail_bound(z: complex, s: complex, u: complex):
    """The bound n_last -> upper bound on |sum_{n > n_last} z^n (u+n)^(-s)|.

    Geometric bound for |z| < 1 (with the (u+n)^(-s) factor bounded through
    Re u + n for Re s >= 0, through |u+n| with a ratio correction for
    Re s < 0) and an integral-comparison bound on the unit circle, where
    ``LerchArgs`` admits only Re s > 1.  The split is ``_on_circle``, so a
    circle point whose modulus rounds below 1 never divides by 1 - |z| ~ 1e-16.
    |z|, the e^(pi |Im s|/2) factor and the branch are fixed per series, so
    they are settled here once.  Infinity signals "cannot bound yet, keep
    summing".

    Each bound is infinite up to some n and decreasing after it, so the first
    n it meets a target can be searched for: the Re s < 0 disk bound is
    infinite while the ratio bound rho >= 1, and past that both rho and
    |z|^n |u+n|^(-Re s) fall, since |u+n+1|/|u+n| <= (Re u+n+1)/(Re u+n).
    """
    az = abs(z)
    amp = math.exp(abs(s.imag) * 0.5 * math.pi)
    sr, ur = s.real, u.real
    if _on_circle(az):  # |z| = 1, z != +-1: the integral test, for Re s > 1
        return lambda n_last: amp * (ur + n_last) ** (1.0 - sr) / (sr - 1.0)
    if sr >= 0.0:
        return lambda n_last: amp * (az ** (n_last + 1) * (ur + (n_last + 1)) ** (-sr)) / (1.0 - az)

    def geometric_growing(n_last: int) -> float:
        n1 = n_last + 1
        rho = az * ((ur + n1 + 1.0) / (ur + n1)) ** (-sr)
        if rho >= 1.0:
            return math.inf
        try:
            return amp * (az ** n1 * abs(u + n1) ** (-sr)) / (1.0 - rho)
        except OverflowError:  # |u+n|^(-Re s) alone overflows where _first_below's doubling looks
            return amp * math.exp(min(n1 * math.log(az) - sr * math.log(abs(u + n1)), 700.0)) / (1.0 - rho)

    return geometric_growing


def _first_below(tail_bound, target: float, limit: int) -> int:
    """Smallest n >= 1 with tail_bound(n) <= target, for a bound infinite and then decreasing.

    Doubling, then bisection.  Returns limit + 1 when no n <= limit
    qualifies; a NaN bound never qualifies.
    """
    if tail_bound(1) <= target:
        return 1
    lo, hi = 1, 2  # tail_bound(lo) > target throughout
    while not tail_bound(hi) <= target:
        if hi > limit:
            return limit + 1
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail_bound(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def _series_terms(z: complex, u: complex, s: complex):
    """Yield z^n (u+n)^(-s) for n = 0, 1, 2, ..., the power of z kept by multiplication."""
    neg_s = -s
    zp = 1.0 + 0j
    n = 0
    while True:
        yield zp * (u + n) ** neg_s
        zp *= z
        n += 1


def _direct_series(args: LerchArgs, tol: float, budget: int) -> EvalResult:
    """Sum z^n (u+n)^(-s) for n = 0..N and stop at the first N that meets ``tol``.

    N >= 1 meets ``tol`` when its tail bound plus the rounding allowance
    ``CompensatedSum.floor`` is at most ``tol``.  The tail bound is infinite
    and then decreasing: no N before the first one whose bound alone meets
    ``tol`` minus the allowance can stop, and the terms before it (less a
    margin of ``_STOP_MARGIN``) go through ``CompensatedSum.extend`` with no
    test; the stop and every number are those of testing each term.  It
    raises ConvergenceError at once when that first N lies beyond
    ``budget``, and as soon as the allowance alone exceeds ``tol``: it never
    shrinks, so no later N could stop.  For Re s < 0, where the terms grow
    before they fall, half of one term ahead, near the largest, bounds the
    allowance before those terms are summed.
    """
    z, s, u = args.z, args.s, args.u
    if abs(z) == 0.0:
        value = u ** (-s)  # only the n=0 term survives
        return EvalResult(value, 2.0 * EPS * abs(value), METHOD_DIRECT_SERIES, 1)
    tail_bound = _series_tail_bound(z, s, u)
    what = lambda: f"direct series for (z={z}, s={s}, u={u})"  # noqa: E731
    acc = CompensatedSum()
    terms = _series_terms(z, u, s)
    n = 0  # terms summed so far
    while True:
        floor = acc.check_floor(tol, n, what)
        first = _first_below(tail_bound, tol - floor, budget + _STOP_MARGIN)
        if first - _STOP_MARGIN > budget:
            bound = tail_bound(budget)
            attainable = (
                f"the attainable tolerance within the budget is about {bound + floor:.3g}"
                if math.isfinite(bound)
                else "no tail bound holds yet within the budget"
            )
            raise ConvergenceError(
                f"direct series needs more than its budget of {budget} terms to reach "
                f"tol={tol} for (z={z}, s={s}, u={u}); {attainable}"
            )
        skip = first - _STOP_MARGIN - n
        if skip <= _STOP_MARGIN:  # too few to be worth another prediction
            break
        if s.real < 0.0:  # |z|^k |u+k|^(-Re s) peaks near k = -Re s / ln(1/|z|) - Re u
            log_az = math.log(abs(z))
            k = min(max(n, round(s.real / log_az - u.real)), n + skip - 1)
            log_term = k * log_az - (s * cmath.log(u + k)).real
            # half a term: a safety factor over the rounding of z^k and of the power
            acc.check_floor(tol, k + 1, what, 0.5 * math.exp(min(log_term, 700.0)))
        acc.extend(itertools.islice(terms, skip))
        n += skip
    for n in range(n, budget + 1):
        acc.add(next(terms))
        if n >= 1:
            tail = tail_bound(n)
            rounding = acc.check_floor(tol, n + 1, what)
            if tail + rounding <= tol:
                return EvalResult(acc.value, tail + rounding, METHOD_DIRECT_SERIES, n + 1)
    raise ConvergenceError(
        f"direct series exhausted {budget} terms at tol={tol} for (z={z}, s={s}, u={u})"
    )


def _quadrature_fallback(args: LerchArgs, tol: float) -> EvalResult:
    # Phi(z,s,u) = (1/Gamma(s)) * integral_0^1 t^(u-1) (-ln t)^(s-1)/(1-z t) dt
    g = gamma(args.s)
    q = quad1d.lerch_kernel_integral(args.z, args.u, args.s - 1.0, tol=tol * abs(g))
    value = q.value / g
    return EvalResult(value, q.abs_err / abs(g) + 4.0 * EPS * abs(value),
                      METHOD_QUADRATURE_FALLBACK, q.nodes)


def phi(args: LerchArgs, tol: float = 1e-12, *, allow_quadrature: bool = False) -> EvalResult:
    """Evaluate Phi at ``args`` to absolute tolerance ``tol``.

    Dispatch: z = 1 -> Euler-Maclaurin; z = -1 -> alternating acceleration;
    the rest of the closed unit disk -> the direct series (one budget of
    ``_SERIES_BUDGET`` terms).  ``LerchArgs`` checked (z, s, u); phi only
    refuses |z| > 1 when ``allow_quadrature`` is unset.  The fallback's
    result carries the "quadrature-fallback" method tag.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    z = args.z
    if is_one(z):
        return _euler_maclaurin(args.s, args.u, tol)
    if is_one(-z):
        return _alternating(args.s, args.u, tol)
    az = abs(z)
    if az < 1.0 or _on_circle(az):
        try:
            return _direct_series(args, tol, _SERIES_BUDGET)
        except ConvergenceError:
            if allow_quadrature:
                return _quadrature_fallback(args, tol)
            raise
    # |z| > 1 off the real ray: only the integral representation applies
    if allow_quadrature:
        return _quadrature_fallback(args, tol)
    raise DomainError(
        f"no convergent series algorithm for |z|={az:.6g} > 1; "
        "enable the quadrature fallback to evaluate there"
    )


def hurwitz_zeta(s: complex, u: complex, tol: float = 1e-12) -> EvalResult:
    """sum_{n>=0} (u+n)^(-s) = Phi(1, s, u), for Re s > 1 and Re u > 0."""
    return phi(LerchArgs(1.0, s, u), tol)


def alt_lerch(s: complex, u: complex, tol: float = 1e-12) -> EvalResult:
    """sum_{n>=0} (-1)^n (u+n)^(-s) = Phi(-1, s, u), for Re s > 0 and Re u > 0."""
    return phi(LerchArgs(-1.0, s, u), tol)
