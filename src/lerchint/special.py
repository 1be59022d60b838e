"""Complex gamma plus the two unit-circle Lerch evaluations.

``_euler_maclaurin`` handles z = 1 (sum(1/(u+n)^s)) by truncated summation
with an Euler-Maclaurin tail, and ``_alternating`` z = -1
(sum((-1)^n/(u+n)^s)) by Chebyshev acceleration.  Both trust the arguments
``lerch.phi`` passes them, and are independent of the direct power series
and of the 1-D quadrature route, which lets the identity checks compare
genuinely different computations.

All complex powers are principal branch; every base that occurs has
positive real part, so no branch ambiguity arises.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .compsum import CompensatedSum
from .errors import ConvergenceError, EvaluationError, PoleError

METHOD_DIRECT_SERIES = "direct-series"
METHOD_EULER_MACLAURIN = "euler-maclaurin"
METHOD_ALTERNATING = "alternating-accel"
METHOD_QUADRATURE_FALLBACK = "quadrature-fallback"

METHODS = frozenset(
    {
        METHOD_DIRECT_SERIES,
        METHOD_EULER_MACLAURIN,
        METHOD_ALTERNATING,
        METHOD_QUADRATURE_FALLBACK,
    }
)


@dataclass(frozen=True)
class EvalResult:
    """A numeric value with an honest absolute-error estimate.

    ``method`` records which algorithm produced the value and ``work`` how
    many series terms (or quadrature nodes) it consumed.
    """

    value: complex
    abs_err: float
    method: str
    work: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value.real) and math.isfinite(self.value.imag)):
            raise EvaluationError("non-finite value in EvalResult")
        if not (self.abs_err >= 0.0):
            raise ValueError(f"abs_err must be nonnegative, got {self.abs_err}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if self.work < 1:
            raise ValueError("work must be >= 1")


# Lanczos rational approximation, g = 607/128, 15 terms.  Relative error
# around 1e-15 near the real axis, comfortably under the 1e-13 target for
# |x| <= 50.
_LANCZOS_G = 4.7421875
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_SQRT_TWO_PI = 2.5066282746310002


def gamma(x: complex) -> complex:
    """Gamma function for complex argument, principal values.

    Lanczos sum for Re x >= 0.5, reflection through pi/(sin(pi x) * G(1-x))
    otherwise.  Poles at the nonpositive integers are rejected rather than
    returning infinities.
    """
    x = complex(x)
    n_nearest = round(x.real)
    if n_nearest <= 0 and abs(x - n_nearest) <= 1e-12:
        raise PoleError(f"gamma pole at nonpositive integer, x={x}")

    if x.real < 0.5:
        s = cmath.sin(cmath.pi * x)
        val = cmath.pi / (s * gamma(1.0 - x))
    else:
        zz = x - 1.0
        acc = _LANCZOS_C[0]
        for k in range(1, len(_LANCZOS_C)):
            acc += _LANCZOS_C[k] / (zz + k)
        t = zz + _LANCZOS_G + 0.5
        val = _SQRT_TWO_PI * t ** (zz + 0.5) * cmath.exp(-t) * acc

    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise EvaluationError(f"gamma overflow at x={x}")
    return val


# B_{2k} for k = 1..15 as exact (numerator, denominator) pairs, rendered
# once to float as B_{2k}/(2k)!, the combination Euler-Maclaurin needs.
# Integer true division rounds once, so each float is correctly rounded.
_BERNOULLI_2K = (
    (1, 6),
    (-1, 30),
    (1, 42),
    (-1, 30),
    (5, 66),
    (-691, 2730),
    (7, 6),
    (-3617, 510),
    (43867, 798),
    (-174611, 330),
    (854513, 138),
    (-236364091, 2730),
    (8553103, 6),
    (-23749461029, 870),
    (8615841276005, 14322),
)

_B2K_OVER_FACT = tuple(
    num / (den * math.factorial(2 * k)) for k, (num, den) in enumerate(_BERNOULLI_2K, start=1)
)

_MAX_HURWITZ_N = 1 << 20


def _euler_maclaurin(s: complex, u: complex, tol: float) -> EvalResult:
    """sum_{n>=0} (u+n)^(-s) for Re s > 1, Re u > 0, tol > 0, all as ``phi`` checked them.

    Truncated sum plus Euler-Maclaurin tail: integral term, half-term, then
    Bernoulli corrections B_2..B_30.  The truncation point N doubles until
    the first omitted correction term drops below tol/4, extending (not
    restarting) the partial sum; abs_err covers that omission and the
    rounding allowance 4*eps*(sum|terms| + |tail|).  That allowance is at
    least 4*eps*(sum|terms| + T), with T a lower bound on |tail| at every N
    up to the cap, and sum|terms| only grows; once that floor exceeds tol it
    raises ConvergenceError naming it.  Near s = 1 the tail ~ N^(1-s)/(s-1)
    is what keeps the floor up.
    """
    n_terms = max(16, int(1.2 * abs(s)) + 4)
    neg_s = -s
    what = lambda: f"hurwitz_zeta for (s={s}, u={u})"  # noqa: E731
    # |tail(N)| >= |u+cap|^(1-Re s) e^(-|Im s| |arg(u+N)|) / |s-1|
    #              - |u+N|^(-Re s) e^(|Im s| |arg(u+N)|) / 2
    # for every N from the current one to the cap, since |u+N| only grows
    # and |arg(u+N)| only shrinks
    far = abs(u + _MAX_HURWITZ_N) ** (1.0 - s.real) / abs(s - 1.0)
    acc = CompensatedSum()
    summed = 0  # the partial sum runs on from here when N doubles
    while n_terms <= _MAX_HURWITZ_N:
        acc.extend((u + n) ** neg_s for n in range(summed, n_terms))
        summed = n_terms
        base = u + n_terms
        spread = abs(s.imag) * abs(cmath.phase(base))
        least_tail = 0.0  # also a bound, where e^spread would overflow
        if spread < 700.0:
            least_tail = max(0.0, far * math.exp(-spread)
                             - 0.5 * abs(base) ** (-s.real) * math.exp(spread))
        acc.check_floor(tol, summed, what, least_tail)
        base_pow = base ** (-s)
        tail = base * base_pow / (s - 1.0) + 0.5 * base_pow

        poch = s  # s(s+1)...(s+2k-2), grown two factors per correction
        bpow = base_pow / base
        base_sq = base * base
        corrections = 0j
        omitted = math.inf
        used = 0
        for k, coeff in enumerate(_B2K_OVER_FACT, start=1):
            term = coeff * poch * bpow
            if abs(term) < 0.25 * tol:
                omitted = abs(term)
                break
            corrections += term
            used = k
            poch *= (s + 2 * k - 1) * (s + 2 * k)
            bpow /= base_sq
        else:
            n_terms *= 2
            continue

        value = acc.value + tail + corrections
        # each term power costs a few ulp of its own magnitude; compensated
        # addition contributes only eps of the total
        abs_err = 2.0 * omitted + acc.floor(abs(tail))
        if abs_err <= tol:
            return EvalResult(value, abs_err, METHOD_EULER_MACLAURIN, n_terms + used + 1)
        n_terms *= 2

    raise ConvergenceError(
        f"hurwitz_zeta did not reach tol={tol} within {_MAX_HURWITZ_N} terms "
        f"(s={s}, u={u})"
    )


_CVZ_RATE = math.log(3.0 + math.sqrt(8.0))
_MAX_CVZ_N = 350


def _cvz_sum(s: complex, u: complex, n: int) -> complex:
    """Chebyshev-accelerated alternating sum of (-1)^k (u+k)^(-s), n terms."""
    d = math.exp(n * _CVZ_RATE)
    d = 0.5 * (d + 1.0 / d)
    neg_s = -s

    def terms():
        b = -1.0
        c = -d
        for k in range(n):
            c = b - c
            yield c * (u + k) ** neg_s
            b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))

    acc = CompensatedSum()
    acc.extend(terms())
    return acc.value / d


def _alternating(s: complex, u: complex, tol: float) -> EvalResult:
    """sum_{n>=0} (-1)^n (u+n)^(-s) for Re s > 0, Re u > 0, tol > 0, all as ``phi`` checked them.

    Chebyshev-coefficient acceleration: n terms give roughly (3+sqrt(8))^-n
    of the leading magnitude, so ~25 terms suffice at 1e-14.  Each answer is
    recomputed with a longer tableau and the difference is the error
    estimate, which keeps the bound honest for complex s where the clean
    totally-monotone theory does not literally apply.  Every abs_err is at
    least 8 eps |u^(-s)|, so a tol below that raises before any tableau.
    """
    scale = max(abs(u ** (-s)), 1e-300)
    if not math.isfinite(scale):
        raise EvaluationError(f"leading term u^(-s) overflows for (s={s}, u={u})")
    # the allowance 8 eps |u^(-s)| that every tableau's abs_err includes
    what = lambda: f"alt_lerch for (s={s}, u={u})"  # noqa: E731
    allowance = CompensatedSum().check_floor(tol, 0, what, 2.0 * scale)
    n = max(8, int(math.log(8.0 * scale / tol) / _CVZ_RATE) + 2)
    n += int(abs(s.imag) + abs(u.imag))  # slower decay off the real axis

    work = 0
    while n <= _MAX_CVZ_N:
        v1 = _cvz_sum(s, u, n)
        v2 = _cvz_sum(s, u, n + 6)
        work += 2 * n + 6
        diff = abs(v1 - v2)
        abs_err = max(diff, allowance)
        if not (math.isfinite(v2.real) and math.isfinite(v2.imag)):
            raise EvaluationError(f"alt_lerch produced non-finite value (s={s}, u={u})")
        if abs_err <= tol:
            return EvalResult(v2, abs_err, METHOD_ALTERNATING, work)
        n *= 2

    raise ConvergenceError(
        f"alt_lerch did not reach tol={tol} within {_MAX_CVZ_N} terms (s={s}, u={u})"
    )
