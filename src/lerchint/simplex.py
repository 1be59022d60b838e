"""Ordered-simplex closed forms and reduction of cube integrals to 1-D kernels.

The m-dimensional integrals treated here all have the shape

    integral over (0,1)^m of  N(x) / (1 - z x1...xm) * (-ln x1...xm)^s dx,

with N a product/sum of powers of the coordinates.  Substituting partial
products t_k = x1 x2 ... x_k turns the inner (m-1)-fold integral into one
over the ordered simplex 1 >= t_1 >= ... >= t_{m-1} >= t_m, where it has
an elementary closed form:

  * log_simplex_volume:        integrand 1/(t1...tk)        -> (-ln x)^k / k!
  * power_sum_simplex:         integrand (sum t_i^a)/(t1..tk) ->
                               (-ln x)^(k-1)/(k-1)! * (1-x^a)/a
  * distinct_exponent_simplex: integrand prod t_i^(u_i-u_{i+1}-1) ->
                               sum_i x^(u_i-u_{k+1}) / prod_{j!=i}(u_j-u_i)

``reduce`` applies the matching closed form to each integrand family and
returns the exact equivalent 1-D combination of kernels
c * t^(w-1) (-ln t)^p / (1-z t); ``brute_simplex`` is the slow nested
quadrature oracle the tests compare the closed forms against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DegeneracyError, DomainError
from .quad1d import KernelTerm, beyond_one, is_one

FAMILY_DISTINCT = "distinct-exponents"
FAMILY_SYMMETRIC = "symmetric"
FAMILY_F_KERNEL = "f-kernel"
FAMILY_THEOREM4 = "theorem4-kernel"

FAMILIES = (FAMILY_DISTINCT, FAMILY_SYMMETRIC, FAMILY_F_KERNEL, FAMILY_THEOREM4)

_SEPARATION = 1e-6
_MAX_EXACT_FACTORIAL = 20


def _exact_factorial(n: int) -> int:
    if n > _MAX_EXACT_FACTORIAL:
        raise DomainError(f"factorial({n}) beyond the supported desk scale (max {_MAX_EXACT_FACTORIAL})")
    return math.factorial(n)


def _check_distinct(us: tuple) -> None:
    """Raise DegeneracyError when two exponents are closer than 1e-6."""
    for i in range(len(us)):
        for j in range(i + 1, len(us)):
            if abs(us[i] - us[j]) < _SEPARATION:
                raise DegeneracyError(
                    f"exponents {us[i]} and {us[j]} closer than {_SEPARATION}"
                )


def _s_lower_bound(family: str, m: int, z_is_one: bool) -> float:
    if family == FAMILY_DISTINCT:
        return 0.0 if z_is_one else -1.0
    if family == FAMILY_THEOREM4:
        return float(-m) if z_is_one else float(-m - 1)
    # symmetric and f-kernel share the same admissible strip
    return float(1 - m) if z_is_one else float(-m)


@dataclass(frozen=True)
class IntegrandSpec:
    """Declarative description of one m-dimensional cube integral.

    ``exponents`` semantics depend on the family: the m distinct exponents
    (u_1..u_m) for ``distinct-exponents``, the single u for ``symmetric``
    and ``theorem4-kernel``, and the pair (u, v) for ``f-kernel``.
    """

    m: int
    family: str
    exponents: tuple
    z: complex
    s: complex

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DomainError(f"unknown integrand family {self.family!r}")
        if self.m < 1:
            raise DomainError("dimension m must be >= 1")
        exps = tuple(complex(e) for e in self.exponents)
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "s", complex(self.s))

        expected = {
            FAMILY_DISTINCT: self.m,
            FAMILY_SYMMETRIC: 1,
            FAMILY_F_KERNEL: 2,
            FAMILY_THEOREM4: 1,
        }[self.family]
        if len(exps) != expected:
            raise DomainError(
                f"family {self.family!r} with m={self.m} takes {expected} exponent(s), got {len(exps)}"
            )
        if any(e.real <= 0.0 for e in exps):
            raise DomainError(f"all exponents need positive real part, got {exps}")
        if self.family in (FAMILY_F_KERNEL, FAMILY_THEOREM4) and self.m < 2:
            raise DomainError(f"family {self.family!r} needs m > 1")
        if self.family in (FAMILY_DISTINCT, FAMILY_F_KERNEL):
            _check_distinct(exps)

        if beyond_one(self.z):
            raise DomainError(f"z={self.z} lies on the real ray beyond 1")
        z_is_one = is_one(self.z)
        bound = _s_lower_bound(self.family, self.m, z_is_one)
        if not self.s.real > bound:
            raise DomainError(
                f"family {self.family!r} with m={self.m}, z={'1' if z_is_one else self.z} "
                f"needs Re s > {bound}, got s={self.s}"
            )

    @property
    def u(self) -> complex:
        return self.exponents[0]

    @property
    def v(self) -> complex:
        if self.family != FAMILY_F_KERNEL:
            raise AttributeError("v is only defined for the f-kernel family")
        return self.exponents[1]


@dataclass(frozen=True)
class ReducedIntegrand:
    """Weighted sum of 1-D kernel terms equivalent to a cube integral.

    ``prefactor`` records the common rational factor (1/(m-1)! or 1/(m-2)!)
    for inspection; it is already folded into every term coefficient, so
    evaluation uses the terms alone.
    """

    terms: tuple
    prefactor: float = 1.0

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        object.__setattr__(self, "terms", terms)
        zs = {complex(t.z) for t in terms}
        if len(zs) > 1:
            raise DomainError(f"all kernel terms must share one z, got {sorted(zs, key=abs)}")


def log_simplex_volume(k: int, x: float) -> float:
    """Volume-with-weight of the ordered simplex above x: (-ln x)^k / k!."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if not 0.0 < x <= 1.0:
        raise DomainError(f"x must lie in (0,1], got {x}")
    return (-math.log(x)) ** k / _exact_factorial(k)


def power_sum_simplex(k: int, alpha: complex, x: float) -> complex:
    """Closed form (-ln x)^(k-1)/(k-1)! * (1 - x^alpha)/alpha.

    alpha may be negative or complex but not ~0; the alpha -> 0 limit is a
    different formula (k times log_simplex_volume) that callers must take
    explicitly.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if not 0.0 < x <= 1.0:
        raise DomainError(f"x must lie in (0,1], got {x}")
    alpha = complex(alpha)
    if abs(alpha) < 1e-12:
        raise DomainError("alpha too small; use log_simplex_volume for the alpha=0 limit")
    lead = (-math.log(x)) ** (k - 1) / _exact_factorial(k - 1)
    return lead * (1.0 - x ** alpha) / alpha


def _lagrange_denominator(us: tuple, i: int) -> complex:
    """prod_{j != i} (u_j - u_i), multiplied in index order."""
    denom = 1.0 + 0j
    for j, uj in enumerate(us):
        if j != i:
            denom *= uj - us[i]
    return denom


def distinct_exponent_simplex(us, x: float) -> complex:
    """sum_i x^(u_i - u_last) / prod_{j != i} (u_j - u_i) over k+1 exponents."""
    us = tuple(complex(w) for w in us)
    if len(us) < 2:
        raise DomainError("need at least two exponents (k >= 1)")
    if not 0.0 < x <= 1.0:
        raise DomainError(f"x must lie in (0,1], got {x}")
    _check_distinct(us)
    last = us[-1]
    total = 0j
    for i, ui in enumerate(us):
        total += x ** (ui - last) / _lagrange_denominator(us, i)
    return total


def lagrange_residual(us) -> float:
    """Residual of the partial-fraction identity behind the distinct-exponent form.

    For distinct u_1..u_{k+1},
      sum_{i<=k} 1/((u_i-u_{k+1}) prod_{j<=k, j!=i}(u_j-u_i))
    equals 1/prod_{j<=k}(u_j-u_{k+1}); the return value is the magnitude of
    the difference, which should sit at rounding level for well-separated
    inputs.
    """
    us = tuple(complex(w) for w in us)
    if len(us) < 2:
        raise DomainError("need at least two exponents (k >= 1)")
    _check_distinct(us)
    k = len(us) - 1
    last = us[-1]
    lhs = 0j
    for i in range(k):
        lhs += 1.0 / ((us[i] - last) * _lagrange_denominator(us[:k], i))
    return abs(lhs - 1.0 / _lagrange_denominator(us, k))


def reduce(spec: IntegrandSpec) -> ReducedIntegrand:
    """Exact 1-D reduction of the spec's cube integral.

    The returned terms evaluate (through ``quad1d.reduced_eval``) to the
    same number as the m-dimensional integral.  Term coefficients include
    the 1/(m-1)! or 1/(m-2)! factors produced by the simplex volumes.
    Over the whole admissible s strip the terms sum to an integrable
    function, even where some of them diverge at t = 1 on their own.
    """
    m, z, s = spec.m, spec.z, spec.s
    if spec.family == FAMILY_SYMMETRIC:
        pref = 1.0 / _exact_factorial(m - 1)
        terms = (KernelTerm(pref, spec.u, s + m - 1, z),)
    elif spec.family == FAMILY_F_KERNEL:
        u, v = spec.exponents
        pref = 1.0 / _exact_factorial(m - 2)
        c = pref / (u - v)
        terms = (
            KernelTerm(c, v, s + m - 2, z),
            KernelTerm(-c, u, s + m - 2, z),
        )
    elif spec.family == FAMILY_THEOREM4:
        u = spec.u
        pref = 1.0 / _exact_factorial(m - 2)
        terms = (
            KernelTerm(pref, u, s + m - 1, z),
            KernelTerm(-pref, u, s + m - 2, z),
            KernelTerm(pref, u + 1, s + m - 2, z),
        )
    else:  # distinct exponents
        pref = 1.0
        us = spec.exponents
        terms = tuple(
            KernelTerm(1.0 / _lagrange_denominator(us, i), ui, s, z) for i, ui in enumerate(us)
        )
    return ReducedIntegrand(terms=terms, prefactor=pref)


_BRUTE_TOL = 1e-9


def brute_simplex(k: int, g, x: float, tol: float = _BRUTE_TOL):
    """Nested adaptive quadrature over 1 >= t_1 >= ... >= t_k >= x.

    Test oracle only: cost grows exponentially in k, so k <= 3.  ``g``
    receives the tuple (t_1, ..., t_k) and may return complex values; real
    and imaginary parts are integrated separately.
    """
    if k not in (1, 2, 3):
        raise DomainError("brute_simplex supports k in {1,2,3} only")
    if not 0.0 < x <= 1.0:
        raise DomainError(f"x must lie in (0,1], got {x}")

    from scipy.integrate import quad as _scipy_quad  # test-only dependency

    probe = complex(g(tuple([min(1.0, x + 0.5 * (1.0 - x))] * k)))
    want_imag = abs(probe.imag) > 0.0

    def nested(part) -> tuple[float, float]:
        eps_in = tol / 20.0
        if k == 1:
            return _scipy_quad(lambda t1: part(g((t1,))), x, 1.0, epsabs=eps_in, epsrel=eps_in, limit=200)[:2]
        if k == 2:
            def inner(t1: float) -> float:
                return _scipy_quad(lambda t2: part(g((t1, t2))), x, t1, epsabs=eps_in / 4, epsrel=eps_in / 4, limit=200)[0]

            return _scipy_quad(inner, x, 1.0, epsabs=eps_in, epsrel=eps_in, limit=200)[:2]

        def inner2(t1: float, t2: float) -> float:
            return _scipy_quad(lambda t3: part(g((t1, t2, t3))), x, t2, epsabs=eps_in / 16, epsrel=eps_in / 16, limit=200)[0]

        def inner1(t1: float) -> float:
            return _scipy_quad(lambda t2: inner2(t1, t2), x, t1, epsabs=eps_in / 4, epsrel=eps_in / 4, limit=200)[0]

        return _scipy_quad(inner1, x, 1.0, epsabs=eps_in, epsrel=eps_in, limit=200)[:2]

    re_val, re_err = nested(lambda v: complex(v).real)
    if re_err > 10.0 * tol:
        raise ConvergenceError(f"brute_simplex error estimate {re_err:.2e} exceeds target {tol:.2e}")
    if not want_imag:
        return re_val
    im_val, im_err = nested(lambda v: complex(v).imag)
    if im_err > 10.0 * tol:
        raise ConvergenceError(f"brute_simplex error estimate {im_err:.2e} exceeds target {tol:.2e}")
    return complex(re_val, im_val)
