"""Reduction of cube integrals to 1-D kernels through ordered-simplex integrals.

The m-dimensional integrals treated here all have the shape

    integral over (0,1)^m of  N(x) / (1 - z x1...xm) * (-ln x1...xm)^s dx,

with N a product/sum of powers of the coordinates.  Substituting partial
products t_k = x1 x2 ... x_k turns the inner (m-1)-fold integral into one
over the ordered simplex 1 >= t_1 >= ... >= t_{m-1} >= t_m, where it has
an elementary closed form in t = t_m.

``reduce`` writes that closed form for each integrand family and returns
the exact equivalent 1-D combination of kernels
c * t^(w-1) (-ln t)^p / (1-z t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegeneracyError, DomainError
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


def _lagrange_denominator(us: tuple, i: int) -> complex:
    """prod_{j != i} (u_j - u_i), multiplied in index order."""
    denom = 1.0 + 0j
    for j, uj in enumerate(us):
        if j != i:
            denom *= uj - us[i]
    return denom


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
