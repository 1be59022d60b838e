"""Reduction of cube integrals to 1-D kernels through ordered-simplex integrals.

The m-dimensional integrals treated here all have the shape

    integral over (0,1)^m of  N(x) / (1 - z x1...xm) * (-ln x1...xm)^s dx,

with N a product/sum of powers of the coordinates.  Substituting partial
products t_k = x1 x2 ... x_k turns the inner (m-1)-fold integral into one
over the ordered simplex 1 >= t_1 >= ... >= t_{m-1} >= t_m, where it has
an elementary closed form in t = t_m.

``reduce`` writes that closed form from the family's record in ``FAMILIES``,
which holds every per-family rule, and returns the exact equivalent 1-D sum of kernels
c * t^(w-1) (-ln t)^p / (1-z t).
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import Callable

from .errors import DegeneracyError, DomainError
from .quad1d import KernelTerm, beyond_one, is_one

FAMILY_DISTINCT = "distinct-exponents"
FAMILY_SYMMETRIC = "symmetric"
FAMILY_F_KERNEL = "f-kernel"
FAMILY_THEOREM4 = "theorem4-kernel"

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


@dataclass(frozen=True)
class Family:
    """Every rule that differs between integrand families; a new one is a field here.

    A reduction carries 1/k! from the simplex volumes, k = factorial_order(m), and k! times
    the m-dimensional integral lifts the m = 2 one (None: neither).  ``numerator`` gives
    ``build_integrand`` the power of prod(x) (an array: one per coordinate) and None or a
    function of the columns ln(x1...x_j), j < m, whose value multiplies prod(x)^power.  It
    takes the numpy module from ``build_integrand`` as its first argument, so this table,
    which every ``import lerchint`` builds, does not load numpy.
    """

    theorem: str  # the CLI's --theorem alias
    exponent_names: tuple | None  # None: one exponent u_i per dimension
    min_m: int
    s_floor: Callable[[int], int]  # Re s > s_floor(m) at z = 1; elsewhere one unit lower
    factorial_order: Callable[[int], int] | None
    kernels: Callable  # (pref, m, z, s, *exponents) -> the reduction's KernelTerms
    numerator: Callable
    distinct: bool = False  # exponents must lie _SEPARATION apart
    difference_quotient: bool = False  # the closed form divides by u - v: verify flags cancellation


FAMILIES = {  # name -> record, in the order the seeded test sweeps draw from
    FAMILY_DISTINCT: Family(
        "t5", None, min_m=1, s_floor=lambda m: 0, factorial_order=None, distinct=True,
        kernels=lambda pref, m, z, s, *us: tuple(
            KernelTerm(pref / _lagrange_denominator(us, i), ui, s, z) for i, ui in enumerate(us)),
        numerator=lambda np, *us: (np.array(us) - 1.0, None)),
    FAMILY_SYMMETRIC: Family(
        "t3-sym", ("u",), min_m=1, s_floor=lambda m: 1 - m, factorial_order=lambda m: m - 1,
        kernels=lambda pref, m, z, s, u: (KernelTerm(pref, u, s + m - 1, z),),
        numerator=lambda np, u: (u - 1.0, None)),
    FAMILY_F_KERNEL: Family(
        "t3-pair", ("u", "v"), min_m=2, s_floor=lambda m: 1 - m, factorial_order=lambda m: m - 2,
        distinct=True, difference_quotient=True,
        kernels=lambda pref, m, z, s, u, v: (
            KernelTerm(c := pref / (u - v), v, s + m - 2, z), KernelTerm(-c, u, s + m - 2, z)),
        numerator=lambda np, u, v: (v - 1.0, lambda cols: sum(np.exp((u - v) * col) for col in cols))),
    # theorem4's numerator m-1 - x1 - x1x2 - ... is the sum of 1 - (partial products)
    FAMILY_THEOREM4: Family(
        "t4", ("u",), min_m=2, s_floor=lambda m: -m, factorial_order=lambda m: m - 2,
        kernels=lambda pref, m, z, s, u: (KernelTerm(pref, u, s + m - 1, z),
                                          KernelTerm(-pref, u, s + m - 2, z),
                                          KernelTerm(pref, u + 1, s + m - 2, z)),
        numerator=lambda np, u: (u - 1.0, lambda cols: -sum(np.expm1(col) for col in cols))),
}


@dataclass(frozen=True)
class IntegrandSpec:
    """Declarative description of one m-dimensional cube integral.

    ``exponents`` semantics depend on the family: the m distinct exponents
    (u_1..u_m) for ``distinct-exponents``, the single u for ``symmetric``
    and ``theorem4-kernel``, and the pair (u, v) for ``f-kernel``.  m is
    an integer, and z, s and every exponent are finite.
    """

    m: int
    family: str
    exponents: tuple
    z: complex
    s: complex

    def __post_init__(self) -> None:
        rules = FAMILIES.get(self.family) if isinstance(self.family, str) else None
        if rules is None:
            raise DomainError(f"unknown integrand family {self.family!r}")
        if isinstance(self.m, bool) or not isinstance(self.m, numbers.Integral):
            raise DomainError(f"dimension m must be an integer, got {self.m!r}")
        if self.m < 1:
            raise DomainError("dimension m must be >= 1")
        exps = tuple(complex(e) for e in self.exponents)
        object.__setattr__(self, "m", int(self.m))  # json cannot write a numpy integer
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "s", complex(self.s))
        if not all(map(cmath.isfinite, (self.z, self.s) + exps)):
            raise DomainError(f"need finite z, s and exponents, got z={self.z}, s={self.s}, {exps}")

        expected = self.m if rules.exponent_names is None else len(rules.exponent_names)
        if len(exps) != expected:
            raise DomainError(
                f"family {self.family!r} with m={self.m} takes {expected} exponent(s), got {len(exps)}"
            )
        if any(e.real <= 0.0 for e in exps):
            raise DomainError(f"all exponents need positive real part, got {exps}")
        if self.m < rules.min_m:
            raise DomainError(f"family {self.family!r} needs m > {rules.min_m - 1}")
        if rules.distinct:
            _check_distinct(exps)

        if beyond_one(self.z):
            raise DomainError(f"z={self.z} lies on the real ray beyond 1")
        z_is_one = is_one(self.z)
        bound = float(rules.s_floor(self.m) - (not z_is_one))
        if not self.s.real > bound:
            raise DomainError(
                f"family {self.family!r} with m={self.m}, z={'1' if z_is_one else self.z} "
                f"needs Re s > {bound}, got s={self.s}"
            )

    @property
    def rules(self) -> Family:
        """The family's record in ``FAMILIES``."""
        return FAMILIES[self.family]

    @property
    def u(self) -> complex:
        return self.exponents[0]

    @property
    def v(self) -> complex:
        if "v" not in (self.rules.exponent_names or ()):
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
    order = spec.rules.factorial_order
    pref = 1.0 if order is None else 1.0 / _exact_factorial(order(spec.m))
    return ReducedIntegrand(spec.rules.kernels(pref, spec.m, spec.z, spec.s, *spec.exponents), pref)
