"""Closed forms and the verification engine for the cube-integral identities.

For each integrand family the m-dimensional integral

    I = integral over (0,1)^m of N(x)/(1 - z*prod(x)) * (-ln prod(x))^s dx

has a closed form in gamma factors and Phi values:

  f-kernel  (N = F_{m,u,v}):
      gamma(s+m-1)/(m-2)! * (Phi(z,s+m-1,v) - Phi(z,s+m-1,u)) / (u-v)
  symmetric (N = prod(x)^(u-1)):
      gamma(s+m)/(m-1)! * Phi(z,s+m,u)
  theorem4-kernel (N = (m-1 - x1 - x1x2 - ... ) prod(x)^(u-1)):
      gamma(s+m)/(m-2)! * [Phi(z,s+m,u)
          + ((1-z) Phi(z,s+m-1,u) - u^(-s-m+1)) / (z (s+m-1))]
  distinct-exponents (N = prod x_i^(u_i-1)):
      gamma(s+1) * sum_i Phi(z,s+1,u_i) / prod_{j != i} (u_j - u_i)

``verify`` checks one identity three ways: the closed form (Phi via series
or the unit-circle algorithms, never quadrature), the simplex-reduced 1-D
quadrature, and optionally a direct randomized-QMC estimate of the cube
integral.  The report records both gaps; pass means the reduced-path
relative gap is within tolerance and, when QMC ran, the estimate sits
within 3 standard errors.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import asdict, dataclass, field, replace

from . import qmc as qmc_mod
from .errors import CancellationWarning, DomainError, check_tol
from .lerch import LerchArgs, phi
from .qmc import QmcOptions
from .quad1d import QuadResult, is_one, reduced_eval
from .simplex import (
    FAMILY_DISTINCT,
    FAMILY_F_KERNEL,
    FAMILY_SYMMETRIC,
    FAMILY_THEOREM4,
    IntegrandSpec,
    _check_distinct,
    reduce,
)
from .special import gamma

_DEFAULT_PHI_TOL = 1e-13


def _quad_tol(tol: float) -> float:
    """Reduced-path quadrature tolerance for a relative verification tolerance."""
    return max(1e-13, tol * 1e-3)


def _gaps(a: complex, b: complex) -> tuple[float, float]:
    """(|a - b|, |a - b| / max(|a|, |b|))."""
    abs_gap = abs(a - b)
    return abs_gap, abs_gap / max(abs(a), abs(b), 1e-300)


def jsonable(obj):
    """``obj`` (as from ``dataclasses.asdict``) with every complex as {"re": ..., "im": ...}.

    Dicts keep their keys and tuples become lists, so ``json.dumps`` can
    write any result this library returns.
    """
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {key: jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(item) for item in obj]
    return obj


def _cancels(u: complex, v: complex) -> bool:
    """Whether the f-kernel difference quotient over u - v loses 3 or more digits."""
    return abs(u - v) < 1e-3


def _warn_cancellation(u: complex, v: complex) -> None:
    """Warn that the quotient over u - v cancels, naming the first line outside
    this module: the caller of ``rhs_theorem3_pair``, ``verify`` or ``verify_batch``."""
    frame, level = sys._getframe(1), 2  # stacklevel 2 is this function's caller
    while frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    warnings.warn(
        f"difference quotient at |u-v|={abs(u - v):.2e} loses about "
        f"{int(-math.log10(abs(u - v)))} digits",
        CancellationWarning,
        stacklevel=level,
    )


@dataclass(frozen=True)
class ClosedForm:
    """gamma(gamma_arg) * [sum of coeff * Phi(args) + an optional power].

    Every closed form here has this shape, so gamma is computed once.  The
    power term (coeff, divisor, base, exponent) contributes
    coeff * gamma / divisor * base^exponent; it carries the u^(-s-m+1)
    piece of the theorem4-kernel closed form.  Each Phi's domain is decided
    by ``LerchArgs`` and by ``phi`` itself.
    """

    gamma_arg: complex
    terms: tuple  # of (coeff, LerchArgs)
    power_term: tuple | None = None  # (coeff, divisor, base, exponent)

    def value(self, tol: float = _DEFAULT_PHI_TOL) -> complex:
        g = gamma(self.gamma_arg)
        total = 0j
        for coeff, args in self.terms:
            total += coeff * g * phi(args, tol).value
        if self.power_term is not None:
            coeff, divisor, base, exponent = self.power_term
            total += coeff * g / divisor * base ** exponent
        return total


def rhs_theorem3_pair(
    m: int, z: complex, s: complex, u: complex, v: complex, tol: float = _DEFAULT_PHI_TOL
) -> complex:
    """gamma(s+m-1)/(m-2)! * (Phi(z,s+m-1,v) - Phi(z,s+m-1,u)) / (u-v).

    Warns (CancellationWarning) when the quotient loses 3 or more digits.
    """
    if m < 2:
        raise DomainError("pair form needs m > 1")
    u, v, z, s = complex(u), complex(v), complex(z), complex(s)
    _check_distinct((u, v))
    cf = ClosedForm(
        gamma_arg=s + m - 1,
        terms=(
            (1.0 / (math.factorial(m - 2) * (u - v)), LerchArgs(z, s + m - 1, v)),
            (-1.0 / (math.factorial(m - 2) * (u - v)), LerchArgs(z, s + m - 1, u)),
        ),
    )
    value = cf.value(tol)
    if _cancels(u, v):
        _warn_cancellation(u, v)
    return value


def rhs_theorem3_symmetric(
    m: int, z: complex, s: complex, u: complex, tol: float = _DEFAULT_PHI_TOL
) -> complex:
    """gamma(s+m)/(m-1)! * Phi(z,s+m,u); at m=1 this is the classic 1-D kernel value."""
    if m < 1:
        raise DomainError("need m >= 1")
    z, s, u = complex(z), complex(s), complex(u)
    cf = ClosedForm(gamma_arg=s + m, terms=((1.0 / math.factorial(m - 1), LerchArgs(z, s + m, u)),))
    return cf.value(tol)


def rhs_theorem4(
    m: int, z: complex, s: complex, u: complex, tol: float = _DEFAULT_PHI_TOL
) -> complex:
    """gamma(s+m)/(m-2)! * [Phi(z,s+m,u) + ((1-z)Phi(z,s+m-1,u) - u^(1-s-m))/(z(s+m-1))].

    At z = 1 the (1-z) term is zero and is left out, so Phi(1,s+m-1,u) is
    never asked for.  The z -> 0 and s+m-1 -> 0 limits exist but are not
    encoded; both arguments are rejected near those points.
    """
    if m < 2:
        raise DomainError("need m > 1")
    z, s, u = complex(z), complex(s), complex(u)
    if abs(z) < 1e-12:
        raise DomainError("closed form divides by z; z too close to 0")
    if abs(s + m - 1) < 1e-9:
        raise DomainError("closed form divides by s+m-1; too close to 0")
    pref = 1.0 / math.factorial(m - 2)
    denom = z * (s + m - 1)
    terms = ((pref, LerchArgs(z, s + m, u)),)
    if not is_one(z):
        terms += ((pref * (1.0 - z) / denom, LerchArgs(z, s + m - 1, u)),)
    cf = ClosedForm(gamma_arg=s + m, terms=terms, power_term=(-pref, denom, u, -(s + m - 1)))
    return cf.value(tol)


def rhs_theorem5(us, z: complex, s: complex, tol: float = _DEFAULT_PHI_TOL) -> complex:
    """gamma(s+1) * sum_i Phi(z,s+1,u_i) / prod_{j != i}(u_j - u_i)."""
    us = tuple(complex(w) for w in us)
    if not us:
        raise DomainError("need at least one exponent")
    z, s = complex(z), complex(s)
    _check_distinct(us)
    # The Lagrange product is transcribed here on purpose: the closed forms
    # stay independent of simplex.reduce, or verification would be circular.
    terms = []
    for i, ui in enumerate(us):
        denom = 1.0 + 0j
        for j, uj in enumerate(us):
            if j != i:
                denom *= uj - ui
        terms.append((1.0 / denom, LerchArgs(z, s + 1, ui)))
    return ClosedForm(gamma_arg=s + 1, terms=tuple(terms)).value(tol)


_RHS = {  # family name -> its closed form at a spec
    FAMILY_DISTINCT: lambda spec: rhs_theorem5(spec.exponents, spec.z, spec.s),
    FAMILY_SYMMETRIC: lambda spec: rhs_theorem3_symmetric(spec.m, spec.z, spec.s, spec.u),
    FAMILY_F_KERNEL: lambda spec: rhs_theorem3_pair(spec.m, spec.z, spec.s, *spec.exponents),
    FAMILY_THEOREM4: lambda spec: rhs_theorem4(spec.m, spec.z, spec.s, spec.u),
}


def build_integrand(spec: IntegrandSpec):
    """Vectorized integrand over (0,1)^m for the spec's family.

    The returned callable accepts an (n, m) array (or a length-m point) and
    returns float64 values when z, s and the exponents are all real, complex
    values otherwise.  Products of coordinates enter through sums of
    logs, and for z = 1 the 1 - prod(x) factor is computed as -expm1(sum of
    logs), so the integrand stays finite and accurate up to the cube's
    corner at machine precision.

    The power factor of prod(x) and (-ln prod(x))^s share one exponential:
    with L = ln prod(x), the symmetric integrand is
    exp((u-1) L + s ln(-L)) / (1 - z e^L), and the other families multiply
    the same kind of fused factor by their kernel sums.  A real z, s or set
    of exponents keeps its own factor in float64 even when another
    parameter is complex.  The running log sums are built by in-place
    column adds, in cumsum's order, and complex distinct exponents enter
    through two real matrix-vector products.
    """
    import numpy as np

    m = spec.m
    z_one = is_one(spec.z)
    z, s = (p.real if p.imag == 0.0 else p for p in (spec.z, spec.s))
    exps = spec.exponents
    if all(e.imag == 0.0 for e in exps):
        exps = tuple(e.real for e in exps)
    power, partial = spec.rules.numerator(np, *exps)
    per_coordinate = np.ndim(power) == 1

    def f(pts):
        x = np.asarray(pts, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != m:
            raise DomainError(f"points have dimension {x.shape[1]}, spec has m={m}")
        lcum = np.log(x)
        if per_coordinate:
            expo = lcum @ power.real
            if np.iscomplexobj(power):
                expo = expo + 1j * (lcum @ power.imag)
        for j in range(1, m):  # lcum becomes the running sums of the logs
            lcum[:, j] += lcum[:, j - 1]
        ltot = lcum[:, -1]
        if not per_coordinate:
            expo = power * ltot
        expo = expo + s * np.log(-ltot)
        num = np.exp(expo)  # complex exactly when s or the exponents are
        if partial is not None:  # a sum over the m - 1 proper partial products
            num *= partial(lcum[:, j] for j in range(m - 1))
        den = -np.expm1(ltot) if z_one else 1.0 - z * np.exp(ltot)
        vals = num / den
        return vals[0] if single else vals

    return f


@dataclass(frozen=True)
class VerificationReport:
    """Per-identity comparison record.

    pass_ is True exactly when the reduced-path relative gap is within tol
    and, if a QMC estimate ran, its gap to the closed form is at most 3
    standard errors.
    """

    spec: IntegrandSpec
    rhs: complex
    lhs_reduced: QuadResult
    abs_gap_reduced: float
    rel_gap_reduced: float
    tol: float
    lhs_qmc: qmc_mod.QmcResult | None = None
    qmc_sigma_gap: float | None = None
    qmc_skip_reason: str | None = None
    cancellation_flagged: bool = False
    error: str | None = None
    pass_: bool = field(default=False)

    def to_json_dict(self) -> dict:
        """Every field as JSON, with ``pass_`` written as "pass".

        "qmc_sigma_gap" appears only when QMC ran, "qmc_skip_reason" only
        when it did not, and "error" only when it is set.
        """
        out = jsonable(asdict(self))
        out["pass"] = out.pop("pass_")
        del out["qmc_sigma_gap" if self.lhs_qmc is None else "qmc_skip_reason"]
        if self.error is None:
            del out["error"]
        return out


def _qmc_admissible(spec: IntegrandSpec) -> str | None:
    """None when the integrand is QMC-safe, else the reason to skip."""
    if spec.s.real < 0.0:
        return f"Re s = {spec.s.real} < 0: log factor unbounded at the corner"
    low = min(e.real for e in spec.exponents)
    if low < 1.0:
        return f"min Re exponent = {low} < 1: power factor unbounded at the faces"
    return None


def verify(spec: IntegrandSpec, tol: float = 1e-8, qmc: QmcOptions | None = None) -> VerificationReport:
    """Check one identity instance; see the module docstring for the protocol.

    A tol that is not > 0 raises DomainError before any work.
    """
    check_tol(tol)
    rhs = _RHS[spec.family](spec)
    lhs = reduced_eval(reduce(spec), _quad_tol(tol))
    abs_gap, rel_gap = _gaps(rhs, lhs.value)

    lhs_qmc = None
    sigma_gap = None
    skip = None
    if qmc is not None:
        skip = _qmc_admissible(spec)
        if skip is None:
            f = build_integrand(spec)
            lhs_qmc = qmc_mod.qmc_estimate(
                f, spec.m, qmc.points, qmc.replicates, qmc.seed, qmc.threads
            )
            sigma_gap = qmc_mod.sigma_gap(lhs_qmc.estimate, lhs_qmc.std_err, rhs)

    passed = bool(rel_gap <= tol) and (lhs_qmc is None or sigma_gap <= qmc_mod.PASS_SIGMA)
    return VerificationReport(
        spec=spec,
        rhs=rhs,
        lhs_reduced=lhs,
        abs_gap_reduced=abs_gap,
        rel_gap_reduced=rel_gap,
        tol=tol,
        lhs_qmc=lhs_qmc,
        qmc_sigma_gap=sigma_gap,
        qmc_skip_reason=skip,
        cancellation_flagged=spec.rules.difference_quotient and _cancels(*spec.exponents),
        pass_=passed,
    )


def verify_batch(specs, tol: float = 1e-8, qmc: QmcOptions | None = None) -> list:
    """Run verify over many specs, recording failures instead of aborting.

    A tol that is not > 0 fails every spec alike, so it raises DomainError at once.
    """
    check_tol(tol)
    reports = []
    for spec in specs:
        try:
            reports.append(verify(spec, tol=tol, qmc=qmc))
        except Exception as exc:  # noqa: BLE001 - reports carry the error
            reports.append(
                VerificationReport(
                    spec=spec,
                    rhs=complex("nan"),
                    lhs_reduced=QuadResult(0j, 0.0, 0),
                    abs_gap_reduced=math.inf,
                    rel_gap_reduced=math.inf,
                    tol=tol,
                    error=f"{type(exc).__name__}: {exc}",
                    pass_=False,
                )
            )
    return reports


def verify_dimension_lift(m: int, spec2: IntegrandSpec, tol: float = 1e-8) -> VerificationReport:
    """Check that the 2-D integral equals its m-dimensional lift.

    With the log exponent shifted to s-m+2, the m-dimensional integral
    times (m-2)! (or (m-1)! for the symmetric family) reproduces the m=2
    value.  Both sides run through the reduced 1-D path.  A tol that is not
    > 0 raises DomainError before any work.
    """
    check_tol(tol)
    if spec2.m != 2:
        raise DomainError(f"base spec must have m=2, got {spec2.m}")
    order = spec2.rules.factorial_order
    if order is None:
        raise DomainError("dimension lift applies to the single-u and (u,v) families")
    if m < 2:
        raise DomainError("need m >= 2")

    lifted = replace(spec2, m=m, s=spec2.s - m + 2)
    fact = math.factorial(order(m))
    side2 = reduced_eval(reduce(spec2), _quad_tol(tol))
    side_m = reduced_eval(reduce(lifted), _quad_tol(tol))
    lhs = QuadResult(fact * side_m.value, fact * side_m.abs_err, side_m.nodes)
    abs_gap, rel_gap = _gaps(side2.value, lhs.value)
    return VerificationReport(
        spec=lifted,
        rhs=side2.value,
        lhs_reduced=lhs,
        abs_gap_reduced=abs_gap,
        rel_gap_reduced=rel_gap,
        tol=tol,
        pass_=bool(rel_gap <= tol),
    )
