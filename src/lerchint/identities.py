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
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import qmc as qmc_mod
from .errors import CancellationWarning, DomainError
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
_HURWITZ_MARGIN = 1.05  # smallest Re of a Phi first argument allowed at z=1


def _quad_tol(tol: float) -> float:
    """Reduced-path quadrature tolerance for a relative verification tolerance."""
    return max(1e-13, tol * 1e-3)


def _gaps(a: complex, b: complex) -> tuple[float, float]:
    """(|a - b|, |a - b| / max(|a|, |b|))."""
    abs_gap = abs(a - b)
    return abs_gap, abs_gap / max(abs(a), abs(b), 1e-300)


def _cancels(u: complex, v: complex) -> bool:
    """Whether the f-kernel difference quotient over u - v loses 3 or more digits."""
    return abs(u - v) < 1e-3


@dataclass(frozen=True)
class ClosedForm:
    """Sum of coeff * gamma(gamma_arg) * Phi(phi_args) plus an optional power.

    The power term contributes coeff * base^exponent; it carries the
    u^(-s-m+1) piece of the theorem4-kernel closed form.  At z = 1 every
    Phi first argument must have real part above ``_HURWITZ_MARGIN``.
    """

    terms: tuple  # of (coeff, gamma_arg, LerchArgs)
    power_term: tuple | None = None  # (coeff, base, exponent)

    def value(self, tol: float = _DEFAULT_PHI_TOL) -> complex:
        for _, _, args in self.terms:
            if is_one(args.z) and args.s.real <= _HURWITZ_MARGIN:
                raise DomainError(f"z=1 needs Re s > {_HURWITZ_MARGIN} in every Phi, got s={args.s}")
        total = 0j
        for coeff, gamma_arg, args in self.terms:
            total += coeff * gamma(gamma_arg) * phi(args, tol).value
        if self.power_term is not None:
            coeff, base, exponent = self.power_term
            total += coeff * base ** exponent
        return total


def rhs_theorem3_pair(
    m: int, z: complex, s: complex, u: complex, v: complex, tol: float = _DEFAULT_PHI_TOL
) -> complex:
    """gamma(s+m-1)/(m-2)! * (Phi(z,s+m-1,v) - Phi(z,s+m-1,u)) / (u-v)."""
    if m < 2:
        raise DomainError("pair form needs m > 1")
    u, v, z, s = complex(u), complex(v), complex(z), complex(s)
    _check_distinct((u, v))
    if _cancels(u, v):
        warnings.warn(
            f"difference quotient at |u-v|={abs(u - v):.2e} loses about "
            f"{int(-math.log10(abs(u - v)))} digits",
            CancellationWarning,
            stacklevel=2,
        )
    cf = ClosedForm(
        terms=(
            (1.0 / (math.factorial(m - 2) * (u - v)), s + m - 1, LerchArgs(z, s + m - 1, v)),
            (-1.0 / (math.factorial(m - 2) * (u - v)), s + m - 1, LerchArgs(z, s + m - 1, u)),
        )
    )
    return cf.value(tol)


def rhs_theorem3_symmetric(
    m: int, z: complex, s: complex, u: complex, tol: float = _DEFAULT_PHI_TOL
) -> complex:
    """gamma(s+m)/(m-1)! * Phi(z,s+m,u); at m=1 this is the classic 1-D kernel value."""
    if m < 1:
        raise DomainError("need m >= 1")
    z, s, u = complex(z), complex(s), complex(u)
    cf = ClosedForm(
        terms=((1.0 / math.factorial(m - 1), s + m, LerchArgs(z, s + m, u)),)
    )
    return cf.value(tol)


def rhs_theorem4(
    m: int, z: complex, s: complex, u: complex, tol: float = _DEFAULT_PHI_TOL
) -> complex:
    """gamma(s+m)/(m-2)! * [Phi(z,s+m,u) + ((1-z)Phi(z,s+m-1,u) - u^(1-s-m))/(z(s+m-1))].

    The z -> 0 and s+m-1 -> 0 limits exist but are not encoded; both
    arguments are rejected near those points.
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
    # gamma(s+m) multiplies the whole bracket, including the pure power term
    cf = ClosedForm(
        terms=(
            (pref, s + m, LerchArgs(z, s + m, u)),
            (pref * (1.0 - z) / denom, s + m, LerchArgs(z, s + m - 1, u)),
        ),
        power_term=(-pref * gamma(s + m) / denom, u, -(s + m - 1)),
    )
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
        terms.append((1.0 / denom, s + 1, LerchArgs(z, s + 1, ui)))
    return ClosedForm(terms=tuple(terms)).value(tol)


def _rhs_for(spec: IntegrandSpec) -> complex:
    if spec.family == FAMILY_SYMMETRIC:
        return rhs_theorem3_symmetric(spec.m, spec.z, spec.s, spec.u)
    if spec.family == FAMILY_F_KERNEL:
        return rhs_theorem3_pair(spec.m, spec.z, spec.s, spec.exponents[0], spec.exponents[1])
    if spec.family == FAMILY_THEOREM4:
        return rhs_theorem4(spec.m, spec.z, spec.s, spec.u)
    return rhs_theorem5(spec.exponents, spec.z, spec.s)


def build_integrand(spec: IntegrandSpec):
    """Vectorized integrand over (0,1)^m for the spec's family.

    The returned callable accepts an (n, m) array (or a length-m point) and
    returns float64 values when z, s and the exponents are all real, complex
    values otherwise.  Products of coordinates enter through sums of
    logs, and for z = 1 the 1 - prod(x) factor is computed as -expm1(sum of
    logs), so the integrand stays finite and accurate up to the cube's
    corner at machine precision.
    """
    m = spec.m
    z_one = is_one(spec.z)
    params = (spec.z, spec.s) + spec.exponents
    if all(p.imag == 0.0 for p in params):
        # real inputs run the same expressions in float64
        params = tuple(p.real for p in params)
    z, s, exps = params[0], params[1], params[2:]

    def f(pts):
        x = np.asarray(pts, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != m:
            raise DomainError(f"points have dimension {x.shape[1]}, spec has m={m}")
        lx = np.log(x)
        lcum = np.cumsum(lx, axis=1)
        ltot = lcum[:, -1]
        if spec.family == FAMILY_DISTINCT:
            weights = np.array(exps) - 1.0
            num = np.exp(lx @ weights)
        elif spec.family == FAMILY_SYMMETRIC:
            num = np.exp((exps[0] - 1.0) * ltot)
        elif spec.family == FAMILY_F_KERNEL:
            u, v = exps
            partial = np.exp((u - v) * lcum[:, :-1]).sum(axis=1)
            num = np.exp((v - 1.0) * ltot) * partial
        else:  # theorem4-kernel: m-1 - x1 - x1x2 - ... = sum(1 - partial products)
            gaps = -np.expm1(lcum[:, :-1])
            num = gaps.sum(axis=1) * np.exp((exps[0] - 1.0) * ltot)
        if z_one:
            den = -np.expm1(ltot)
        else:
            den = 1.0 - z * np.exp(ltot)
        vals = num / den * np.exp(s * np.log(-ltot))
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
        def cplx(c: complex) -> dict:
            return {"re": c.real, "im": c.imag}

        out = {
            "spec": {
                "m": self.spec.m,
                "family": self.spec.family,
                "exponents": [cplx(e) for e in self.spec.exponents],
                "z": cplx(self.spec.z),
                "s": cplx(self.spec.s),
            },
            "rhs": cplx(self.rhs),
            "lhs_reduced": {
                "value": cplx(self.lhs_reduced.value),
                "abs_err": self.lhs_reduced.abs_err,
                "nodes": self.lhs_reduced.nodes,
            },
            "abs_gap_reduced": self.abs_gap_reduced,
            "rel_gap_reduced": self.rel_gap_reduced,
            "tol": self.tol,
            "cancellation_flagged": self.cancellation_flagged,
            "pass": self.pass_,
        }
        if self.lhs_qmc is not None:
            out["lhs_qmc"] = {**asdict(self.lhs_qmc), "estimate": cplx(self.lhs_qmc.estimate)}
            out["qmc_sigma_gap"] = self.qmc_sigma_gap
        else:
            out["lhs_qmc"] = None
            out["qmc_skip_reason"] = self.qmc_skip_reason
        if self.error is not None:
            out["error"] = self.error
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
    """Check one identity instance; see the module docstring for the protocol."""
    rhs = _rhs_for(spec)
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
    flagged = spec.family == FAMILY_F_KERNEL and _cancels(*spec.exponents)
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
        cancellation_flagged=flagged,
        pass_=passed,
    )


def verify_batch(specs, tol: float = 1e-8, qmc: QmcOptions | None = None) -> list:
    """Run verify over many specs, recording failures instead of aborting."""
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
    value.  Both sides run through the reduced 1-D path.
    """
    if spec2.m != 2:
        raise DomainError(f"base spec must have m=2, got {spec2.m}")
    if spec2.family == FAMILY_DISTINCT:
        raise DomainError("dimension lift applies to the single-u and (u,v) families")
    if m < 2:
        raise DomainError("need m >= 2")

    lifted = IntegrandSpec(
        m=m,
        family=spec2.family,
        exponents=spec2.exponents,
        z=spec2.z,
        s=spec2.s - m + 2,
    )
    fact = math.factorial(m - 1 if spec2.family == FAMILY_SYMMETRIC else m - 2)
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
