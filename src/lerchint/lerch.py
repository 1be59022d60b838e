"""Evaluation of Phi(z,s,u) = sum_{n>=0} z^n / (u+n)^s and its recurrences.

Dispatch keeps the algorithms independent of each other: the direct power
series inside the unit disk, Euler-Maclaurin at z = 1, alternating-series
acceleration at z = -1.  A 1-D quadrature route exists as an explicitly
enabled fallback and is tagged as such, so identity verification can
always tell when a value came from the same quadrature it is being
compared against.

Supported parameter region: Re u > 0 and either |z| <= 1 with z not in
(1, infinity), requiring Re s > 1 on the unit circle away from z = -1 and
Re s > 0 at z = -1.  For other z the series has no convergent algorithm
here and phi raises unless the quadrature fallback is enabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import quad1d
from .compsum import CompensatedSum
from .errors import ConvergenceError, DomainError
from .quad1d import beyond_one, is_one
from .special import (
    METHOD_DIRECT_SERIES,
    METHOD_QUADRATURE_FALLBACK,
    EvalResult,
    alt_lerch,
    gamma,
    hurwitz_zeta,
)

_EPS = 2.220446049250313e-16
_SERIES_BUDGET = 200_000
_SERIES_BUDGET_NEAR_DISK_EDGE = 2_000_000
_DISK_EDGE = 1.0 - 1e-14  # phi sums |z| at or above this as a unit-circle point


@dataclass(frozen=True)
class LerchArgs:
    """The parameter triple (z, s, u), validated on construction."""

    z: complex
    s: complex
    u: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "s", complex(self.s))
        object.__setattr__(self, "u", complex(self.u))
        if self.u.real <= 0.0:
            raise DomainError(f"need Re u > 0, got u={self.u}")
        if is_one(self.z) and self.s.real <= 1.0:
            raise DomainError(f"z=1 needs Re s > 1, got s={self.s}")
        if beyond_one(self.z):
            raise DomainError(f"z={self.z} lies on the real ray [1, infinity)")


def _series_tail_bound(z: complex, s: complex, u: complex):
    """The bound n_last -> upper bound on |sum_{n > n_last} z^n (u+n)^(-s)|.

    Geometric bound for |z| < 1 (with the (u+n)^(-s) factor bounded through
    Re u + n for Re s >= 0, through |u+n| with a ratio correction for
    Re s < 0) and an integral-comparison bound on the unit circle.  The
    split is phi's disk edge, so a circle point whose modulus rounds below
    1 never divides by 1 - |z| ~ 1e-16.  |z|, the e^(pi |Im s|/2) factor
    and the branch are fixed per series, so they are settled here once.
    Infinity signals "cannot bound yet, keep summing".
    """
    az = abs(z)
    amp = math.exp(abs(s.imag) * 0.5 * math.pi)
    sr, ur = s.real, u.real
    if az >= _DISK_EDGE:  # |z| = 1, z != +-1: the integral test, for Re s > 1
        if sr <= 1.0:
            return lambda n_last: math.inf
        return lambda n_last: amp * (ur + n_last) ** (1.0 - sr) / (sr - 1.0)
    if sr >= 0.0:
        return lambda n_last: amp * (az ** (n_last + 1) * (ur + (n_last + 1)) ** (-sr)) / (1.0 - az)

    def geometric_growing(n_last: int) -> float:
        n1 = n_last + 1
        rho = az * ((ur + n1 + 1.0) / (ur + n1)) ** (-sr)
        return math.inf if rho >= 1.0 else amp * (az ** n1 * abs(u + n1) ** (-sr)) / (1.0 - rho)

    return geometric_growing


def _direct_series(args: LerchArgs, tol: float, budget: int) -> EvalResult:
    z, s, u = args.z, args.s, args.u
    if abs(z) == 0.0:
        value = u ** (-s)  # only the n=0 term survives
        return EvalResult(value, 2.0 * _EPS * abs(value), METHOD_DIRECT_SERIES, 1)
    tail_bound = _series_tail_bound(z, s, u)
    acc = CompensatedSum()
    zp = 1.0 + 0j
    n = 0
    while n <= budget:
        acc.add(zp * (u + n) ** (-s))
        if n >= 1:
            tail = tail_bound(n)
            rounding = 4.0 * _EPS * acc.abs_total
            if tail + rounding <= tol:
                return EvalResult(acc.value, tail + rounding, METHOD_DIRECT_SERIES, n + 1)
        zp *= z
        n += 1
    raise ConvergenceError(
        f"direct series exhausted {budget} terms at tol={tol} for (z={z}, s={s}, u={u})"
    )


def _quadrature_fallback(args: LerchArgs, tol: float) -> EvalResult:
    # Phi(z,s,u) = (1/Gamma(s)) * integral_0^1 t^(u-1) (-ln t)^(s-1)/(1-z t) dt
    g = gamma(args.s)
    q = quad1d.lerch_kernel_integral(args.z, args.u, args.s - 1.0, tol=tol * abs(g))
    value = q.value / g
    return EvalResult(value, q.abs_err / abs(g) + 4.0 * _EPS * abs(value),
                      METHOD_QUADRATURE_FALLBACK, q.nodes)


def phi(args: LerchArgs, tol: float = 1e-12, *, allow_quadrature: bool = False) -> EvalResult:
    """Evaluate Phi at ``args`` to absolute tolerance ``tol``.

    Dispatch: z = 1 -> Euler-Maclaurin; z = -1 -> alternating acceleration;
    |z| <= 0.9 -> direct series; 0.9 < |z| < 1 and the unit circle with
    Re s > 1 -> direct series with an extended work budget.  The quadrature
    fallback never runs unless ``allow_quadrature`` is set, and its result
    carries the "quadrature-fallback" method tag.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    z, s = args.z, args.s
    if is_one(z):
        return hurwitz_zeta(s, args.u, tol)
    if is_one(-z):
        return alt_lerch(s, args.u, tol)
    az = abs(z)
    if az <= 0.9:
        return _direct_series(args, tol, _SERIES_BUDGET)
    if az < _DISK_EDGE or abs(az - 1.0) <= 1e-14:
        if az >= _DISK_EDGE and s.real <= 1.0:
            raise DomainError(f"|z|=1 with z != +-1 needs Re s > 1 for the series, got s={s}")
        try:
            return _direct_series(args, tol, _SERIES_BUDGET_NEAR_DISK_EDGE)
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


def phi_shift_u(args: LerchArgs, tol: float = 1e-12) -> EvalResult:
    """Phi(z,s,u+1) through the shift recurrence (Phi(z,s,u) - u^(-s))/z."""
    z, s, u = args.z, args.s, args.u
    if abs(z) < 1e-12:
        raise DomainError("shift recurrence divides by z; |z| too small")
    base = phi(args, tol)
    head = u ** (-s)
    value = (base.value - head) / z
    err = (base.abs_err + 2.0 * _EPS * (abs(base.value) + abs(head))) / abs(z)
    return EvalResult(value, err, base.method, base.work)


def phi_du_fd(args: LerchArgs, h: float = 1e-5, tol: float = 1e-12) -> complex:
    """Central finite-difference estimate of the u-derivative of Phi.

    Intended for testing the derivative recurrence
    Phi(z,s+1,u) = -(1/s) dPhi/du(z,s,u); step h is restricted to
    [1e-6, 1e-3] where the truncation and cancellation errors balance at
    around 1e-6 relative.
    """
    if not 1e-6 <= h <= 1e-3:
        raise DomainError(f"step h must lie in [1e-6, 1e-3], got {h}")
    if args.u.real - h <= 0.0:
        raise DomainError(f"need Re u - h > 0, got u={args.u}, h={h}")
    up = LerchArgs(args.z, args.s, args.u + h)
    um = LerchArgs(args.z, args.s, args.u - h)
    fp = phi(up, tol)
    fm = phi(um, tol)
    return (fp.value - fm.value) / (2.0 * h)
