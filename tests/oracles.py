"""Test-only oracles: nested simplex quadrature, simplex closed forms, Phi recurrences.

The library never calls these; the tests compare it against them.

``brute_simplex`` integrates over the ordered simplex 1 >= t_1 >= ... >= t_k >= x
by nested adaptive quadrature (scipy, a test-only dependency).  The closed
forms it checks are

  * log_simplex_volume:        integrand 1/(t1...tk)        -> (-ln x)^k / k!
  * power_sum_simplex:         integrand (sum t_i^a)/(t1..tk) ->
                               (-ln x)^(k-1)/(k-1)! * (1-x^a)/a
  * distinct_exponent_simplex: integrand prod t_i^(u_i-u_{i+1}-1) ->
                               sum_i x^(u_i-u_{k+1}) / prod_{j!=i}(u_j-u_i)

The Lagrange product is transcribed here rather than imported from
``lerchint.simplex``, so the oracles stay independent of the reduction they
check.  ``phi_shift_u`` and ``phi_du_fd`` evaluate the shift and derivative
recurrences of Phi from two or more plain ``phi`` calls.

``PerTermSum`` and ``direct_series_per_term`` are the compensated sum and
the direct Phi series written term by term: one Neumaier step per call and
the stopping test after every term.  ``reduced_eval_per_level`` is
``reduced_eval`` evaluated one tanh-sinh level at a time, each level's node
values built by their own numpy calls, with the Taylor coefficients
computed part by part.  The library's batched loops must give their
numbers bit for bit.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from lerchint import (
    ConvergenceError,
    DegeneracyError,
    DomainError,
    EvalResult,
    EvaluationError,
    LerchArgs,
    QuadResult,
    phi,
)
from lerchint.lerch import _series_tail_bound
from lerchint.quad1d import (
    _NEAR_CUT,
    _NOISE,
    _SERIES_ORDER,
    DEFAULT_MAX_LEVEL,
    DEFAULT_TOL,
    _node_block,
    is_one,
)
from lerchint.special import METHOD_DIRECT_SERIES

_EPS = sys.float_info.epsilon
_SEPARATION = 1e-6
_BRUTE_TOL = 1e-9


def _check_separated(us: tuple) -> None:
    for i in range(len(us)):
        for j in range(i + 1, len(us)):
            if abs(us[i] - us[j]) < _SEPARATION:
                raise DegeneracyError(f"exponents {us[i]} and {us[j]} closer than {_SEPARATION}")


def _check_x(x: float) -> None:
    if not 0.0 < x <= 1.0:
        raise DomainError(f"x must lie in (0,1], got {x}")


def log_simplex_volume(k: int, x: float) -> float:
    """Volume-with-weight of the ordered simplex above x: (-ln x)^k / k!."""
    if k < 1:
        raise DomainError("k must be >= 1")
    _check_x(x)
    return (-math.log(x)) ** k / math.factorial(k)


def power_sum_simplex(k: int, alpha: complex, x: float) -> complex:
    """Closed form (-ln x)^(k-1)/(k-1)! * (1 - x^alpha)/alpha.

    alpha may be negative or complex but not ~0; the alpha -> 0 limit is a
    different formula (k times log_simplex_volume).
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    _check_x(x)
    alpha = complex(alpha)
    if abs(alpha) < 1e-12:
        raise DomainError("alpha too small; use log_simplex_volume for the alpha=0 limit")
    lead = (-math.log(x)) ** (k - 1) / math.factorial(k - 1)
    return lead * (1.0 - x ** alpha) / alpha


def _lagrange_product(us: tuple, i: int) -> complex:
    """prod_{j != i} (u_j - u_i)."""
    out = 1.0 + 0j
    for j, uj in enumerate(us):
        if j != i:
            out *= uj - us[i]
    return out


def distinct_exponent_simplex(us, x: float) -> complex:
    """sum_i x^(u_i - u_last) / prod_{j != i} (u_j - u_i) over k+1 exponents."""
    us = tuple(complex(w) for w in us)
    if len(us) < 2:
        raise DomainError("need at least two exponents (k >= 1)")
    _check_x(x)
    _check_separated(us)
    last = us[-1]
    return sum(x ** (ui - last) / _lagrange_product(us, i) for i, ui in enumerate(us))


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
    _check_separated(us)
    k = len(us) - 1
    last = us[-1]
    lhs = 0j
    for i in range(k):
        lhs += 1.0 / ((us[i] - last) * _lagrange_product(us[:k], i))
    return abs(lhs - 1.0 / _lagrange_product(us, k))


def brute_simplex(k: int, g, x: float, tol: float = _BRUTE_TOL):
    """Nested adaptive quadrature over 1 >= t_1 >= ... >= t_k >= x.

    Cost grows exponentially in k, so k <= 3.  ``g`` receives the tuple
    (t_1, ..., t_k) and may return complex values; real and imaginary parts
    are integrated separately.
    """
    if k not in (1, 2, 3):
        raise DomainError("brute_simplex supports k in {1,2,3} only")
    _check_x(x)

    from scipy.integrate import quad as _scipy_quad

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

    Tests the derivative recurrence Phi(z,s+1,u) = -(1/s) dPhi/du(z,s,u);
    step h is restricted to [1e-6, 1e-3] where the truncation and
    cancellation errors balance at around 1e-6 relative.
    """
    if not 1e-6 <= h <= 1e-3:
        raise DomainError(f"step h must lie in [1e-6, 1e-3], got {h}")
    if args.u.real - h <= 0.0:
        raise DomainError(f"need Re u - h > 0, got u={args.u}, h={h}")
    fp = phi(LerchArgs(args.z, args.s, args.u + h), tol)
    fm = phi(LerchArgs(args.z, args.s, args.u - h), tol)
    return (fp.value - fm.value) / (2.0 * h)


def _neumaier_step(s: float, c: float, x: float) -> tuple[float, float]:
    t = s + x
    if abs(s) >= abs(x):
        c += (s - t) + x
    else:
        c += (x - t) + s
    return t, c


class PerTermSum:
    """Compensated complex sum, one Neumaier step per real part per ``add``."""

    def __init__(self) -> None:
        self.sr = self.si = self.cr = self.ci = self.abs_total = 0.0

    def add(self, term: complex) -> None:
        self.sr, self.cr = _neumaier_step(self.sr, self.cr, term.real)
        self.si, self.ci = _neumaier_step(self.si, self.ci, term.imag)
        self.abs_total += abs(term)

    @property
    def value(self) -> complex:
        return complex(self.sr + self.cr, self.si + self.ci)


def direct_series_per_term(args: LerchArgs, tol: float, budget: int) -> EvalResult:
    """Phi's direct series with the stopping test after every term from n = 1."""
    z, s, u = args.z, args.s, args.u
    if abs(z) == 0.0:
        value = u ** (-s)
        return EvalResult(value, 2.0 * _EPS * abs(value), METHOD_DIRECT_SERIES, 1)
    tail_bound = _series_tail_bound(z, s, u)
    acc = PerTermSum()
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
    raise ConvergenceError(f"direct series exhausted {budget} terms at tol={tol}")


def _taylor_per_part(parts: list, cut: float):
    """quad1d._taylor with every part tested and its term recomputed at every order."""
    kmax = max(k for _, _, k in parts)
    cur = [0.0] * len(parts)
    coeffs: list = []
    j = None
    for n in range(_SERIES_ORDER + 1):
        a = mag = 0.0
        for i, (c, d, k) in enumerate(parts):
            if n >= k:
                cur[i] = c if n == k else cur[i] * -d / (n - k)
                a += cur[i]
                mag += abs(cur[i])
        if abs(a) <= _NOISE * mag:
            a = 0.0
        if j is None:
            if a == 0.0:
                continue
            j, lead = n, abs(a)
        coeffs.append(a)
        if n >= kmax and mag * cut ** (n - j) <= _EPS * lead:
            break
    return j, coeffs


def _kernel_group_per_level(terms: list):
    """quad1d._kernel_group as a function of one level's nodes."""
    z = complex(terms[0].z)
    p0 = min((t.p for t in terms), key=lambda p: p.real)
    w0 = min((t.w for t in terms), key=lambda w: w.real)
    parts = [(t.coeff, t.w - w0, round((t.p - p0).real)) for t in terms]
    dmax = max(abs(d) for _, d, _ in parts)
    cut = min(_NEAR_CUT, 1.0 / dmax) if dmax else _NEAR_CUT
    j, coeffs = _taylor_per_part(parts, cut)
    if j is None:
        return None
    z_one = is_one(z)
    bound = 0.0 if z_one else -1.0
    if (p0 + j).real <= bound:
        raise DomainError(f"kernel sum ~ (-ln t)^{p0 + j} at t=1 (z={z}) needs Re > {bound}")
    a = np.array(coeffs)
    a_re, a_im = a.real.copy(), (a.imag.copy() if np.any(a.imag) else None)

    def level_sum(nodes):
        n = 0 if j == 0 else nodes.near[0]
        if n and cut < _NEAR_CUT:
            n = int(np.searchsorted(nodes.neg_log_t[:n], cut))
        ell, ln_ell = nodes.neg_log_t, nodes.ln_neg_log_t
        base = (1.0 - w0) * ell + nodes.log_weight
        if z_one:
            base = base + nodes.neg_log_tc
        inner = 0.0
        for c, d, k in parts:
            f = c * np.exp(-d * ell[n:]) if d else c
            inner = inner + (f * ell[n:] ** k if k else f)
        vals = np.exp(base[n:] + p0 * ln_ell[n:]) * inner
        if n:
            pows = nodes.near_pows[0][: len(a_re), :n]
            series = a_re @ pows if a_im is None else a_re @ pows + 1j * (a_im @ pows)
            vals = np.concatenate((np.exp(base[:n] + (p0 + j) * ln_ell[:n]) * series, vals))
        if not z_one and z != 0.0:
            vals = vals / np.where(nodes.t > 0.5, (1.0 - z) + z * nodes.tc, 1.0 - z * nodes.t)
        return vals.sum()

    return level_sum


def _integrate_per_level(level_sum, tol: float, max_level: int) -> QuadResult:
    """The level-by-level refinement driver; at the level cap abs_err is the last difference."""
    total = 0j
    nodes_used = 0
    prev = None
    diff = math.inf
    for level in range(max_level + 1):
        s, n = level_sum(_node_block(range(level, level + 1)))
        s = complex(s)
        nodes_used += n
        h = 0.5 ** level
        total = (0.5 * total + h * s) if level > 0 else s
        if prev is not None:
            diff = abs(total - prev)
            if level >= 2 and diff <= tol:
                return QuadResult(total, diff, nodes_used)
        prev = total
    raise ConvergenceError(
        f"tanh-sinh level cap {max_level} hit with diff={diff:.3e} > tol={tol}",
        result=QuadResult(total, diff, nodes_used),
    )


def reduced_eval_per_level(reduced, tol: float = DEFAULT_TOL) -> QuadResult:
    """quad1d.reduced_eval, one level at a time."""
    terms = reduced.terms if hasattr(reduced, "terms") else tuple(reduced)
    buckets: list = []
    for term in terms:
        for members in buckets:
            dp = term.p - members[0].p
            if members[0].z == term.z and abs(dp - round(dp.real)) <= 1e-12 * (1.0 + abs(term.p)):
                members.append(term)
                break
        else:
            buckets.append([term])
    groups = [g for g in map(_kernel_group_per_level, buckets) if g is not None]
    if not groups:
        return QuadResult(0j, 0.0, 0)

    def level_sum(nodes):
        total = complex(sum(g(nodes) for g in groups))
        if not (math.isfinite(total.real) and math.isfinite(total.imag)):
            raise EvaluationError(f"kernel sum produced non-finite node values: {terms}")
        return total, len(nodes.t)

    return _integrate_per_level(level_sum, tol, DEFAULT_MAX_LEVEL)
