"""Double-exponential (tanh-sinh) quadrature on (0,1).

The variable change t = (1 + tanh((pi/2) sinh(v)))/2 pushes both endpoints
infinitely far away, so trapezoid sums converge fast even for integrands
with algebraic or logarithmic endpoint singularities.  Node tables are
cached per refinement level; each node carries its distance to BOTH
endpoints plus a stably computed -ln(t), because the kernels of interest,

    t^(w-1) (-ln t)^p / (1 - z t),

need -ln(t) accurate near t = 1 (log1p of the complementary distance) and
are best evaluated through a single complex exponential so that huge
t^(w-1) factors and tiny weights cancel in exact arithmetic instead of
overflowing one at a time.

A weighted sum of such kernels is integrated in one pass.  Near t = 1 the
sum can vanish to a higher power of -ln t than any of its terms, so there
it is summed from its Taylor series in -ln t, whose cancelling leading
coefficients are exactly zero; see ``_kernel_group``.

Truncating the node tables where the transformed weight underflows drops
an endpoint tail of mass about exp(-736 Re w)/Re w (and similarly in the
exponent p+1 at t=1), negligible for Re w >= 0.05 at any supported
tolerance; exponents smaller than that are outside the intended domain.
"""

from __future__ import annotations

import inspect
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, EvaluationError

DEFAULT_TOL = 1e-12
DEFAULT_MAX_LEVEL = 12

_G_CUTOFF = 368.0  # (pi/2) sinh(v) beyond this underflows exp(-2g)
_HALF_PI = 0.5 * math.pi
_LN_QUARTER_PI = math.log(0.25 * math.pi)  # ln of the Jacobian prefactor

_EPS = 2.220446049250313e-16
_NEAR_CUT = 0.25  # -ln t below which a kernel sum is summed as its series
_SERIES_ORDER = 32  # highest power of -ln t tabulated at the near-one nodes
_NOISE = 64.0 * _EPS  # a series coefficient this small against its terms is rounding


@dataclass(frozen=True)
class QuadResult:
    """Quadrature value with the last-two-levels difference as abs_err."""

    value: complex
    abs_err: float
    nodes: int

    def __post_init__(self) -> None:
        if not (self.abs_err >= 0.0):
            raise ValueError("abs_err must be nonnegative")
        if self.nodes < 0:
            raise ValueError("nodes must be nonnegative")


@dataclass(frozen=True)
class KernelTerm:
    """One weighted kernel c * t^(w-1) (-ln t)^p / (1 - z t) on (0,1).

    Integrability at t = 1 belongs to the whole sum: ``reduced_eval`` checks it.
    """

    coeff: complex
    w: complex
    p: complex
    z: complex

    def __post_init__(self) -> None:
        if complex(self.w).real <= 0.0:
            raise DomainError(f"kernel needs Re w > 0 for integrability at 0, got w={self.w}")
        if beyond_one(self.z):
            raise DomainError(f"kernel denominator vanishes on (0,1) for z={self.z}")


def is_one(z: complex) -> bool:
    """The z = 1 predicate every module dispatches on."""
    return abs(z - 1.0) <= 1e-14


def beyond_one(z: complex) -> bool:
    """z real, above 1 and not ``is_one``: the ray where 1/(1 - z t) has a pole in (0,1)."""
    z = complex(z)
    return z.imag == 0.0 and z.real > 1.0 and not is_one(z)


@dataclass(frozen=True)
class _LevelNodes:
    """Nodes new to one refinement level (both tails, midpoint only at level 0).

    Sorted by -ln t, so the ``near`` nodes closest to t = 1 come first.
    """

    t: np.ndarray        # abscissa in (0,1)
    tc: np.ndarray       # 1 - t, computed without cancellation
    neg_log_t: np.ndarray
    ln_neg_log_t: np.ndarray  # ln(-ln t)
    neg_log_tc: np.ndarray  # -ln(1-t); the z=1 denominator lives in exp-space
    log_weight: np.ndarray  # ln of the h-free transformed trapezoid weight
    near: int               # nodes with -ln t < _NEAR_CUT
    near_pows: np.ndarray   # (-ln t)^e at those nodes, e = 0.._SERIES_ORDER


_LEVEL_CACHE: list[_LevelNodes] = []
_LEVEL_CACHE_LOCK = threading.Lock()


def _build_level(level: int) -> _LevelNodes:
    h = 0.5 ** level
    first, step = (0, 1) if level == 0 else (1, 2)
    v = h * np.arange(first, math.asinh(_G_CUTOFF / _HALF_PI) / h + 1.0, step)
    g = _HALF_PI * np.sinh(v)
    v, g = v[g <= _G_CUTOFF], g[g <= _G_CUTOFF]
    q = np.exp(-2.0 * g)
    lq = np.log1p(q)  # -ln(1/(1+q)), the -ln t of a node near 1
    # ln weight = ln(pi/4) + ln cosh v + 2 ln sech g, all overflow-safe
    log_w = _LN_QUARTER_PI + np.log(np.cosh(v)) + 2.0 * (math.log(2.0) - g - lq)
    # right tail nodes (t near 1) and their mirrors (t near 0); at v = 0 the
    # two coincide at t = 1/2
    mirror = slice(1 - first, None)
    x_hi, x_lo = 1.0 / (1.0 + q), q / (1.0 + q)
    t = np.concatenate((x_hi, x_lo[mirror]))
    tc = np.concatenate((x_lo, x_hi[mirror]))
    neg_log_t = np.concatenate((lq, (2.0 * g + lq)[mirror]))
    neg_log_tc = np.concatenate((2.0 * g + lq, lq[mirror]))
    log_weight = np.concatenate((log_w, log_w[mirror]))
    order = np.argsort(neg_log_t, kind="stable")
    neg_log_t = neg_log_t[order]
    near = int(np.searchsorted(neg_log_t, _NEAR_CUT))
    return _LevelNodes(
        t=t[order],
        tc=tc[order],
        neg_log_t=neg_log_t,
        ln_neg_log_t=np.log(neg_log_t),
        neg_log_tc=neg_log_tc[order],
        log_weight=log_weight[order],
        near=near,
        near_pows=neg_log_t[:near] ** np.arange(_SERIES_ORDER + 1.0)[:, None],
    )


def _level_nodes(level: int) -> _LevelNodes:
    if len(_LEVEL_CACHE) <= level:
        with _LEVEL_CACHE_LOCK:
            while len(_LEVEL_CACHE) <= level:
                _LEVEL_CACHE.append(_build_level(len(_LEVEL_CACHE)))
    return _LEVEL_CACHE[level]


def _integrate(level_sum, tol: float, max_level: int) -> QuadResult:
    """Shared refinement driver.

    ``level_sum(nodes)`` returns (sum of weight*f over the level's nodes,
    node count).  Converged when successive level values differ by <= tol.
    """
    total = 0j
    nodes_used = 0
    prev = None
    for level in range(max_level + 1):
        nodes = _level_nodes(level)
        s, n = level_sum(nodes)
        s = complex(s)
        nodes_used += n
        h = 0.5 ** level
        total = (0.5 * total + h * s) if level > 0 else s
        if prev is not None:
            diff = abs(total - prev)
            if level >= 2 and diff <= tol:
                return QuadResult(total, diff, nodes_used)
        prev = total
    diff = abs(total - prev) if prev is not None else math.inf
    partial = QuadResult(total, diff, nodes_used)
    raise ConvergenceError(
        f"tanh-sinh level cap {max_level} hit with diff={diff:.3e} > tol={tol}",
        result=partial,
    )


def _wants_complement(f) -> bool:
    try:
        sig = inspect.signature(f)
    except (TypeError, ValueError):
        return False
    positional = [
        p
        for p in sig.parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    return len(positional) >= 2 and positional[1].default is sig.empty


def tanh_sinh(f, tol: float = DEFAULT_TOL, max_level: int = DEFAULT_MAX_LEVEL) -> QuadResult:
    """Integrate a scalar callable f over (0,1).

    f is only evaluated strictly inside the interval; integrable endpoint
    behavior (t^a with a > -1, powers of ln t) is handled by the transform.
    A non-finite value from f raises EvaluationError.

    f may take a second positional argument to receive the exact distance
    to 1 (f(t, one_minus_t)); integrands singular at t=1 beyond a log
    should use it, because in the one-argument form nodes whose abscissa
    rounds to 1.0 in double precision are skipped and only their
    sub-1e-16-deep tail is lost.
    """
    if not tol >= 0.0:
        raise ValueError("tol must be nonnegative")
    two_arg = _wants_complement(f)

    def level_sum(nodes: _LevelNodes):
        weights = np.exp(nodes.log_weight)
        acc = 0j
        count = 0
        for t, tc, wgt in zip(nodes.t, nodes.tc, weights):
            if two_arg:
                fv = complex(f(t, tc))
            else:
                if t == 1.0 or t == 0.0:
                    continue
                fv = complex(f(t))
            count += 1
            if not (math.isfinite(fv.real) and math.isfinite(fv.imag)):
                raise EvaluationError(f"integrand returned non-finite value at t={t}")
            acc += wgt * fv
        return acc, count

    return _integrate(level_sum, tol, max_level)


def _taylor(parts: list, cut: float):
    """(j, [a_j, ..., a_N]) for sum_i c_i e^(-d_i L) L^(k_i), parts = (c_i, d_i, k_i).

    a_n = sum_i c_i (-d_i)^(n-k_i) / (n-k_i)!, set to zero within _NOISE of
    the sum of its terms' magnitudes; a_j is the first nonzero one.  N is
    the first order >= max k_i whose terms are negligible against a_j at
    L = cut; with max|d_i| cut <= 1 every (|d_i| cut)^e / e! falls with e,
    so that test is safe.  j = None when every order up to _SERIES_ORDER cancels.
    """
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


def _kernel_group(terms: list):
    """Level-sum function of kernel terms with one z whose p differ by integers.

    With p0 and w0 the p and w of smallest real part, k_i = p_i - p0 (an
    integer), d_i = w_i - w0 and L = -ln t, the terms sum to

        t^(w0-1) L^p0 / (1 - z t) * sum_i c_i e^(-d_i L) L^(k_i).

    If the inner sum's Taylor coefficients in L vanish below order j
    (``_taylor``), the group behaves like L^(p0+j) at t = 1, which decides
    its integrability there.  For j > 0 the group is summed below a cut in
    L as t^(w0-1) L^(p0+j) sum_{n>=j} a_n L^(n-j), so the cancelling
    orders never enter, and above the cut term by term.  Returns None when
    the terms cancel identically.
    """
    z = complex(terms[0].z)
    p0 = min((t.p for t in terms), key=lambda p: p.real)
    w0 = min((t.w for t in terms), key=lambda w: w.real)
    parts = [(t.coeff, t.w - w0, round((t.p - p0).real)) for t in terms]
    dmax = max(abs(d) for _, d, _ in parts)
    cut = min(_NEAR_CUT, 1.0 / dmax) if dmax else _NEAR_CUT
    j, coeffs = _taylor(parts, cut)
    if j is None:
        return None
    z_one = is_one(z)
    bound = 0.0 if z_one else -1.0
    if (p0 + j).real <= bound:
        raise DomainError(f"kernel sum ~ (-ln t)^{p0 + j} at t=1 (z={z}) needs Re > {bound}")
    a = np.array(coeffs)
    a_re, a_im = a.real.copy(), (a.imag.copy() if np.any(a.imag) else None)

    def level_sum(nodes: _LevelNodes):
        n = 0 if j == 0 else nodes.near
        if n and cut < _NEAR_CUT:
            n = int(np.searchsorted(nodes.neg_log_t[:n], cut))
        ell, ln_ell = nodes.neg_log_t, nodes.ln_neg_log_t
        # weight * t^(w0-1) through one exponential: the product is O(integrand
        # mass) even where the factors individually overflow.
        base = (1.0 - w0) * ell + nodes.log_weight
        if z_one:
            # 1/(1-t) joins the exponential; subnormal 1-t never gets divided by
            base = base + nodes.neg_log_tc
        inner = 0.0
        for c, d, k in parts:
            f = c * np.exp(-d * ell[n:]) if d else c
            inner = inner + (f * ell[n:] ** k if k else f)
        vals = np.exp(base[n:] + p0 * ln_ell[n:]) * inner
        if n:
            pows = nodes.near_pows[: len(a_re), :n]
            series = a_re @ pows if a_im is None else a_re @ pows + 1j * (a_im @ pows)
            vals = np.concatenate((np.exp(base[:n] + (p0 + j) * ln_ell[:n]) * series, vals))
        if not z_one and z != 0.0:
            vals = vals / np.where(nodes.t > 0.5, (1.0 - z) + z * nodes.tc, 1.0 - z * nodes.t)
        return vals.sum()

    return level_sum


def reduced_eval(reduced, tol: float = DEFAULT_TOL) -> QuadResult:
    """Evaluate a weighted sum of kernel terms: sum_i c_i * K(z_i, w_i, p_i).

    The whole sum is integrated in one tanh-sinh pass with one convergence
    test, so abs_err is the difference of the whole sum between the last
    two levels.  Terms whose p differ by integers are summed as one
    function (``_kernel_group``), so a sum is accepted when it is
    integrable at t = 1 even if its terms are not one by one; a sum that
    is not raises DomainError before any quadrature.
    """
    terms = reduced.terms if hasattr(reduced, "terms") else tuple(reduced)
    buckets: list = []  # terms with one z whose p differ by integers
    for term in terms:
        for members in buckets:
            dp = term.p - members[0].p
            if members[0].z == term.z and abs(dp - round(dp.real)) <= 1e-12 * (1.0 + abs(term.p)):
                members.append(term)
                break
        else:
            buckets.append([term])
    groups = [g for g in map(_kernel_group, buckets) if g is not None]
    if not groups:
        return QuadResult(0j, 0.0, 0)

    def level_sum(nodes: _LevelNodes):
        total = complex(sum(g(nodes) for g in groups))
        if not (math.isfinite(total.real) and math.isfinite(total.imag)):
            raise EvaluationError(f"kernel sum produced non-finite node values: {terms}")
        return total, len(nodes.t)

    return _integrate(level_sum, tol, DEFAULT_MAX_LEVEL)


def lerch_kernel_integral(z: complex, w: complex, p: complex, tol: float = DEFAULT_TOL) -> QuadResult:
    """integral_0^1 t^(w-1) (-ln t)^p / (1 - z t) dt.

    Its value equals gamma(p+1) * Phi(z, p+1, w), which is exactly what the
    cross-checks in the test suite exercise; here it is computed purely by
    quadrature, as a one-term ``reduced_eval``.
    """
    return reduced_eval((KernelTerm(1.0, w, p, z),), tol)
