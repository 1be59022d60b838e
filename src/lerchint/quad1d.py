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
    """One weighted kernel c * t^(w-1) (-ln t)^p / (1 - z t) on (0,1)."""

    coeff: complex
    w: complex
    p: complex
    z: complex

    def __post_init__(self) -> None:
        if complex(self.w).real <= 0.0:
            raise DomainError(f"kernel needs Re w > 0 for integrability at 0, got w={self.w}")
        z = complex(self.z)
        p = complex(self.p)
        if _on_real_ray_beyond_one(z):
            raise DomainError(f"kernel denominator vanishes on (0,1) for z={z}")
        if is_one(z):
            if p.real <= 0.0:
                raise DomainError(f"kernel with z=1 needs Re p > 0, got p={p}")
        elif p.real <= -1.0:
            raise DomainError(f"kernel needs Re p > -1 at t=1, got p={p}")


def is_one(z: complex) -> bool:
    """The z = 1 predicate every module dispatches on."""
    return abs(z - 1.0) <= 1e-14


def _on_real_ray_beyond_one(z: complex) -> bool:
    return z.imag == 0.0 and z.real > 1.0


@dataclass(frozen=True)
class _LevelNodes:
    """Nodes new to one refinement level (both tails, midpoint only at level 0)."""

    t: np.ndarray        # abscissa in (0,1)
    tc: np.ndarray       # 1 - t, computed without cancellation
    neg_log_t: np.ndarray
    neg_log_tc: np.ndarray  # -ln(1-t); the z=1 denominator lives in exp-space
    log_weight: np.ndarray  # ln of the h-free transformed trapezoid weight


_LEVEL_CACHE: list[_LevelNodes] = []
_LEVEL_CACHE_LOCK = threading.Lock()


def _build_level(level: int) -> _LevelNodes:
    h = 0.5 ** level
    js = range(0, 10 ** 9) if level == 0 else range(1, 10 ** 9, 2)
    t_list: list[float] = []
    tc_list: list[float] = []
    nlt_list: list[float] = []
    nltc_list: list[float] = []
    lw_list: list[float] = []
    for j in js:
        v = j * h
        g = _HALF_PI * math.sinh(v)
        if g > _G_CUTOFF:
            break
        q = math.exp(-2.0 * g)
        lq = math.log1p(q)
        x_hi = 1.0 / (1.0 + q)
        x_lo = q / (1.0 + q)
        # ln weight = ln(pi/4) + ln cosh v + 2 ln sech g, all overflow-safe
        log_w = _LN_QUARTER_PI + math.log(math.cosh(v)) + 2.0 * (math.log(2.0) - g - lq)
        if j == 0:
            t_list.append(0.5)
            tc_list.append(0.5)
            nlt_list.append(math.log(2.0))
            nltc_list.append(math.log(2.0))
            lw_list.append(log_w)
            continue
        # right tail node (t near 1) and its mirror (t near 0)
        t_list.append(x_hi)
        tc_list.append(x_lo)
        nlt_list.append(lq)  # -ln(1/(1+q)) = log1p(q)
        nltc_list.append(2.0 * g + lq)
        lw_list.append(log_w)
        t_list.append(x_lo)
        tc_list.append(x_hi)
        nlt_list.append(2.0 * g + lq)
        nltc_list.append(lq)
        lw_list.append(log_w)
    return _LevelNodes(
        t=np.array(t_list),
        tc=np.array(tc_list),
        neg_log_t=np.array(nlt_list),
        neg_log_tc=np.array(nltc_list),
        log_weight=np.array(lw_list),
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


def _kernel_level_sum(nodes: _LevelNodes, w: complex, p: complex, z: complex):
    ln_l = np.log(nodes.neg_log_t)
    # weight * t^(w-1) * (-ln t)^p through one exponential: the product is
    # O(integrand mass) even where the factors individually overflow.
    a = (1.0 - w) * nodes.neg_log_t + p * ln_l + nodes.log_weight
    if is_one(z):
        # 1/(1-t) joins the exponential; subnormal 1-t never gets divided by
        vals = np.exp(a + nodes.neg_log_tc)
    else:
        den = np.where(nodes.t > 0.5, (1.0 - z) + z * nodes.tc, 1.0 - z * nodes.t)
        vals = np.exp(a) / den
    if not np.all(np.isfinite(vals.real) & np.isfinite(vals.imag)):
        raise EvaluationError(f"kernel produced non-finite node values (w={w}, p={p}, z={z})")
    return vals.sum(), len(nodes.t)


def lerch_kernel_integral(
    z: complex,
    w: complex,
    p: complex,
    tol: float = DEFAULT_TOL,
    max_level: int = DEFAULT_MAX_LEVEL,
) -> QuadResult:
    """integral_0^1 t^(w-1) (-ln t)^p / (1 - z t) dt.

    Its value equals gamma(p+1) * Phi(z, p+1, w), which is exactly what the
    cross-checks in the test suite exercise; here it is computed purely by
    quadrature.
    """
    term = KernelTerm(1.0, complex(w), complex(p), complex(z))  # validates domain
    return _integrate(
        lambda nodes: _kernel_level_sum(nodes, term.w, term.p, term.z),
        tol,
        max_level,
    )


def reduced_eval(reduced, tol: float = DEFAULT_TOL, max_level: int = DEFAULT_MAX_LEVEL) -> QuadResult:
    """Evaluate a weighted sum of kernel terms: sum_i c_i * K(z_i, w_i, p_i).

    Per-term tolerances are scaled by the coefficient magnitudes so the
    combined error lands under ``tol``; abs_err is the coefficient-weighted
    sum of per-term errors.
    """
    terms = list(reduced.terms) if hasattr(reduced, "terms") else list(reduced)
    if not terms:
        return QuadResult(0j, 0.0, 0)
    total = 0j
    err = 0.0
    nodes = 0
    n = len(terms)
    for term in terms:
        c = complex(term.coeff)
        term_tol = tol / (n * max(1.0, abs(c)))
        r = _integrate(
            lambda nd: _kernel_level_sum(nd, complex(term.w), complex(term.p), complex(term.z)),
            term_tol,
            max_level,
        )
        total += c * r.value
        err += abs(c) * r.abs_err
        nodes += r.nodes
    return QuadResult(total, err, nodes)
