"""Double-exponential (tanh-sinh) quadrature of Lerch-kernel sums on (0,1).

The rule is Takahasi and Mori's (Publ. RIMS 9, 1974); ``reduced_eval`` is its
one entry point.  The variable change t = (1 + tanh((pi/2) sinh(v)))/2 pushes
both endpoints infinitely far away, so trapezoid sums converge fast even with
algebraic or logarithmic endpoint singularities.  The nodes live in one cache
of blocks, each the concatenated nodes of a run of consecutive
refinement levels; each node carries its distance to BOTH endpoints plus a
stably computed -ln(t), because the kernels of interest,

    t^(w-1) (-ln t)^p / (1 - z t),

need -ln(t) accurate near t = 1 (log1p of the complementary distance) and
are best evaluated through a single complex exponential so that huge
t^(w-1) factors and tiny weights cancel in exact arithmetic instead of
overflowing one at a time.

A weighted sum of such kernels is integrated in one pass.  Near t = 1 the
sum can vanish to a higher power of -ln t than any of its terms, so there
it is summed from its Taylor series in -ln t, whose cancelling leading
coefficients are exactly zero; see ``_kernel_group``.

Most such sums converge by level 4, so levels 0-4 are evaluated in one
vectorized pass over the block of their nodes, and each later level over a
block of one level.  Each level is still summed over its own nodes and
tested in turn, giving the numbers a level-by-level pass gives.

Truncating the nodes where the transformed weight underflows drops
an endpoint tail of mass about exp(-736 Re w)/Re w (and similarly in the
exponent p+1 at t=1), negligible for Re w >= 0.05 at any supported
tolerance; exponents smaller than that are outside the intended domain.

numpy is imported inside the functions that build node arrays, not at the
top, so that ``import lerchint`` and the scalar Phi paths never load it.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .compsum import EPS
from .errors import ConvergenceError, DomainError, EvaluationError, check_tol

DEFAULT_TOL = 1e-12
DEFAULT_MAX_LEVEL = 12

_G_CUTOFF = 368.0  # (pi/2) sinh(v) beyond this underflows exp(-2g)
_HALF_PI = 0.5 * math.pi
_LN_QUARTER_PI = math.log(0.25 * math.pi)  # ln of the Jacobian prefactor

_NEAR_CUT = 0.25  # -ln t below which a kernel sum is summed as its series
_SERIES_ORDER = 32  # highest power of -ln t tabulated at the near-one nodes
_NOISE = 64.0 * EPS  # a series coefficient this small against its terms is rounding
# the node blocks reduced_eval walks: levels 0-4, where almost every kernel sum stops, then one each
_LEVEL_BLOCKS = (range(5), *(range(level, level + 1) for level in range(5, DEFAULT_MAX_LEVEL + 1)))


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

    Every field is finite; integrability at t = 1 belongs to the whole sum, checked by reduced_eval.
    """

    coeff: complex
    w: complex
    p: complex
    z: complex

    def __post_init__(self) -> None:
        if not all(map(cmath.isfinite, (self.coeff, self.w, self.p, self.z))):
            raise DomainError(f"kernel needs finite coeff, w, p and z, got {self}")
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


def _level_arrays(level: int) -> tuple:
    """t, 1 - t, -ln t, -ln(1 - t) and ln weight at the nodes new to one refinement level.

    Both tails, the midpoint only at level 0; sorted by -ln t, so the nodes
    closest to t = 1 come first.  1 - t is computed without cancellation, the
    z = 1 denominator lives in exp-space as -ln(1 - t), and the weight is the
    h-free transformed trapezoid weight.
    """
    import numpy as np

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
    cols = (
        np.concatenate((x_hi, x_lo[mirror])),
        np.concatenate((x_lo, x_hi[mirror])),
        np.concatenate((lq, (2.0 * g + lq)[mirror])),
        np.concatenate((2.0 * g + lq, lq[mirror])),
        np.concatenate((log_w, log_w[mirror])),
    )
    order = np.argsort(cols[2], kind="stable")
    return tuple(col[order] for col in cols)


class _Split(NamedTuple):
    """A block's nodes split at a cut in -ln t; in each level the nodes below it come first."""

    counts: tuple        # nodes below the cut in each level
    near: np.ndarray     # mask of the nodes below the cut
    far: np.ndarray      # -ln t at the others
    order: np.ndarray    # puts concatenate((values below, values above)) in block order


class _NodeBlock(NamedTuple):
    """The nodes of consecutive refinement levels, each level's as ``_level_arrays`` sorts them."""

    bounds: tuple         # (start, stop) of each level's nodes
    t: np.ndarray
    tc: np.ndarray        # 1 - t
    neg_log_t: np.ndarray
    ln_neg_log_t: np.ndarray
    neg_log_tc: np.ndarray
    log_weight: np.ndarray
    near: tuple           # nodes with -ln t < _NEAR_CUT in each level
    near_pows: tuple      # (-ln t)^e at each level's near nodes, e = 0.._SERIES_ORDER
    upper: np.ndarray     # t > 0.5, where 1 - z t is formed as (1 - z) + z (1 - t)
    lin: np.ndarray       # 1 - t where upper, else -t: 1 - z t = (1 - z or 1) + z lin
    near_cut: _Split      # split at _NEAR_CUT

    def split(self, cut: float) -> _Split:
        if cut == _NEAR_CUT:
            return self.near_cut
        return _split(self.bounds, self.near, self.neg_log_t, cut)


def _split(bounds: tuple, near: tuple, ell: np.ndarray, cut: float) -> _Split:
    import numpy as np

    counts = tuple(int(np.searchsorted(ell[lo:lo + n], cut)) for (lo, _), n in zip(bounds, near))
    near_at = np.concatenate([np.arange(lo, lo + n) for (lo, _), n in zip(bounds, counts)])
    far_at = np.concatenate([np.arange(lo + n, hi) for (lo, hi), n in zip(bounds, counts)])
    mask = np.zeros(len(ell), dtype=bool)
    mask[near_at] = True
    return _Split(counts, mask, ell[far_at], np.argsort(np.concatenate((near_at, far_at))))


@functools.cache
def _node_block(levels: range) -> _NodeBlock:
    """The one node cache; a block is deterministic, so building one twice at once is harmless."""
    import numpy as np

    per_level = [_level_arrays(level) for level in levels]
    stops = np.cumsum([len(arrays[0]) for arrays in per_level]).tolist()
    bounds = tuple(zip([0] + stops[:-1], stops))
    t, tc, ell, neg_log_tc, log_weight = (np.concatenate(col) for col in zip(*per_level))
    near = tuple(int(np.searchsorted(ell[lo:hi], _NEAR_CUT)) for lo, hi in bounds)
    exponents = np.arange(_SERIES_ORDER + 1.0)[:, None]
    upper = t > 0.5
    return _NodeBlock(bounds, t, tc, ell, np.log(ell), neg_log_tc, log_weight, near,
                      tuple(ell[lo:lo + n] ** exponents for (lo, _), n in zip(bounds, near)),
                      upper, np.where(upper, tc, -t), _split(bounds, near, ell, _NEAR_CUT))


def _taylor(parts: list, cut: float):
    """(j, [a_j, ..., a_N]) for sum_i c_i e^(-d_i L) L^(k_i), parts = (c_i, d_i, k_i).

    a_n = sum_i c_i (-d_i)^(n-k_i) / (n-k_i)!, set to zero within _NOISE of
    the sum of its terms' magnitudes; a_j is the first nonzero one.  N is
    the first order >= max k_i whose terms are negligible against a_j at
    L = cut; with max|d_i| cut <= 1 every (|d_i| cut)^e / e! falls with e,
    so that test is safe.  j = None when every order up to _SERIES_ORDER cancels.
    """
    kmax = max(k for _, _, k in parts)
    states = [[c, -d, k] for c, d, k in parts]  # [term of the current order, -d_i, k_i]
    live: list = []
    coeffs: list = []
    j = None
    for n in range(_SERIES_ORDER + 1):
        if n <= kmax + 1:
            # the parts whose order k_i has been reached, in part order, less
            # those with d_i = 0 once their term is an exact zero: their later
            # terms are zeros too, and adding a zero changes neither a nor mag
            live = [st for st in states if st[2] <= n and (st[1] or st[0])]
        a = mag = 0.0
        for st in live:
            x = st[0]
            a += x
            mag += abs(x)
            st[0] = x * st[1] / (n + 1 - st[2])
        if abs(a) <= _NOISE * mag:
            a = 0.0
        if j is None:
            if a == 0.0:
                continue
            j, lead = n, abs(a)
        coeffs.append(a)
        if n >= kmax and mag * cut ** (n - j) <= EPS * lead:
            break
    return j, coeffs


def _kernel_group(terms: list):
    """Block-sum function of kernel terms with one z whose p differ by integers.

    With p0 and w0 the p and w of smallest real part, k_i = p_i - p0 (an
    integer), d_i = w_i - w0 and L = -ln t, the terms sum to

        t^(w0-1) L^p0 / (1 - z t) * sum_i c_i e^(-d_i L) L^(k_i).

    If the inner sum's Taylor coefficients in L vanish below order j
    (``_taylor``), the group behaves like L^(p0+j) at t = 1, which decides
    its integrability there.  For j > 0 the group is summed below a cut in
    L as t^(w0-1) L^(p0+j) sum_{n>=j} a_n L^(n-j), so the cancelling
    orders never enter, and above the cut term by term.  The function maps
    a node block to the list of its levels' sums (each level summed over
    its own nodes, with one series product per level).  Returns None when
    the terms cancel identically.
    """
    import numpy as np

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
    order = len(coeffs)
    # rows a_re (and a_im when nonzero), shaped so one matmul per level gives
    # each row's product with that level's powers, as a matmul per row does
    rows = [[a.real for a in coeffs]]
    if any(a.imag for a in coeffs):
        rows.append([a.imag for a in coeffs])
    a_rows = np.array(rows)[:, None, :]
    divide = not z_one and z != 0.0

    def block_sums(block: _NodeBlock) -> list:
        split = None if j == 0 else block.split(cut)
        far = block.neg_log_t if split is None else split.far
        inner = 0.0
        for c, d, k in parts:
            f = c * np.exp(-d * far) if d else c
            inner = inner + (f * far ** k if k else f)
        # weight * t^(w0-1) * L^p through one exponential: the product is
        # O(integrand mass) even where the factors individually overflow
        base = (1.0 - w0) * block.neg_log_t + block.log_weight
        if z_one:
            # 1/(1-t) joins the exponential; subnormal 1-t never gets divided by
            base = base + block.neg_log_tc
        if split is None:
            vals = np.exp(base + p0 * block.ln_neg_log_t) * inner
        else:
            series = np.concatenate([a_rows @ pows[:order, :n]
                                     for pows, n in zip(block.near_pows, split.counts)], axis=2)
            series = series[0, 0] if len(series) == 1 else series[0, 0] + 1j * series[1, 0]
            if not isinstance(inner, np.ndarray):  # constant parts give j > 0 only if not finite
                inner = np.full(len(far), inner)
            p = np.where(split.near, p0 + j, p0)
            vals = np.exp(base + p * block.ln_neg_log_t) * np.concatenate((series, inner))[split.order]
        if divide:
            vals = vals / (np.where(block.upper, 1.0 - z, 1.0) + z * block.lin)
        return [np.add.reduce(vals[lo:hi]) for lo, hi in block.bounds]

    return block_sums


def reduced_eval(reduced, tol: float = DEFAULT_TOL) -> QuadResult:
    """Evaluate a weighted sum of kernel terms: sum_i c_i * K(z_i, w_i, p_i).

    The whole sum is integrated in one tanh-sinh pass that stops, from level
    2 on, at the first level whose value differs from the one before by
    <= tol; abs_err is that difference, nodes the nodes of the levels used.
    Past ``DEFAULT_MAX_LEVEL`` it raises ConvergenceError carrying the last
    ones, and at a level with a non-finite sum, EvaluationError.  Terms whose p
    differ by integers are summed as one function (``_kernel_group``), so a
    sum is accepted when it is integrable at t = 1 even if its terms are not
    one by one; a sum that is not raises DomainError before any quadrature,
    and so does a tol that is not > 0.
    """
    check_tol(tol)
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

    total = 0j
    nodes_used = 0
    diff = math.inf
    for levels in _LEVEL_BLOCKS:
        block = _node_block(levels)
        for level, (lo, hi), *sums in zip(levels, block.bounds, *(g(block) for g in groups)):
            s = complex(sum(sums))
            if not (math.isfinite(s.real) and math.isfinite(s.imag)):
                raise EvaluationError(f"kernel sum produced non-finite node values: {terms}")
            nodes_used += hi - lo
            if level == 0:
                total = s
                continue
            prev, total = total, 0.5 * total + 0.5 ** level * s
            diff = abs(total - prev)
            if level >= 2 and diff <= tol:
                return QuadResult(total, diff, nodes_used)
    raise ConvergenceError(
        f"tanh-sinh level cap {DEFAULT_MAX_LEVEL} hit with diff={diff:.3e} > tol={tol}",
        result=QuadResult(total, diff, nodes_used),
    )


def lerch_kernel_integral(z: complex, w: complex, p: complex, tol: float = DEFAULT_TOL) -> QuadResult:
    """integral_0^1 t^(w-1) (-ln t)^p / (1 - z t) dt.

    Its value equals gamma(p+1) * Phi(z, p+1, w), which is exactly what the
    cross-checks in the test suite exercise; here it is computed purely by
    quadrature, as a one-term ``reduced_eval``.
    """
    return reduced_eval((KernelTerm(1.0, w, p, z),), tol)
