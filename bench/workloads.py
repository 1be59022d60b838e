"""Seeded input generators, operations and correctness oracles.

This module imports only the standard library, so a setup probe can build
the first operation of a workload before it starts its clock and imports
lerchint.  The library receives only the generated inputs; every operation
calls it through module attributes looked up at call time, so the tracer in
``spans.py`` sees the calls once it has wrapped those attributes.

Workloads (README.md lists the shares each one is built with):

phi-mix
    One ``phi(LerchArgs(z, s, u), tol)`` per operation, over the five
    dispatch regions at fixed shares.  A pool of ``PHI_POOL`` inputs is
    generated and cycled, because each mpmath reference costs ~80 ms.
verify-reduced
    ``verify(spec, tol)`` without QMC, ``verify_dimension_lift`` and
    reduced-method constants at fixed shares, in blocks of ten.
verify-qmc
    ``verify(spec, 1e-8, qmc=QmcOptions(points, 8, seed_i, threads))`` and
    QMC-method constants; each block of seven operations holds a verify for
    every (points, threads) pair and one constant.

Every workload must run without a failing operation, so inputs are drawn
only where the library documents that it converges: tolerances above the
double-precision rounding floor of the values involved, unit-circle Phi
where the direct series reaches ``tol`` within a bounded number of terms,
and identity parameters inside the strictest of the spec, reduction and
closed-form domains.  These input predicates use only closed-form magnitude
estimates, never the library under test.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random

EPS = 2.220446049250313e-16
PHI_TOL = 1e-13  # identities.verify's fixed Phi tolerance
QMC_REPLICATES = 8
QMC_POINTS = (1 << 14, 1 << 16, 1 << 18)
QMC_THREADS = (1, 2)
QMC_M_CYCLE = 5  # blocks until every (points, threads) pair has seen m = 2..6
# A QMC estimate more than 3 standard errors from the closed form fails the
# library's pass rule.  With 8 replicates that happens to a few percent of
# correct estimates (a third for Euler's constant, whose corner spike makes
# the t-statistic heavy-tailed), so it is counted as a statistical miss; the
# output is wrong only when it is also beyond both of these limits.
QMC_GROSS_SIGMA = 20.0
QMC_GROSS_REL = 1e-2
CONSTANT_REDUCED_TOL = 1e-8  # the CLI pass rule: gap <= max(tol, 1e-8)

PHI_POOL = 120
PHI_REGIONS = (("disk", 6), ("band", 6), ("circle", 2), ("z1", 3), ("zm1", 3))
PHI_CIRCLE_MAX_TERMS = 20_000
PHI_JITTER = 0.05

WORKLOADS = ("phi-mix", "verify-reduced", "verify-qmc")

# distance kept from the strict lower edge of the s strip, where a kernel
# (-ln t)^p with Re p near -1 needs more tanh-sinh levels than the cap allows
S_MARGIN = 0.1

FAMILIES = ("symmetric", "f-kernel", "theorem4-kernel", "distinct-exponents")
Z_KINDS = ("disk", "m1", "p1", "i")


# ---------------------------------------------------------------- magnitudes

def _abs_pow(w: complex, s: complex) -> float:
    """|w^(-s)| on the principal branch."""
    return abs(w) ** (-s.real) * math.exp(s.imag * cmath.phase(w))


def series_magnitude(z: complex, s: complex, u: complex) -> float:
    """Estimate of sum_n |z^n (u+n)^(-s)|, the scale of Phi's rounding floor.

    Exact over the first eight terms, then the smaller of a geometric bound
    (|z| < 1) and an integral bound (Re s > 1) on the rest.  At |z| = 1 with
    Re s <= 1 (only z = -1 is drawn there) the alternating algorithm's scale
    is its leading term |u^(-s)|.
    """
    a = abs(z)
    if a >= 1.0 - 1e-14 and s.real <= 1.0:
        return _abs_pow(u, s)
    n_head = 8
    total = 0.0
    an = 1.0
    for n in range(n_head):
        total += an * _abs_pow(u + n, s)
        an *= a
    amp = math.exp(abs(s.imag) * 0.5 * math.pi)
    tail = math.inf
    if a < 1.0 - 1e-14:
        lead = an * _abs_pow(u + n_head, s)
        growth = ((u.real + n_head + 1.0) / (u.real + n_head)) ** max(0.0, -s.real)
        if a * growth < 1.0:
            tail = lead / (1.0 - a * growth)
    if s.real > 1.0:
        tail = min(tail, amp * (u.real + n_head - 1.0) ** (1.0 - s.real) / (s.real - 1.0))
    return total + tail


def phi_attainable(z: complex, s: complex, u: complex, tol: float) -> bool:
    """Rounding floor of Phi(z,s,u) below tol/4 (the library sums with 4 eps)."""
    return 8.0 * EPS * series_magnitude(z, s, u) <= 0.25 * tol


def circle_terms(s: complex, u: complex, tol: float) -> float:
    """Terms the unit-circle integral-test tail bound needs to reach tol/2."""
    amp = math.exp(abs(s.imag) * 0.5 * math.pi)
    return (2.0 * amp / ((s.real - 1.0) * tol)) ** (1.0 / (s.real - 1.0)) - u.real


def kernel_magnitude(z: complex, w: complex, p: complex) -> float:
    """Bound on integral_0^1 |t^(w-1) (-ln t)^p / (1 - z t)| dt."""
    g = math.gamma(p.real + 1.0)
    if abs(z - 1.0) <= 1e-14:
        return g * series_magnitude(1.0, complex(p.real + 1.0), complex(w.real))
    if abs(z) >= 1.0 - 1e-14:  # z = -1: |1 - z t| >= 1
        return g * w.real ** (-(p.real + 1.0))
    return g * series_magnitude(abs(z), complex(p.real + 1.0), complex(w.real))


# ------------------------------------------------------------ identity specs

def is_one(z: complex) -> bool:
    return abs(z - 1.0) <= 1e-14


def spec_lower_bound(family: str, m: int, z_one: bool) -> float:
    """IntegrandSpec's documented strip: Re s must exceed this."""
    if family == "distinct-exponents":
        return 0.0 if z_one else -1.0
    if family == "theorem4-kernel":
        return float(-m) if z_one else float(-m - 1)
    return float(1 - m) if z_one else float(-m)


def phi_terms(family: str, m: int, exps: tuple, z: complex, s: complex):
    """(z, sigma, u) of every Phi value the family's closed form evaluates."""
    if family == "symmetric":
        return [(z, s + m, exps[0])]
    if family == "f-kernel":
        return [(z, s + m - 1, exps[1]), (z, s + m - 1, exps[0])]
    if family == "theorem4-kernel":
        return [(z, s + m, exps[0]), (z, s + m - 1, exps[0])]
    return [(z, s + 1, e) for e in exps]


def kernel_terms(family: str, m: int, exps: tuple, z: complex, s: complex):
    """(coeff, w, p) of the 1-D kernels of the family's simplex reduction."""
    if family == "symmetric":
        return [(1.0 / math.factorial(m - 1), exps[0], s + m - 1)]
    if family == "f-kernel":
        u, v = exps
        c = 1.0 / (math.factorial(m - 2) * (u - v))
        return [(c, v, s + m - 2), (-c, u, s + m - 2)]
    if family == "theorem4-kernel":
        u = exps[0]
        pref = 1.0 / math.factorial(m - 2)
        return [(pref, u, s + m - 1), (-pref, u, s + m - 2), (pref, u + 1, s + m - 2)]
    out = []
    for i, ui in enumerate(exps):
        denom = 1.0 + 0j
        for j, uj in enumerate(exps):
            if j != i:
                denom *= uj - ui
        out.append((1.0 / denom, ui, s))
    return out


def identity_lower_bound(family: str, m: int, z: complex) -> float:
    """Smallest Re s at which spec, reduction and closed form all apply.

    The reduction needs Re p > -1 per kernel (Re p > 0 at z = 1); the closed
    form needs Re sigma > 1.05 at z = 1 and Re sigma > 0 at z = -1 for every
    Phi argument sigma.
    """
    z_one = is_one(z)
    lo = spec_lower_bound(family, m, z_one)
    p_min = 0.0 if z_one else -1.0
    p_offset = {"symmetric": m - 1, "f-kernel": m - 2, "theorem4-kernel": m - 2,
                "distinct-exponents": 0}[family]
    lo = max(lo, p_min - p_offset)
    sigma_offset = {"symmetric": m, "f-kernel": m - 1, "theorem4-kernel": m - 1,
                    "distinct-exponents": 1}[family]
    if z_one:
        lo = max(lo, 1.05 - sigma_offset)
    elif abs(z + 1.0) <= 1e-14:
        lo = max(lo, -sigma_offset)
    return lo


def identity_attainable(family, m, exps, z, s, quad_tol) -> bool:
    """Closed form and reduced kernels reachable at their absolute tolerances."""
    if family == "theorem4-kernel" and abs(s + m - 1) < 1e-3:
        return False
    for zz, sigma, uu in phi_terms(family, m, exps, z, s):
        if not phi_attainable(zz, sigma, uu, PHI_TOL):
            return False
    kernels = kernel_terms(family, m, exps, z, s)
    for c, w, p in kernels:
        term_tol = quad_tol / (len(kernels) * max(1.0, abs(c)))
        if 64.0 * EPS * abs(c) * kernel_magnitude(z, w, p) > term_tol:
            return False
    return True


# ------------------------------------------------------------------- drawing

def _lhs(rng: random.Random, k: int, dims: int):
    """Latin-hypercube sample: k points in [0,1)^dims, one per stratum per dim."""
    cols = []
    for _ in range(dims):
        perm = list(range(k))
        rng.shuffle(perm)
        cols.append([(perm[i] + rng.random()) / k for i in range(k)])
    return [tuple(col[i] for col in cols) for i in range(k)]


def _separated(rng, n, lo, hi, im, gap=0.1):
    while True:
        exps = tuple(complex(rng.uniform(lo, hi), rng.uniform(-im, im)) for _ in range(n))
        if all(abs(a - b) >= gap for i, a in enumerate(exps) for b in exps[i + 1:]):
            return exps


class Op:
    """One operation: a kind, its inputs, and (for phi) its reference value."""

    __slots__ = ("kind", "args", "ref", "region")

    def __init__(self, kind: str, args: tuple, region: str = ""):
        self.kind = kind
        self.args = args
        self.ref = None
        self.region = region

    def key(self) -> str:
        return f"{self.kind}|{self.region}|{self.args!r}"


# phi-mix ---------------------------------------------------------------
#
# A phi call's cost is set by magnitudes: |z| (or 1 - |z|), Re s, |Im s|,
# Re u and tol.  Those come from a fixed Latin-hypercube design per region,
# so every seed runs the same cost profile; the seed jitters each magnitude
# by up to PHI_JITTER of its stratum and draws the phase of z, the signs of
# Im s and Im u, and the order.  Without the fixed design one pool of 120
# inputs is too small for seed-to-seed spreads below the benchmark's bounds.

def _phi_params(region, x, theta, sign_s, sign_u):
    s_im = sign_s * 2.0 * x[2]
    u = complex(0.1 + 3.9 * x[3], sign_u * x[4])
    if region == "disk":
        return cmath.rect(0.9 * x[0], theta), complex(4.0 * x[1], s_im), u
    if region == "band":
        gap = 10.0 ** (math.log10(2e-3) + x[0] * (math.log10(0.1) - math.log10(2e-3)))
        return cmath.rect(1.0 - gap, theta), complex(4.0 * x[1], s_im), u
    if region == "circle":
        return _unit(math.copysign(0.2 + (math.pi - 0.4) * x[0], theta)), \
            complex(2.5 + 3.5 * x[1], s_im), u
    if region == "z1":
        return 1.0 + 0j, complex(1.05 + 3.95 * x[1], s_im), u
    return -1.0 + 0j, complex(0.05 + 3.95 * x[1], s_im), u


def _unit(theta: float) -> complex:
    """A point of modulus exactly >= 1.0 in floating point at angle ~theta.

    Where cos/sin round so that |z| < 1, the library's series takes its
    |z| < 1 tail bound with 1 - |z| ~ 1e-16 and needs 1e5 to 1e8 terms
    (often failing); the benchmark keeps such points out (see README.md).
    """
    while True:
        z = cmath.rect(1.0, theta)
        if abs(z) >= 1.0:
            return z
        theta = math.nextafter(theta, math.inf)


def _phi_ok(region, z, s, u, tol) -> bool:
    if region == "circle" and circle_terms(s, u, tol) > PHI_CIRCLE_MAX_TERMS:
        return False
    return phi_attainable(z, s, u, tol)


def _phi_design(region: str, count: int) -> list:
    """Seed-independent (x, tol) per input; attainable for either sign."""
    rng = random.Random(f"phi-design:{region}")
    design = []
    for i, x in enumerate(_lhs(rng, count, 5)):
        tol = 1e-10 if i % 2 == 0 else 1e-12
        while not all(_phi_ok(region, *_phi_params(region, x, 1.0, ss, su), tol)
                      for ss in (-1.0, 1.0) for su in (-1.0, 1.0)):
            x = (x[0],) + tuple(rng.random() for _ in range(4))
        design.append((x, tol))
    return design


def phi_pool(seed: int) -> list:
    """PHI_POOL phi inputs in blocks of 20 holding every region at its share."""
    rng = random.Random(f"phi-mix:{seed}")
    per_block = sum(k for _, k in PHI_REGIONS)
    blocks = PHI_POOL // per_block
    by_region = {}
    for region, k in PHI_REGIONS:
        count = k * blocks
        ops = []
        for x0, tol in _phi_design(region, count):
            theta = rng.uniform(-math.pi, math.pi)
            sign_s = rng.choice((-1.0, 1.0))
            sign_u = rng.choice((-1.0, 1.0))
            for _ in range(20):
                x = tuple(min(1.0, max(0.0, c + rng.uniform(-PHI_JITTER, PHI_JITTER) / count))
                          for c in x0)
                params = _phi_params(region, x, theta, sign_s, sign_u)
                if _phi_ok(region, *params, tol):
                    break
            else:
                params = _phi_params(region, x0, theta, sign_s, sign_u)
            ops.append(Op("phi", params + (tol,), region))
        rng.shuffle(ops)
        by_region[region] = ops
    pool = []
    for b in range(blocks):
        block = []
        for region, k in PHI_REGIONS:
            block.extend(by_region[region][b * k:(b + 1) * k])
        rng.shuffle(block)
        if b == 0:  # the setup probe's first operation is a disk call
            block.sort(key=lambda op: op.region != "disk")
        pool.extend(block)
    return pool


# verify workloads ------------------------------------------------------

def _draw_z(rng, kind):
    if kind == "disk":
        return cmath.rect(rng.uniform(0.05, 0.9), rng.uniform(-math.pi, math.pi))
    return {"m1": -1.0 + 0j, "p1": 1.0 + 0j, "i": 0.5j}[kind]


def _draw_spec(rng, family, m, zkind, tol, qmc):
    """(family, m, exponents, z, s) inside the identity's working domain."""
    quad_tol = max(1e-13, tol * 1e-3)
    n_exp = {"symmetric": 1, "f-kernel": 2, "theorem4-kernel": 1,
             "distinct-exponents": m}[family]
    while True:
        z = _draw_z(rng, zkind)
        lo = identity_lower_bound(family, m, z)
        if qmc:  # QMC-admissible: bounded log factor and power factor
            lo = max(lo, 0.0)
            exps = _separated(rng, n_exp, 1.0, 3.0, 0.5)
        else:
            exps = _separated(rng, n_exp, 0.3, 3.0, 0.5)
        s = complex(lo + S_MARGIN + 4.0 * rng.random(), rng.uniform(-0.5, 0.5))
        if identity_attainable(family, m, exps, z, s, quad_tol):
            return (family, m, exps, z, s)


def _draw_lift(rng, m, zkind, tol):
    """(m, base spec tuple) for verify_dimension_lift."""
    quad_tol = max(1e-13, tol * 1e-3)
    family = rng.choice(("symmetric", "f-kernel", "theorem4-kernel"))
    while True:
        base = _draw_spec(rng, family, 2, zkind, tol, False)
        _, _, exps, z, s = base
        lifted_s = s - m + 2
        if lifted_s.real > identity_lower_bound(family, m, z) and \
                identity_attainable(family, m, exps, z, lifted_s, quad_tol):
            return (m, base)


def _verify_reduced_block(rng, b):
    """Ten operations: eight verify, one dimension lift, one reduced constant."""
    ops = []
    for j in range(8):
        family = FAMILIES[j % 4]
        zkind = Z_KINDS[(j + b + j // 4) % 4]
        tol = (1e-8, 1e-10)[(j + b) % 2]
        m = 2 + (b + j) % 5
        ops.append(Op("verify", (_draw_spec(rng, family, m, zkind, tol, False), tol)))
    tol = (1e-8, 1e-10)[b % 2]
    ops.append(Op("lift", (_draw_lift(rng, 2 + b % 5, Z_KINDS[b % 4], tol), tol)))
    ops.append(Op("constant", (("gamma", "ln4pi")[b % 2], 2 + (b // 2) % 5, "reduced", None)))
    rng.shuffle(ops)
    if b == 0:  # the setup probe's first operation is a reduced-path verify
        ops.sort(key=lambda op: op.kind != "verify")
    return ops


def _verify_qmc_block(rng, b):
    """Seven operations: a verify for every (points, threads) pair and a constant.

    The two thread counts of one points size get m = 2 + b%5 and 6 - b%5, so
    every block costs about the same and each pair sees every m over five
    blocks.
    """
    ops = []
    for points in QMC_POINTS:
        for threads in QMC_THREADS:
            m = 2 + b % QMC_M_CYCLE if threads == 1 else 6 - b % QMC_M_CYCLE
            family = FAMILIES[(b + points.bit_length() + threads) % 4]
            zkind = Z_KINDS[(b // 4 + points.bit_length() // 2 + threads) % 4]
            spec = _draw_spec(rng, family, m, zkind, 1e-8, True)
            ops.append(Op("verify", (spec, 1e-8, (points, threads, rng.randrange(1 << 31)))))
    points = QMC_POINTS[(b // 2) % 2]
    threads = QMC_THREADS[(b // 4) % 2]
    ops.append(Op("constant", (("gamma", "ln4pi")[b % 2], 2 + (b // 2) % 5, "qmc",
                               (points, threads, rng.randrange(1 << 31)))))
    rng.shuffle(ops)
    if b == 0:  # the setup probe's first operation is the lightest shape
        ops.sort(key=lambda op: (op.args[-1][0], op.args[-1][1], op.kind != "verify"))
    return ops


class Stream:
    """Endless seeded operation stream; block i depends only on (seed, i).

    phi-mix's blocks all return the same pool; the worker cycles the first
    2000 verify-reduced operations and streams verify-qmc.
    """

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.seed = seed
        self._pool = phi_pool(seed) if workload == "phi-mix" else None

    def block(self, i: int) -> list:
        if self._pool is not None:
            return list(self._pool)
        rng = random.Random(f"{self.workload}:{self.seed}:{i}")
        if self.workload == "verify-reduced":
            return _verify_reduced_block(rng, i)
        return _verify_qmc_block(rng, i)

    def take(self, n: int) -> list:
        out, i = [], 0
        while len(out) < n:
            out.extend(self.block(i))
            i += 1
        return out[:n]

    def first(self) -> Op:
        return self.block(0)[0]


def digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.key().encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------- executing

def _spec(lib, params):
    family, m, exps, z, s = params
    return lib.simplex.IntegrandSpec(m=m, family=family, exponents=exps, z=z, s=s)


def run_op(lib, op: Op):
    """Call the library for one operation and return its raw result."""
    if op.kind == "phi":
        z, s, u, tol = op.args
        return lib.lerch.phi(lib.lerch.LerchArgs(z, s, u), tol)
    if op.kind == "verify":
        spec = _spec(lib, op.args[0])
        if len(op.args) == 2:
            return lib.identities.verify(spec, op.args[1])
        points, threads, qseed = op.args[2]
        opts = lib.identities.QmcOptions(points, QMC_REPLICATES, qseed, threads)
        return lib.identities.verify(spec, op.args[1], qmc=opts)
    if op.kind == "lift":
        (m, base), tol = op.args
        return lib.identities.verify_dimension_lift(m, _spec(lib, base), tol)
    name, m, method, qmc = op.args
    fn = lib.constants.euler_gamma_via_integral if name == "gamma" \
        else lib.constants.ln4_over_pi_via_integral
    if qmc is None:
        return fn(m, method)
    points, threads, qseed = qmc
    return fn(m, method, lib.identities.QmcOptions(points, QMC_REPLICATES, qseed, threads))


def _qmc_class(gap: float, std_err: float, scale: float) -> str:
    sigma = gap / max(std_err, 1e-15)
    if sigma <= 3.0:
        return "ok"
    if sigma <= QMC_GROSS_SIGMA or gap <= QMC_GROSS_REL * scale:
        return "sigma_miss"
    return "wrong"


def check(op: Op, result) -> str:
    """Classify a returned result: 'ok', 'sigma_miss' or 'wrong'."""
    if op.kind == "phi":
        gap = abs(result.value - op.ref)
        return "ok" if gap <= max(result.abs_err, op.args[3]) else "wrong"
    if op.kind == "constant":
        gap = abs(result.value - result.reference)
        if result.method == "reduced":
            return "ok" if gap <= CONSTANT_REDUCED_TOL else "wrong"
        return _qmc_class(gap, result.error, abs(result.reference))
    if result.rel_gap_reduced > result.tol:
        return "wrong"
    if result.pass_:
        return "ok"
    q = result.lhs_qmc
    if q is None:
        return "wrong"
    return _qmc_class(abs(q.estimate - result.rhs), q.std_err, abs(result.rhs))


def phi_reference(op: Op) -> complex:
    import mpmath

    z, s, u, _ = op.args
    return complex(mpmath.lerchphi(z, s, u))
