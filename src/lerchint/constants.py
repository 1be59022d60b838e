"""Euler's constant and ln(4/pi) from m-dimensional cube integrals.

Both constants are values of the theorem4-kernel integral family at u = 1,
s = 1 - m (z = 1 for Euler's constant, z = -1 for ln(4/pi)):

    const = (m-2)! * integral over (0,1)^m of
            (m-1 - x1 - x1x2 - ... - x1...x_{m-1})
            / ((1 -+ prod x) (-ln prod x)^(m-1)) dx.

The closed form degenerates there (it divides by s+m-1 = 0), but the
simplex reduction does not: (m-2)! times the reduction of that spec is the
same three-kernel sum for every m,

    gamma    = integral_0^1 [ 1/(1-t) + 1/ln(t) ] dt
    ln(4/pi) = integral_0^1 [ 1 - (1-t)/(-ln t) ] / (1+t) dt,

whose terms cancel to second order in -ln t at t = 1.  The reduced method
evaluates the m = 2 reduction with ``reduced_eval``, which sums such
cancelling kernels from their series near t = 1; the qmc method estimates
the original m-dimensional integral directly, with the numerator and
1 - prod(x) computed via expm1 so the ratio stays finite through the
corner.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from . import qmc as qmc_mod
from .errors import DomainError
from .identities import build_integrand, jsonable
from .qmc import QmcOptions
from .quad1d import reduced_eval
from .simplex import FAMILIES, FAMILY_THEOREM4, IntegrandSpec, reduce

tanh_sinh = None  # nothing calls it; bench/spans.py's tracer wraps this name until it drops the span

NAME_EULER_GAMMA = "euler-gamma"
NAME_LN_4_OVER_PI = "ln-4-over-pi"

# 16-digit references; tests re-derive both from the defining limits.
EULER_GAMMA = 0.5772156649015329  # lim (1 + 1/2 + ... + 1/n - ln n)
LN_4_OVER_PI = 0.2415644752704905  # ln 4 - ln pi

METHOD_REDUCED = "reduced"
METHOD_QMC = "qmc"


@dataclass(frozen=True)
class ConstantResult:
    name: str
    m: int
    method: str
    value: float
    error: float  # abs_err (reduced) or std_err (qmc)
    reference: float

    def to_json_dict(self) -> dict:
        return jsonable(asdict(self))


def _check_m(m: int) -> None:
    if not 2 <= m <= 6:
        raise DomainError(f"m must lie in [2, 6], got {m}")


def theorem4_corner_integrand(m: int, z: complex):
    """(m-1 - x1 - ...)/((1 - z prod x)(-ln prod x)^(m-1)) on (0,1)^m.

    The theorem4-kernel integrand at u = 1, s = 1 - m; see build_integrand
    for its behaviour through the prod(x) -> 1 corner.
    """
    return build_integrand(IntegrandSpec(m, FAMILY_THEOREM4, (1.0,), z, 1 - m))


def _constant(
    name: str,
    reference: float,
    z: complex,
    m: int,
    method: str = METHOD_REDUCED,
    opts: QmcOptions | None = None,
) -> ConstantResult:
    _check_m(m)
    if method == METHOD_REDUCED:
        # (m-2)! times every m's reduction is this m = 2 sum
        r = reduced_eval(reduce(IntegrandSpec(2, FAMILY_THEOREM4, (1.0,), z, -1.0)), tol=1e-13)
        return ConstantResult(name, m, method, float(r.value.real), r.abs_err, reference)
    if method == METHOD_QMC:
        opts = opts or QmcOptions()
        f = theorem4_corner_integrand(m, z)
        q = qmc_mod.qmc_estimate(f, m, opts.points, opts.replicates, opts.seed, opts.threads)
        fact = math.factorial(FAMILIES[FAMILY_THEOREM4].factorial_order(m))
        return ConstantResult(name, m, method, fact * q.estimate.real, fact * q.std_err, reference)
    raise DomainError(f"unknown method {method!r}")


def euler_gamma_via_integral(
    m: int, method: str = METHOD_REDUCED, opts: QmcOptions | None = None
) -> ConstantResult:
    """Euler's constant from the m-dimensional identity (z = 1)."""
    return _constant(NAME_EULER_GAMMA, EULER_GAMMA, 1.0, m, method, opts)


def ln4_over_pi_via_integral(
    m: int, method: str = METHOD_REDUCED, opts: QmcOptions | None = None
) -> ConstantResult:
    """ln(4/pi) from the m-dimensional identity (z = -1)."""
    return _constant(NAME_LN_4_OVER_PI, LN_4_OVER_PI, -1.0, m, method, opts)
