"""Cross-validation against mpmath, an unrelated arbitrary-precision library.

These tests compare every evaluation path (series, Euler-Maclaurin,
alternating acceleration, kernel quadrature, closed-form right-hand sides)
against mpmath computed at 30 significant digits.  They are the strongest
independence check in the suite: none of the production code shares an
algorithm with mpmath's Lerch evaluator, which integrates a Hankel-type
contour representation.
"""

import cmath
import math

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from lerchint import (
    ConvergenceError,
    IntegrandSpec,
    LerchArgs,
    alt_lerch,
    gamma,
    hurwitz_zeta,
    lerch_kernel_integral,
    phi,
    rhs_theorem3_pair,
    rhs_theorem3_symmetric,
    rhs_theorem4,
    rhs_theorem5,
    verify,
)


def mp_lerch(z: complex, s: complex, u: complex) -> complex:
    with mpmath.workdps(30):
        return complex(mpmath.lerchphi(mpmath.mpmathify(z), mpmath.mpmathify(s), mpmath.mpmathify(u)))


PHI_GRID = [
    (0.5, 1.0, 1.0),
    (0.5, 2.5, 0.7),
    (-0.7, 0.5, 2.2),
    (0.9, 1.5, 1.3),
    (0.5 + 0.5j, 2.0, 1.0),
    (0.3 - 0.4j, 1.0 + 1.0j, 0.8 + 0.2j),
    (1.0, 2.0, 1.0),
    (1.0, 3.5, 0.6),
    (1.0, 2.5 + 1.0j, 1.7),
    (-1.0, 1.0, 1.0),
    (-1.0, 0.5, 0.7),
    (-1.0, 2.0 + 0.5j, 1.2),
]


@pytest.mark.parametrize("z,s,u", PHI_GRID)
def test_phi_matches_mpmath(z, s, u):
    ours = phi(LerchArgs(z, s, u), tol=1e-12)
    ref = mp_lerch(z, s, u)
    assert abs(ours.value - ref) <= 1e-10 * (1.0 + abs(ref)), f"method={ours.method}"
    assert abs(ours.value - ref) <= 4.0 * ours.abs_err + 1e-13  # error honesty


def test_phi_near_circle_modulus_below_one():
    # |exp(0.36i)| rounds below 1.0: the tail bound must still take the
    # unit-circle branch phi dispatches on, not divide by 1 - |z| ~ 1e-16
    z, s, u = cmath.exp(0.36j), 3.0, 0.7
    assert abs(z) < 1.0
    ours = phi(LerchArgs(z, s, u), tol=1e-10)
    assert abs(ours.value - mp_lerch(z, s, u)) <= ours.abs_err


BAND_AND_CIRCLE = [
    # 0.9 < |z| < 1
    (0.95, 2.0, 0.7, 1e-12),
    (0.93j, 1.5 + 0.5j, 1.3, 1e-12),
    (0.99 * cmath.exp(2.5j), 0.5, 0.4, 1e-11),
    (-0.97 + 0.1j, 3.0, 2.0 - 0.3j, 1e-13),
    (0.999 * cmath.exp(1j), 2.2, 1.1, 1e-10),
    (0.9 + 0.3j, 1j, 1.0, 1e-10),
    # |z| rounds to 1.0
    (cmath.exp(0.3j), 3.0, 0.7, 1e-10),
    (cmath.exp(2.0j), 3.5 + 0.5j, 1.2, 1e-9),
    (cmath.exp(-1.3j), 4.0, 0.4, 1e-12),
    (cmath.exp(2.9j), 3.5 - 1j, 0.8 + 0.2j, 1e-11),
    (1j, 4.0, 1.0, 1e-11),
    # |z| rounds just below 1.0
    (cmath.exp(0.36j), 3.5, 1.0, 1e-10),
    (cmath.exp(-0.36j), 4.0 + 0.5j, 0.6, 1e-11),
]


@pytest.mark.parametrize("z,s,u,tol", BAND_AND_CIRCLE)
def test_band_and_circle_error_is_honest_against_mpmath(z, s, u, tol):
    ours = phi(LerchArgs(z, s, u), tol=tol)
    assert ours.abs_err <= tol
    assert abs(ours.value - mp_lerch(z, s, u)) <= ours.abs_err


def test_hurwitz_matches_mpmath():
    for s, u in [(2.0, 1.0), (3.7, 0.3), (1.2, 2.5), (2.0 + 2.0j, 1.0 - 0.4j)]:
        ours = hurwitz_zeta(s, u, tol=1e-13)
        with mpmath.workdps(30):
            ref = complex(mpmath.zeta(mpmath.mpmathify(s), mpmath.mpmathify(u)))
        assert abs(ours.value - ref) <= 1e-11 * (1.0 + abs(ref)), f"s={s}, u={u}"


def _near_one_cases() -> list:
    """s just above 1 (real, then complex with complex u), tol 1e-13."""
    rng = np.random.default_rng(41)
    cases = [(sr, u) for sr in (1.005, 1.01, 1.02, 1.05) for u in (0.3, 1.0, 2.5)]
    for _ in range(8):
        s = complex(1.0 + 10.0 ** rng.uniform(-3.0, -1.3), rng.uniform(-2.0, 2.0))
        cases.append((s, complex(rng.uniform(0.3, 2.5), rng.uniform(-1.0, 1.0))))
    return cases


@pytest.mark.parametrize("s,u", _near_one_cases())
def test_hurwitz_near_one_is_honest_against_mpmath(s, u):
    try:
        ours = hurwitz_zeta(s, u, tol=1e-13)
    except ConvergenceError as exc:
        # only where the tail's rounding floor is out of reach, and it says so
        assert complex(s).real < 1.01 and "attainable tolerance is at least" in str(exc)
        return
    with mpmath.workdps(30):
        ref = complex(mpmath.zeta(mpmath.mpmathify(s), mpmath.mpmathify(u)))
    assert ours.abs_err <= 1e-13
    assert abs(ours.value - ref) <= ours.abs_err


def test_alt_lerch_matches_mpmath():
    for s, u in [(0.3, 1.0), (1.0, 0.1), (4.0, 3.0), (1.5 + 3.0j, 0.9)]:
        ours = alt_lerch(s, u, tol=1e-13)
        ref = mp_lerch(-1.0, s, u)
        assert abs(ours.value - ref) <= 1e-11 * (1.0 + abs(ref)), f"s={s}, u={u}"


def test_gamma_matches_mpmath():
    for x in [0.1, 3.7, 25.0, -2.5, 1.0 + 7.0j, -4.3 - 2.1j]:
        with mpmath.workdps(30):
            ref = complex(mpmath.gamma(mpmath.mpmathify(x)))
        assert abs(gamma(x) - ref) <= 5e-13 * abs(ref), f"x={x}"


def test_kernel_integral_matches_mpmath_quadrature():
    for z, w, p in [(0.5, 1.0, 0.0), (-1.0, 0.7, 1.5), (1.0, 1.3, 0.4), (0.5j, 2.0, -0.5)]:
        ours = lerch_kernel_integral(z, w, p, tol=1e-12)
        with mpmath.workdps(30):
            ref = complex(
                mpmath.quad(
                    lambda t: t ** (w - 1) * (-mpmath.log(t)) ** p / (1 - z * t),
                    [0, 1],
                )
            )
        assert abs(ours.value - ref) <= 1e-10 * (1.0 + abs(ref)), f"z={z}, w={w}, p={p}"


def test_kernel_integral_extreme_exponents():
    # strongly singular at either endpoint; mpmath.quad itself struggles
    # here, so the reference goes through gamma(p+1) * Phi(z, p+1, w)
    for z, w, p in [(0.5, 0.1, 2.0), (-1.0, 0.07, -0.9), (1.0, 1.0, 0.05), (0.9, 0.2, -0.8)]:
        ours = lerch_kernel_integral(z, w, p, tol=1e-11)
        with mpmath.workdps(40):
            ref = complex(mpmath.gamma(p + 1) * mpmath.lerchphi(z, p + 1, w))
        assert abs(ours.value - ref) <= 1e-10 * (1.0 + abs(ref)), f"z={z}, w={w}, p={p}"


def test_closed_forms_match_mpmath_assembly():
    z, s, u, v = 0.5, 1.0, 2.2, 1.1
    with mpmath.workdps(30):
        pair = complex(
            mpmath.gamma(s + 2)
            * (mpmath.lerchphi(z, s + 2, v) - mpmath.lerchphi(z, s + 2, u))
            / (u - v)
        )
        sym = complex(mpmath.gamma(s + 3) / 2 * mpmath.lerchphi(z, s + 3, u))
        th4 = complex(
            mpmath.gamma(s + 3)
            * (
                mpmath.lerchphi(z, s + 3, u)
                + ((1 - z) * mpmath.lerchphi(z, s + 2, u) - mpmath.mpf(u) ** (-(s + 2)))
                / (z * (s + 2))
            )
        )
        t5 = complex(
            mpmath.gamma(s + 1)
            * (
                mpmath.lerchphi(z, s + 1, 1.0) / ((2.0 - 1.0) * (3.0 - 1.0))
                + mpmath.lerchphi(z, s + 1, 2.0) / ((1.0 - 2.0) * (3.0 - 2.0))
                + mpmath.lerchphi(z, s + 1, 3.0) / ((1.0 - 3.0) * (2.0 - 3.0))
            )
        )
    assert abs(rhs_theorem3_pair(3, z, s, u, v) - pair) <= 1e-10 * abs(pair)
    assert abs(rhs_theorem3_symmetric(3, z, s, u) - sym) <= 1e-10 * abs(sym)
    assert abs(rhs_theorem4(3, z, s, u) - th4) <= 1e-10 * abs(th4)
    assert abs(rhs_theorem5((1.0, 2.0, 3.0), z, s) - t5) <= 1e-10 * abs(t5)


@pytest.mark.parametrize("s", [-1.99, -1.5, -1.0])
def test_theorem4_at_z_one_matches_mpmath(s):
    # Re(s+m-1) <= 1: the (1-z) Phi(z, s+m-1, u) term is zero and must not be evaluated
    m, u = 3, 1.3
    with mpmath.workdps(30):
        sm = mpmath.mpf(s) + m
        ref = complex(mpmath.gamma(sm) * (mpmath.zeta(sm, u) - mpmath.mpf(u) ** (1 - sm) / (sm - 1)))
    rep = verify(IntegrandSpec(m, "theorem4-kernel", (u,), 1.0, s))
    assert rep.pass_ and rep.error is None
    assert abs(rep.rhs - ref) <= 1e-13 * abs(ref)
    assert abs(rep.lhs_reduced.value - ref) <= 1e-8 * abs(ref)


@pytest.mark.parametrize("m,sigma,u", [(2, 1.045, 2.5), (3, 1.04, 1.3)])
def test_symmetric_at_z_one_just_above_the_hurwitz_edge(m, sigma, u):
    # Phi(1, s+m, u) = zeta(s+m, u) with s+m in (1.01, 1.05), just above the pole at 1
    with mpmath.workdps(30):
        ref = complex(mpmath.gamma(sigma) / mpmath.factorial(m - 1) * mpmath.zeta(sigma, u))
    rep = verify(IntegrandSpec(m, "symmetric", (u,), 1.0, sigma - m))
    assert rep.pass_
    assert abs(rep.rhs - ref) <= 1e-13 * abs(ref)
