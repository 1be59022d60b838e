"""Gamma, Hurwitz-zeta and alternating-Lerch tests.

Reference values are produced in-test by brute-force partial sums with
analytic tail bounds (or independent scipy/math routines), never by the
code paths under test.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from lerchint import (
    ConvergenceError,
    DomainError,
    PoleError,
    alt_lerch,
    gamma,
    hurwitz_zeta,
)
from lerchint.special import _B2K_OVER_FACT, _BERNOULLI_2K

SQRT_PI = 1.7724538509055160273


def zeta_brute(s: float, u: float = 1.0, n: int = 50_000) -> tuple[float, float]:
    """Partial sum plus integral-bracket tail; returns (value, error bound)."""
    partial = math.fsum((u + k) ** (-s) for k in range(n))
    hi = (u + n - 1) ** (1.0 - s) / (s - 1.0)  # integral from n-1
    lo = (u + n) ** (1.0 - s) / (s - 1.0)      # integral from n
    return partial + 0.5 * (hi + lo), 0.5 * (hi - lo)


def eta_brute(s: float, u: float = 1.0, n: int = 200_000) -> tuple[float, float]:
    """Alternating partial sums averaged; error below half the last gap."""
    s_n = math.fsum((-1.0) ** k * (u + k) ** (-s) for k in range(n))
    a_n = (u + n) ** (-s)
    a_n1 = (u + n + 1) ** (-s)
    return s_n + 0.5 * (-1.0) ** n * a_n, 0.5 * (a_n - a_n1) + 1e-15


class TestGamma:
    def test_integers(self):
        assert abs(gamma(1) - 1.0) <= 1e-13
        assert abs(gamma(5) - 24.0) <= 24.0 * 1e-13

    def test_half(self):
        assert abs(gamma(0.5) - SQRT_PI) <= SQRT_PI * 1e-13

    def test_real_axis_against_math_gamma(self):
        for x in np.linspace(0.1, 50.0, 173):
            expected = math.gamma(x)
            got = gamma(x)
            assert abs(got - expected) <= 1e-13 * abs(expected), f"x={x}"
            assert got.imag == 0.0 or abs(got.imag) <= 1e-13 * abs(expected)

    def test_complex_against_scipy(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            x = complex(rng.uniform(-8, 12), rng.uniform(-8, 8))
            if abs(x - round(x.real)) < 1e-3 and round(x.real) <= 0:
                continue
            expected = scipy.special.gamma(x)
            got = gamma(x)
            assert abs(got - expected) <= 5e-13 * abs(expected), f"x={x}"

    def test_functional_equation(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = complex(rng.uniform(0.5, 20.0), rng.uniform(-5.0, 5.0))
            lhs = gamma(x + 1)
            rhs = x * gamma(x)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs), f"x={x}"

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0, -3.0 + 1e-13j, -2.0 + 5e-13])
    def test_poles(self, x):
        with pytest.raises(PoleError):
            gamma(x)

    # one library error for a non-finite part, whichever part it is
    @pytest.mark.parametrize("x", [
        math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(1.0, math.inf),
        complex(math.nan, 0.0), complex(-math.inf, 1.0),
    ])
    def test_non_finite_argument_is_a_domain_error(self, x):
        with pytest.raises(DomainError, match="finite argument"):
            gamma(x)


class TestHurwitzZeta:
    def test_basel(self):
        ref = math.pi ** 2 / 6.0
        brute, bound = zeta_brute(2.0)
        assert abs(brute - ref) <= bound + 1e-13
        r = hurwitz_zeta(2.0, 1.0, tol=1e-12)
        assert abs(r.value - ref) <= 1e-12
        assert r.method == "euler-maclaurin"
        assert r.work >= 1

    def test_shifted_basel(self):
        # forced by the shift recurrence at u=1: zeta(2,2) = zeta(2,1) - 1
        r = hurwitz_zeta(2.0, 2.0, tol=1e-12)
        assert abs(r.value - (math.pi ** 2 / 6.0 - 1.0)) <= 1e-12

    def test_apery(self):
        brute, bound = zeta_brute(3.0)
        assert bound < 1e-12
        r = hurwitz_zeta(3.0, 1.0, tol=1e-12)
        assert abs(r.value - brute) <= 1e-12 + bound

    def test_error_honesty(self):
        for s, u in [(2.0, 1.0), (3.0, 1.0), (2.5, 0.7), (4.0, 2.3)]:
            brute, bound = zeta_brute(s, u)
            r = hurwitz_zeta(s, u, tol=1e-12)
            assert abs(r.value - brute) <= 2.0 * r.abs_err + bound, f"s={s}, u={u}"

    def test_shift_recurrence(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            s = complex(rng.uniform(1.5, 4.0), rng.uniform(-2.0, 2.0))
            u = complex(rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0))
            a = hurwitz_zeta(s, u + 1.0)
            b = hurwitz_zeta(s, u)
            residual = abs(a.value - (b.value - u ** (-s)))
            assert residual <= 4.0 * (a.abs_err + b.abs_err) + 1e-14, f"s={s}, u={u}"

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(1.0, 1.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(0.5, 1.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, -1.0)

    def test_unreachable_tolerance_raises(self):
        # below the rounding floor 4*eps*(sum|terms| + the least tail up to the cap)
        with pytest.raises(ConvergenceError, match="attainable tolerance is at least 2.69e-15"):
            hurwitz_zeta(1.2, 1.0, tol=1e-17)

    @pytest.mark.parametrize("s,tol,floor", [(1.0001, 1e-12, 8.87e-12), (1.001, 1e-13, 8.79e-13)])
    def test_near_one_fails_fast_on_the_tail_floor(self, s, tol, floor):
        # the Euler-Maclaurin tail ~ N^(1-s)/(s-1) keeps 4*eps*|tail| above tol at
        # every N up to the 2^20 cap, so the first partial sum already decides
        with pytest.raises(ConvergenceError, match=f"after 16 terms .* at least {floor:.3g}$"):
            hurwitz_zeta(s, 1.0, tol=tol)
        r = hurwitz_zeta(s, 1.0, tol=2.0 * floor)
        assert r.abs_err <= 2.0 * floor
        assert r.work <= 21

    def test_reported_error_meets_requested_tolerance(self):
        for tol in (1e-6, 1e-10, 1e-13):
            r = hurwitz_zeta(2.0, 1.0, tol=tol)
            assert r.abs_err <= tol


class TestAltLerch:
    def test_ln2(self):
        brute, bound = eta_brute(1.0)
        assert abs(brute - math.log(2.0)) <= bound
        r = alt_lerch(1.0, 1.0, tol=1e-12)
        assert abs(r.value - math.log(2.0)) <= 1e-12
        assert r.method == "alternating-accel"

    def test_half_u_gives_pi_over_2(self):
        brute, bound = eta_brute(1.0, u=0.5)
        ref = math.pi / 2.0
        assert abs(brute - ref) <= bound
        r = alt_lerch(1.0, 0.5, tol=1e-12)
        assert abs(r.value - ref) <= 1e-12

    def test_eta2(self):
        brute, bound = eta_brute(2.0)
        ref = math.pi ** 2 / 12.0
        assert abs(brute - ref) <= bound
        r = alt_lerch(2.0, 1.0, tol=1e-12)
        assert abs(r.value - ref) <= 1e-12

    def test_error_honesty(self):
        for s, u in [(1.0, 1.0), (2.0, 1.0), (1.5, 0.7), (2.5, 2.3)]:
            brute, bound = eta_brute(s, u)
            r = alt_lerch(s, u, tol=1e-13)
            assert abs(r.value - brute) <= 2.0 * r.abs_err + bound, f"s={s}, u={u}"

    def test_shift_recurrence_at_minus_one(self):
        # Phi(-1,s,u+1) = -(Phi(-1,s,u) - u^(-s))
        rng = np.random.default_rng(13)
        for _ in range(25):
            s = complex(rng.uniform(0.5, 3.0), rng.uniform(-2.0, 2.0))
            u = complex(rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0))
            a = alt_lerch(s, u + 1.0)
            b = alt_lerch(s, u)
            residual = abs(a.value + (b.value - u ** (-s)))
            assert residual <= 4.0 * (a.abs_err + b.abs_err) + 1e-13, f"s={s}, u={u}"

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            alt_lerch(0.0, 1.0)
        with pytest.raises(DomainError):
            alt_lerch(-1.0, 1.0)
        with pytest.raises(DomainError):
            alt_lerch(1.0, 0.0)

    def test_work_counted(self):
        r = alt_lerch(1.0, 1.0)
        assert r.work >= 16


def test_convergence_error_is_raised_when_budget_tiny(monkeypatch):
    import lerchint.special as sp

    monkeypatch.setattr(sp, "_MAX_CVZ_N", 4)
    with pytest.raises(ConvergenceError):
        alt_lerch(1.0, 1.0, tol=1e-14)


def test_alternating_fails_fast_below_its_rounding_allowance(monkeypatch):
    # every abs_err is at least 8 eps |u^(-s)| = 2.71e-11 here, so no tableau
    # could meet tol; this used to build 8 of them (n = 25 to 200) first
    import lerchint.special as sp

    tableaux = []
    cvz_sum = sp._cvz_sum
    monkeypatch.setattr(sp, "_cvz_sum", lambda *a: tableaux.append(a) or cvz_sum(*a))
    with pytest.raises(ConvergenceError, match="attainable tolerance is at least 2.71e-11$"):
        alt_lerch(8.0, 0.3, 1e-13)
    assert len(tableaux) == 0
    r = alt_lerch(8.0, 0.3, 3e-11)
    assert r.abs_err <= 3e-11 and len(tableaux) > 0


@pytest.mark.parametrize("func", [hurwitz_zeta, alt_lerch])
@pytest.mark.parametrize(
    "s,u", [(2.0, math.nan), (2.0, complex(1.0, math.inf)), (math.inf, 1.0), (complex(2.0, math.nan), 1.0)]
)
def test_non_finite_arguments_raise_domain_error_at_entry(func, s, u):
    # unchecked, these summed 2^20 terms before a ConvergenceError, raised a
    # bare OverflowError or blamed an overflowing leading term
    with pytest.raises(DomainError, match="need finite z, s and u"):
        func(s, u, 1e-12)


def test_bernoulli_table_matches_exact_rationals():
    # B_n from sum_{j<=n} C(n+1, j) B_j = 0 with B_0 = 1, in exact arithmetic
    b = [Fraction(1)]
    for n in range(1, 2 * len(_BERNOULLI_2K) + 1):
        b.append(-sum(math.comb(n + 1, j) * b[j] for j in range(n)) / (n + 1))
    for k, (num, den) in enumerate(_BERNOULLI_2K, start=1):
        assert Fraction(num, den) == b[2 * k]
        assert _B2K_OVER_FACT[k - 1] == float(b[2 * k] / math.factorial(2 * k))
