"""Euler-gamma and ln(4/pi) integral representations.

The embedded reference digits are re-derived here from independent
computations: the harmonic-minus-log limit with its asymptotic correction
for Euler's constant, plain logarithms for ln(4/pi), and nested adaptive
quadrature of the 2-D integrals as the oracle for the reduced kernels.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from lerchint import (
    DomainError,
    EULER_GAMMA,
    LN_4_OVER_PI,
    IntegrandSpec,
    QmcOptions,
    euler_gamma_via_integral,
    ln4_over_pi_via_integral,
    reduce,
    reduced_eval,
)
from lerchint.constants import theorem4_corner_integrand

QMC_SEED = 17  # fixed verification seed; the gamma integrand's corner spike
# makes the 8-replicate t-statistic heavy-tailed, so the harness pins a seed


def euler_gamma_from_limit(n: int = 500) -> float:
    """H_n - ln n with the standard asymptotic correction, error ~ n^-6."""
    h = math.fsum(1.0 / k for k in range(1, n + 1))
    return h - math.log(n) - 1.0 / (2.0 * n) + 1.0 / (12.0 * n ** 2) - 1.0 / (120.0 * n ** 4)


def test_reference_constants_rederived():
    assert abs(euler_gamma_from_limit() - EULER_GAMMA) <= 1e-13
    assert abs(math.log(4.0) - math.log(math.pi) - LN_4_OVER_PI) <= 1e-15


class TestReducedPath:
    def test_euler_gamma(self):
        r = euler_gamma_via_integral(2)
        assert abs(r.value - EULER_GAMMA) <= 1e-8
        assert abs(r.value - euler_gamma_from_limit()) <= 1e-8

    def test_ln4_over_pi(self):
        r = ln4_over_pi_via_integral(2)
        assert abs(r.value - LN_4_OVER_PI) <= 1e-8

    def test_m_independence_bit_identical(self):
        vals_g = [euler_gamma_via_integral(m).value for m in (2, 3, 4, 5)]
        assert len(set(vals_g)) == 1
        vals_l = [ln4_over_pi_via_integral(m).value for m in (2, 3, 4, 5)]
        assert len(set(vals_l)) == 1

    def test_kernels_against_2d_brute_quadrature(self):
        # nested adaptive quadrature of the 2-D integrals, independent of
        # the tanh-sinh path used by the reduced evaluation
        def inner(x, sign):
            return quad(
                lambda y: (1.0 - x) / ((1.0 - sign * x * y) * (-math.log(x * y))),
                0.0,
                1.0,
                epsabs=1e-12,
                epsrel=1e-12,
                limit=300,
            )[0]

        brute_g = quad(lambda x: inner(x, 1.0), 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=300)[0]
        brute_l = quad(lambda x: inner(x, -1.0), 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=300)[0]
        assert abs(euler_gamma_via_integral(2).value - brute_g) <= 1e-9
        assert abs(ln4_over_pi_via_integral(2).value - brute_l) <= 1e-9


class TestQmcPath:
    @pytest.mark.parametrize("m", [2, 3])
    def test_euler_gamma_within_three_sigma(self, m):
        r = euler_gamma_via_integral(
            m, method="qmc", opts=QmcOptions(points=2 ** 16, replicates=8, seed=QMC_SEED)
        )
        assert abs(r.value - r.reference) <= 3.0 * r.error

    @pytest.mark.parametrize("m", [2, 3])
    def test_ln4_over_pi_within_three_sigma(self, m):
        r = ln4_over_pi_via_integral(
            m, method="qmc", opts=QmcOptions(points=2 ** 16, replicates=8, seed=QMC_SEED)
        )
        assert abs(r.value - r.reference) <= 3.0 * r.error


class TestKernelSeriesGuard:
    def test_series_branch_continuous_with_direct_formula(self):
        # just above the cut, the Taylor series in L = -ln t of a cancelling
        # kernel sum agrees with its direct sum sum_i c_i e^(-d_i L) L^k_i
        from lerchint.quad1d import _NEAR_CUT, _taylor

        corner = [(1.0, 0.0, 1), (-1.0, 0.0, 0), (1.0, 1.0, 0)]  # L - 1 + t, the constants
        pair = [(0.8, 0.0, 0), (-0.8, 1.3 + 0.4j, 0)]  # an f-kernel sum
        for parts, lead in ((corner, 2), (pair, 1)):
            j, coeffs = _taylor(parts, _NEAR_CUT)
            assert j == lead
            for ell in (1.001 * _NEAR_CUT, 1.1 * _NEAR_CUT):
                series = ell ** j * sum(a * ell ** n for n, a in enumerate(coeffs))
                direct = sum(c * np.exp(-d * ell) * ell ** k for c, d, k in parts)
                assert abs(series - direct) <= 1e-14 * abs(direct), f"parts={parts}, L={ell}"

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_constants_equal_corner_reduction(self, m):
        # the reduced method is the theorem4 reduction at u = 1, s = 1 - m
        for z, fn in ((1.0, euler_gamma_via_integral), (-1.0, ln4_over_pi_via_integral)):
            spec = IntegrandSpec(m, "theorem4-kernel", (1.0,), z, 1 - m)
            ref = math.factorial(m - 2) * reduced_eval(reduce(spec), 1e-13).value
            assert abs(fn(m).value - ref) <= 1e-14, f"z={z}"


class TestCornerGuard:
    def test_near_corner_evaluation_finite_and_matches_limit(self):
        m = 3
        f = theorem4_corner_integrand(m, 1.0)
        a = (1.0 - 1e-13) ** (1.0 / m)
        pt = np.full(m, a)
        val = float(f(pt))
        assert math.isfinite(val)
        # analytic limit: replace each 1-P by -ln P
        t = -math.log(a)
        num = (m - 1) * t + (m - 2) * t  # -ln of the partial products
        expected = num / ((m * t) ** m)
        assert val == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("z", [1.0, -1.0])
    def test_exact_ratio_far_from_corner(self, z, m):
        f = theorem4_corner_integrand(m, z)
        x = [0.3, 0.8, 0.6, 0.9][:m]
        partials = np.cumprod(x)
        expected = (m - 1 - partials[:-1].sum()) / (
            (1.0 - z * partials[-1]) * (-math.log(partials[-1])) ** (m - 1)
        )
        val = f(np.array(x))
        assert val.dtype == np.float64
        assert float(val) == pytest.approx(expected, rel=1e-12)


class TestDomain:
    def test_m_bounds(self):
        with pytest.raises(DomainError):
            euler_gamma_via_integral(1)
        with pytest.raises(DomainError):
            euler_gamma_via_integral(7)
        with pytest.raises(DomainError):
            ln4_over_pi_via_integral(1)

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            euler_gamma_via_integral(3, method="magic")

    def test_result_fields(self):
        r = euler_gamma_via_integral(4)
        assert r.name == "euler-gamma"
        assert r.m == 4
        assert r.method == "reduced"
        assert r.error >= 0.0
        doc = r.to_json_dict()
        assert doc["reference"] == EULER_GAMMA
