"""tanh-sinh quadrature and Lerch-kernel integral tests."""

import math

import numpy as np
import pytest

from lerchint import (
    EULER_GAMMA,
    ConvergenceError,
    DomainError,
    EvaluationError,
    KernelTerm,
    LerchArgs,
    ReducedIntegrand,
    gamma,
    lerch_kernel_integral,
    phi,
    reduced_eval,
    tanh_sinh,
)


class TestTanhSinh:
    def test_constant(self):
        r = tanh_sinh(lambda t: 1.0)
        assert abs(r.value - 1.0) <= 1e-14
        assert r.nodes >= 1

    def test_neg_log(self):
        r = tanh_sinh(lambda t: -math.log(t))
        assert abs(r.value - 1.0) <= 1e-12

    def test_inverse_sqrt_endpoint_singularity(self):
        r = tanh_sinh(lambda t: 0.5 / math.sqrt(t))
        assert abs(r.value - 1.0) <= 1e-10

    def test_log_singularity_both_ends(self):
        # int_0^1 ln(t) ln(1-t) dt = 2 - pi^2/6
        r = tanh_sinh(lambda t: math.log(t) * math.log1p(-t), tol=1e-13)
        assert abs(r.value - (2.0 - math.pi ** 2 / 6.0)) <= 1e-12

    def test_complex_integrand(self):
        r = tanh_sinh(lambda t: complex(t, t * t))
        assert abs(r.value - complex(0.5, 1.0 / 3.0)) <= 1e-12

    def test_nonfinite_raises(self):
        with pytest.raises(EvaluationError):
            tanh_sinh(lambda t: float("nan"))

    def test_level_cap_carries_partial_result(self):
        with pytest.raises(ConvergenceError) as err:
            tanh_sinh(lambda t: t ** (-0.9), tol=1e-15, max_level=3)
        partial = err.value.result
        assert partial is not None
        assert partial.nodes > 0

    def test_error_monotone_in_level_budget(self):
        errs = []
        for cap in (4, 6, 8, 10):
            try:
                r = tanh_sinh(lambda t: 1.0 / math.sqrt(t) / 2.0, tol=1e-15, max_level=cap)
            except ConvergenceError as exc:
                r = exc.result
            errs.append(r.abs_err)
        assert all(a >= b for a, b in zip(errs, errs[1:])), errs


class TestKernelTermValidation:
    def test_w_at_zero_rejected(self):
        with pytest.raises(DomainError):
            KernelTerm(1.0, 0.0, 1.0, 0.5)

    def test_z_one_needs_positive_p(self):
        # integrability at t = 1 belongs to the whole sum: the evaluator checks it
        with pytest.raises(DomainError):
            lerch_kernel_integral(1.0, 1.0, 0.0)
        KernelTerm(1.0, 1.0, 0.5, 1.0)  # fine

    def test_p_below_minus_one_rejected(self):
        with pytest.raises(DomainError):
            reduced_eval(ReducedIntegrand(terms=(KernelTerm(1.0, 1.0, -1.0, 0.5),)))

    def test_corner_sum_accepted_while_lone_kernel_diverges(self):
        # theorem4 at m = 2, u = 1, s = -1: two of the three kernels diverge at
        # t = 1 on their own, but the sum is Euler's constant's integrand
        corner = (KernelTerm(1.0, 1.0, 0.0, 1.0), KernelTerm(-1.0, 1.0, -1.0, 1.0),
                  KernelTerm(1.0, 2.0, -1.0, 1.0))
        r = reduced_eval(ReducedIntegrand(terms=corner), tol=1e-13)
        assert abs(r.value - EULER_GAMMA) <= 1e-13
        with pytest.raises(DomainError):
            reduced_eval(ReducedIntegrand(terms=corner[1:2]))

    def test_z_on_ray_rejected(self):
        with pytest.raises(DomainError):
            KernelTerm(1.0, 1.0, 1.0, 2.0)


class TestLerchKernelIntegral:
    def test_plain_interval(self):
        r = lerch_kernel_integral(0.0, 1.0, 0.0)
        assert abs(r.value - 1.0) <= 1e-13

    def test_t_times_neg_log(self):
        # int t (-ln t) dt = 1/4
        r = lerch_kernel_integral(0.0, 2.0, 1.0)
        assert abs(r.value - 0.25) <= 1e-13

    def test_geometric_half(self):
        r = lerch_kernel_integral(0.5, 1.0, 0.0)
        assert abs(r.value - 2.0 * math.log(2.0)) <= 1e-12

    def test_negative_p(self):
        # int (-ln t)^(-1/2) dt = sqrt(pi) (substitute t = e^-y)
        r = lerch_kernel_integral(0.0, 1.0, -0.5)
        assert abs(r.value - math.sqrt(math.pi)) <= 1e-11

    @pytest.mark.parametrize("z", [-1.0, -0.5, 0.5, 0.5j, 0.9])
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.5])
    def test_matches_gamma_phi(self, z, s):
        # the identity behind the 1-D representation, on a u subgrid
        for u in (0.7, 1.0, 2.3):
            k = lerch_kernel_integral(z, u, s, tol=1e-12)
            p = phi(LerchArgs(z, s + 1.0, u), tol=1e-13)
            assert p.method != "quadrature-fallback"
            rhs = gamma(s + 1.0) * p.value
            assert abs(k.value - rhs) <= 1e-8 * (1.0 + abs(rhs)), f"z={z}, s={s}, u={u}"

    def test_z_one_kernel(self):
        # int (-ln t)/(1-t) dt = pi^2/6
        r = lerch_kernel_integral(1.0, 1.0, 1.0)
        assert abs(r.value - math.pi ** 2 / 6.0) <= 1e-12


class TestReducedEval:
    def test_empty(self):
        r = reduced_eval(ReducedIntegrand(terms=()))
        assert r.value == 0j
        assert r.abs_err == 0.0

    def test_single_term(self):
        r = reduced_eval(ReducedIntegrand(terms=(KernelTerm(1.0, 1.0, 0.0, 0.0),)))
        assert abs(r.value - 1.0) <= 1e-13

    def test_two_terms_one_minus_t(self):
        terms = (KernelTerm(1.0, 1.0, 0.0, 0.0), KernelTerm(-1.0, 2.0, 0.0, 0.0))
        r = reduced_eval(ReducedIntegrand(terms=terms))
        assert abs(r.value - 0.5) <= 1e-13

    def test_linearity(self):
        a = (KernelTerm(0.7, 1.2, 0.5, 0.3), KernelTerm(-0.4, 2.0, 1.5, 0.3))
        b = (KernelTerm(1.1, 0.8, 0.0, 0.3),)
        ra = reduced_eval(ReducedIntegrand(terms=a))
        rb = reduced_eval(ReducedIntegrand(terms=b))
        rab = reduced_eval(ReducedIntegrand(terms=a + b))
        gap = abs(rab.value - (ra.value + rb.value))
        assert gap <= ra.abs_err + rb.abs_err + rab.abs_err + 1e-14

    def test_mixed_z_rejected(self):
        with pytest.raises(DomainError):
            ReducedIntegrand(
                terms=(KernelTerm(1.0, 1.0, 0.0, 0.1), KernelTerm(1.0, 1.0, 0.0, 0.2))
            )

    def test_error_propagation(self):
        terms = (KernelTerm(3.0, 1.0, 0.5, 0.5), KernelTerm(-2.0, 1.5, 0.5, 0.5))
        r = reduced_eval(ReducedIntegrand(terms=terms), tol=1e-10)
        direct = 3.0 * lerch_kernel_integral(0.5, 1.0, 0.5).value - 2.0 * lerch_kernel_integral(0.5, 1.5, 0.5).value
        assert abs(r.value - direct) <= 1e-10


def test_scalar_integrand_never_sees_endpoints():
    seen = []

    def probe(t):
        seen.append(t)
        return 1.0

    tanh_sinh(probe, tol=1e-13)
    arr = np.array(seen)
    assert np.all(arr > 0.0)
    assert np.all(arr < 1.0)


def test_two_argument_integrand_gets_exact_complement():
    # (1-t)^(-1/2)/2 integrates to 1; needs the complement to resolve t ~ 1
    r = tanh_sinh(lambda t, tc: 0.5 / math.sqrt(tc), tol=1e-12)
    assert abs(r.value - 1.0) <= 1e-10


def test_node_tables_consistent():
    from lerchint.quad1d import _level_nodes

    for level in range(6):
        nodes = _level_nodes(level)
        assert np.all(nodes.tc > 0.0)
        assert np.all(nodes.neg_log_t > 0.0)
        assert np.all(nodes.neg_log_tc > 0.0)
        # where the float abscissa did not collapse, t + tc reconstructs 1
        ok = nodes.t < 1.0
        assert np.allclose(nodes.t[ok] + nodes.tc[ok], 1.0, rtol=0, atol=1e-15)
