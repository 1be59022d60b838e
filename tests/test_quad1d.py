"""tanh-sinh quadrature of kernel sums and Lerch-kernel integral tests."""

import itertools
import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from oracles import _taylor_per_part, reduced_eval_per_level

from lerchint import (
    EULER_GAMMA,
    FAMILIES,
    ConvergenceError,
    DegeneracyError,
    DomainError,
    EvaluationError,
    IntegrandSpec,
    KernelTerm,
    LerchArgs,
    ReducedIntegrand,
    gamma,
    lerch_kernel_integral,
    phi,
    reduce,
    reduced_eval,
    verify,
)
from lerchint.quad1d import _LEVEL_BLOCKS, _NEAR_CUT, _node_block, _taylor


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

    def test_neg_log(self):
        # int -ln t dt = 1
        r = lerch_kernel_integral(0.0, 1.0, 1.0)
        assert abs(r.value - 1.0) <= 1e-12

    def test_t_times_neg_log(self):
        # int t (-ln t) dt = 1/4
        r = lerch_kernel_integral(0.0, 2.0, 1.0)
        assert abs(r.value - 0.25) <= 1e-13

    def test_geometric_half(self):
        r = lerch_kernel_integral(0.5, 1.0, 0.0)
        assert abs(r.value - 2.0 * math.log(2.0)) <= 1e-12

    def test_inverse_sqrt_endpoint_singularity(self):
        # int t^(-1/2) dt = 2
        r = lerch_kernel_integral(0.0, 0.5, 0.0)
        assert abs(r.value - 2.0) <= 1e-10

    def test_singularities_at_both_ends(self):
        # t^(-1/2) (-ln t)^(-1/2) blows up at 0 and like (1-t)^(-1/2) at 1;
        # its integral is gamma(1/2) * (1/2)^(-1/2) = sqrt(2 pi)
        r = lerch_kernel_integral(0.0, 0.5, -0.5)
        assert abs(r.value - math.sqrt(2.0 * math.pi)) <= 1e-12

    def test_complex_exponent(self):
        # int (-ln t)^i dt = gamma(1 + i)
        r = lerch_kernel_integral(0.0, 1.0, 1j)
        assert abs(r.value - gamma(1.0 + 1j)) <= 1e-12

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

    def test_nonfinite_node_values_raise(self):
        # every field is finite, but a level's weighted sum overflows
        with np.errstate(over="ignore"), pytest.raises(EvaluationError):
            reduced_eval((KernelTerm(1e308, 1.0, 0.0, 0.5),))

    def test_complex_coefficient_and_w(self):
        # (1 + 2i) int t^i dt = (1 + 2i) / (1 + i)
        r = reduced_eval((KernelTerm(1.0 + 2.0j, 1.0 + 1.0j, 0.0, 0.0),))
        assert abs(r.value - (1.0 + 2.0j) / (1.0 + 1.0j)) <= 1e-13

    def test_level_cap_carries_partial_result(self):
        # (-ln t)^0.03 / (1 - t) decays too slowly at t = 1 to meet 1e-11
        with pytest.raises(ConvergenceError) as err:
            reduced_eval((KernelTerm(1.0, 1.0, 0.03, 1.0),), 1e-11)
        partial = err.value.result
        assert partial is not None
        # every level's nodes, up to the cap, were used
        assert partial.nodes == sum(len(_node_block(levels).t) for levels in _LEVEL_BLOCKS)
        # the last difference of levels 11 and 12, not the zero of a level with itself
        assert partial.abs_err > 0.0
        assert f"diff={partial.abs_err:.3e} " in str(err.value)

    def test_error_falls_as_tol_tightens(self):
        term = (KernelTerm(1.0, 1.0, 0.5, 0.9),)
        exact = gamma(1.5) * phi(LerchArgs(0.9, 1.5, 1.0), tol=1e-14).value
        nodes = []
        for tol in (1e-4, 1e-7, 1e-10, 1e-13):
            r = reduced_eval(term, tol)
            assert r.abs_err <= tol
            assert abs(r.value - exact) <= max(tol, 1e-13)
            nodes.append(r.nodes)
        assert nodes == sorted(nodes) and nodes[0] < nodes[-1], nodes

    def test_error_propagation(self):
        terms = (KernelTerm(3.0, 1.0, 0.5, 0.5), KernelTerm(-2.0, 1.5, 0.5, 0.5))
        r = reduced_eval(ReducedIntegrand(terms=terms), tol=1e-10)
        direct = 3.0 * lerch_kernel_integral(0.5, 1.0, 0.5).value - 2.0 * lerch_kernel_integral(0.5, 1.5, 0.5).value
        assert abs(r.value - direct) <= 1e-10


def test_node_tables_consistent():
    for level in range(6):
        nodes = _node_block(range(level, level + 1))
        assert np.all(nodes.tc > 0.0)
        assert np.all(nodes.neg_log_t > 0.0)
        assert np.all(nodes.neg_log_tc > 0.0)
        # where the float abscissa did not collapse, t + tc reconstructs 1
        ok = nodes.t < 1.0
        assert np.allclose(nodes.t[ok] + nodes.tc[ok], 1.0, rtol=0, atol=1e-15)


def test_kernels_never_see_the_endpoints():
    # every node reduced_eval walks is strictly inside (0,1) in both of its
    # distances to the endpoints, and carries finite logs of both
    for levels in _LEVEL_BLOCKS:
        nodes = _node_block(levels)
        assert np.all(nodes.t > 0.0)
        assert np.all(nodes.tc > 0.0)
        for col in (nodes.neg_log_t, nodes.neg_log_tc, nodes.log_weight):
            assert np.all(np.isfinite(col))
        assert np.all(nodes.neg_log_t > 0.0)
        assert np.all(nodes.neg_log_tc > 0.0)


def test_verify_level_cap_reports_the_last_difference():
    # z = 1 with a kernel exponent s + m - 1 = 0.03 never converges to the
    # reduced path's tolerance; the error names the difference it stopped at
    with pytest.raises(ConvergenceError) as err:
        verify(IntegrandSpec(2, "symmetric", (1.3,), 1.0, -0.97))
    partial = err.value.result
    assert partial.abs_err > 0.0
    assert f"diff={partial.abs_err:.3e} " in str(err.value)


def _outcome(evaluate, reduced, tol) -> str:
    try:
        return repr(evaluate(reduced, tol))
    except (ConvergenceError, DomainError, EvaluationError) as exc:
        return f"{type(exc).__name__}: {exc}; {getattr(exc, 'result', None)!r}"


def _stop_level(result) -> int:
    ends = list(itertools.accumulate(len(_node_block(range(level, level + 1)).t) for level in range(13)))
    return ends.index(result.nodes)


def _sweep_specs(seed: int, draws: int):
    """Seeded specs of the four families, m = 2-6, z in the disk, at +-1, at 0.5i and at 0."""
    rng = random.Random(seed)
    for family, m, _ in itertools.product(FAMILIES, range(2, 7), range(draws)):
        disk = complex(*(rng.uniform(-0.6, 0.6) for _ in range(2)))
        for z in (disk, 1.0, -1.0, 0.5j, 0.0):
            count = {"distinct-exponents": m, "f-kernel": 2}.get(family, 1)
            exponents = tuple(rng.uniform(0.4, 3.0) for _ in range(count))
            s = rng.uniform(-0.5, 2.0) if z == 1.0 else rng.uniform(-0.9, 2.0)
            try:
                yield reduce(IntegrandSpec(m, family, exponents, z, s))
            except (DomainError, DegeneracyError):
                continue


def test_cold_cache_serial_and_threaded_runs_match_warm():
    # the node cache has no lock: blocks built twice at once are equal, so no
    # result, nodes included, may depend on what the process has cached
    reductions = [*_sweep_specs(3, draws=1), reduce(IntegrandSpec(2, "symmetric", (1.3,), 1.0, -0.97))]

    def run_all(barrier=None):
        if barrier is not None:
            barrier.wait(timeout=60)
        return [_outcome(reduced_eval, reduced, 1e-12) for reduced in reductions]

    run_all()
    warm = run_all()
    assert any("ConvergenceError" in outcome for outcome in warm)  # every level block is used
    _node_block.cache_clear()
    assert run_all() == warm
    _node_block.cache_clear()
    barrier = threading.Barrier(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch inside a block's build
    try:
        with ThreadPoolExecutor(4) as pool:
            assert list(pool.map(run_all, [barrier] * 4, timeout=120)) == [warm] * 4
    finally:
        sys.setswitchinterval(interval)


class TestBatchedLevelsMatchPerLevel:
    """reduced_eval gives the per-level oracle's value, abs_err and nodes bit for bit."""

    def test_family_sweep(self):
        # a one-ulp change in one level's series products shows in about 3% of
        # these sums, so the sweep takes a few hundred of them
        seen = 0
        for reduced in _sweep_specs(7, draws=4):
            for tol in (1e-8, 1e-12):
                want = _outcome(reduced_eval_per_level, reduced, tol)
                assert _outcome(reduced_eval, reduced, tol) == want, reduced
            seen += 1
        assert seen >= 300

    def test_taylor_coefficients(self):
        # the Taylor setup against the part-by-part loop, on seeded parts that
        # include zero and non-finite coefficients and exponent gaps
        rng = random.Random(11)
        coeffs = [0.0, -0.0, 0j, 1.0, -2.5, 1 + 1j, 0.3 - 2j, 1e300, float("inf"), float("nan")]
        gaps = [0j, 0.0, 1.5, 0.5 + 0.2j, -3.0, 2.7 - 0.4j, 1e-300, float("inf")]
        for _ in range(5000):
            parts = [(rng.choice(coeffs), rng.choice(gaps), rng.choice((0, 0, 1, 2, 3)))
                     for _ in range(rng.randint(1, 5))]
            cut = rng.choice((_NEAR_CUT, 0.1, 1e-3))
            got, want = _taylor(parts, cut), _taylor_per_part(parts, cut)
            # a float and the complex with the same parts and +0 imaginary part
            # give the same series rows
            assert got[0] == want[0]
            assert repr([(a.real, a.imag) for a in got[1]]) == repr([(a.real, a.imag) for a in want[1]])

    @pytest.mark.parametrize("terms", [
        # j = 0: summed term by term at every node
        (KernelTerm(0.7, 1.3, 0.5, 0.4),),
        # |d| = 5.5 > 4: the series cut moves below _NEAR_CUT
        (KernelTerm(1.0, 1.0, 1.0, -0.5), KernelTerm(-1.0, 6.5, 1.0, -0.5)),
        # complex series coefficients
        (KernelTerm(1 + 0.5j, 1.2 + 0.3j, 0.5, 0.5j), KernelTerm(-1 - 0.5j, 2.0, 0.5, 0.5j)),
        # a group that cancels to None beside one that does not
        (KernelTerm(1.0, 1.5, 0.5, 0.3), KernelTerm(-1.0, 1.5, 0.5, 0.3),
         KernelTerm(0.3, 2.0, 0.25, 0.3)),
        # groups of different z, summed in term order
        (KernelTerm(1.0, 1.0, 1.0, 1.0), KernelTerm(-1.0, 2.0, 1.0, 1.0), KernelTerm(0.5, 1.5, 0.0, -0.8)),
        (KernelTerm(1.0, 1.0, 0.5, 0.3), KernelTerm(0.7, 1.2, 0.5, -0.4),
         KernelTerm(-0.9, 0.8, 0.5, 0.6j), KernelTerm(0.4, 2.5, 1.25, 0.3)),
        (KernelTerm(2.0, 0.7, 0.0, -1.0), KernelTerm(-1.1, 1.9, 0.75, 0.2 - 0.3j),
         KernelTerm(0.3, 1.4, 1.0, 0.8)),
    ])
    def test_group_shapes(self, terms):
        for tol in (1e-6, 1e-12):
            got = _outcome(reduced_eval, terms, tol)
            assert got == _outcome(reduced_eval_per_level, terms, tol)

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(1.0, math.nan)])
    def test_non_finite_kernel_term_rejected(self, field, bad):
        # a non-finite field used to reach the quadrature (numpy warnings, then
        # EvaluationError) or run _taylor through every order; it stops here
        fields = [0.7, 1.3, 0.5, 0.4]
        fields[field] = bad
        with pytest.raises(DomainError, match="finite"):
            KernelTerm(*fields)

    def test_stop_levels_2_to_6(self):
        cases = [
            ((KernelTerm(1.0, 1.0, 0.0, 0.0),), 1e-3),
            ((KernelTerm(1.0, 1.0, 0.5, 0.5),), 1e-6),
            ((KernelTerm(1.0, 1.0, 0.5, 0.5),), 1e-12),
            ((KernelTerm(1.0, 1.0, 0.5, 0.999),), 1e-13),
            ((KernelTerm(1.0, 1.0, 0.5, 0.99999),), 1e-14),
        ]
        levels = []
        for terms, tol in cases:
            got, want = reduced_eval(terms, tol), reduced_eval_per_level(terms, tol)
            assert repr(got) == repr(want)
            levels.append(_stop_level(got))
        assert levels == [2, 3, 4, 5, 6]

    def test_level_cap_partial_results_match(self):
        reduced = reduce(IntegrandSpec(2, "symmetric", (1.3,), 1.0, -0.97))
        with pytest.raises(ConvergenceError) as got:
            reduced_eval(reduced, 1e-11)
        with pytest.raises(ConvergenceError) as want:
            reduced_eval_per_level(reduced, 1e-11)
        assert str(got.value) == str(want.value)
        assert repr(got.value.result) == repr(want.value.result)
        assert got.value.result.abs_err > 0.0
