"""Dispatch, recurrences and error reporting of the Phi evaluator."""

import cmath
import math

import numpy as np
import pytest

from lerchint import (
    ConvergenceError,
    DomainError,
    LerchArgs,
    lerch_kernel_integral,
    alt_lerch,
    gamma,
    hurwitz_zeta,
    phi,
)
from lerchint import lerch
from lerchint.lerch import _direct_series, _on_circle
from oracles import direct_series_per_term, phi_du_fd, phi_shift_u


def geometric_over_shifted(z: float, n: int = 400) -> float:
    """Brute sum of z^k/(k+1) with geometric tail bound folded in."""
    total = math.fsum(z ** k / (k + 1.0) for k in range(n))
    assert abs(z) ** (n + 1) / (1.0 - abs(z)) < 1e-16
    return total


class TestArgsValidation:
    def test_u_must_have_positive_real_part(self):
        with pytest.raises(DomainError):
            LerchArgs(0.5, 1.0, 0.0)
        with pytest.raises(DomainError):
            LerchArgs(0.5, 1.0, -2.0 + 1j)

    def test_ray_rejected(self):
        with pytest.raises(DomainError):
            LerchArgs(1.5, 2.0, 1.0)
        with pytest.raises(DomainError):
            LerchArgs(7.0, 2.0, 1.0)

    @pytest.mark.parametrize("args", [
        (0.5, 2.0, math.inf),  # used to run the whole 2M-term budget, about 5 s
        (math.nan, 2.0, 1.0),  # used to suggest the quadrature fallback
        (0.5, complex(2.0, math.nan), 1.0),
        (complex(0.5, -math.inf), 2.0, 1.0),
    ])
    def test_non_finite_rejected(self, args):
        with pytest.raises(DomainError, match="finite"):
            LerchArgs(*args)

    def test_z_one_needs_re_s_above_one(self):
        with pytest.raises(DomainError):
            LerchArgs(1.0, 0.5, 1.0)
        LerchArgs(1.0, 1.5, 1.0)  # fine

    @pytest.mark.parametrize("args,fragment", [
        ((-1.0, -0.5, 1.0), "z=-1 needs Re s > 0"),
        ((-1.0, 0.0, 1.3), "z=-1 needs Re s > 0"),
        ((cmath.exp(1j), 0.5, 1.0), "needs Re s > 1"),
        ((cmath.exp(1j), 1.0, 1.0), "needs Re s > 1"),
    ])
    def test_unit_circle_rules_rejected_at_construction(self, args, fragment):
        with pytest.raises(DomainError, match=fragment):
            LerchArgs(*args)

    @pytest.mark.parametrize("args", [(-1.0, 0.1, 1.0), (cmath.exp(1j), 1.01, 1.0)])
    def test_unit_circle_edges_accepted(self, args):
        LerchArgs(*args)

    def test_circle_rule_and_series_dispatch_share_one_test(self):
        # a modulus that rounds just below 1 is still a circle point, for
        # LerchArgs's rule and for the series' tail bound alike
        z = cmath.exp(0.36j)
        assert abs(z) < 1.0 and _on_circle(abs(z))
        with pytest.raises(DomainError):
            LerchArgs(z, 1.0, 1.0)
        assert not _on_circle(1.0 - 2e-14)
        LerchArgs(1.0 - 2e-14, 1.0, 1.0)  # in the open disk: any s


@pytest.mark.parametrize("s", [1.5, 2.0 + 0.5j, 3.5 - 1.0j, 0.4 + 2.0j])
@pytest.mark.parametrize("u", [1.0, 0.3, 1.7 + 0.4j])
@pytest.mark.parametrize("tol", [1e-8, 1e-13])
def test_boundary_names_are_phi_at_plus_minus_one(s, u, tol):
    def outcome(fn, *args):  # the result, or the error's type and message
        try:
            return fn(*args)
        except Exception as exc:
            return type(exc), str(exc)

    for z, name in ((-1.0, alt_lerch), (1.0, hurwitz_zeta)):
        if z == 1.0 and s.real <= 1.0:
            continue
        assert outcome(name, s, u, tol) == outcome(phi, LerchArgs(z, s, u), tol)


class TestPhiDispatch:
    def test_z_zero_is_exact_power(self):
        r = phi(LerchArgs(0.0, 2.5, 1.7))
        assert r.value == 1.7 ** (-2.5 + 0j)
        assert r.method == "direct-series"
        assert r.work == 1

    def test_geometric_case(self):
        ref = geometric_over_shifted(0.5)
        assert abs(ref - 2.0 * math.log(2.0)) < 1e-15
        r = phi(LerchArgs(0.5, 1.0, 1.0), tol=1e-12)
        assert abs(r.value - ref) <= 1e-12
        assert r.method == "direct-series"

    def test_delegates_to_hurwitz(self):
        r = phi(LerchArgs(1.0, 2.0, 1.0), tol=1e-12)
        assert abs(r.value - math.pi ** 2 / 6.0) <= 1e-12
        assert r.method == "euler-maclaurin"

    def test_delegates_to_alternating(self):
        r = phi(LerchArgs(-1.0, 1.0, 1.0), tol=1e-12)
        assert abs(r.value - math.log(2.0)) <= 1e-12
        assert r.method == "alternating-accel"

    @pytest.mark.parametrize("z", [0.5, 1.0, -1.0])
    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
    def test_tol_not_positive_is_a_domain_error(self, z, tol):
        with pytest.raises(DomainError, match="tol must be > 0"):
            phi(LerchArgs(z, 2.0, 1.0), tol)

    def test_alternating_domain_error_propagates(self):
        with pytest.raises(DomainError):
            phi(LerchArgs(-1.0, -0.5, 1.0))

    def test_near_disk_edge_converges(self):
        # |z| = 0.99 needs a few thousand terms but stays within budget
        r = phi(LerchArgs(0.99, 2.0, 1.0), tol=1e-11)
        brute = math.fsum(0.99 ** k / (k + 1.0) ** 2 for k in range(20_000))
        assert abs(r.value - brute) <= 1e-10

    def test_unit_circle_off_the_poles_needs_re_s_above_one(self):
        z = complex(math.cos(1.0), math.sin(1.0))
        with pytest.raises(DomainError):
            phi(LerchArgs(z, 0.5, 1.0))

    def test_unit_circle_convergence_error_when_tol_unreachable(self):
        z = complex(math.cos(1.0), math.sin(1.0))
        with pytest.raises(ConvergenceError):
            phi(LerchArgs(z, 1.2, 1.0), tol=1e-10)

    def test_unit_circle_loose_tol_works(self):
        z = complex(math.cos(1.0), math.sin(1.0))
        r = phi(LerchArgs(z, 3.0, 1.0), tol=1e-9)
        brute = sum(z ** k / (k + 1.0) ** 3 for k in range(200_000))
        assert abs(r.value - brute) <= 2e-9

    def test_outside_disk_rejected_without_fallback(self):
        with pytest.raises(DomainError):
            phi(LerchArgs(-3.0, 1.0, 1.0))

    def test_quadrature_fallback_outside_disk(self):
        # sum (-3)^n/(n+1) = ln(4)/3 by the integral representation
        r = phi(LerchArgs(-3.0, 1.0, 1.0), tol=1e-10, allow_quadrature=True)
        assert r.method == "quadrature-fallback"
        assert abs(r.value - math.log(4.0) / 3.0) <= 1e-9

    def test_truncation_bound_dominates_geometric_tail(self):
        # reported abs_err is at least |z|^(N+1) (Re u + N + 1)^(-Re s)/(1-|z|)
        for z, s, u in [(0.5, 1.0, 1.0), (-0.7, 2.0, 0.6), (0.9, 0.5, 2.2)]:
            r = phi(LerchArgs(z, s, u), tol=1e-11)
            assert r.method == "direct-series"
            n_last = r.work - 1
            bound = abs(z) ** (n_last + 1) * (u + n_last + 1.0) ** (-s) / (1.0 - abs(z))
            assert r.abs_err >= bound


class TestRecurrences:
    def test_shift_matches_arithmetic(self):
        r = phi_shift_u(LerchArgs(0.5, 1.0, 1.0), tol=1e-12)
        expected = (2.0 * math.log(2.0) - 1.0) / 0.5
        assert abs(r.value - expected) <= 1e-11

    def test_shift_at_minus_one(self):
        r = phi_shift_u(LerchArgs(-1.0, 1.0, 1.0), tol=1e-12)
        expected = (math.log(2.0) - 1.0) / (-1.0)
        assert abs(r.value - expected) <= 1e-11

    def test_shift_consistent_with_direct_evaluation(self):
        a = phi_shift_u(LerchArgs(0.5, 0.0, 1.0), tol=1e-12)
        b = phi(LerchArgs(0.5, 0.0, 2.0), tol=1e-12)
        assert abs(a.value - b.value) <= a.abs_err + b.abs_err + 1e-14

    def test_shift_needs_nonzero_z(self):
        with pytest.raises(DomainError):
            phi_shift_u(LerchArgs(0.0, 1.0, 1.0))

    def test_shift_residual_on_grid(self):
        zs = [0.3, -0.7, 0.5 + 0.5j]
        ss = [0.5, 2.0, 1.0 + 1.0j]
        us = [0.6, 1.0, 2.2]
        for z in zs:
            for s in ss:
                for u in us:
                    a = phi(LerchArgs(z, s, u), tol=1e-12)
                    b = phi(LerchArgs(z, s, u + 1.0), tol=1e-12)
                    residual = abs(z * b.value - a.value + u ** (-s))
                    budget = 4.0 * (abs(z) * b.abs_err + a.abs_err) + 1e-13
                    assert residual <= budget, f"z={z}, s={s}, u={u}"

    def test_fd_derivative_z_zero(self):
        d = phi_du_fd(LerchArgs(0.0, 2.0, 1.0), h=1e-5, tol=1e-13)
        assert abs(d - (-2.0)) <= 1e-6

    def test_fd_matches_s_plus_one_series(self):
        d = phi_du_fd(LerchArgs(0.5, 2.0, 1.0), h=1e-5, tol=1e-13)
        rhs = -2.0 * phi(LerchArgs(0.5, 3.0, 1.0), tol=1e-13).value
        assert abs(d - rhs) <= 1e-6 * abs(rhs)

    def test_fd_matches_alternating_route(self):
        d = phi_du_fd(LerchArgs(-1.0, 2.0, 1.5), h=1e-5, tol=1e-13)
        rhs = -2.0 * alt_lerch(3.0, 1.5, tol=1e-13).value
        assert abs(d - rhs) <= 1e-6 * abs(rhs)

    def test_derivative_recurrence_on_real_subgrid(self):
        for z in (0.3, -0.7):
            for s in (0.5, 2.0):
                for u in (0.6, 1.0, 2.2):
                    lhs = phi(LerchArgs(z, s + 1.0, u), tol=1e-13).value
                    fd = phi_du_fd(LerchArgs(z, s, u), h=1e-5, tol=1e-13)
                    assert abs(lhs + fd / s) <= 1e-6 * abs(lhs), f"z={z}, s={s}, u={u}"

    def test_fd_step_validation(self):
        with pytest.raises(DomainError):
            phi_du_fd(LerchArgs(0.5, 1.0, 1.0), h=1e-7)
        with pytest.raises(DomainError):
            phi_du_fd(LerchArgs(0.5, 1.0, 1.0), h=1e-2)
        with pytest.raises(DomainError):
            phi_du_fd(LerchArgs(0.5, 1.0, 1e-4), h=1e-3)


class TestPathIndependence:
    @pytest.mark.parametrize("s", [1.5, 2.5])
    @pytest.mark.parametrize("u", [0.7, 1.3])
    def test_alternating_vs_kernel_quadrature(self, s, u):
        k = lerch_kernel_integral(-1.0, u, s, tol=1e-12)
        quad_phi = k.value / gamma(s + 1.0)
        alt = alt_lerch(s + 1.0, u, tol=1e-13)
        assert abs(alt.value - quad_phi) <= 1e-8


def test_error_honesty_against_brute_series():
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.4, 0.4))
        if abs(z) < 1e-3:
            continue
        s = complex(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
        u = complex(rng.uniform(0.5, 2.5), rng.uniform(-0.5, 0.5))
        r = phi(LerchArgs(z, s, u), tol=1e-12)
        brute = sum(z ** k * (u + k) ** (-s) for k in range(3000))
        assert abs(r.value - brute) <= 2.0 * r.abs_err + 1e-13


def _sweep_points(seed: int = 29) -> list:
    """Disk (Re s of both signs), band and unit-circle points with tol 1e-6..1e-13."""
    rng = np.random.default_rng(seed)
    points = []
    for region in ("disk", "disk-neg-s", "band", "circle") * 10:
        theta = rng.uniform(-math.pi, math.pi)
        if region == "circle":
            r, sr = 1.0, rng.uniform(3.0, 5.0)
        elif region == "band":
            r, sr = rng.uniform(0.9, 0.998), rng.uniform(0.0, 3.0)
        else:
            r = rng.uniform(0.05, 0.9)
            sr = rng.uniform(-2.0, 0.0) if region == "disk-neg-s" else rng.uniform(0.0, 4.0)
        z = r * complex(math.cos(theta), math.sin(theta))
        s = complex(sr, rng.uniform(-1.5, 1.5))
        u = complex(rng.uniform(0.2, 2.5), rng.uniform(-0.5, 0.5))
        tol = 10.0 ** -rng.uniform(6.0, 13.0)
        if region == "circle":
            tol = max(tol, 1e-10)  # the circle's n^(1 - Re s) bound needs ~1e5 terms here
        points.append((region, z, s, u, tol, 200_000 if r <= 0.9 else 2_000_000))
    # |z| of exp(0.3i) rounds to 1.0, of exp(0.36i) just below it: both take the circle's bound
    points.append(("circle", cmath.exp(0.36j), 3.0 + 0j, 0.7 + 0j, 1e-10, 2_000_000))
    # tol below, just above and above the rounding floor 4*eps*sum|terms|, which is
    # about 3.66e-13 for (exp(0.3i), 5, 0.3) and 3.34e-14 for (0.95, 3, 0.3); the
    # per-term loop spends its whole budget below the floor, so the budget is small
    for z in (cmath.exp(0.3j), cmath.exp(0.36j)):
        points += [("circle", z, 5.0 + 0j, 0.3 + 0j, tol, 20_000) for tol in (3.6e-13, 3.7e-13, 4e-13)]
    points += [("band", 0.95 + 0j, 3.0 + 0j, 0.3 + 0j, tol, 20_000) for tol in (3.3e-14, 3.4e-14, 4e-14)]
    points.append(("disk-neg-s", 0.5 + 0j, -3.0 + 0j, 2.0 + 0j, 1e-14, 20_000))
    # |terms| rise from 7.6 to about 8e3 by n = 10 and then fall: the bound is
    # infinite for the first terms, and the stop is still predicted
    points.append(("disk-neg-s", 0.7 + 0.2j, -5.0 + 0.5j, 1.5 - 0.3j, 1e-9, 20_000))
    return points


@pytest.mark.parametrize("region,z,s,u,tol,budget", _sweep_points())
def test_direct_series_is_bit_identical_to_per_term_loop(region, z, s, u, tol, budget):
    args = LerchArgs(z, s, u)
    try:
        ref = direct_series_per_term(args, tol, budget)
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            _direct_series(args, tol, budget)
        return
    got = _direct_series(args, tol, budget)
    assert (got.value, got.abs_err, got.work) == (ref.value, ref.abs_err, ref.work)
    # the stop is the last term a budget allows: one term less and both raise
    edge = _direct_series(args, tol, ref.work - 1)
    assert (edge.value, edge.abs_err, edge.work) == (ref.value, ref.abs_err, ref.work)
    with pytest.raises(ConvergenceError):
        _direct_series(args, tol, ref.work - 2)


def test_steep_negative_s_bound_does_not_overflow(monkeypatch):
    # |u+n|^60 overflows past n ~ 1.4e5, where the stop search looks, while
    # |z|^n |u+n|^60 is far below 1: the series still reports its floor, and
    # from the largest term ahead (near n = 10 878) before summing to it
    summed = []
    series_terms = lerch._series_terms

    def counted(*args):
        for term in series_terms(*args):
            summed.append(term)
            yield term

    monkeypatch.setattr(lerch, "_series_terms", counted)
    with pytest.raises(ConvergenceError, match="rounding floor"):
        phi(LerchArgs(0.9945, -60.0, 1.0), 1e-12)
    assert len(summed) <= 100


@pytest.mark.parametrize("args,fragment", [
    (LerchArgs(0.5, 60.0, 0.01), "attainable tolerance is at least 8.88e+104"),
    (LerchArgs(cmath.exp(1j), 2.5, 1.3), "attainable tolerance within the budget is about 2.36e-10"),
    (LerchArgs(0.999999, -8.0, 1.0), "no tail bound holds yet within the budget"),
])
def test_unreachable_tolerance_names_the_attainable_one(args, fragment):
    with pytest.raises(ConvergenceError, match=fragment.replace("+", r"\+")):
        phi(args, 1e-10)
