"""Closed-form right-hand sides and the verification engine."""

import math
import warnings

import numpy as np
import pytest

from lerchint import (
    CancellationWarning,
    DegeneracyError,
    DomainError,
    IntegrandSpec,
    LerchArgs,
    QmcOptions,
    build_integrand,
    hurwitz_zeta,
    phi,
    reduce,
    reduced_eval,
    rhs_theorem3_pair,
    rhs_theorem3_symmetric,
    rhs_theorem4,
    rhs_theorem5,
    verify,
    verify_batch,
    verify_dimension_lift,
)
from lerchint import identities
from lerchint.identities import _quad_tol


class TestRhsValues:
    def test_pair_z_zero(self):
        # gamma(3)/1! * (1 - 1/8)/(2-1) = 1.75
        got = rhs_theorem3_pair(3, 0.0, 1.0, 2.0, 1.0)
        assert abs(got - 1.75) <= 1e-12

    def test_pair_m2_matches_direct_formula(self):
        z, s, u, v = 0.5, 1.0, 2.2, 1.1
        got = rhs_theorem3_pair(2, z, s, u, v)
        direct = (
            math.gamma(s + 1)
            * (phi(LerchArgs(z, s + 1, v), 1e-13).value - phi(LerchArgs(z, s + 1, u), 1e-13).value)
            / (u - v)
        )
        assert abs(got - direct) <= 1e-12 * abs(direct)

    def test_symmetric_trivial(self):
        got = rhs_theorem3_symmetric(3, 0.0, 0.0, 1.0)
        assert abs(got - 1.0) <= 1e-12

    def test_symmetric_m1_is_kernel_value(self):
        # gamma(s+1) Phi(z,s+1,u)
        got = rhs_theorem3_symmetric(1, 0.0, 1.0, 2.0)
        assert abs(got - 0.25) <= 1e-13

    def test_symmetric_z1_hurwitz(self):
        got = rhs_theorem3_symmetric(3, 1.0, 0.5, 1.0)
        expected = math.gamma(3.5) / 2.0 * hurwitz_zeta(3.5, 1.0, 1e-13).value
        assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_theorem5_trivial(self):
        got = rhs_theorem5((1.0, 2.0, 3.0), 0.0, 1.0)
        expected = 0.5 - 0.25 + 1.0 / 18.0
        assert abs(got - expected) <= 1e-12

    def test_theorem5_m1(self):
        got = rhs_theorem5((2.0,), 0.0, 1.0)
        assert abs(got - 0.25) <= 1e-13

    def test_theorem4_guards(self):
        with pytest.raises(DomainError):
            rhs_theorem4(3, 0.0, 1.0, 1.0)  # z ~ 0
        with pytest.raises(DomainError):
            rhs_theorem4(3, 0.5, -2.0, 1.0)  # s+m-1 ~ 0
        with pytest.raises(DomainError):
            rhs_theorem4(1, 0.5, 1.0, 1.0)

    def test_theorem4_m2_matches_classic_two_dim_form(self):
        z, s, u = 0.5, 1.0, 1.3
        got = rhs_theorem4(2, z, s, u)
        inline = math.gamma(s + 2) * (
            phi(LerchArgs(z, s + 2, u), 1e-13).value
            + ((1 - z) * phi(LerchArgs(z, s + 1, u), 1e-13).value - u ** (-(s + 1)))
            / (z * (s + 1))
        )
        assert abs(got - inline) <= 1e-12 * abs(inline)

    def test_pair_degeneracy_and_warning(self):
        with pytest.raises(DegeneracyError):
            rhs_theorem3_pair(2, 0.5, 1.0, 1.0, 1.0 + 1e-8)
        with pytest.warns(CancellationWarning):
            rhs_theorem3_pair(2, 0.5, 1.0, 1.0, 1.0 + 1e-4)

    @pytest.mark.parametrize("closed_form", [
        lambda: rhs_theorem3_pair(3, 0.5, 1.0, 2.2, 1.1),
        lambda: rhs_theorem3_symmetric(3, 0.5, 1.0, 1.3),
        lambda: rhs_theorem4(3, 0.5, 1.0, 1.3),
        lambda: rhs_theorem4(3, 1.0, 1.0, 1.3),
        lambda: rhs_theorem5((1.0, 1.5, 2.0, 2.5), 0.5, 1.0),
        lambda: verify(IntegrandSpec(m=3, family="theorem4-kernel", exponents=(1.3,), z=0.5, s=1.0)),
        lambda: verify(IntegrandSpec(m=4, family="distinct-exponents",
                                     exponents=(1.0, 1.5, 2.0, 2.5), z=-0.5, s=0.5)),
    ], ids=["pair", "symmetric", "theorem4", "theorem4-z1", "theorem5-m4", "verify-t4", "verify-t5"])
    def test_one_gamma_per_closed_form(self, monkeypatch, closed_form):
        # every closed form is gamma(sigma) times a bracket of Phi values
        calls = []
        real_gamma = identities.gamma
        monkeypatch.setattr(identities, "gamma", lambda x: calls.append(x) or real_gamma(x))
        closed_form()
        assert len(calls) == 1


class TestConsistency:
    def test_pair_is_symmetric_under_swap(self):
        a = rhs_theorem3_pair(3, 0.5, 1.0, 2.2, 1.1)
        b = rhs_theorem3_pair(3, 0.5, 1.0, 1.1, 2.2)
        assert abs(a - b) <= 1e-13 * abs(a)

    def test_reduced_path_is_symmetric_under_swap(self):
        from lerchint import reduce, reduced_eval

        a = reduced_eval(
            reduce(IntegrandSpec(m=3, family="f-kernel", exponents=(2.2, 1.1), z=0.5, s=1.0)),
            1e-12,
        )
        b = reduced_eval(
            reduce(IntegrandSpec(m=3, family="f-kernel", exponents=(1.1, 2.2), z=0.5, s=1.0)),
            1e-12,
        )
        assert abs(a.value - b.value) <= a.abs_err + b.abs_err + 1e-14

    @pytest.mark.parametrize("z", [0.5, -1.0, 0.5j])
    def test_theorem5_m2_equals_pair(self, z):
        for s in (0.5, 1.0, 2.0):
            a = rhs_theorem5((2.2, 1.1), z, s)
            b = rhs_theorem3_pair(2, z, s, 2.2, 1.1)
            assert abs(a - b) <= 1e-10 * abs(b), f"z={z}, s={s}"

    @pytest.mark.parametrize("z,s,u", [(0.5, 0.7, 1.4), (-1.0, 0.5, 1.0), (0.5j, 1.0, 2.0)])
    def test_theorem4_equals_proof_decomposition(self, z, s, u):
        for m in (2, 3, 4):
            lhs = rhs_theorem4(m, z, s, u)
            rhs = (m - 1) * rhs_theorem3_symmetric(m, z, s, u) - rhs_theorem3_pair(
                m, z, s, u + 1.0, u
            )
            assert abs(lhs - rhs) <= 1e-10 * abs(lhs), f"m={m}, z={z}"

    def test_confluence_toward_symmetric(self):
        m, z, s, u = 3, 0.5, 1.0, 2.0
        eps = 1e-4
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CancellationWarning)
            pair = rhs_theorem3_pair(m, z, s, u, u + eps)
        limit = (m - 1) * rhs_theorem3_symmetric(m, z, s, u)
        assert abs(pair - limit) <= 1e-3 * abs(limit)


class TestBuildIntegrand:
    def test_symmetric_point_value(self):
        spec = IntegrandSpec(m=2, family="symmetric", exponents=(1.0,), z=0.0, s=0.0)
        f = build_integrand(spec)
        assert f(np.array([0.5, 0.5])) == pytest.approx(1.0)

    def test_f_kernel_matches_written_out_form(self):
        u, v, z, s = 2.0, 1.0, 0.5, 1.0
        spec = IntegrandSpec(m=3, family="f-kernel", exponents=(u, v), z=z, s=s)
        f = build_integrand(spec)
        x1, x2, x3 = 0.3, 0.7, 0.2
        prod = x1 * x2 * x3
        expected = (
            (x1 ** (u - 1) * x2 ** (v - 1) * x3 ** (v - 1) + x1 ** (u - 1) * x2 ** (u - 1) * x3 ** (v - 1))
            / (1.0 - z * prod)
            * (-math.log(prod)) ** s
        )
        assert f(np.array([x1, x2, x3])) == pytest.approx(expected, rel=1e-13)

    def test_theorem4_numerator_zero_line(self):
        spec = IntegrandSpec(m=3, family="theorem4-kernel", exponents=(1.0,), z=0.5, s=1.0)
        f = build_integrand(spec)
        for x3 in (0.2, 0.6, 0.9):
            assert abs(f(np.array([1.0 - 1e-14, 1.0 - 1e-14, x3]))) <= 1e-10

    def test_distinct_vectorized(self):
        spec = IntegrandSpec(
            m=2, family="distinct-exponents", exponents=(1.5, 2.5), z=0.3, s=1.0
        )
        f = build_integrand(spec)
        pts = np.array([[0.2, 0.4], [0.5, 0.9]])
        vals = f(pts)
        for row, val in zip(pts, vals):
            x1, x2 = row
            prod = x1 * x2
            expected = (
                x1 ** 0.5 * x2 ** 1.5 / (1.0 - 0.3 * prod) * (-math.log(prod)) ** 1.0
            )
            assert val == pytest.approx(expected, rel=1e-12)

    @staticmethod
    def _written_out(family, exps, z, s, x):
        """The integrand at one point as the product the identity states."""
        m = len(x)
        prod = math.prod(x)
        if family == "symmetric":
            num = prod ** (exps[0] - 1)
        elif family == "f-kernel":
            u, v = exps
            num = sum(
                math.prod(xi ** (u - 1) for xi in x[:k]) * math.prod(xi ** (v - 1) for xi in x[k:])
                for k in range(1, m)
            )
        elif family == "theorem4-kernel":
            num = (m - 1 - sum(math.prod(x[:k]) for k in range(1, m))) * prod ** (exps[0] - 1)
        else:
            num = math.prod(xi ** (ui - 1) for xi, ui in zip(x, exps))
        return num / (1 - z * prod) * (-math.log(prod)) ** s

    @pytest.mark.parametrize("z", [0.3 + 0.4j, 1.0])
    @pytest.mark.parametrize(
        "family,exps,s",
        [
            ("symmetric", (1.4 + 0.3j,), 1.2 + 0.5j),
            ("f-kernel", (2.2 + 0.4j, 1.3 - 0.2j), 0.8 + 0.5j),
            ("theorem4-kernel", (1.6 - 0.3j,), 1.1 - 0.4j),
            ("distinct-exponents", (1.2 + 0.2j, 1.9 - 0.1j, 2.6 + 0.3j, 1.5), 0.7 + 0.6j),
            ("f-kernel", (2.2, 1.3), 0.8 + 0.5j),  # real exponents, complex s
        ],
    )
    def test_complex_parameters_match_written_out_form(self, family, exps, s, z):
        pts = np.array([[0.3, 0.7, 0.2, 0.9], [0.85, 0.4, 0.6, 0.05], [0.99, 0.95, 0.9, 0.97]])
        f = build_integrand(IntegrandSpec(m=4, family=family, exponents=exps, z=z, s=s))
        vals = f(pts)
        assert vals.dtype == complex
        for row, val in zip(pts, vals):
            assert val == pytest.approx(self._written_out(family, exps, z, s, list(row)), rel=1e-13)

    @pytest.mark.parametrize("z", [1.0, -1.0])
    def test_corner_constant_integrand_is_real(self, z):
        from lerchint.constants import theorem4_corner_integrand

        m = 3
        f = theorem4_corner_integrand(m, z)
        pts = np.array([[0.3, 0.7, 0.2], [0.9, 0.95, 0.99], [1 - 1e-9, 1 - 1e-9, 1 - 1e-9]])
        vals = f(pts)
        assert vals.dtype == np.float64
        for row, val in zip(pts, vals):
            x = list(row)
            # m-1 - x1 - x1x2 over (1 - z prod)(-ln prod)^(m-1), written with expm1 so the
            # corner row keeps its digits
            gaps = -sum(math.expm1(sum(math.log(xi) for xi in x[:k])) for k in range(1, m))
            ltot = sum(math.log(xi) for xi in x)
            den = -math.expm1(ltot) if z == 1.0 else 1 - z * math.exp(ltot)
            assert val == pytest.approx(gaps / den * (-ltot) ** (1 - m), rel=1e-13)

    def test_z_one_face_is_finite(self):
        spec = IntegrandSpec(m=2, family="symmetric", exponents=(1.5,), z=1.0, s=1.0)
        f = build_integrand(spec)
        val = f(np.array([1.0 - 1e-13, 1.0 - 1e-13]))
        assert np.isfinite(val.real) if np.iscomplexobj(val) else math.isfinite(val)


class TestVerify:
    def test_trivial_symmetric_m1(self):
        spec = IntegrandSpec(m=1, family="symmetric", exponents=(2.0,), z=0.0, s=1.0)
        rep = verify(spec)
        assert abs(rep.rhs - 0.25) <= 1e-12
        assert abs(rep.lhs_reduced.value - 0.25) <= 1e-12
        assert rep.pass_

    def test_f_kernel_m3(self):
        spec = IntegrandSpec(m=3, family="f-kernel", exponents=(2.2, 1.1), z=0.5, s=1.0)
        rep = verify(spec, tol=1e-8)
        assert rep.pass_
        assert rep.rel_gap_reduced <= 1e-8

    def test_theorem4_alternating_vs_quadrature(self):
        spec = IntegrandSpec(m=3, family="theorem4-kernel", exponents=(1.0,), z=-1.0, s=0.5)
        rep = verify(spec, tol=1e-8)
        assert rep.pass_

    def test_qmc_included_when_admissible(self):
        spec = IntegrandSpec(m=2, family="symmetric", exponents=(1.3,), z=0.5, s=1.0)
        rep = verify(spec, qmc=QmcOptions(points=2 ** 13, replicates=8, seed=2))
        assert rep.lhs_qmc is not None
        assert rep.qmc_sigma_gap is not None
        assert rep.pass_

    def test_qmc_skipped_when_unbounded(self):
        spec = IntegrandSpec(m=2, family="symmetric", exponents=(0.7,), z=0.5, s=1.0)
        rep = verify(spec, qmc=QmcOptions(points=2 ** 10, replicates=4, seed=2))
        assert rep.lhs_qmc is None
        assert "exponent" in rep.qmc_skip_reason
        assert rep.pass_  # reduced path alone decides

        spec = IntegrandSpec(m=2, family="symmetric", exponents=(1.3,), z=0.5, s=-0.5)
        rep = verify(spec, qmc=QmcOptions(points=2 ** 10, replicates=4, seed=2))
        assert rep.lhs_qmc is None
        assert "Re s" in rep.qmc_skip_reason

    def test_z_within_is_one_of_one_matches_z_one(self):
        # is_one counts 1 + 4e-15 as z = 1 in the spec, the closed form and the kernel terms
        near = verify(IntegrandSpec(2, "symmetric", (1.5,), 1 + 4e-15, 1.0))
        exact = verify(IntegrandSpec(2, "symmetric", (1.5,), 1.0, 1.0))
        assert near.pass_
        assert abs(near.rhs - exact.rhs) <= near.tol * abs(exact.rhs)
        assert abs(near.lhs_reduced.value - exact.lhs_reduced.value) <= near.tol * abs(exact.rhs)

    def test_report_json_roundtrip(self):
        import json

        spec = IntegrandSpec(m=2, family="f-kernel", exponents=(2.0, 1.0), z=-1.0, s=0.5)
        rep = verify(spec)
        doc = json.loads(json.dumps(rep.to_json_dict()))
        assert doc["pass"] is True
        assert doc["spec"]["family"] == "f-kernel"
        assert doc["cancellation_flagged"] is False

    def test_cancellation_flag_recorded(self):
        spec = IntegrandSpec(m=2, family="f-kernel", exponents=(1.0, 1.0 + 5e-4), z=0.5, s=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CancellationWarning)
            rep = verify(spec, tol=1e-6)  # the quotient loses ~4 digits here
        assert rep.cancellation_flagged
        assert rep.pass_

    def test_cancellation_warning_names_the_callers_line(self):
        spec = IntegrandSpec(m=2, family="f-kernel", exponents=(1.0, 1.0 + 5e-4), z=0.5, s=1.0)
        for call in (lambda: rhs_theorem3_pair(spec.m, spec.z, spec.s, *spec.exponents),
                     lambda: verify(spec, tol=1e-6),
                     lambda: verify_batch([spec], tol=1e-6)):
            with pytest.warns(CancellationWarning) as record:
                call()
            assert [w.filename for w in record] == [__file__]

    def test_reports_deterministic(self):
        spec = IntegrandSpec(m=3, family="theorem4-kernel", exponents=(1.3,), z=0.5, s=1.0)
        opts = QmcOptions(points=2 ** 12, replicates=4, seed=13)
        a = verify(spec, tol=1e-8, qmc=opts).to_json_dict()
        b = verify(spec, tol=1e-8, qmc=opts).to_json_dict()
        assert a == b

    def test_batch_records_errors(self):
        good = IntegrandSpec(m=1, family="symmetric", exponents=(2.0,), z=0.0, s=1.0)
        # LerchArgs rejects Phi(1, s+m-1, u) at Re(s+m-1) = 0.96: no series converges there
        bad = IntegrandSpec(m=3, family="f-kernel", exponents=(2.0, 1.0), z=1.0, s=-1.04)
        reports = verify_batch([good, bad])
        assert reports[0].pass_
        assert not reports[1].pass_
        assert reports[1].error is not None

    def test_z_one_closed_form_just_above_the_hurwitz_edge(self):
        # Phi(1, 1.04, v) - Phi(1, 1.04, u) = zeta(1.04, 1) - zeta(1.04, 2) = 1 exactly,
        # so the closed form is gamma(1.04)
        rep = verify(IntegrandSpec(m=3, family="f-kernel", exponents=(2.0, 1.0), z=1.0, s=-0.96))
        assert rep.pass_
        assert abs(rep.rhs - math.gamma(1.04)) <= 1e-13 * math.gamma(1.04)


class TestTolerance:
    # a tol that is not > 0 is the caller's error, not a failed verification
    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
    def test_entries_reject_tol_before_any_work(self, monkeypatch, tol):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("phi", "gamma", "reduce", "reduced_eval", "build_integrand"):
            monkeypatch.setattr(identities, name, no_work)
        spec = IntegrandSpec(2, "symmetric", (1.5,), 0.5, 1.0)
        qmc = QmcOptions(points=256, replicates=2)
        for call in (lambda: verify(spec, tol), lambda: verify(spec, tol, qmc),
                     lambda: verify_batch([spec, spec], tol),
                     lambda: verify_dimension_lift(3, spec, tol)):
            with pytest.raises(DomainError, match="tol must be > 0"):
                call()

    def test_batch_checks_tol_before_reading_specs(self):
        def specs():
            raise AssertionError("specs read")
            yield

        with pytest.raises(DomainError, match="tol must be > 0"):
            verify_batch(specs(), tol=-1.0)


class TestDimensionLift:
    def test_symmetric_m3_term_identical(self):
        base = IntegrandSpec(m=2, family="symmetric", exponents=(1.5,), z=0.5, s=1.0)
        rep = verify_dimension_lift(3, base)
        assert rep.abs_gap_reduced <= 1e-12
        assert rep.pass_

    def test_f_kernel_m4(self):
        base = IntegrandSpec(m=2, family="f-kernel", exponents=(2.2, 1.1), z=0.5, s=1.0)
        rep = verify_dimension_lift(4, base, tol=1e-8)
        assert rep.pass_

    def test_theorem4_m3_alternating(self):
        base = IntegrandSpec(m=2, family="theorem4-kernel", exponents=(1.0,), z=-1.0, s=0.0)
        rep = verify_dimension_lift(3, base, tol=1e-8)
        assert rep.pass_

    def test_base_must_be_two_dimensional(self):
        base = IntegrandSpec(m=3, family="symmetric", exponents=(1.5,), z=0.5, s=1.0)
        with pytest.raises(DomainError):
            verify_dimension_lift(4, base)

    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("family, exps, drop", [
        ("symmetric", (1.5,), 1), ("f-kernel", (2.2, 1.1), 2), ("theorem4-kernel", (1.3,), 2),
    ])
    def test_lift_factorial_undoes_reduce_prefactor(self, family, exps, drop, m):
        # the lift multiplies by (m-1)! or (m-2)!, the inverse of reduce's simplex volume
        rep = verify_dimension_lift(m, IntegrandSpec(2, family, exps, 0.5, 3.0))
        fact = math.factorial(m - drop)
        assert reduce(rep.spec).prefactor * fact == 1.0
        side_m = reduced_eval(reduce(rep.spec), _quad_tol(rep.tol))
        assert rep.lhs_reduced.value == fact * side_m.value

    def test_distinct_family_has_no_lift(self):
        base = IntegrandSpec(2, "distinct-exponents", (1.0, 2.0), 0.5, 1.0)
        with pytest.raises(DomainError) as exc:
            verify_dimension_lift(3, base)
        assert str(exc.value) == "dimension lift applies to the single-u and (u,v) families"
