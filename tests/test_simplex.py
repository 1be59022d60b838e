"""Simplex closed forms vs the nested-quadrature oracle, plus reductions."""

import ast
import itertools
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import lerchint
from lerchint import (
    DegeneracyError,
    DomainError,
    IntegrandSpec,
    reduce,
)
from oracles import (
    brute_simplex,
    distinct_exponent_simplex,
    lagrange_residual,
    log_simplex_volume,
    power_sum_simplex,
)


class TestLogSimplexVolume:
    def test_single_level(self):
        assert abs(log_simplex_volume(1, math.exp(-1.0)) - 1.0) <= 1e-15

    def test_cubic(self):
        assert abs(log_simplex_volume(3, math.exp(-2.0)) - 8.0 / 6.0) <= 1e-14

    def test_frozen_oracle_value(self):
        # brute nested quadrature of the k=2 volume at x=0.3
        assert abs(log_simplex_volume(2, 0.3) - 0.7247752567782294) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            log_simplex_volume(2, 0.0)
        with pytest.raises(DomainError):
            log_simplex_volume(2, 1.5)
        with pytest.raises(DomainError):
            log_simplex_volume(0, 0.5)


class TestPowerSumSimplex:
    def test_plain_interval(self):
        assert abs(power_sum_simplex(1, 1.0, 0.25) - 0.75) <= 1e-15

    def test_alpha_two(self):
        expected = (1.0 - math.exp(-2.0)) / 2.0
        assert abs(power_sum_simplex(2, 2.0, math.exp(-1.0)) - expected) <= 1e-14

    def test_frozen_oracle_value(self):
        # brute nested quadrature of (t1^1.5 + t2^1.5)/(t1 t2) over the x=0.4 simplex
        assert abs(power_sum_simplex(2, 1.5, 0.4) - 0.4563236499627713) <= 1e-9

    def test_alpha_zero_rejected(self):
        with pytest.raises(DomainError):
            power_sum_simplex(2, 0.0, 0.5)
        with pytest.raises(DomainError):
            power_sum_simplex(2, 1e-13, 0.5)


class TestDistinctExponentSimplex:
    def test_two_exponents(self):
        assert abs(distinct_exponent_simplex((2.0, 1.0), 0.3) - 0.7) <= 1e-15

    def test_three_equal_spacing(self):
        assert abs(distinct_exponent_simplex((3.0, 2.0, 1.0), 0.5) - 0.125) <= 1e-14

    def test_frozen_oracle_value(self):
        got = distinct_exponent_simplex((1.5, 2.5, 4.0), 0.7)
        assert abs(got - 0.10405052934225942) <= 1e-9

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneracyError):
            distinct_exponent_simplex((1.0, 1.0 + 1e-8), 0.5)


class TestLagrangeResidual:
    def test_examples(self):
        assert lagrange_residual((1.0, 2.0, 3.0)) <= 1e-15
        assert lagrange_residual((1.0, 2.0)) <= 1e-15
        scale = abs(1.0 / ((0.3 - 4.1) * (1.7 - 4.1) * (2.9 - 4.1)))
        assert lagrange_residual((0.3, 1.7, 2.9, 4.1)) <= 1e-13 * max(1.0, scale)

    def test_random_well_separated(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            base = rng.uniform(0.2, 1.0, size=k + 1)
            us = np.cumsum(base + 0.5) + rng.uniform(0, 0.3)
            rng.shuffle(us)
            scale = abs(1.0 / np.prod(us[:-1] - us[-1]))
            assert lagrange_residual(tuple(us)) <= 1e-12 * max(scale, 1.0)


class TestBruteOracleAgreement:
    @pytest.mark.parametrize("x", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_log_volume(self, k, x):
        got = brute_simplex(k, lambda t: 1.0 / math.prod(t), x)
        assert abs(got - log_simplex_volume(k, x)) <= 1e-8

    @pytest.mark.parametrize("alpha", [1.0, 2.5, -0.5])
    @pytest.mark.parametrize("x", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("k", [1, 2])
    def test_power_sum(self, k, alpha, x):
        def g(t):
            return sum(ti ** alpha for ti in t) / math.prod(t)

        got = brute_simplex(k, g, x)
        assert abs(got - power_sum_simplex(k, alpha, x)) <= 1e-8

    @pytest.mark.parametrize("alpha", [1.0, -0.5])
    def test_power_sum_k3(self, alpha):
        def g(t):
            return sum(ti ** alpha for ti in t) / math.prod(t)

        got = brute_simplex(3, g, 0.5)
        assert abs(got - power_sum_simplex(3, alpha, 0.5)) <= 1e-8

    def test_distinct_rows(self):
        rng = np.random.default_rng(55)
        for k in (1, 2):
            for _ in range(3):
                us = np.sort(rng.uniform(0.3, 4.0, size=k + 1))[::-1]
                while np.min(np.abs(np.diff(us))) < 0.3:
                    us = np.sort(rng.uniform(0.3, 4.0, size=k + 1))[::-1]
                x = float(rng.uniform(0.25, 0.8))

                def g(t, us=us):
                    out = 1.0
                    for i, ti in enumerate(t):
                        out *= ti ** (us[i] - us[i + 1] - 1.0)
                    return out

                got = brute_simplex(k, g, x)
                assert abs(got - distinct_exponent_simplex(tuple(us), x)) <= 1e-8

    def test_k_out_of_range(self):
        with pytest.raises(DomainError):
            brute_simplex(4, lambda t: 1.0, 0.5)


def test_import_leaves_scipy_unloaded():
    # scipy backs only the test oracle brute_simplex; the runtime needs numpy
    # alone, and the Bernoulli table is plain integer pairs, not fractions
    src = os.path.dirname(os.path.dirname(os.path.abspath(lerchint.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, lerchint; sys.exit('scipy' in sys.modules or 'fractions' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_runtime_source_never_mentions_test_only_libraries():
    # a lazy import inside a function escapes the sys.modules check above
    pkg = pathlib.Path(lerchint.__file__).parent
    files = [p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    assert files
    for path in files:
        text = path.read_text(encoding="utf-8").lower()
        for name in ("scipy", "mpmath"):
            assert name not in text, f"{path.relative_to(pkg)} mentions {name}"


def test_family_rules_live_in_the_family_table():
    # every per-family rule is a field of simplex.Family; a comparison with a
    # family name anywhere else would start a second copy of one (a test that
    # a family was given at all, "is None", decides no rule)
    pkg = pathlib.Path(lerchint.__file__).parent
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Compare) or all(
                    isinstance(c, ast.Constant) and c.value is None for c in node.comparators):
                continue
            for sub in ast.walk(node):
                name = sub.attr if isinstance(sub, ast.Attribute) else getattr(sub, "id", "")
                literal = isinstance(sub, ast.Constant) and sub.value in lerchint.FAMILIES
                assert name != "family" and not name.startswith("FAMILY_") and not literal, (
                    f"{path.name}:{node.lineno} compares with an integrand family")


def test_family_table_order_and_closed_forms():
    # the seeded sweeps of test_quad1d draw their specs in this order, and
    # every family has one closed form
    from lerchint.identities import _RHS

    assert list(lerchint.FAMILIES) == ["distinct-exponents", "symmetric", "f-kernel", "theorem4-kernel"]
    assert list(_RHS) == list(lerchint.FAMILIES)


class TestIntegrandSpecValidation:
    def test_family_name(self):
        for family in ("nope", ["symmetric"]):
            with pytest.raises(DomainError, match="unknown integrand family"):
                IntegrandSpec(m=2, family=family, exponents=(1.0,), z=0.0, s=1.0)

    def test_exponent_count(self):
        with pytest.raises(DomainError):
            IntegrandSpec(m=3, family="distinct-exponents", exponents=(1.0, 2.0), z=0.0, s=1.0)
        with pytest.raises(DomainError):
            IntegrandSpec(m=2, family="f-kernel", exponents=(1.0,), z=0.0, s=1.0)

    def test_positive_real_parts(self):
        with pytest.raises(DomainError):
            IntegrandSpec(m=2, family="symmetric", exponents=(-1.0,), z=0.0, s=1.0)

    def test_m_one_needs_single_family(self):
        with pytest.raises(DomainError):
            IntegrandSpec(m=1, family="f-kernel", exponents=(2.0, 1.0), z=0.0, s=1.0)
        with pytest.raises(DomainError):
            IntegrandSpec(m=1, family="theorem4-kernel", exponents=(1.0,), z=0.0, s=1.0)
        IntegrandSpec(m=1, family="symmetric", exponents=(1.0,), z=0.0, s=1.0)

    def test_degeneracy(self):
        with pytest.raises(DegeneracyError):
            IntegrandSpec(m=2, family="f-kernel", exponents=(1.0, 1.0 + 1e-9), z=0.0, s=1.0)
        with pytest.raises(DegeneracyError):
            IntegrandSpec(
                m=3, family="distinct-exponents", exponents=(1.0, 2.0, 2.0 + 1e-9), z=0.0, s=1.0
            )

    def test_v_only_for_the_pair(self):
        assert IntegrandSpec(2, "f-kernel", (2.0, 1.0), 0.5, 1.0).v == 1.0
        for family, exps in (("symmetric", (1.0,)), ("distinct-exponents", (1.0, 2.0))):
            with pytest.raises(AttributeError, match="f-kernel"):
                IntegrandSpec(2, family, exps, 0.5, 1.0).v

    def test_ray_rejected(self):
        with pytest.raises(DomainError):
            IntegrandSpec(m=2, family="symmetric", exponents=(1.0,), z=1.5, s=1.0)

    @pytest.mark.parametrize("field", ["z", "s", "exponents"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.5, math.inf)])
    def test_non_finite_rejected(self, field, bad):
        # an infinite exponent used to run verify for seconds, through the whole
        # series budget, before it failed
        args = dict(m=2, family="distinct-exponents", exponents=(1.0, 2.0), z=0.5, s=1.0)
        args[field] = (1.0, bad) if field == "exponents" else bad
        with pytest.raises(DomainError, match="finite"):
            IntegrandSpec(**args)

    @pytest.mark.parametrize("m", [2.5, 2.0, True, "x", None])
    def test_m_must_be_an_integer(self, m):
        # 2.5 used to be accepted and fail later with a TypeError; True verified as m = 1
        with pytest.raises(DomainError, match="integer"):
            IntegrandSpec(m=m, family="symmetric", exponents=(1.0,), z=0.5, s=1.0)
        assert type(IntegrandSpec(m=np.int64(2), family="symmetric", exponents=(1.0,), z=0.5, s=1.0).m) is int

    def test_s_thresholds(self):
        # Re s must exceed the family's floor at z = 1 and one less elsewhere;
        # at the bound the message is exact, 0.05 above it the spec is accepted
        z1_floor = {"distinct-exponents": lambda m: 0, "symmetric": lambda m: 1 - m,
                    "f-kernel": lambda m: 1 - m, "theorem4-kernel": lambda m: -m}
        single = {"symmetric": (1.0,), "f-kernel": (2.0, 1.0), "theorem4-kernel": (1.0,)}
        for family, floor in z1_floor.items():
            for m, z in itertools.product((2, 3), (0.5, 1.0, -1.0)):
                exps = single.get(family, (1.0, 2.0, 3.0)[:m])
                bound = float(floor(m) - (z != 1.0))
                with pytest.raises(DomainError) as exc:
                    IntegrandSpec(m, family, exps, z, bound)
                assert str(exc.value) == (
                    f"family {family!r} with m={m}, z={'1' if z == 1.0 else complex(z)} "
                    f"needs Re s > {bound}, got s={complex(bound)}")
                IntegrandSpec(m, family, exps, z, bound + 0.05)
        with pytest.raises(DomainError):
            IntegrandSpec(m=1, family="distinct-exponents", exponents=(1.0,), z=0.5, s=-1.0)
        with pytest.raises(DomainError):
            IntegrandSpec(m=1, family="distinct-exponents", exponents=(1.0,), z=1.0, s=0.0)

    @pytest.mark.parametrize("m, family, exps, message", [
        (3, "distinct-exponents", (1.0, 2.0),
         "family 'distinct-exponents' with m=3 takes 3 exponent(s), got 2"),
        (2, "symmetric", (1.0, 2.0), "family 'symmetric' with m=2 takes 1 exponent(s), got 2"),
        (2, "f-kernel", (1.0,), "family 'f-kernel' with m=2 takes 2 exponent(s), got 1"),
        (3, "theorem4-kernel", (), "family 'theorem4-kernel' with m=3 takes 1 exponent(s), got 0"),
        (1, "f-kernel", (2.0, 1.0), "family 'f-kernel' needs m > 1"),
        (1, "theorem4-kernel", (1.0,), "family 'theorem4-kernel' needs m > 1"),
        (0, "symmetric", (1.0,), "dimension m must be >= 1"),
    ])
    def test_count_and_min_m_messages(self, m, family, exps, message):
        with pytest.raises(DomainError) as exc:
            IntegrandSpec(m, family, exps, 0.5, 1.0)
        assert str(exc.value) == message


class TestReduce:
    def test_symmetric_m1_is_identity(self):
        spec = IntegrandSpec(m=1, family="symmetric", exponents=(1.5,), z=0.5, s=2.0)
        red = reduce(spec)
        assert len(red.terms) == 1
        t = red.terms[0]
        assert t.coeff == 1.0
        assert t.w == 1.5
        assert t.p == 2.0

    def test_f_kernel_m2(self):
        spec = IntegrandSpec(m=2, family="f-kernel", exponents=(2.0, 1.0), z=0.5, s=1.0)
        red = reduce(spec)
        assert len(red.terms) == 2
        by_w = {t.w.real: t for t in red.terms}
        assert by_w[1.0].coeff == pytest.approx(1.0)
        assert by_w[2.0].coeff == pytest.approx(-1.0)
        assert all(t.p == 1.0 for t in red.terms)
        assert all(t.z == 0.5 for t in red.terms)

    def test_symmetric_m3(self):
        spec = IntegrandSpec(m=3, family="symmetric", exponents=(1.5,), z=0.5, s=1.0)
        red = reduce(spec)
        assert red.terms[0].coeff == pytest.approx(0.5)
        assert red.terms[0].p == 3.0
        assert red.prefactor == pytest.approx(0.5)

    def test_theorem4_m3(self):
        spec = IntegrandSpec(m=3, family="theorem4-kernel", exponents=(1.3,), z=0.5, s=1.0)
        red = reduce(spec)
        assert len(red.terms) == 3
        coeffs = sorted((t.coeff.real, t.w.real, t.p.real) for t in red.terms)
        assert coeffs == [(-1.0, 1.3, 2.0), (1.0, 1.3, 3.0), (1.0, 2.3, 2.0)]

    def test_distinct_m3_coefficients(self):
        spec = IntegrandSpec(m=3, family="distinct-exponents", exponents=(1.0, 2.0, 3.0), z=0.0, s=1.0)
        red = reduce(spec)
        coeffs = [t.coeff for t in red.terms]
        assert coeffs[0] == pytest.approx(0.5)
        assert coeffs[1] == pytest.approx(-1.0)
        assert coeffs[2] == pytest.approx(0.5)
        assert [t.w for t in red.terms] == [1.0, 2.0, 3.0]

    def test_terms_share_z(self):
        spec = IntegrandSpec(m=4, family="theorem4-kernel", exponents=(1.0,), z=-1.0, s=0.5)
        red = reduce(spec)
        assert len({t.z for t in red.terms}) == 1

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("z", [0.5, 0.5j, -0.7 + 0.2j])
    def test_low_s_strip_verifies(self, m, z):
        # below Re s = 1-m single kernels diverge at t = 1 but their sum does
        # not; theorem4's closed form has a gamma pole at s = -m, f-kernel's
        # at s = 1-m, so those points are left out.  (1.3 + 1) - 1.3 is not
        # exactly 1, so theorem4's cancelling first order is rounding noise.
        from lerchint import verify

        cases = [("f-kernel", (2.0, 1.0), s) for s in (0.2 - m, 0.5 - m, 0.8 - m + 0.3j)]
        cases += [("theorem4-kernel", (1.3,), s) for s in (-m - 0.5, -m - 0.2 + 0.3j, 0.5 - m)]
        for family, exps, s in cases:
            rep = verify(IntegrandSpec(m=m, family=family, exponents=exps, z=z, s=s), tol=1e-8)
            assert rep.pass_, f"{family} s={s}: rel={rep.rel_gap_reduced:.2e}"

    def test_factorials_capped_at_desk_scale(self):
        spec = IntegrandSpec(m=25, family="symmetric", exponents=(1.0,), z=0.5, s=1.0)
        with pytest.raises(DomainError):
            reduce(spec)

    def test_confluence_of_pair_reduction_toward_symmetric(self):
        # evaluating the (u, u+eps) reduction approaches (m-1) times the
        # symmetric reduction; forward-difference error is O(eps)
        from lerchint import reduced_eval

        eps = 1e-4
        for m, z, s, u in [(2, 0.5, 0.5, 3.0), (3, 0.5, 0.5, 3.0), (2, -1.0, 0.5, 2.5)]:
            pair = IntegrandSpec(m=m, family="f-kernel", exponents=(u, u + eps), z=z, s=s)
            sym = IntegrandSpec(m=m, family="symmetric", exponents=(u,), z=z, s=s)
            a = reduced_eval(reduce(pair), 1e-12).value
            b = (m - 1) * reduced_eval(reduce(sym), 1e-12).value
            assert abs(a - b) <= 1e-4 * abs(b), f"m={m}, z={z}"


def _inner_numerator(family: str, exps: tuple, ts: tuple, x: float) -> float:
    """The family numerator N in partial products t_1 >= ... >= t_{m-1} >= t_m = x."""
    if family == "symmetric":
        return x ** (exps[0] - 1.0)
    if family == "f-kernel":
        u, v = exps
        return x ** (v - 1.0) * sum(t ** (u - v) for t in ts)
    if family == "theorem4-kernel":
        return x ** (exps[0] - 1.0) * sum(1.0 - t for t in ts)
    # prod x_i^(u_i - 1) with x_i = t_i / t_{i-1}
    out = x ** (exps[-1] - 1.0)
    for i, t in enumerate(ts):
        out *= t ** (exps[i] - exps[i + 1])
    return out


_REDUCE_EXPONENTS = {
    "symmetric": (1.3,),
    "f-kernel": (2.5, 1.2),
    "theorem4-kernel": (1.3,),
    "distinct-exponents": (1.0, 2.5, 1.7, 3.2),  # the first m of them
}


class TestReduceAgainstSimplexQuadrature:
    """reduce()'s own terms against nested quadrature of the inner simplex integral.

    With partial products t_k = x_1...x_k the cube integral becomes
    integral_0^1 (-ln x)^s/(1 - z x) * J(x) dx, where J(x) is the integral of
    N/(t_1...t_{m-1}) over 1 >= t_1 >= ... >= t_{m-1} >= x.  A reduction
    with terms (c_i, w_i, p_i) claims J(x) = sum_i c_i x^(w_i-1) (-ln x)^(p_i-s).
    """

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("family", list(_REDUCE_EXPONENTS))
    def test_terms_match_inner_simplex_integral(self, family, m):
        exps = _REDUCE_EXPONENTS[family]
        if family == "distinct-exponents":
            exps = exps[:m]
        spec = IntegrandSpec(m=m, family=family, exponents=exps, z=0.5, s=0.7)
        terms = reduce(spec).terms
        for x in (0.2, 0.5, 0.8):
            want = brute_simplex(m - 1, lambda ts: _inner_numerator(family, exps, ts, x) / math.prod(ts), x)
            got = sum(t.coeff * x ** (t.w - 1.0) * (-math.log(x)) ** (t.p - spec.s) for t in terms)
            assert abs(got - want) <= 1e-10 * abs(want), f"x={x}: {got} vs {want}"
