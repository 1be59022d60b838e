"""Halton points, random shifts, determinism."""

import numpy as np
import pytest

from lerchint import DomainError, EvaluationError, QmcOptions, halton_point, qmc_estimate
from lerchint.qmc import _halton_array, sigma_gap


class TestHaltonPoint:
    def test_first_point_base2(self):
        assert halton_point(0, 1) == (0.5,)

    def test_second_point_two_dims(self):
        pt = halton_point(1, 2)
        assert pt[0] == 0.25
        assert abs(pt[1] - 2.0 / 3.0) <= 1e-15

    def test_third_point_base2(self):
        assert halton_point(2, 1) == (0.75,)

    def test_no_zero_coordinates(self):
        for idx in range(200):
            pt = halton_point(idx, 5)
            assert all(0.0 < c < 1.0 for c in pt)

    def test_dims_limit(self):
        with pytest.raises(DomainError):
            halton_point(0, 21)
        with pytest.raises(DomainError):
            halton_point(0, 0)
        with pytest.raises(DomainError):
            halton_point(-1, 1)


class TestQmcEstimate:
    def test_constant(self):
        r = qmc_estimate(lambda p: np.ones(len(p)), m=2, points=512, replicates=4, seed=3)
        assert r.estimate == pytest.approx(1.0, abs=1e-15)
        assert r.std_err == 0.0

    def test_product_integral(self):
        r = qmc_estimate(
            lambda p: np.prod(p, axis=1), m=3, points=2 ** 14, replicates=8, seed=1
        )
        assert abs(r.estimate - 0.125) <= 3.0 * max(r.std_err, 1e-12)

    def test_symmetric_family_closed_forms(self):
        from lerchint import IntegrandSpec, build_integrand

        # int over (0,1)^2 of -ln(x1 x2) = 2 (u=1, z=0, s=1)
        spec = IntegrandSpec(m=2, family="symmetric", exponents=(1.0,), z=0.0, s=1.0)
        r = qmc_estimate(build_integrand(spec), m=2, points=2 ** 14, replicates=8, seed=1)
        assert abs(r.estimate - 2.0) <= 3.0 * r.std_err
        # int over (0,1) of t (-ln t) = 1/4 (u=2, z=0, s=1)
        spec = IntegrandSpec(m=1, family="symmetric", exponents=(2.0,), z=0.0, s=1.0)
        r = qmc_estimate(build_integrand(spec), m=1, points=2 ** 14, replicates=8, seed=1)
        assert abs(r.estimate - 0.25) <= 3.0 * r.std_err

    def test_points_stay_inside_open_cube(self):
        seen = []

        def probe(p):
            seen.append(p.copy())
            return np.ones(len(p))

        qmc_estimate(probe, m=4, points=256, replicates=3, seed=9)
        allpts = np.concatenate(seen)
        assert np.all(allpts > 0.0)
        assert np.all(allpts < 1.0)

    def test_wrap_matches_float_modulo(self):
        seen = []

        def probe(p):
            seen.append(p.copy())
            return np.ones(len(p))

        qmc_estimate(probe, m=3, points=512, replicates=4, seed=5)
        halton = np.array([halton_point(i, 3) for i in range(512)])
        shifts = np.random.default_rng(5).random((4, 3))
        assert len(seen) == 4
        for got, shift in zip(seen, shifts):
            assert np.any(halton + shift >= 1.0)
            want = np.clip((halton + shift) % 1.0, 1e-15, 1 - 1e-15)
            assert got.tobytes() == want.tobytes()

    def test_blocks_cover_every_point_once(self):
        seen = []

        def probe(p):
            seen.append(p.copy())
            return p[:, 0] * p[:, 1]

        n = 2 ** 14 + 100
        r = qmc_estimate(probe, m=2, points=n, replicates=2, seed=3)
        assert [len(p) for p in seen] == [2 ** 14, 100, 2 ** 14, 100]
        halton = _halton_array(n, 2)
        means = []
        for k, shift in enumerate(np.random.default_rng(3).random((2, 2))):
            want = np.clip((halton + shift) % 1.0, 1e-15, 1 - 1e-15)
            got = np.concatenate(seen[2 * k:2 * k + 2])
            assert got.tobytes() == want.tobytes()
            means.append(complex((want[:, 0] * want[:, 1]).mean()))
        assert r.estimate == complex(np.mean(np.array(means)))

    def test_determinism_same_seed(self):
        f = lambda p: np.cos(2.5 * p.sum(axis=1))  # noqa: E731
        a = qmc_estimate(f, m=3, points=1024, replicates=4, seed=42)
        b = qmc_estimate(f, m=3, points=1024, replicates=4, seed=42)
        assert a.estimate == b.estimate
        assert a.std_err == b.std_err

    def test_determinism_across_thread_counts(self):
        f = lambda p: 1.0 / (1.0 + p.sum(axis=1) ** 2)  # noqa: E731
        a = qmc_estimate(f, m=3, points=2048, replicates=8, seed=7, threads=1)
        b = qmc_estimate(f, m=3, points=2048, replicates=8, seed=7, threads=4)
        assert a.estimate == b.estimate
        assert a.std_err == b.std_err

    def test_seed_changes_result(self):
        f = lambda p: p.sum(axis=1)  # noqa: E731
        a = qmc_estimate(f, m=2, points=512, replicates=4, seed=1)
        b = qmc_estimate(f, m=2, points=512, replicates=4, seed=2)
        assert a.estimate != b.estimate

    def test_replicate_floor(self):
        with pytest.raises(DomainError):
            qmc_estimate(lambda p: np.ones(len(p)), m=1, points=64, replicates=1, seed=1)

    @pytest.mark.parametrize("kwargs", [{"points": 0}, {"replicates": 1}, {"threads": 0}])
    def test_options_checked_on_construction(self, kwargs):
        with pytest.raises(DomainError):
            QmcOptions(**kwargs)

    def test_sigma_gap_floor_scales_with_estimate(self):
        assert sigma_gap(4.0, 1e-3, 4.003) == pytest.approx(3.0)
        # replicates that agree to rounding: std_err is floored at 1e-15 (1 + |estimate|)
        gap = 8 * 2.0 ** -50
        assert sigma_gap(4.0, 0.0, 4.0 + gap) == pytest.approx(gap / 5e-15)

    def test_nonfinite_rejected(self):
        def bad(p):
            out = np.ones(len(p))
            out[0] = np.nan
            return out

        with pytest.raises(EvaluationError):
            qmc_estimate(bad, m=2, points=128, replicates=2, seed=1)

    def test_wrong_shape_rejected(self):
        with pytest.raises(EvaluationError):
            qmc_estimate(lambda p: np.ones(3), m=2, points=128, replicates=2, seed=1)


def test_convergence_sanity_more_points_help():
    """More points shrink the gap to the reduced-path value.

    A single doubling regresses ~30% of the time (the error is one
    folded-Gaussian draw per configuration), so the check compares 2^12
    against 2^16 points, where improvement is expected in >= 90% of the
    bounded verification cases.
    """
    from lerchint import IntegrandSpec, build_integrand, reduce, reduced_eval

    def exps_for(family, m):
        if family in ("symmetric", "theorem4-kernel"):
            return (1.3,)
        if family == "f-kernel":
            return (2.2, 1.1)
        return {2: (1.1, 1.8), 3: (1.0, 1.7, 2.4)}[m]

    improved = 0
    total = 0
    for family in ("symmetric", "f-kernel", "theorem4-kernel", "distinct-exponents"):
        for m in (2, 3):
            for z in (0.5, -1.0):
                spec = IntegrandSpec(m=m, family=family, exponents=exps_for(family, m), z=z, s=1.0)
                ref = reduced_eval(reduce(spec), 1e-13).value
                f = build_integrand(spec)
                coarse = abs(qmc_estimate(f, m, 2 ** 12, 8, seed=2).estimate - ref)
                fine = abs(qmc_estimate(f, m, 2 ** 16, 8, seed=2).estimate - ref)
                total += 1
                if fine <= coarse:
                    improved += 1
    assert improved >= 0.9 * total, f"{improved}/{total}"
