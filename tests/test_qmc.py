"""Halton points, random shifts, determinism."""

import math
import threading
import tracemalloc

import numpy as np
import pytest

from lerchint import DomainError, EvaluationError, QmcOptions, halton_point, qmc_estimate
from lerchint.qmc import _PRIMES, MAX_DIMS, _halton_array, sigma_gap


def _loop_radical_inverse(indices, base):
    """Reference: the plain digit loop, one digit of every index per pass."""
    result = np.zeros(len(indices))
    factor = 1.0 / base
    n = indices.copy()
    while np.any(n > 0):
        result += factor * (n % base)
        n //= base
        factor /= base
    return result


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


class TestHaltonDigitLoop:
    # 3^8 + 5 runs base 3 to nine digits
    @pytest.mark.parametrize("n", [5000, 3 ** 8 + 5])
    def test_bit_identical_to_digit_loop(self, n):
        idx = np.arange(1, n + 1, dtype=np.int64)
        want = np.column_stack([_loop_radical_inverse(idx, b) for b in _PRIMES])
        got = _halton_array(n, MAX_DIMS)
        assert got.tobytes() == want.tobytes()
        for i in list(range(0, n, 97)) + [2186, 2187, 4095, 4096, n - 1]:
            assert halton_point(i, MAX_DIMS) == tuple(want[i])
            assert halton_point(i, 3) == tuple(want[i, :3])

    # ranges that start off 1 and cross a power of the base, and start = 0
    @pytest.mark.parametrize(
        "start, n", [(2 ** 18 - 3, 10), (3 ** 8 - 2, 3 ** 8 + 9), (123457, 70000), (0, 50)]
    )
    def test_ranges_bit_identical_to_digit_loop(self, start, n):
        idx = np.arange(start, start + n, dtype=np.int64)
        want = np.column_stack([_loop_radical_inverse(idx, b) for b in _PRIMES])
        assert _halton_array(n, MAX_DIMS, start).tobytes() == want.tobytes()

    def test_empty_range(self):
        assert _halton_array(0, 7).shape == (0, 7)
        assert _halton_array(0, MAX_DIMS, 10 ** 9).shape == (0, MAX_DIMS)

    @pytest.mark.parametrize("index", [10 ** 9 + 7, 10 ** 12])
    def test_far_point_bit_identical_to_digit_loop(self, index):
        idx = np.array([index + 1], dtype=np.int64)
        want = tuple(float(_loop_radical_inverse(idx, b)[0]) for b in _PRIMES)
        assert halton_point(index, MAX_DIMS) == want

    def test_far_point_allocates_little(self):
        # the table is sized by the number of points, never by the index
        tracemalloc.start()
        try:
            halton_point(10 ** 12, MAX_DIMS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024

    def test_dims_checked_by_array(self):
        with pytest.raises(DomainError, match=r"dims must lie in \[1, 20\], got 21"):
            _halton_array(4, 21)


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
        # block-major: every replicate of the first block, then of the second
        assert [len(p) for p in seen] == [2 ** 14, 2 ** 14, 100, 100]
        halton = _halton_array(n, 2)
        means = []
        for k, shift in enumerate(np.random.default_rng(3).random((2, 2))):
            want = np.clip((halton + shift) % 1.0, 1e-15, 1 - 1e-15)
            got = np.concatenate(seen[k::2])
            assert got.tobytes() == want.tobytes()
            # a replicate mean is the fsum of its block sums over the point count
            sums = [(b[:, 0] * b[:, 1]).sum() for b in (want[:2 ** 14], want[2 ** 14:])]
            means.append(complex(math.fsum(sums) / n, 0.0))  # real values: every imaginary part is 0
        assert r.estimate == complex(np.mean(np.array(means)))

    @pytest.mark.parametrize("points", [2 ** 14, 2 ** 14 + 100])
    def test_bit_identical_when_replicates_are_split(self, points):
        # one or two blocks: threads 2, 3 and 8 split each block's replicates into groups
        f = lambda p: np.exp(1j * p.sum(axis=1)) / (1.0 + p[:, 0])  # noqa: E731
        ref = qmc_estimate(f, m=3, points=points, replicates=8, seed=11, threads=1)
        for threads in (2, 3, 8):
            r = qmc_estimate(f, m=3, points=points, replicates=8, seed=11, threads=threads)
            assert (r.estimate, r.std_err) == (ref.estimate, ref.std_err)

    def test_one_block_keeps_two_threads_busy(self):
        # the single block's two replicates run at once: each call waits for the other
        barrier = threading.Barrier(2, timeout=10)

        def probe(p):
            barrier.wait()
            return p[:, 0]

        qmc_estimate(probe, m=2, points=1024, replicates=2, seed=1, threads=2)

    @pytest.mark.parametrize("points", [2 ** 16, 2 ** 18])
    def test_memory_does_not_grow_with_points(self, points):
        from lerchint import IntegrandSpec, build_integrand

        spec = IntegrandSpec(m=6, family="symmetric", exponents=(1.3,), z=0.5 + 0.3j, s=1.2 + 0.5j)
        f = build_integrand(spec)
        tracemalloc.start()
        try:
            qmc_estimate(f, m=6, points=points, replicates=8, seed=1, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block's points, shifted points and integrand temporaries: about 4 MB
        assert peak < 8 * 2 ** 20

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

    @pytest.mark.parametrize("kwargs", [
        {"points": 0}, {"replicates": 1}, {"threads": 0}, {"seed": -1},
        {"points": 64.0}, {"replicates": 2.5}, {"threads": 1.5}, {"seed": "1"},
        {"threads": True}, {"replicates": np.True_},
    ])
    def test_options_checked_on_construction(self, kwargs):
        with pytest.raises(DomainError):
            QmcOptions(**kwargs)

    def test_options_take_numpy_integers(self):
        opts = QmcOptions(points=np.int64(512), replicates=np.int32(4), seed=np.uint8(0))
        assert (opts.points, opts.replicates, opts.seed) == (512, 4, 0)

    def test_estimate_checks_its_options(self):
        with pytest.raises(DomainError, match="seed must be nonnegative"):
            qmc_estimate(lambda p: np.ones(len(p)), m=1, points=64, seed=-1)
        with pytest.raises(DomainError, match="points must be an integer, got 64.0"):
            qmc_estimate(lambda p: np.ones(len(p)), m=1, points=64.0)

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
