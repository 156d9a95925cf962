"""Unit tests for RNG streams and the bounded Zipf sampler."""

import math
import random

import pytest

from repro.sim.rng import (
    RngStreams,
    ZipfSampler,
    exponential,
    poisson_arrival_times,
)


class TestStreams:
    def test_named_streams_independent(self):
        rs = RngStreams(1)
        a = rs.stream("a")
        b = rs.stream("b")
        assert [a.random() for _ in range(3)] != [b.random() for _ in range(3)]

    def test_same_name_same_stream(self):
        rs = RngStreams(1)
        assert rs.stream("x") is rs.stream("x")

    def test_reproducible_across_families(self):
        xs = [RngStreams(7).stream("q").random() for _ in range(2)]
        assert xs[0] == xs[1]

    def test_spawn_differs_from_parent(self):
        rs = RngStreams(7)
        child = rs.spawn("c")
        assert child.master_seed != rs.master_seed


class TestExponential:
    def test_mean(self):
        rng = random.Random(0)
        xs = [exponential(rng, 2.0) for _ in range(20_000)]
        assert abs(sum(xs) / len(xs) - 2.0) < 0.1

    def test_positive(self):
        rng = random.Random(0)
        assert all(exponential(rng, 0.5) > 0 for _ in range(1000))

    def test_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            exponential(random.Random(0), 0.0)


class TestPoisson:
    def test_rate(self):
        rng = random.Random(1)
        ts = poisson_arrival_times(rng, rate=100.0, horizon=50.0)
        assert abs(len(ts) / 50.0 - 100.0) < 10.0

    def test_sorted_within_horizon(self):
        rng = random.Random(1)
        ts = poisson_arrival_times(rng, rate=10.0, horizon=5.0)
        assert ts == sorted(ts)
        assert all(0 < t < 5.0 for t in ts)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            poisson_arrival_times(random.Random(0), 0.0, 1.0)


class TestZipf:
    def test_uniform_degenerate(self):
        z = ZipfSampler(10, alpha=0.0)
        rng = random.Random(0)
        counts = [0] * 10
        for _ in range(10_000):
            counts[z.sample(rng)] += 1
        assert max(counts) / min(counts) < 1.5

    def test_pmf_sums_to_one(self):
        for alpha in (0.0, 0.75, 1.0, 1.5):
            z = ZipfSampler(100, alpha)
            assert math.isclose(sum(z.pmf(i) for i in range(100)), 1.0,
                                rel_tol=1e-9)

    def test_pmf_monotone_decreasing(self):
        z = ZipfSampler(50, alpha=1.0)
        pm = [z.pmf(i) for i in range(50)]
        assert all(a >= b for a, b in zip(pm, pm[1:]))

    def test_zipf_ratio_matches_law(self):
        """P(rank 1) / P(rank 2) == 2**alpha."""
        alpha = 1.25
        z = ZipfSampler(1000, alpha)
        assert math.isclose(z.pmf(0) / z.pmf(1), 2**alpha, rel_tol=1e-9)

    def test_sampling_tracks_pmf(self):
        z = ZipfSampler(20, alpha=1.0)
        rng = random.Random(42)
        n = 50_000
        counts = [0] * 20
        for _ in range(n):
            counts[z.sample(rng)] += 1
        for rank in (0, 1, 5):
            assert abs(counts[rank] / n - z.pmf(rank)) < 0.01

    def test_samples_stay_in_range(self):
        z = ZipfSampler(30, alpha=1.5)
        rng = random.Random(0)
        xs = [z.sample(rng) for _ in range(1000)]
        assert min(xs) >= 0 and max(xs) < 30

    def test_higher_alpha_more_skew(self):
        rng = random.Random(9)
        lo = ZipfSampler(100, 0.75)
        hi = ZipfSampler(100, 1.5)
        n = 20_000
        top_lo = sum(1 for _ in range(n) if lo.sample(rng) == 0) / n
        top_hi = sum(1 for _ in range(n) if hi.sample(rng) == 0) / n
        assert top_hi > top_lo

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0)
        with pytest.raises(ValueError):
            ZipfSampler(10, -1.0)
        with pytest.raises(IndexError):
            ZipfSampler(10, 1.0).pmf(10)


# CDF knots (``float.hex()``) and the first 20 ranks ``random.Random(7)``
# draws, read off the numpy sampler this one replaced (numpy 2.4.6) and
# reproduced bit for bit by the array/bisect one: (n, alpha) -> both.
GOLDEN = {
    (2047, 1.0): (
        {0: "0x1.f36a52e567346p-4", 1: "0x1.768fbe2c0d674p-3",
         2: "0x1.c9cc215249455p-3", 9: "0x1.6db1628a91b0fp-2",
         99: "0x1.43d4fca6df1acp-1", 1023: "0x1.d4c6515212fb3p-1",
         2045: "0x1.fff8315ce0066p-1", 2046: "0x1.0000000000000p+0"},
        [7, 1, 116, 0, 45, 10, 0, 35, 0, 19, 0, 0, 17, 494, 1, 2, 95,
         1332, 63, 14],
    ),
    (100, 0.75): (
        {0: "0x1.bc13d1e51c460p-4", 1: "0x1.62104fd3a5160p-3",
         2: "0x1.c3785d868bf60p-3", 9: "0x1.a1646fc3a0681p-2",
         49: "0x1.90e1ac342008dp-1", 98: "0x1.fe3ea0100e6eap-1",
         99: "0x1.0000000000000p+0"},
        [6, 1, 30, 0, 18, 7, 0, 16, 0, 11, 0, 0, 10, 58, 1, 3, 27, 85,
         22, 9],
    ),
    (100, 1.5): (
        {0: "0x1.a863e0da18251p-2", 1: "0x1.1f37a51ab7d4dp-1",
         2: "0x1.480de83180689p-1", 9: "0x1.a7668c2fb73a8p-1",
         49: "0x1.ee9d2b3b75688p-1", 98: "0x1.ffc9ad95651bap-1",
         99: "0x1.0000000000000p+0"},
        [0, 0, 3, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 9, 0, 0, 2, 37, 2, 0],
    ),
}

# every Zipf order src/repro/experiments/ (ZIPF_ORDERS, the churn and
# static defaults) and bench/workloads.py hand the sampler
ALPHAS_IN_USE = (0.75, 1.0, 1.25, 1.5)


class TestZipfPinned:
    @pytest.mark.parametrize("n,alpha", sorted(GOLDEN))
    def test_golden_knots_and_draws(self, n, alpha):
        knots, ranks = GOLDEN[n, alpha]
        z = ZipfSampler(n, alpha)
        assert {i: z._cdf[i].hex() for i in knots} == knots
        rng = random.Random(7)
        assert [z.sample(rng) for _ in range(20)] == ranks

    @pytest.mark.parametrize("alpha", ALPHAS_IN_USE)
    @pytest.mark.parametrize("n", [100, 2047, 32767])
    def test_matches_the_numpy_formula(self, n, alpha):
        """The deleted implementation, kept here as the reference."""
        np = pytest.importorskip("numpy")
        cdf = np.cumsum(np.arange(1, n + 1, dtype=np.float64) ** (-alpha))
        cdf /= cdf[-1]
        z = ZipfSampler(n, alpha)
        assert len(z._cdf) == n
        assert all(
            abs(mine - ref) <= math.ulp(ref)
            for mine, ref in zip(z._cdf, cdf.tolist())
        )
        rng, ref_rng = random.Random(3), random.Random(3)
        got = [z.sample(rng) for _ in range(100_000)]
        us = np.array([ref_rng.random() for _ in range(100_000)])
        assert got == np.searchsorted(cdf, us, side="left").tolist()
