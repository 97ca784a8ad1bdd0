"""Distribution layer: normalizer, PMF/CDF, moments, mode, sampling.

Frozen reference values were computed with a 60-digit mpmath evaluation of
the defining series (4000 terms), independent of the library code.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from ddpnkit import distributions as dists
from ddpnkit import metrics
from ddpnkit.errors import DomainError, NumericOverflow, ShapeError

# (mu, gamma) -> c(mu, gamma) from the high-precision oracle
NORMALIZER_ORACLE = {
    (0.5, 0.1): 0.67740092629354541,
    (5.0, 2.0): 0.99066442085198086,
    (3.0, 0.5): 1.0331397153603158,
    (8.0, 1.5): 0.99618591926187751,
    (1.7, 3.4): 0.95823508925434401,
}

PMF_ORACLE = {
    (5.0, 2.0, 5): 0.25048677317614711,
    (5.0, 2.0, 3): 0.12555443849932973,
    (3.0, 0.5, 0): 0.15271588826025251,
    (3.0, 0.5, 7): 0.038832069029759023,
    (0.5, 0.1, 2): 0.11125701908953374,
}

CDF_ORACLE = {
    (3.0, 0.5, 3): 0.6350332801852561,
    (5.0, 2.0, 4): 0.39240955104608878,
}

# (mu, gamma) -> (exact mean, exact variance)
SERIES_MOMENTS_ORACLE = {
    (3.0, 0.5): (2.9986634627130206, 5.761303008824206),
    (10.0, 5.0): (10.00138788515822, 1.9997112833276405),
    (0.5, 0.1): (1.8975658573085353, 7.4290054584659507),
    (7.0, 1.0): (7.0, 7.0),
}


def mp_log_weight(mp, mu, gamma, y: int):
    """log s(mu, gamma, y) = log h(y) - gamma*bd0(y, mu) in mpmath, at its
    working precision: log h(y) = y*log(y) - y - log(y!), bd0(y, mu) =
    y*log(y/mu) + mu - y, and -gamma*mu at y = 0."""
    mu, gamma = mp.mpf(mu), mp.mpf(gamma)
    if y == 0:
        return -gamma * mu
    y = mp.mpf(y)
    return y * mp.log(y) - y - mp.loggamma(y + 1) - gamma * (y * mp.log(y / mu) + mu - y)


def mp_moments(mu: float, gamma: float) -> tuple:
    """Mean and variance of DP(mu, gamma) from 40-digit sums over mu +- 40 sd."""
    mp = pytest.importorskip("mpmath")
    sd = math.sqrt(mu / gamma)
    ys = range(max(0, int(mu - 40.0 * sd)), int(mu + 40.0 * sd) + 2)
    with mp.workdps(40):
        w = [mp.exp(mp_log_weight(mp, mu, gamma, y)) for y in ys]
        s0 = mp.fsum(w)
        mean = mp.fsum(wi * y for wi, y in zip(w, ys)) / s0
        var = mp.fsum(wi * (y - mean) ** 2 for wi, y in zip(w, ys)) / s0
        return float(mean), float(var)


class TestNormalizer:
    def test_gamma_one_is_exactly_poisson_mass(self):
        """At gamma = 1 the series is a Poisson PMF and sums to 1."""
        for mu in (0.3, 1.0, 2.0, 7.5, 40.0):
            assert_allclose(dists.dp_normalizer(mu, 1.0), 1.0, rtol=1e-12)

    def test_frozen_values(self):
        for (mu, gamma), expected in NORMALIZER_ORACLE.items():
            assert_allclose(dists.dp_normalizer(mu, gamma), expected, rtol=1e-12)

    def test_near_one_at_moderate_parameters(self):
        assert abs(dists.dp_normalizer(5.0, 2.0) - 1.0) < 0.01

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            dists.dp_normalizer(-1.0, 1.0)
        with pytest.raises(DomainError):
            dists.dp_normalizer(1.0, 0.0)


class TestPmf:
    def test_frozen_normalized_values(self):
        for (mu, gamma, y), expected in PMF_ORACLE.items():
            d = dists.double_poisson(mu, gamma)
            assert_allclose(dists.dist_pmf(d, y), expected, rtol=1e-12)

    def test_unnormalized_ratio_is_the_normalizer(self):
        d = dists.double_poisson(3.0, 0.5)
        raw = dists.dist_pmf(d, 4, normalized=False)
        norm = dists.dist_pmf(d, 4, normalized=True)
        assert_allclose(raw / norm, dists.dp_normalizer(3.0, 0.5), rtol=1e-12)

    def test_gamma_one_matches_poisson(self):
        d = dists.double_poisson(4.2, 1.0)
        ys = np.arange(30)
        ours = np.array([dists.dist_pmf(d, int(y)) for y in ys])
        assert_allclose(ours, stats.poisson.pmf(ys, 4.2), rtol=1e-10)

    def test_vector_sums_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            mu = float(rng.uniform(0.2, 30.0))
            gamma = float(rng.uniform(0.1, 5.0))
            p = dists.pmf_vector(dists.double_poisson(mu, gamma))
            assert p.min() >= 0.0
            assert_allclose(p.sum(), 1.0, rtol=1e-12)

    def test_off_support_is_zero(self):
        d = dists.double_poisson(3.0, 0.5)
        assert dists.dist_pmf(d, -1) == 0.0
        assert dists.dist_pmf(d, 2.5) == 0.0

    def test_mixture_is_component_average(self):
        a = dists.double_poisson(2.0, 1.5)
        b = dists.double_poisson(6.0, 0.7)
        mix = dists.mixture([a, b])
        for y in (0, 3, 9):
            expected = 0.5 * (dists.dist_pmf(a, y) + dists.dist_pmf(b, y))
            assert_allclose(dists.dist_pmf(mix, y), expected, rtol=1e-12)


class TestCdf:
    def test_frozen_values(self):
        for (mu, gamma, k), expected in CDF_ORACLE.items():
            d = dists.double_poisson(mu, gamma)
            assert_allclose(dists.dist_cdf(d, k), expected, rtol=1e-12)

    def test_monotone_and_reaches_one(self):
        d = dists.double_poisson(3.0, 0.5)
        values = [dists.dist_cdf(d, y) for y in range(0, 60)]
        assert np.all(np.diff(values) >= -1e-15)
        assert_allclose(dists.dist_cdf(d, 10000), 1.0, atol=1e-9)
        assert dists.dist_cdf(d, -0.5) == 0.0

    def test_poisson_matches_scipy(self):
        d = dists.poisson(2.0)
        for y in (0, 1, 5, 11.7):
            assert_allclose(dists.dist_cdf(d, y), stats.poisson.cdf(y, 2.0), rtol=1e-12)

    def test_step_between_integers(self):
        d = dists.poisson(4.0)
        assert dists.dist_cdf(d, 3.0) == dists.dist_cdf(d, 3.9)

    @pytest.mark.parametrize("make", [lambda: dists.double_poisson(3.0, 1.0),
                                      lambda: dists.neg_binomial(4.0, 0.5),
                                      lambda: dists.gaussian(3.0, 2.0)])
    def test_non_finite_points(self, make):
        """The CDF is 0 and 1 at -inf and +inf, the PMF 0 at both; nan is a
        domain error for both."""
        d = make()
        assert dists.dist_cdf(d, -np.inf) == 0.0
        assert dists.dist_cdf(d, np.inf) == 1.0
        assert dists.dist_pmf(d, -np.inf) == 0.0
        assert dists.dist_pmf(d, np.inf) == 0.0
        with pytest.raises(DomainError, match="nan"):
            dists.dist_cdf(d, np.nan)
        with pytest.raises(DomainError, match="nan"):
            dists.dist_pmf(d, float("nan"))


class TestMoments:
    def test_efron_approximation_reads_parameters(self):
        d = dists.double_poisson(6.0, 3.0)
        assert dists.dist_moments(d) == (6.0, 2.0)

    def test_exact_series_frozen_values(self):
        for (mu, gamma), (mean, var) in SERIES_MOMENTS_ORACLE.items():
            d = dists.double_poisson(mu, gamma)
            got = dists.dist_moments(d, mode=dists.EXACT_SERIES)
            assert_allclose(got, (mean, var), rtol=1e-10)

    @pytest.mark.parametrize("mu, gamma", [(1e4, 1.0), (3e4, 50.0)])
    def test_exact_series_match_mpmath_at_large_means(self, mu, gamma):
        """Log weights of rounding 1e-16 * y*log(y) would leave the variance
        off by about 1e-12 relative here."""
        got = dists.double_poisson(mu, gamma).member_moments(dists.EXACT_SERIES)
        assert_allclose([float(g[0, 0]) for g in got], mp_moments(mu, gamma),
                        rtol=1e-14, atol=0.0)

    def test_series_identities_match_brute_force(self):
        """The correction-series mean and variance equal the moments of the
        normalized truncated PMF."""
        rng = np.random.default_rng(11)
        for _ in range(25):
            mu = float(rng.uniform(0.5, 25.0))
            gamma = float(rng.uniform(0.15, 4.0))
            d = dists.double_poisson(mu, gamma)
            p = dists.pmf_vector(d)
            ys = np.arange(p.size)
            bf_mean = float(np.sum(p * ys))
            bf_var = float(np.sum(p * (ys - bf_mean) ** 2))
            series = dists.dist_moments(d, mode=dists.EXACT_SERIES)
            assert_allclose(series, (bf_mean, bf_var), rtol=1e-9, atol=1e-9)

    def test_neg_binomial_closed_forms(self):
        d = dists.neg_binomial(4.0, 0.25)
        mean, var = dists.dist_moments(d)
        assert_allclose(mean, stats.nbinom.mean(4.0, 0.25), rtol=1e-12)
        assert_allclose(var, stats.nbinom.var(4.0, 0.25), rtol=1e-12)
        assert var > mean  # this family cannot be under-dispersed

    def test_mixture_moments_match_mixture_pmf(self):
        a = dists.poisson(3.0)
        b = dists.poisson(9.0)
        mix = dists.mixture([a, b])
        p = dists.pmf_vector(mix)
        ys = np.arange(p.size)
        bf_mean = float(np.sum(p * ys))
        bf_var = float(np.sum(p * (ys - bf_mean) ** 2))
        assert_allclose(dists.dist_moments(mix), (bf_mean, bf_var), rtol=1e-9)


class TestMode:
    def test_poisson_tie_breaks_toward_smallest(self):
        """Poisson(2) has equal mass at 1 and 2; the mode reports 1."""
        assert dists.dist_mode(dists.poisson(2.0)) == 1.0

    def test_integer_poisson_modes_follow_the_tie_rule(self):
        """Poisson(k) = DP(k, 1) has equal mass at k - 1 and k, and both
        report k - 1, alone and batched, whatever the rounding of the weights."""
        ks = np.arange(1.0, 61.0)
        for k in ks:
            assert dists.dist_mode(dists.poisson(k)) == k - 1
            assert dists.dist_mode(dists.double_poisson(k, 1.0)) == k - 1
        batches = (dists.PredictiveBatch(dists.POISSON, (ks,)),
                   dists.PredictiveBatch(dists.DOUBLE_POISSON, (ks, np.ones_like(ks))))
        for batch in batches:
            assert np.array_equal(dists.predictive_summary(batch).modes, ks - 1)

    def test_matches_argmax_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = dists.double_poisson(float(rng.uniform(0.5, 20)), float(rng.uniform(0.2, 4)))
            p = dists.pmf_vector(d)
            assert dists.dist_mode(d) == float(np.argmax(p))
        # the mass of DP(1e5, 1) lies past the 65536-term cap
        with pytest.raises(NumericOverflow, match=r"mu=100000\.0, gamma=1\.0"):
            dists.dist_mode(dists.double_poisson(1e5, 1.0))

    def test_gaussian_mode_is_unrounded_mean(self):
        assert dists.dist_mode(dists.gaussian(3.7, 2.0)) == 3.7


class TestQuantile:
    def test_discrete_definition(self):
        """Smallest z with CDF(z) >= q."""
        d = dists.poisson(4.0)
        for q in (0.025, 0.5, 0.975):
            z = dists.dist_quantile(d, q)
            assert dists.dist_cdf(d, z) >= q
            if z > 0:
                assert dists.dist_cdf(d, z - 1) < q
        with pytest.raises(NumericOverflow, match=r"mu=100000\.0, gamma=1\.0"):
            dists.dist_quantile(dists.double_poisson(1e5, 1.0), 0.975)

    def test_tiny_level(self):
        """The slack on q is relative, so levels far below 1e-12 still resolve."""
        z = dists.dist_quantile(dists.double_poisson(1000.0, 1.0), 1e-13)
        assert z == 777
        assert stats.poisson.cdf(z - 1, 1000.0) < 1e-13 <= stats.poisson.cdf(z, 1000.0)

    def test_gaussian_quantile(self):
        z = dists.dist_quantile(dists.gaussian(1.0, 4.0), 0.975)
        assert_allclose(z, 1.0 + 2.0 * stats.norm.ppf(0.975), rtol=1e-9)

    def test_gaussian_mixture_by_bisection(self):
        mix = dists.mixture([dists.gaussian(0.0, 1.0), dists.gaussian(4.0, 1.0)])
        z = dists.dist_quantile(mix, 0.5)
        assert_allclose(dists.dist_cdf(mix, z), 0.5, atol=1e-9)


def _xlogx(y):
    return np.where(y > 0, y * np.log(np.where(y > 0, y, 1.0)), 0.0)


def oracle_pmf(kind, a, b, n):
    """Normalized PMF of one member on 0..n-1, from the defining formulas."""
    y = np.arange(n, dtype=float)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n)])
    if kind == dists.DOUBLE_POISSON:
        log_w = (-y + _xlogx(y) - log_fact) + b * (y - a + y * math.log(a) - _xlogx(y))
    elif kind == dists.POISSON:
        log_w = y * math.log(a) - a - log_fact
    else:
        log_w = (np.array([math.lgamma(k + a) for k in y]) - math.lgamma(a) - log_fact
                 + a * math.log(b) + y * math.log1p(-b))
    w = np.exp(log_w - log_w.max())
    p = w / w.sum()
    assert p[-1] < 1e-15, "oracle support too short"
    return p


def oracle_summary(kind, params, ys):
    """Modes, (q025, q975) and CRPS per row of a mixture batch, from long
    untruncated PMFs and direct sums. The upper CRPS sum stops at its first
    term below 1e-12, as the metric is defined."""
    members, n = params[0].shape
    second = params[1] if len(params) > 1 else np.zeros_like(params[0])
    modes, quantiles, crps = np.zeros(n), np.zeros((2, n)), np.zeros(n)
    for i in range(n):
        mean, var = dists.PredictiveBatch(kind, [p[:, i:i + 1] for p in params]).member_moments()
        size = int(np.max(mean + 30.0 * np.sqrt(var + 1.0) + 64.0))
        mix = np.mean([oracle_pmf(kind, params[0][m, i], second[m, i], size)
                       for m in range(members)], axis=0)
        cdf = np.cumsum(mix)
        modes[i] = np.argmax(mix)
        for j, q in enumerate((0.025, 0.975)):
            quantiles[j, i] = np.argmax(cdf >= q * (1.0 - 1e-12))
        below, above = cdf[:int(ys[i])], (cdf[int(ys[i]):] - 1.0) ** 2
        small = np.flatnonzero(above < 1e-12)
        crps[i] = np.sum(below**2) + np.sum(above[:small[0] if small.size else above.size])
    return modes, quantiles, crps


def random_params(kind, members, n, rng):
    if kind == dists.DOUBLE_POISSON:
        return (rng.uniform(0.5, 30.0, (members, n)), rng.uniform(0.3, 4.0, (members, n)))
    if kind == dists.POISSON:
        return (rng.uniform(0.5, 30.0, (members, n)),)
    return (rng.uniform(3.0, 30.0, (members, n)), rng.uniform(0.4, 0.8, (members, n)))


class TestBatchEngine:
    """predictive_summary against oracle_summary: modes and quantiles equal,
    CRPS within rtol 1e-12. The supports stop on a proven tail bound far
    below the CRPS tolerance, so the comparison checks the engine's block,
    mask and mixture arithmetic."""

    def check(self, kind, params, rng):
        batch = dists.PredictiveBatch(kind, params)
        ys = rng.integers(0, 40, len(batch)).astype(float)
        got = dists.predictive_summary(batch, ys, levels=(0.025, 0.975))
        modes, quantiles, crps = oracle_summary(kind, batch.params, ys)
        assert np.array_equal(got.modes, modes)
        assert np.array_equal(got.quantiles, quantiles)
        assert_allclose(got.crps, crps, rtol=1e-12)
        return batch, ys, got

    @pytest.mark.parametrize("kind", [dists.DOUBLE_POISSON, dists.POISSON, dists.NEG_BINOMIAL])
    @pytest.mark.parametrize("members", [1, 5])
    def test_matches_oracle(self, kind, members):
        rng = np.random.default_rng(members)
        self.check(kind, random_params(kind, members, 40, rng), rng)

    def test_narrow_rows_beside_wide_rows(self):
        """mu = 0.5 and mu = 500 rows go to blocks of their own widths."""
        rng = np.random.default_rng(4)
        mu = np.tile([[0.5, 500.0], [0.6, 480.0]], 10)
        batch, _, _ = self.check(dists.DOUBLE_POISSON, (mu, rng.uniform(0.5, 2.0, mu.shape)), rng)
        blocks = list(dists._pmf_blocks(batch))
        assert np.array_equal(np.concatenate([rows for rows, pmf in blocks if pmf.shape[1] < 64]),
                              np.arange(0, 20, 2))
        assert np.array_equal(np.concatenate([rows for rows, pmf in blocks if pmf.shape[1] > 64]),
                              np.arange(1, 20, 2))
        support = dists._series(batch.kind, *dists._cells(batch), dists.PMF_N0)[2]
        width = support.reshape(batch.shape).max(axis=0)
        for rows, pmf in blocks:  # every block has one width, its rows' own
            assert np.all(width[rows] == pmf.shape[1])

    @pytest.mark.parametrize("kind", [dists.DOUBLE_POISSON, dists.POISSON, dists.NEG_BINOMIAL])
    def test_wide_rows_score_as_alone(self, kind):
        """Rows whose supports span 32 to 4096 terms score bit for bit as alone."""
        rng = np.random.default_rng(6)
        shape = (3, 90)
        mean = np.exp(rng.uniform(math.log(0.3), math.log(2000.0), shape[1])) * np.ones(shape)
        if kind == dists.DOUBLE_POISSON:
            params = (mean, np.exp(rng.uniform(math.log(0.5), math.log(4.0), shape)))
        elif kind == dists.POISSON:
            params = (mean,)
        else:
            p = rng.uniform(0.3, 0.9, shape)
            params = (mean * p / (1.0 - p), p)
        batch = dists.PredictiveBatch(kind, params)
        support = dists._series(kind, *dists._cells(batch), dists.PMF_N0)[2]
        width = support.reshape(shape).max(axis=0)
        assert width.min() == 32 and width.max() == 4096
        ys = np.rint(mean[0] * rng.uniform(0.5, 1.5, shape[1]))
        got = dists.predictive_summary(batch, ys, levels=(0.025, 0.975))
        for i in range(len(batch)):
            alone = dists.PredictiveBatch(kind, [p[:, i:i + 1] for p in params])
            one = dists.predictive_summary(alone, ys[i:i + 1], levels=(0.025, 0.975))
            assert one.modes[0] == got.modes[i]
            assert np.array_equal(one.quantiles[:, 0], got.quantiles[:, i])
            assert one.crps[0] == got.crps[i]

    def test_more_rows_than_one_block(self):
        rng = np.random.default_rng(5)
        batch, ys, got = self.check(dists.DOUBLE_POISSON,
                                    random_params(dists.DOUBLE_POISSON, 5, 1200, rng), rng)
        assert len(list(dists._pmf_blocks(batch))) > 1
        # each row scores exactly as it does alone
        for i in (0, 599, 1199):
            alone = dists.PredictiveBatch(batch.kind, [p[:, i:i + 1] for p in batch.params])
            assert dists.dist_mode(alone) == got.modes[i]
            assert dists.dist_quantile(alone, 0.975) == got.quantiles[1, i]
            assert metrics.crps(alone, ys[i]) == got.crps[i]

    def test_rejects_bad_rows(self):
        with pytest.raises(DomainError, match="gamma"):
            dists.PredictiveBatch(dists.DOUBLE_POISSON, ([[1.0, 2.0]], [[1.0, np.inf]]))
        with pytest.raises(DomainError):
            dists.predictive_summary(dists.PredictiveBatch(dists.POISSON, ([2.0],)), [1.5])


class TestSample:
    def test_deterministic_per_seed(self):
        d = dists.double_poisson(5.0, 0.8)
        a = dists.dist_sample(d, np.random.default_rng(42), 100)
        b = dists.dist_sample(d, np.random.default_rng(42), 100)
        assert np.array_equal(a, b)

    def test_empirical_moments_track_exact_series(self):
        d = dists.double_poisson(6.0, 0.5)
        draws = dists.dist_sample(d, np.random.default_rng(1), 200_000)
        mean, var = dists.dist_moments(d, mode=dists.EXACT_SERIES)
        assert abs(draws.mean() - mean) < 0.05
        assert abs(draws.var() - var) < 0.25

    def test_gaussian_sampling(self):
        d = dists.gaussian(2.0, 9.0)
        draws = dists.dist_sample(d, np.random.default_rng(5), 100_000)
        assert abs(draws.mean() - 2.0) < 0.05
        assert abs(draws.std() - 3.0) < 0.05


class TestOneRowBatches:
    def test_constructors_return_one_row_batches(self):
        for dist, kind in ((dists.double_poisson(2.0, 0.5), dists.DOUBLE_POISSON),
                           (dists.poisson(2.0), dists.POISSON),
                           (dists.neg_binomial(2.0, 0.5), dists.NEG_BINOMIAL),
                           (dists.gaussian(2.0, 0.5), dists.GAUSSIAN)):
            assert isinstance(dist, dists.PredictiveBatch)
            assert dist.kind == kind
            assert dist.shape == (1, 1)

    def test_mixture_stacks_members(self):
        mix = dists.mixture([dists.double_poisson(2.0, 0.5), dists.double_poisson(4.0, 3.0)])
        assert mix.shape == (2, 1)
        assert_allclose(mix.params[0][:, 0], [2.0, 4.0])
        assert_allclose(mix.params[1][:, 0], [0.5, 3.0])

    @pytest.mark.parametrize("view", [
        dists.pmf_vector, dists.dist_moments, dists.dist_mode,
        lambda d: dists.dist_pmf(d, 1), lambda d: dists.dist_cdf(d, 1.0),
        lambda d: dists.dist_quantile(d, 0.5),
        lambda d: dists.dist_sample(d, np.random.default_rng(0), 3),
        lambda d: metrics.crps(d, 1),
    ])
    def test_views_take_one_row(self, view):
        two_rows = dists.PredictiveBatch(dists.POISSON, ([1.0, 2.0],))
        with pytest.raises(ShapeError):
            view(two_rows)


class TestMixtureVariance:
    """The mixture variance is summed about the mixture mean, so it survives
    member means that dwarf the member variances."""

    def test_close_large_means(self):
        mean, var = dists.mixture_moments([1e8, 1e8 + 1.0], [1e-3, 1e-3])
        assert mean == 1e8 + 0.5
        assert_allclose(var, 1e-3 + 0.25, rtol=1e-13)

    def test_equal_members_with_tiny_variance(self):
        member = dists.double_poisson(3000.0, 3e9)
        mean, var = dists.mixture([member, member]).moments()
        assert mean[0] == 3000.0
        assert_allclose(var[0], 3000.0 / 3e9, rtol=1e-15)

    def test_evaluate_on_close_large_gaussian_means(self):
        batch = dists.PredictiveBatch(dists.GAUSSIAN, ([[1e8], [1e8 + 1.0]], [[1e-3], [1e-3]]))
        rec = metrics.evaluate(batch, [1e8])
        assert_allclose(rec.variances, [0.251], rtol=1e-13)
        assert_allclose(rec.median_precision, 1.0 / 0.251, rtol=1e-13)


class TestValidation:
    def test_parameter_domains(self):
        with pytest.raises(DomainError):
            dists.double_poisson(0.0, 1.0)
        with pytest.raises(DomainError):
            dists.neg_binomial(1.0, 1.0)
        with pytest.raises(DomainError):
            dists.gaussian(0.0, 0.0)
        with pytest.raises(DomainError):
            dists.mixture([])

    def test_mixture_members_must_share_kind(self):
        with pytest.raises(DomainError):
            dists.mixture([dists.poisson(1.0), dists.gaussian(0.0, 1.0)])

    def test_mixture_of_mixtures_rejected(self):
        inner = dists.mixture([dists.poisson(1.0), dists.poisson(2.0)])
        with pytest.raises(DomainError):
            dists.mixture([inner])

    def test_mixture_members_are_single_rows(self):
        with pytest.raises(DomainError):
            dists.mixture([dists.PredictiveBatch(dists.POISSON, ([1.0, 2.0],))])

    def test_domain_messages_name_the_parameter(self):
        cases = [
            (lambda: dists.double_poisson(0.0, 1.0), "mu must be finite and positive, got 0.0"),
            (lambda: dists.double_poisson(1.0, np.nan), "gamma must be finite and positive"),
            (lambda: dists.poisson(-2.0), "lam must be finite and positive, got -2.0"),
            (lambda: dists.neg_binomial(np.inf, 0.5), "r must be finite and positive"),
            (lambda: dists.neg_binomial(1.0, 1.0), r"p must lie in \(0, 1\), got 1.0"),
            (lambda: dists.gaussian(np.inf, 1.0), "mu must be finite, got inf"),
            (lambda: dists.gaussian(0.0, 0.0), "sigma2 must be finite and positive"),
            # the first bad element is reported, by its first bad parameter
            (lambda: dists.PredictiveBatch(dists.DOUBLE_POISSON, ([1.0, -1.0, 2.0],
                                                                  [1.0, -3.0, -4.0])),
             "mu must be finite and positive, got -1.0"),
        ]
        for make, message in cases:
            with pytest.raises(DomainError, match=message):
                make()

    def test_gaussian_has_no_pmf_vector(self):
        with pytest.raises(DomainError):
            dists.pmf_vector(dists.gaussian(0.0, 1.0))


class TestNumpyKernels:
    """log h and the Double Poisson log weights against mpmath."""

    @pytest.mark.parametrize("bad", [1.5, -1.0, np.nan, np.inf])
    def test_log_weights_take_counts_only(self, bad):
        ys = np.array([0.0, 1.0, bad])
        with pytest.raises(DomainError, match="nonnegative integers"):
            dists.dp_log_weight(2.0, 1.0, ys)
        with pytest.raises(DomainError, match="nonnegative integers"):
            dists.dp_log_h(ys)

    def test_log_h_past_the_table(self):
        mp = pytest.importorskip("mpmath")
        ys = np.concatenate([np.arange(40.0), [100.0, 1e4, 65535.0, 2.0**21, 1e9]])
        with mp.workdps(40):
            want = np.array([float(mp_log_weight(mp, 1.0, 0.0, int(y))) for y in ys])
        got = dists.dp_log_h(ys)
        assert np.array_equal(got[:16], want[:16])  # the table is correctly rounded
        assert_allclose(got, want, rtol=0.0, atol=4e-15)

    def test_log_h_decreases(self):
        """The series engine's peak bound takes log h(lo) as the largest log h
        of a block lo..hi-1."""
        assert np.all(np.diff(dists.dp_log_h(np.arange(dists.MAX_TERMS + 1.0))) < 0.0)

    @settings(max_examples=120, deadline=None)
    @given(log_mu=st.floats(math.log(1e-300), math.log(6e4)),
           log_gamma=st.floats(math.log(1e-3), math.log(1e8)))
    @example(log_mu=math.log(1e4), log_gamma=0.0)
    @example(log_mu=math.log(3e4), log_gamma=math.log(50.0))
    @example(log_mu=math.log(1000.0), log_gamma=math.log(1000.0))
    @example(log_mu=math.log(6e4), log_gamma=math.log(1e-3))
    def test_log_weights_match_mpmath(self, log_mu, log_gamma):
        """dp_log_weight within 1e-13 of 40-digit mpmath over mu +- 8 sd, and
        the Poisson PMF, DP(lam, 1), over lam +- 8 sd."""
        mp = pytest.importorskip("mpmath")
        mu, gamma = math.exp(log_mu), math.exp(log_gamma)
        for g in (gamma, 1.0):
            sd = math.sqrt(mu / g)
            ys = np.unique(np.maximum(0.0, np.rint(mu + sd * np.linspace(-8.0, 8.0, 33))))
            ys = ys[np.abs(ys - mu) <= 8.0 * sd]
            with mp.workdps(40):
                want = np.array([float(mp_log_weight(mp, mu, g, int(y))) for y in ys])
            if g == 1.0:
                got = np.log([dists.dist_pmf(dists.poisson(mu), y) for y in ys])
            else:
                got = dists.dp_log_weight(mu, g, ys)
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-13, (mu, g)
