"""Distribution layer: normalizer, PMF/CDF, moments, mode, sampling.

Frozen reference values were computed with a 60-digit mpmath evaluation of
the defining series (4000 terms), independent of the library code.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import special, stats

from ddpnkit import distributions as dists
from ddpnkit import ensemble, metrics
from ddpnkit.errors import DomainError, NumericOverflow
from test_ensemble import const_moments

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


def exact_moments(batch):
    """Exact mean and variance of a one-row Double Poisson batch: its Efron
    approximations (mu, mu/gamma) plus the corrections of its series."""
    (mu,), (gamma,) = batch.params
    mean_corr, var_corr = batch.dp_corrections()
    return float(mu[0] + mean_corr[0, 0]), float(mu[0] / gamma[0] + var_corr[0, 0])


def pmf_of(dist):
    """The whole PMF of a one-row discrete batch, as the engine builds it."""
    (_, pmf), = dists._pmf_blocks(dist)
    return pmf[0]


def repeated(dist, n):
    """A one-row batch repeated as n rows."""
    return dists.PredictiveBatch(dist.kind, [np.repeat(p, n, axis=1) for p in dist.params])


def at_labels(dist, ys):
    """The summary of a one-row batch repeated once per label, read at the labels."""
    ys = np.asarray(ys, dtype=float)
    return dists.predictive_summary(repeated(dist, ys.size), ys)


def draws(dist, rng, n):
    """n draws from a one-row discrete batch: one uniform per repeated row."""
    return dists._inverse_cdf(repeated(dist, n), rng.random(n))


class TestPmf:
    def test_frozen_normalized_values(self):
        for (mu, gamma, y), expected in PMF_ORACLE.items():
            d = dists.double_poisson(mu, gamma)
            assert_allclose(dists.predictive_summary(d, [y]).pmf[0], expected, rtol=1e-12)

    def test_unnormalized_ratio_is_the_normalizer(self):
        """The c = 1 value that the training loss implicitly uses, over p(y)."""
        raw = math.sqrt(0.5) * math.exp(dists._dp_log_weight(3.0, 0.5, np.array([4.0]))[0])
        norm = dists.predictive_summary(dists.double_poisson(3.0, 0.5), [4.0]).pmf[0]
        assert_allclose(raw / norm, dists.dp_normalizer(3.0, 0.5), rtol=1e-12)

    def test_gamma_one_matches_poisson(self):
        ys = np.arange(30)
        ours = at_labels(dists.double_poisson(4.2, 1.0), ys).pmf
        assert_allclose(ours, stats.poisson.pmf(ys, 4.2), rtol=1e-10)

    def test_vector_sums_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            mu = float(rng.uniform(0.2, 30.0))
            gamma = float(rng.uniform(0.1, 5.0))
            p = pmf_of(dists.double_poisson(mu, gamma))
            assert p.min() >= 0.0
            assert_allclose(p.sum(), 1.0, rtol=1e-12)

    def test_off_support_is_zero(self):
        """Past the support p(y) reads 0 and F(y) 1, up to the count 1e300,
        which is compared as a float and never cast to an index."""
        for d in (dists.double_poisson(3.0, 0.5), dists.poisson(4.0),
                  dists.neg_binomial(4.0, 0.5)):
            width = pmf_of(d).size
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = at_labels(d, [width, 2.0 * width, 1e300])
            assert np.array_equal(got.pmf, [0.0, 0.0, 0.0])
            assert np.array_equal(got.cdf, [1.0, 1.0, 1.0])

    def test_mixture_is_component_average(self):
        a = dists.double_poisson(2.0, 1.5)
        b = dists.double_poisson(6.0, 0.7)
        mix = dists.mixture([a, b])
        ys = [0, 3, 9]
        expected = 0.5 * (at_labels(a, ys).pmf + at_labels(b, ys).pmf)
        assert_allclose(at_labels(mix, ys).pmf, expected, rtol=1e-12)


class TestCdf:
    def test_frozen_values(self):
        for (mu, gamma, k), expected in CDF_ORACLE.items():
            d = dists.double_poisson(mu, gamma)
            assert_allclose(dists.predictive_summary(d, [k]).cdf[0], expected, rtol=1e-12)

    def test_monotone_and_reaches_one(self):
        d = dists.double_poisson(3.0, 0.5)
        values = at_labels(d, range(0, 60)).cdf
        assert np.all(np.diff(values) >= -1e-15)
        assert_allclose(dists.predictive_summary(d, [10000]).cdf[0], 1.0, atol=1e-9)

    @pytest.mark.parametrize("make", [lambda: dists.double_poisson(3.0, 1.0),
                                      lambda: dists.neg_binomial(4.0, 0.5),
                                      lambda: dists.gaussian(3.0, 2.0)])
    def test_non_finite_points(self, make):
        """p(y) and F(y) are read at labels, and a nan or infinite label is a
        domain error for the discrete and Gaussian families alike."""
        d = make()
        for y in (-np.inf, np.inf, np.nan):
            with pytest.raises(DomainError):
                dists.predictive_summary(d, [y])

    def test_poisson_matches_scipy(self):
        ys = [0, 1, 5, 11]
        assert_allclose(at_labels(dists.poisson(2.0), ys).cdf, stats.poisson.cdf(ys, 2.0),
                        rtol=1e-12)


class TestMoments:
    def test_efron_approximation_reads_parameters(self):
        """Heads (log mu, log gamma) give the Efron moments (mu, mu/gamma) in log space."""
        assert const_moments(2.0, 0.5) == (math.exp(2.0), math.exp(1.5))

    def test_exact_series_frozen_values(self):
        for (mu, gamma), (mean, var) in SERIES_MOMENTS_ORACLE.items():
            got = exact_moments(dists.double_poisson(mu, gamma))
            assert_allclose(got, (mean, var), rtol=1e-10)

    @pytest.mark.parametrize("mu, gamma", [(1e4, 1.0), (3e4, 50.0)])
    def test_exact_series_match_mpmath_at_large_means(self, mu, gamma):
        """Log weights of rounding 1e-16 * y*log(y) would leave the variance
        off by about 1e-12 relative here."""
        got = exact_moments(dists.double_poisson(mu, gamma))
        assert_allclose(got, mp_moments(mu, gamma), rtol=1e-14, atol=0.0)

    def test_series_identities_match_brute_force(self):
        """The correction-series mean and variance equal the moments of the
        normalized truncated PMF."""
        rng = np.random.default_rng(11)
        for _ in range(25):
            mu = float(rng.uniform(0.5, 25.0))
            gamma = float(rng.uniform(0.15, 4.0))
            d = dists.double_poisson(mu, gamma)
            p = pmf_of(d)
            ys = np.arange(p.size)
            bf_mean = float(np.sum(p * ys))
            bf_var = float(np.sum(p * (ys - bf_mean) ** 2))
            assert_allclose(exact_moments(d), (bf_mean, bf_var), rtol=1e-9, atol=1e-9)

    def test_engine_runs_once_per_batch(self, monkeypatch):
        """The PMF supports and the exact moment corrections of a batch read
        one _series pass over its member cells, and give the bits of a fresh
        batch."""
        rng = np.random.default_rng(3)
        params = (rng.uniform(0.5, 30.0, (3, 40)), rng.uniform(0.3, 4.0, (3, 40)))
        fresh = dists.PredictiveBatch(dists.DOUBLE_POISSON, params)
        want = fresh.dp_corrections()
        calls = []
        series = dists._series
        monkeypatch.setattr(dists, "_series", lambda *args: calls.append(args[0]) or series(*args))
        batch = dists.PredictiveBatch(dists.DOUBLE_POISSON, params)
        dists.predictive_summary(batch, np.arange(40.0), (0.1, 0.9))
        batch.dp_corrections()
        got = batch.dp_corrections()
        assert calls == [dists.DOUBLE_POISSON]
        assert all(g.shape == (3, 40) and g.tobytes() == w.tobytes() for g, w in zip(got, want))

    def test_neg_binomial_closed_forms(self):
        """Heads log mean 12 and log alpha 1/4 are NB(r = 4, p = 1/4)."""
        mean, var = const_moments(np.log(12.0), np.log(0.25), family="neg_binomial")
        assert_allclose(mean, stats.nbinom.mean(4.0, 0.25), rtol=1e-12)
        assert_allclose(var, stats.nbinom.var(4.0, 0.25), rtol=1e-12)
        assert var > mean  # this family cannot be under-dispersed

    def test_mixture_matches_its_pmf_moments(self):
        heads = ensemble.MemberHeads(dists.POISSON, np.log([[[3.0]], [[9.0]]]))
        p = pmf_of(heads.batch)
        ys = np.arange(p.size)
        bf_mean = float(np.sum(p * ys))
        bf_var = float(np.sum(p * (ys - bf_mean) ** 2))
        dec = dists.decompose_variance(*heads.moments())
        assert_allclose(np.concatenate((dec.mean, dec.total)), (bf_mean, bf_var), rtol=1e-9)

    def test_corrections_are_double_poisson_only(self):
        with pytest.raises(DomainError, match="no Double Poisson moment corrections"):
            dists.poisson(2.0).dp_corrections()


class TestMode:
    def test_poisson_tie_breaks_toward_smallest(self):
        """Poisson(2) has equal mass at 1 and 2; the mode reports 1."""
        assert dists.predictive_summary(dists.poisson(2.0)).modes[0] == 1.0

    def test_integer_poisson_modes_follow_the_tie_rule(self):
        """Poisson(k) = DP(k, 1) has equal mass at k - 1 and k, and both
        report k - 1, alone and batched, whatever the rounding of the weights."""
        ks = np.arange(1.0, 61.0)
        for k in ks:
            assert dists.predictive_summary(dists.poisson(k)).modes[0] == k - 1
            assert dists.predictive_summary(dists.double_poisson(k, 1.0)).modes[0] == k - 1
        batches = (dists.PredictiveBatch(dists.POISSON, (ks,)),
                   dists.PredictiveBatch(dists.DOUBLE_POISSON, (ks, np.ones_like(ks))))
        for batch in batches:
            assert np.array_equal(dists.predictive_summary(batch).modes, ks - 1)

    def test_matches_argmax_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = dists.double_poisson(float(rng.uniform(0.5, 20)), float(rng.uniform(0.2, 4)))
            assert dists.predictive_summary(d).modes[0] == float(np.argmax(pmf_of(d)))
        # the mass of DP(1e5, 1) lies past the 65536-term cap
        with pytest.raises(NumericOverflow, match=r"mu=100000\.0, gamma=1\.0"):
            dists.predictive_summary(dists.double_poisson(1e5, 1.0))

    def test_gaussian_mode_is_unrounded_mean(self):
        assert dists.predictive_summary(dists.gaussian(3.7, 2.0)).modes[0] == 3.7


class TestQuantile:
    def test_discrete_definition(self):
        """Smallest z with CDF(z) >= q."""
        d = dists.poisson(4.0)
        for q in (0.025, 0.5, 0.975):
            z = dists.predictive_summary(d, levels=(q,)).quantiles[0, 0]
            assert dists.predictive_summary(d, [z]).cdf[0] >= q
            if z > 0:
                assert dists.predictive_summary(d, [z - 1]).cdf[0] < q
        with pytest.raises(NumericOverflow, match=r"mu=100000\.0, gamma=1\.0"):
            dists.predictive_summary(dists.double_poisson(1e5, 1.0), levels=(0.975,))

    def test_tiny_level(self):
        """The slack on q is relative, so levels far below 1e-12 still resolve."""
        d = dists.double_poisson(1000.0, 1.0)
        z = dists.predictive_summary(d, levels=(1e-13,)).quantiles[0, 0]
        assert z == 777
        assert stats.poisson.cdf(z - 1, 1000.0) < 1e-13 <= stats.poisson.cdf(z, 1000.0)

    def test_gaussian_quantile(self):
        z = dists.predictive_summary(dists.gaussian(1.0, 4.0), levels=(0.975,)).quantiles[0, 0]
        assert_allclose(z, 1.0 + 2.0 * stats.norm.ppf(0.975), rtol=1e-9)

    def test_gaussian_mixture_by_bisection(self):
        mix = dists.mixture([dists.gaussian(0.0, 1.0), dists.gaussian(4.0, 1.0)])
        z = dists.predictive_summary(mix, levels=(0.5,)).quantiles[0, 0]
        assert_allclose(dists.predictive_summary(mix, [z]).cdf[0], 0.5, atol=1e-9)

    @pytest.mark.parametrize("members", [1, 2, 5, 8])
    def test_bisection_stops_at_its_fixed_point(self, monkeypatch, members):
        """Gaussian quantiles equal those of 200 halvings bit for bit, from
        far fewer CDF evaluations; one member reads ndtri, and the rows
        include mixtures of equal members."""
        rng = np.random.default_rng(members)
        mu, sigma2 = random_params(dists.GAUSSIAN, members, 60, rng)
        mu[:, :10], sigma2[:, :10] = mu[0, :10], sigma2[0, :10]
        sd = np.sqrt(sigma2)
        calls = []
        cdf = dists._gaussian_cdf
        monkeypatch.setattr(dists, "_gaussian_cdf", lambda *a: calls.append(1) or cdf(*a))
        levels = (1e-6, 0.025, 0.5, 0.975)
        got = dists.predictive_summary(dists.PredictiveBatch(dists.GAUSSIAN, (mu, sigma2)),
                                       levels=levels).quantiles
        for q, row in zip(levels, got):
            if members == 1:
                want = mu[0] + sd[0] * special.ndtri(q)
            else:
                lo, hi = np.min(mu - 10.0 * sd, axis=0), np.max(mu + 10.0 * sd, axis=0)
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    below = cdf(mid, mu, sd) < q
                    lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
                want = 0.5 * (lo + hi)
            assert np.array_equal(row, want)
        assert (not calls) if members == 1 else len(calls) <= 70 * len(levels)


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
    """Modes, (q025, q975), CRPS, p(y) and F(y) per row of a mixture batch,
    from long untruncated PMFs and direct sums. The upper CRPS sum stops at
    its first term below 1e-12, as the metric is defined."""
    members, n = params[0].shape
    second = params[1] if len(params) > 1 else np.zeros_like(params[0])
    modes, quantiles, crps = np.zeros(n), np.zeros((2, n)), np.zeros(n)
    pmf, cdf_y = np.zeros(n), np.zeros(n)
    for i in range(n):
        a, b = params[0][:, i], second[:, i]
        if kind == dists.DOUBLE_POISSON:
            mean, var = a, a / b
        elif kind == dists.POISSON:
            mean, var = a, a
        else:  # negative binomial (r, p)
            mean = a * (1.0 - b) / b
            var = mean / b
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
        pmf[i], cdf_y[i] = mix[int(ys[i])], cdf[int(ys[i])]
    return modes, quantiles, crps, pmf, cdf_y


def random_params(kind, members, n, rng):
    if kind == dists.DOUBLE_POISSON:
        return (rng.uniform(0.5, 30.0, (members, n)), rng.uniform(0.3, 4.0, (members, n)))
    if kind == dists.POISSON:
        return (rng.uniform(0.5, 30.0, (members, n)),)
    if kind == dists.GAUSSIAN:
        return (rng.normal(10.0, 5.0, (members, n)), rng.uniform(0.5, 4.0, (members, n)))
    return (rng.uniform(3.0, 30.0, (members, n)), rng.uniform(0.4, 0.8, (members, n)))


class TestBatchEngine:
    """predictive_summary against oracle_summary: modes and quantiles equal,
    CRPS, p(y) and F(y) within rtol 1e-12 (p(y) also within the neglected
    tail, TAIL_TOL). The supports stop on a proven
    tail bound far below the CRPS tolerance, so the comparison checks the
    engine's block, mask and mixture arithmetic. Every row reads the same
    bits alone as in its batch."""

    LEVELS = (0.025, 0.975)

    def check(self, kind, params, rng):
        batch = dists.PredictiveBatch(kind, params)
        ys = rng.integers(0, 40, len(batch)).astype(float)
        got = dists.predictive_summary(batch, ys, self.LEVELS)
        modes, quantiles, crps, pmf, cdf = oracle_summary(kind, batch.params, ys)
        assert np.array_equal(got.modes, modes)
        assert np.array_equal(got.quantiles, quantiles)
        assert_allclose(got.crps, crps, rtol=1e-12)
        # a member's support leaves out a tail of mass below TAIL_TOL
        assert_allclose(got.pmf, pmf, rtol=1e-12, atol=dists.TAIL_TOL)
        assert_allclose(got.cdf, cdf, rtol=1e-12)
        self.check_rows_alone(batch, ys, got)
        return batch, ys, got

    def check_rows_alone(self, batch, ys, got):
        for i in range(len(batch)):
            alone = dists.PredictiveBatch(batch.kind, [p[:, i:i + 1] for p in batch.params])
            one = dists.predictive_summary(alone, ys[i:i + 1], self.LEVELS)
            assert one.modes[0] == got.modes[i]
            assert np.array_equal(one.quantiles[:, 0], got.quantiles[:, i])
            assert (one.crps[0], one.pmf[0], one.cdf[0]) == (got.crps[i], got.pmf[i], got.cdf[i])

    @pytest.mark.parametrize("kind", [dists.DOUBLE_POISSON, dists.POISSON, dists.NEG_BINOMIAL])
    @pytest.mark.parametrize("members", [1, 5])
    def test_matches_oracle(self, kind, members):
        rng = np.random.default_rng(members)
        self.check(kind, random_params(kind, members, 40, rng), rng)

    @pytest.mark.parametrize("kind", [dists.DOUBLE_POISSON, dists.POISSON, dists.NEG_BINOMIAL,
                                      dists.GAUSSIAN])
    @pytest.mark.parametrize("members", [1, 3, 5, 8, 10])
    def test_rows_score_as_alone_at_any_member_count(self, kind, members):
        """Modes, quantiles, CRPS, p(y) and F(y) of every family; at 8 or
        more members np.mean would sum a lone row in another order."""
        rng = np.random.default_rng(10 * members)
        batch = dists.PredictiveBatch(kind, random_params(kind, members, 100, rng))
        ys = rng.integers(0, 40, len(batch)).astype(float)
        self.check_rows_alone(batch, ys, dists.predictive_summary(batch, ys, self.LEVELS))

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
        support = batch._summed[2]
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
        support = batch._summed[2]
        width = support.reshape(shape).max(axis=0)
        assert width.min() == 32 and width.max() == 4096
        ys = np.rint(mean[0] * rng.uniform(0.5, 1.5, shape[1]))
        self.check_rows_alone(batch, ys, dists.predictive_summary(batch, ys, self.LEVELS))

    def test_more_rows_than_one_block(self):
        rng = np.random.default_rng(5)
        batch, _, _ = self.check(dists.DOUBLE_POISSON,
                                 random_params(dists.DOUBLE_POISSON, 5, 1200, rng), rng)
        assert len(list(dists._pmf_blocks(batch))) > 1

    def test_label_reads_match_scipy(self):
        """p(y) and F(y) of Poisson, negative binomial and Gaussian mixture
        rows against scipy.stats; a Gaussian row reads the same bits alone."""
        rng = np.random.default_rng(8)
        ys = rng.integers(0, 40, 50).astype(float)
        lam = rng.uniform(0.5, 30.0, 50)
        got = dists.predictive_summary(dists.PredictiveBatch(dists.POISSON, (lam,)), ys)
        assert_allclose(got.pmf, stats.poisson.pmf(ys, lam), rtol=1e-12,
                        atol=dists.TAIL_TOL)
        assert_allclose(got.cdf, stats.poisson.cdf(ys, lam), rtol=1e-12)
        r, p = rng.uniform(3.0, 30.0, 50), rng.uniform(0.4, 0.8, 50)
        got = dists.predictive_summary(dists.PredictiveBatch(dists.NEG_BINOMIAL, (r, p)), ys)
        assert_allclose(got.pmf, stats.nbinom.pmf(ys, r, p), rtol=1e-12,
                        atol=dists.TAIL_TOL)
        assert_allclose(got.cdf, stats.nbinom.cdf(ys, r, p), rtol=1e-12)
        mu, sigma2 = rng.normal(10.0, 5.0, (3, 50)), rng.uniform(0.5, 4.0, (3, 50))
        ys = rng.normal(10.0, 5.0, 50)
        batch = dists.PredictiveBatch(dists.GAUSSIAN, (mu, sigma2))
        got = dists.predictive_summary(batch, ys)
        sd = np.sqrt(sigma2)
        assert_allclose(got.pmf, np.mean(stats.norm.pdf(ys, mu, sd), axis=0), rtol=1e-12)
        assert_allclose(got.cdf, np.mean(stats.norm.cdf(ys, mu, sd), axis=0), rtol=1e-12)
        for i in range(len(batch)):
            one = dists.predictive_summary(
                dists.PredictiveBatch(dists.GAUSSIAN, (mu[:, i:i + 1], sigma2[:, i:i + 1])),
                ys[i:i + 1])
            assert (one.pmf[0], one.cdf[0]) == (got.pmf[i], got.cdf[i])

    def test_without_labels_reads_nothing_at_them(self):
        for batch in (dists.poisson(2.0), dists.gaussian(0.0, 1.0)):
            got = dists.predictive_summary(batch)
            assert got.crps is None and got.pmf is None and got.cdf is None

    def test_rejects_bad_rows(self):
        with pytest.raises(DomainError, match="gamma"):
            dists.PredictiveBatch(dists.DOUBLE_POISSON, ([[1.0, 2.0]], [[1.0, np.inf]]))
        with pytest.raises(DomainError):
            dists.predictive_summary(dists.PredictiveBatch(dists.POISSON, ([2.0],)), [1.5])


def reference_series(kind: str, m: float, second: float, n0: int):
    """(support, s0, s1, s2, sy, top) of one cell, DP(m, second) or
    NB(m, second), from direct sums of _dp_log_weight or the engine's negative
    binomial log PMF (whose gammaln differences can be 1e-12 from scipy's
    logpmf) over the whole support 0..N-1, each divided by exp(top), the
    largest weight, at every N = n0 * 2^k; N is the first whose last weight
    meets the stop rule w[N-1] * B(N) <= sum(w). None where the engine must
    refuse the cell (no convergence within MAX_TERMS terms)."""
    n = n0
    while True:
        bound = dists._tail_bound(kind, (np.array([m]), np.array([second])), n)
        ys = np.arange(float(n))
        if kind == dists.DOUBLE_POISSON:
            log_w = dists._dp_log_weight(m, second, ys)
        else:
            log_w = dists._log_weights(kind, (m, second), ys)
        w = np.exp(log_w - log_w.max())
        if w[-1] * bound[0] <= w.sum():
            d = ys - m
            return n, w.sum(), np.sum(w * d), np.sum(w * d * d), np.sum(w * ys), log_w.max()
        if n == dists.MAX_TERMS or m >= dists.MAX_TERMS:
            return None
        n = min(2 * n, dists.MAX_TERMS)


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


class TestSeriesEngine:
    """_series against direct sums: batches mixing runs of cells of one first
    parameter, split across blocks by a small BLOCK_CELLS, with cells of
    their own."""

    def check(self, kind, runs, block, n0):
        """Supports equal the reference's; sums agree to 1e-12 at one scale.
        A weight below e^-600 of its row's largest is summed as that: under
        65536^3 e^-600 < 1e-240 of a sum's scale, where the reference has 0."""
        m = np.array([m for m, seconds in runs for _ in seconds])
        second = np.array([x for _, seconds in runs for x in seconds])
        refs = [reference_series(kind, a, b, n0) for a, b in zip(m, second)]
        keep = np.array([r is not None for r in refs])
        assume(keep.any())
        m, second = m[keep], second[keep]
        want = np.array([r for r in refs if r is not None]).T
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dists, "BLOCK_CELLS", block)
            sums, shift, support = dists._series(kind, (m, second), str, n0)
        assert np.array_equal(support, want[0])
        s0 = sums[0]
        # log of the summed weights, of size gamma * bd0 where it is large
        assert_allclose(np.log(s0) + shift, np.log(want[1]) + want[5], rtol=1e-13, atol=1e-12)
        assert_allclose(sums[2] / s0, want[3] / want[1], rtol=1e-12, atol=1e-240)
        assert_allclose(sums[3] / s0, want[4] / want[1], rtol=1e-12, atol=1e-240)
        spread = np.sqrt(want[3] / want[1])
        assert np.all(np.abs(sums[1] / s0 - want[2] / want[1]) <= 1e-12 * (1.0 + spread) + 1e-240)

    @settings(max_examples=60, deadline=None)
    @given(runs=st.lists(st.tuples(
               st.one_of(log_uniform(1e-2, 2e4), st.integers(0, 2000).map(lambda k: k + 0.5)),
               st.lists(log_uniform(1e-4, 1e8), min_size=1, max_size=12)),
               min_size=1, max_size=6),
           block=st.sampled_from([64, 256, 1000, dists.BLOCK_CELLS]),
           n0=st.sampled_from([2, dists.PMF_N0, 100]))
    @example(runs=[(1e4, [1e8, 1e-4, 50.0]), (0.01, [1e8, 1e-4] * 6), (2.5, [1.0])],
             block=64, n0=dists.PMF_N0)
    def test_blocks_match_direct_sums(self, runs, block, n0):
        """Double Poisson: gamma up to 1e8 puts most weights of a block below
        e^-600 of its largest, and mu = 1e4 from a small first support moves
        the shift."""
        self.check(dists.DOUBLE_POISSON, runs, block, n0)

    @settings(max_examples=30, deadline=None)
    @given(runs=st.lists(st.tuples(
               st.one_of(log_uniform(1e-2, 1e3), st.integers(0, 200).map(lambda k: k + 0.5)),
               st.lists(st.floats(0.05, 0.95), min_size=1, max_size=6)),
               min_size=1, max_size=4),
           block=st.sampled_from([64, 1000, dists.BLOCK_CELLS]),
           n0=st.sampled_from([2, dists.PMF_N0]))
    @example(runs=[(0.01, [0.05, 0.95]), (500.0, [0.05, 0.5, 0.95])], block=64, n0=2)
    def test_neg_binomial_blocks_match_direct_sums(self, runs, block, n0):
        """Negative binomial (r, p), summed by the same kernel with h = 1 and
        one row of log weights per cell, whatever its r."""
        self.check(dists.NEG_BINOMIAL, runs, block, n0)


class TestSample:
    def test_deterministic_per_seed(self):
        d = dists.double_poisson(5.0, 0.8)
        a = draws(d, np.random.default_rng(42), 100)
        b = draws(d, np.random.default_rng(42), 100)
        assert np.array_equal(a, b)

    def test_empirical_moments_track_exact_series(self):
        d = dists.double_poisson(6.0, 0.5)
        got = draws(d, np.random.default_rng(1), 200_000)
        mean, var = exact_moments(d)
        assert abs(got.mean() - mean) < 0.05
        assert abs(got.var() - var) < 0.25


class TestOneRowBatches:
    def test_constructors_return_single_row_batches(self):
        for dist, kind in ((dists.double_poisson(2.0, 0.5), dists.DOUBLE_POISSON),
                           (dists.poisson(2.0), dists.POISSON),
                           (dists.neg_binomial(2.0, 0.5), dists.NEG_BINOMIAL),
                           (dists.gaussian(2.0, 0.5), dists.GAUSSIAN)):
            assert isinstance(dist, dists.PredictiveBatch)
            assert dist.kind == kind
            assert dist.shape == (1, 1)

    def test_parameters_are_read_only_copies(self):
        """A batch keeps its one engine result, so it holds read-only copies of
        its parameters: a later write to the caller's array changes nothing."""
        mu = np.array([[2.0, 40.0]])
        batch = dists.PredictiveBatch(dists.POISSON, (mu,))
        before = dists.predictive_summary(batch, [2.0, 40.0])
        mu *= 100.0
        after = dists.predictive_summary(batch, [2.0, 40.0])
        assert before.pmf.tobytes() == after.pmf.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            batch.params[0][0, 0] = 1.0

    def test_mixture_stacks_members(self):
        mix = dists.mixture([dists.double_poisson(2.0, 0.5), dists.double_poisson(4.0, 3.0)])
        assert mix.shape == (2, 1)
        assert_allclose(mix.params[0][:, 0], [2.0, 4.0])
        assert_allclose(mix.params[1][:, 0], [0.5, 3.0])


class TestMixtureVariance:
    """The mixture variance is summed about the mixture mean, so it survives
    member means that dwarf the member variances."""

    @pytest.mark.parametrize("members", [1, 3, 5, 8, 10])
    def test_columns_decompose_as_alone(self, members):
        """A column, as a one-column array or as 1-D floats, gives the bits
        it gives in a batch."""
        rng = np.random.default_rng(members)
        means = np.exp(rng.uniform(-3.0, 8.0, (members, 200)))
        variances = np.exp(rng.uniform(-3.0, 8.0, (members, 200)))
        batch = dists.decompose_variance(means, variances)
        fields = ("mean", "total", "aleatoric", "epistemic")
        for i in range(200):
            column = dists.decompose_variance(means[:, i:i + 1], variances[:, i:i + 1])
            floats = dists.decompose_variance(means[:, i].tolist(), variances[:, i].tolist())
            for name in fields:
                assert getattr(column, name)[0] == getattr(batch, name)[i]
                assert type(getattr(floats, name)) is float
                assert getattr(floats, name) == getattr(batch, name)[i]

    def test_close_large_means(self):
        dec = dists.decompose_variance([1e8, 1e8 + 1.0], [1e-3, 1e-3])
        assert dec.mean == 1e8 + 0.5
        assert_allclose(dec.total, 1e-3 + 0.25, rtol=1e-13)

    def test_equal_members_with_tiny_variance(self):
        dec = dists.decompose_variance([3000.0, 3000.0], [3000.0 / 3e9] * 2)
        assert dec.mean == 3000.0
        assert_allclose(dec.total, 3000.0 / 3e9, rtol=1e-15)

    def test_evaluate_on_close_large_gaussian_means(self):
        batch = dists.PredictiveBatch(dists.GAUSSIAN, ([[1e8], [1e8 + 1.0]], [[1e-3], [1e-3]]))
        total = dists.decompose_variance(*batch.params).total
        summary, _ = metrics.evaluate(batch, [1e8], total)
        assert_allclose(total, [0.251], rtol=1e-13)
        assert_allclose(summary["median_precision"], 1.0 / 0.251, rtol=1e-13)


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


class TestNumpyKernels:
    """log h and the Double Poisson log weights against mpmath."""

    def test_log_h_past_the_table(self):
        mp = pytest.importorskip("mpmath")
        ys = np.concatenate([np.arange(40.0), [100.0, 1e4, 65535.0, 2.0**21, 1e9]])
        with mp.workdps(40):
            want = np.array([float(mp_log_weight(mp, 1.0, 0.0, int(y))) for y in ys])
        got = dists._log_h(ys)
        assert np.array_equal(got[:16], want[:16])  # the table is correctly rounded
        assert_allclose(got, want, rtol=0.0, atol=4e-15)

    def test_log_h_decreases(self):
        """The series engine's peak bound takes log h(lo) as the largest log h
        of a block lo..hi-1."""
        assert np.all(np.diff(dists._log_h(np.arange(dists.MAX_TERMS + 1.0))) < 0.0)

    @settings(max_examples=120, deadline=None)
    @given(log_mu=st.floats(math.log(1e-300), math.log(6e4)),
           log_gamma=st.floats(math.log(1e-3), math.log(1e8)),
           low_counts=st.just(0))
    @example(log_mu=math.log(1e4), log_gamma=0.0, low_counts=0)
    @example(log_mu=math.log(3e4), log_gamma=math.log(50.0), low_counts=0)
    @example(log_mu=math.log(1000.0), log_gamma=math.log(1000.0), low_counts=0)
    @example(log_mu=math.log(6e4), log_gamma=math.log(1e-3), low_counts=0)
    @example(log_mu=math.log(1e-320), log_gamma=math.log(1e-3), low_counts=60)
    @example(log_mu=math.log(5e-324), log_gamma=math.log(1e-2), low_counts=60)
    def test_log_weights_match_mpmath(self, log_mu, log_gamma, low_counts):
        """_dp_log_weight within 1e-13 of 40-digit mpmath over mu +- 8 sd and at
        the counts 0..low_counts-1, and the Poisson PMF, DP(lam, 1), over lam
        +- 8 sd. The pinned subnormal means take r = mu/y below the normal
        range (to 0 at 5e-324) for every y >= 1."""
        mp = pytest.importorskip("mpmath")
        mu, gamma = math.exp(log_mu), math.exp(log_gamma)
        for g in (gamma, 1.0):
            sd = math.sqrt(mu / g)
            ys = np.unique(np.maximum(0.0, np.rint(mu + sd * np.linspace(-8.0, 8.0, 33))))
            ys = ys[np.abs(ys - mu) <= 8.0 * sd]
            if g != 1.0:
                ys = np.union1d(ys, np.arange(float(low_counts)))
            with mp.workdps(40):
                want = np.array([float(mp_log_weight(mp, mu, g, int(y))) for y in ys])
            if g == 1.0:
                got = np.log(at_labels(dists.poisson(mu), ys).pmf)
            else:
                got = dists._dp_log_weight(mu, g, ys)
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-13, (mu, g)
