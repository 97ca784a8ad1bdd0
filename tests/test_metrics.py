"""Calibration metrics (MAE, CRPS, median precision) and detection curves.

CRPS implementations are checked against brute-force integrals of the
squared CDF gap and against Monte Carlo evaluation of the kernel identity
E|X - y| - E|X - X'|/2. Ranking metrics are checked against O(n^2) scans.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import norm

from ddpnkit import distributions as dists
from ddpnkit import metrics
from ddpnkit.errors import DomainError, ShapeError


def crps_integral_discrete(pmf, y, extra=200):
    """Direct sum of (F(k) - 1{k >= y})^2 over unit intervals, no tolerance."""
    cdf = np.cumsum(pmf)
    total = 0.0
    for k in range(cdf.size + extra):
        f = cdf[k] if k < cdf.size else 1.0
        total += (f - (1.0 if k >= y else 0.0)) ** 2
    return total


def crps_integral_continuous(cdf_vec, y, lo, hi, n=200_001):
    """Trapezoid integral of the squared CDF gap, split at the label so the
    indicator jump never sits inside a panel."""
    left = np.linspace(lo, y, n)
    right = np.linspace(y, hi, n)
    below = float(np.trapezoid(cdf_vec(left) ** 2, left))
    above = float(np.trapezoid((cdf_vec(right) - 1.0) ** 2, right))
    return below + above


class TestDiscreteCrps:
    def test_point_mass_gives_absolute_error(self):
        for k in (0, 3, 7):
            pmf = np.zeros(10)
            pmf[k] = 1.0
            for y in (0, 2, 9):
                assert_allclose(metrics.crps_from_pmf(pmf, y), abs(k - y), atol=1e-12)

    def test_label_beyond_support(self):
        pmf = np.array([0.0, 0.0, 1.0])
        assert_allclose(metrics.crps_from_pmf(pmf, 7), 5.0, atol=1e-12)

    def test_matches_untruncated_integral(self):
        rng = np.random.default_rng(0)
        for _ in range(15):
            d = dists.double_poisson(float(rng.uniform(0.5, 20.0)),
                                     float(rng.uniform(0.2, 4.0)))
            pmf = dists.pmf_vector(d)
            y = int(rng.integers(0, 30))
            assert_allclose(metrics.crps_from_pmf(pmf, y),
                            crps_integral_discrete(pmf, y), rtol=1e-9, atol=1e-10)

    def test_matches_monte_carlo_kernel_identity(self):
        d = dists.double_poisson(6.0, 0.7)
        y = 9
        draws = dists.dist_sample(d, np.random.default_rng(3), 400_000)
        a, b = draws[:200_000], draws[200_000:]
        mc = np.abs(a - y).mean() - 0.5 * np.abs(a - b).mean()
        exact = metrics.crps_from_pmf(dists.pmf_vector(d), y)
        assert abs(mc - exact) < 0.02

    def test_dispatch_on_distribution(self):
        d = dists.poisson(3.0)
        direct = metrics.crps_from_pmf(dists.pmf_vector(d), 4)
        assert_allclose(metrics.crps(d, 4.0), direct, rtol=1e-12)
        with pytest.raises(DomainError):
            metrics.crps(d, 3.5)
        with pytest.raises(DomainError):
            metrics.crps_from_pmf(dists.pmf_vector(d), -1)

    @pytest.mark.parametrize("label", [math.nan, math.inf, -math.inf, 2.5])
    @pytest.mark.parametrize("score", [
        lambda y: metrics.crps(dists.poisson(2.0), y),
        lambda y: metrics.crps_from_pmf(dists.pmf_vector(dists.poisson(2.0)), y),
        lambda y: metrics.evaluate(dists.PredictiveBatch(dists.POISSON, ([2.0, 3.0],)), [1, y]),
    ], ids=["crps", "crps_from_pmf", "evaluate"])
    def test_rejects_labels_that_are_not_counts(self, score, label):
        with pytest.raises(DomainError, match="nonnegative integer"):
            score(label)

    def test_huge_label_is_scored_as_a_float(self):
        """Every CDF value past the support is 1, so a huge label scores about itself."""
        d = dists.poisson(2.0)
        assert_allclose(metrics.crps(d, 1e300), 1e300, rtol=1e-15)
        assert_allclose(metrics.crps_from_pmf(dists.pmf_vector(d), 1e300), 1e300, rtol=1e-15)

    def test_sharper_correct_prediction_scores_better(self):
        y = 12
        tight = metrics.crps(dists.double_poisson(12.0, 4.0), y)
        loose = metrics.crps(dists.double_poisson(12.0, 0.25), y)
        assert tight < loose


def gaussian_crps_closed_form(mu, s2, y):
    """CRPS of N(mu, s2) at y: s * (u * (2 Phi(u) - 1) + 2 phi(u) - 1/sqrt(pi))."""
    s = math.sqrt(s2)
    u = (y - mu) / s
    return s * (u * (2.0 * norm.cdf(u) - 1.0) + 2.0 * norm.pdf(u) - 1.0 / math.sqrt(math.pi))


class TestGaussianCrps:
    def test_closed_form_matches_integral(self):
        for mu, s2, y in ((0.0, 1.0, 0.5), (3.0, 4.0, -1.0), (10.0, 0.25, 10.0)):
            s = math.sqrt(s2)
            ref = crps_integral_continuous(
                lambda z: norm.cdf(z, mu, s), y, mu - 12 * s, mu + 12 * s)
            assert_allclose(metrics.crps(dists.gaussian(mu, s2), y), ref, rtol=1e-7, atol=1e-9)

    def test_zero_width_limit_behaves_like_absolute_error(self):
        assert_allclose(metrics.crps(dists.gaussian(2.0, 1e-12), 5.0), 3.0, atol=1e-5)

    def test_dispatch(self):
        d = dists.gaussian(1.0, 2.0)
        assert_allclose(metrics.crps(d, 0.3),
                        gaussian_crps_closed_form(1.0, 2.0, 0.3), rtol=1e-14)


class TestGaussianMixtureCrps:
    def test_kernel_identity_matches_integral(self):
        comp = [dists.gaussian(0.0, 1.0), dists.gaussian(5.0, 4.0)]
        mix = dists.mixture(comp)
        y = 2.0

        def cdf_vec(z):
            return 0.5 * (norm.cdf(z, 0.0, 1.0) + norm.cdf(z, 5.0, 2.0))

        sampled = np.array([dists.dist_cdf(mix, z) for z in (-1.0, 2.0, 6.5)])
        assert_allclose(sampled, cdf_vec(np.array([-1.0, 2.0, 6.5])), rtol=1e-12)
        ref = crps_integral_continuous(cdf_vec, y, -15.0, 30.0)
        assert_allclose(metrics.crps(mix, y), ref, rtol=1e-6, atol=1e-8)

    def test_single_component_reduces_to_gaussian(self):
        mix = dists.mixture([dists.gaussian(1.5, 2.5)])
        assert_allclose(metrics.crps(mix, 0.0),
                        gaussian_crps_closed_form(1.5, 2.5, 0.0), rtol=1e-12)


class TestMae:
    def test_mode_based_with_tie_break(self):
        # Poisson(2) has tied modes at 1 and 2 and must report 1
        preds = dists.PredictiveBatch(dists.POISSON, ([2.0, 6.0],))
        got = metrics.mae(preds, [1.0, 8.0])
        mode6 = float(np.argmax(dists.pmf_vector(dists.poisson(6.0))))
        assert_allclose(got, (0.0 + abs(8.0 - mode6)) / 2)

    def test_gaussian_uses_unrounded_mean(self):
        assert_allclose(metrics.mae(dists.gaussian(2.4, 1.0), [2.0]), 0.4, rtol=1e-12)

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            metrics.mae(dists.poisson(1.0), [1.0, 2.0])
        with pytest.raises(ShapeError):
            metrics.mae(dists.PredictiveBatch(dists.POISSON, (np.ones((1, 0)),)), [])


class TestLabelBoundary:
    """mae, crps and evaluate check every label before scoring: Gaussian rows
    take any finite label, the discrete families count labels."""

    GAUSS_ROWS = dists.PredictiveBatch(dists.GAUSSIAN, ([0.0, 1.0], [1.0, 2.0]))

    @pytest.mark.parametrize("label", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("score", [
        lambda y: metrics.crps(dists.gaussian(0.0, 1.0), y),
        lambda y: metrics.crps(dists.mixture([dists.gaussian(0.0, 1.0),
                                              dists.gaussian(3.0, 2.0)]), y),
        lambda y: metrics.evaluate(TestLabelBoundary.GAUSS_ROWS, [1.0, y]),
        lambda y: metrics.mae(TestLabelBoundary.GAUSS_ROWS, [y, 1.0]),
    ], ids=["crps", "crps_mixture", "evaluate", "mae"])
    def test_gaussian_rejects_non_finite_labels(self, score, label):
        with pytest.raises(DomainError, match="finite"):
            score(label)

    @pytest.mark.parametrize("label", [math.nan, math.inf, -math.inf, -1.0, 2.5])
    def test_discrete_mae_rejects_labels_that_are_not_counts(self, label):
        with pytest.raises(DomainError, match="nonnegative integer"):
            metrics.mae(dists.poisson(2.0), [label])
        with pytest.raises(DomainError, match="nonnegative integer"):
            metrics.mae(dists.PredictiveBatch(dists.POISSON, ([2.0, 3.0],)), [1.0, label])

    def test_gaussian_scores_negative_and_fractional_labels(self):
        y = -1.25
        assert_allclose(metrics.crps(dists.gaussian(0.5, 2.0), y),
                        gaussian_crps_closed_form(0.5, 2.0, y), rtol=1e-12)
        assert metrics.mae(self.GAUSS_ROWS, [-1.0, 2.5]) == 1.25
        rec = metrics.evaluate(self.GAUSS_ROWS, [-1.0, 2.5])
        assert rec.mae == 1.25 and np.all(np.isfinite(rec.crps_values))


class TestMedianPrecision:
    def test_reciprocal_median(self):
        assert metrics.median_precision([0.5, 2.0, 8.0]) == 0.5

    def test_validation(self):
        with pytest.raises(DomainError):
            metrics.median_precision([1.0, -1.0])
        with pytest.raises(DomainError):
            metrics.median_precision([1.0, float("nan")])
        with pytest.raises(ShapeError):
            metrics.median_precision([])


def pairwise_auroc(ood, id_):
    wins = 0.0
    for a in ood:
        for b in id_:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(ood) * len(id_))


def grouped_pr_points(ood, id_):
    scores = np.concatenate([ood, id_])
    labels = np.concatenate([np.ones(len(ood)), np.zeros(len(id_))])
    points = []
    for tau in sorted(set(scores), reverse=True):
        flagged = scores >= tau
        tp = float(np.sum(labels[flagged]))
        fp = float(np.sum(flagged) - tp)
        points.append((tp / len(ood), tp / (tp + fp), fp / len(id_)))
    return points


class TestDetectionCurves:
    def test_perfect_separation(self):
        s = metrics.OODScores(id_scores=[1.0, 2.0, 3.0], ood_scores=[4.0, 5.0, 6.0])
        assert metrics.ood_curve_metrics(s) == (1.0, 1.0, 0.0)

    def test_inverted_scores(self):
        s = metrics.OODScores(id_scores=[4.0, 5.0, 6.0], ood_scores=[1.0, 2.0, 3.0])
        auroc, _, _ = metrics.ood_curve_metrics(s)
        assert auroc == 0.0

    def test_constant_scores(self):
        s = metrics.OODScores(id_scores=np.ones(30), ood_scores=np.ones(10))
        auroc, aupr, fpr80 = metrics.ood_curve_metrics(s)
        assert_allclose(auroc, 0.5, rtol=1e-12)
        assert_allclose(aupr, 0.25, rtol=1e-12)  # prevalence 10/40
        assert_allclose(fpr80, 1.0, rtol=1e-12)

    def test_auroc_matches_pairwise_scan_with_ties(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            ood = rng.integers(0, 8, 25).astype(float)
            id_ = rng.integers(0, 8, 40).astype(float)
            s = metrics.OODScores(id_scores=id_, ood_scores=ood)
            auroc, _, _ = metrics.ood_curve_metrics(s)
            assert_allclose(auroc, pairwise_auroc(ood, id_), rtol=1e-12)

    def test_aupr_matches_threshold_scan(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            ood = rng.integers(0, 10, 20).astype(float)
            id_ = rng.integers(0, 10, 35).astype(float)
            s = metrics.OODScores(id_scores=id_, ood_scores=ood)
            _, aupr, _ = metrics.ood_curve_metrics(s)
            points = grouped_pr_points(ood, id_)
            ref = 0.0
            prev_recall = 0.0
            for recall, precision, _ in points:
                ref += (recall - prev_recall) * precision
                prev_recall = recall
            assert_allclose(aupr, ref, rtol=1e-12)

    def test_fpr80_hand_case(self):
        ood = np.array([9.0, 8.0, 7.0, 1.0, 0.5])
        id_ = np.array([6.0, 5.0, 0.4, 0.3])
        s = metrics.OODScores(id_scores=id_, ood_scores=ood)
        _, _, fpr80 = metrics.ood_curve_metrics(s)
        # recall hits 0.8 once threshold drops to 1.0, after both 6 and 5 flag
        assert_allclose(fpr80, 0.5, rtol=1e-12)

    def test_score_validation(self):
        with pytest.raises(ShapeError):
            metrics.OODScores(id_scores=[], ood_scores=[1.0])
        with pytest.raises(DomainError):
            metrics.OODScores(id_scores=[float("nan")], ood_scores=[1.0])


class TestEvaluate:
    def test_aggregates_are_consistent(self):
        """Each batch agrees with its rows scored one at a time."""
        cases = [
            (dists.PredictiveBatch(dists.POISSON, ([2.0, 7.0, 0.5],)), [1, 6, 0]),
            (dists.PredictiveBatch(dists.DOUBLE_POISSON, ([5.0, 3.0], [2.0, 0.5])), [5, 1]),
            (dists.PredictiveBatch(dists.GAUSSIAN, ([[1.0, 4.0], [3.0, 4.5]],
                                                    [[1.0, 2.0], [0.5, 2.0]])), [2, 4]),
        ]
        for preds, ys in cases:
            rows = [dists.PredictiveBatch(preds.kind, [p[:, i:i + 1] for p in preds.params])
                    for i in range(len(preds))]
            rec = metrics.evaluate(preds, ys)
            assert_allclose(rec.mae, metrics.mae(preds, ys), rtol=1e-13)
            assert_allclose(rec.crps_mean,
                            np.mean([metrics.crps(d, y) for d, y in zip(rows, ys)]), rtol=1e-13)
            own_vars = [dists.dist_moments(d)[1] for d in rows]
            assert_allclose(rec.median_precision, metrics.median_precision(own_vars),
                            rtol=1e-13)
            assert set(rec.summary()) == {"mae", "crps_mean", "median_precision"}

    def test_explicit_variances_override(self):
        preds = dists.PredictiveBatch(dists.POISSON, ([2.0, 4.0],))
        rec = metrics.evaluate(preds, [2, 4], variances=[1.0, 4.0])
        assert rec.median_precision == metrics.median_precision([1.0, 4.0])

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            metrics.evaluate(dists.poisson(1.0), [1, 2])
        with pytest.raises(ShapeError):
            metrics.evaluate(dists.PredictiveBatch(dists.POISSON, (np.ones((1, 0)),)), [])
        with pytest.raises(ShapeError):
            metrics.evaluate(dists.poisson(1.0), [1], variances=[1.0, 2.0])
