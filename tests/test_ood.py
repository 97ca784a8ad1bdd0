"""Quantile-threshold OOD protocol: thresholds, sweeps, and aggregation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ddpnkit import ensemble, metrics, network, ood
from ddpnkit.errors import DomainError, ShapeError
from ddpnkit.losses import LossSpec


def variance_ramp_member(log_mu=np.log(5.0), gamma_slope=-1.0, seed=0):
    """GLM member whose predictive variance grows with x: variance =
    mu * exp(-gamma_slope * x) for standardized x."""
    spec = LossSpec("double_poisson")
    cfg = network.MLPConfig(input_dim=1, hidden_widths=(), head_count=2, seed=seed)
    w = network.init_mlp(cfg)
    w.head_w[:] = 0.0
    w.head_w[1, 0] = gamma_slope
    w.head_b[0] = log_mu
    w.head_b[1] = 0.0
    return w, spec


def ramp_ensemble():
    return ensemble.Ensemble((
        variance_ramp_member(np.log(5.0)),
        variance_ramp_member(np.log(6.0)),
    ))


class TestFitThreshold:
    def test_quantile_endpoints_and_interpolation(self):
        scores = [1.0, 2.0, 3.0, 4.0]
        assert ood.fit_threshold(scores, 0.0) == 4.0
        assert ood.fit_threshold(scores, 1.0) == 1.0
        assert_allclose(ood.fit_threshold(scores, 0.5), 2.5, rtol=1e-14)

    def test_monotone_nonincreasing_in_alpha(self):
        rng = np.random.default_rng(0)
        scores = rng.gamma(2.0, 3.0, 200)
        alphas = np.linspace(0.0, 1.0, 41)
        taus = [ood.fit_threshold(scores, a) for a in alphas]
        assert all(a >= b for a, b in zip(taus, taus[1:]))

    def test_validation(self):
        with pytest.raises(ShapeError):
            ood.fit_threshold([], 0.5)
        with pytest.raises(DomainError):
            ood.fit_threshold([1.0], 1.5)


class TestSweep:
    def test_matches_scalar_thresholds_and_counts(self):
        """One vector quantile call per repeat gives fit_threshold's taus bit
        for bit, and the binary-search counts equal the direct comparisons."""
        rng = np.random.default_rng(8)
        alphas = np.linspace(0.0, 1.0, 1001)
        for _ in range(50):
            holdout = rng.gamma(2.0, 3.0, int(rng.integers(1, 120)))
            id_scores = np.round(rng.gamma(2.0, 3.0, 80), 1)
            ood_scores = np.concatenate([rng.gamma(3.0, 3.0, 60), holdout[:5]])
            points = ood.sweep_operating_points(holdout, id_scores, ood_scores, alphas)
            for alpha, p in zip(alphas, points):
                tau = ood.fit_threshold(holdout, alpha)
                assert p.tau == tau
                assert p.fpr == float(np.sum(id_scores > tau)) / id_scores.size
                assert p.tpr == float(np.sum(ood_scores > tau)) / ood_scores.size

    def test_hand_counted_operating_point(self):
        holdout = np.arange(1.0, 11.0)  # quantile(0.8) = 8.2
        points = ood.sweep_operating_points(holdout, [5.0, 9.0], [8.5, 20.0], [0.2])
        p = points[0]
        assert_allclose(p.tau, 8.2, rtol=1e-12)
        assert p.fpr == 0.5
        assert p.tpr == 1.0
        assert_allclose(p.precision, 2.0 / 3.0, rtol=1e-12)

    def test_strict_inequality_at_threshold(self):
        # a score exactly at tau is not flagged
        points = ood.sweep_operating_points([0.0, 10.0], [10.0], [10.0], [0.0])
        assert points[0].fpr == 0.0
        assert points[0].tpr == 0.0
        assert points[0].precision == 1.0  # nothing flagged at all

    def test_infinite_holdout_scores_give_infinite_thresholds(self):
        """Interpolating toward a +inf score reaches +inf (numpy's quantile
        gives nan there), above which nothing is flagged."""
        points = ood.sweep_operating_points([1.0, 2.0, np.inf, np.inf], [1.5, np.inf],
                                            [np.inf, 3.0], [0.0, 0.4, 0.5, 1.0])
        assert [p.tau for p in points] == [np.inf, np.inf, np.inf, 1.0]
        assert [p.tpr for p in points] == [0.0, 0.0, 0.0, 1.0]

    def test_alpha_one_flags_everything_above_min(self):
        points = ood.sweep_operating_points([2.0, 4.0], [3.0, 1.0], [5.0], [1.0])
        assert points[0].tpr == 1.0
        assert points[0].fpr == 0.5  # only the 3.0 exceeds tau = 2.0


class TestCurveFromPoints:
    def test_sweep_agrees_with_rank_statistics(self):
        """The quantile sweep traces the same ROC that direct score ranking
        gives, up to grid resolution."""
        rng = np.random.default_rng(1)
        for trial in range(5):
            id_all = rng.normal(0.0, 1.0, 600)
            ood_scores = rng.normal(1.5, 1.0, 300)
            holdout, id_eval = id_all[:200], id_all[200:]
            points = ood.sweep_operating_points(
                holdout, id_eval, ood_scores, np.linspace(0.0, 1.0, 101))
            sweep_auroc, sweep_aupr, sweep_fpr80 = ood.curve_metrics_from_points(points)
            rank_auroc, rank_aupr, rank_fpr80 = metrics.ood_curve_metrics(
                metrics.OODScores(id_scores=id_eval, ood_scores=ood_scores))
            assert abs(sweep_auroc - rank_auroc) < 0.01
            assert abs(sweep_aupr - rank_aupr) < 0.02
            assert abs(sweep_fpr80 - rank_fpr80) < 0.05

    def test_separated_scores_give_perfect_curve(self):
        holdout = np.linspace(0.0, 1.0, 50)
        id_eval = np.linspace(0.0, 1.0, 50)
        ood_scores = np.linspace(5.0, 6.0, 50)
        points = ood.sweep_operating_points(
            holdout, id_eval, ood_scores, np.linspace(0.0, 1.0, 101))
        auroc, aupr, fpr80 = ood.curve_metrics_from_points(points)
        assert auroc > 0.999
        assert aupr > 0.999
        assert fpr80 == 0.0


class TestRunProtocol:
    def test_detects_variance_ramp(self):
        ens = ramp_ensemble()
        rng = np.random.default_rng(2)
        id_xs = rng.uniform(0.0, 1.0, 300)[:, None]
        ood_xs = rng.uniform(3.0, 4.0, 150)[:, None]
        config = ood.OODProtocolConfig(n_repeats=4, seed=7)
        report = ood.run_ood_eval(ens, id_xs, ood_xs, config)
        # score ranking is perfect; the sweep concedes a sliver of ROC area
        # because no threshold can sit above the holdout maximum
        rank_auroc, _, _ = metrics.ood_curve_metrics(metrics.OODScores(
            id_scores=ensemble.variance_scores(ens, id_xs),
            ood_scores=ensemble.variance_scores(ens, ood_xs)))
        assert rank_auroc == 1.0
        assert report.auroc[0] > 0.95
        assert report.n_repeats == 4
        assert len(report.per_repeat) == 4
        assert len(report.operating_points) == 4
        assert report.auroc[1] >= 0.0

    def test_deterministic_per_seed(self):
        ens = ramp_ensemble()
        rng = np.random.default_rng(3)
        id_xs = rng.uniform(0.0, 1.5, 100)[:, None]
        ood_xs = rng.uniform(1.0, 3.0, 60)[:, None]
        config = ood.OODProtocolConfig(n_repeats=3, seed=11)
        a = ood.run_ood_eval(ens, id_xs, ood_xs, config)
        b = ood.run_ood_eval(ens, id_xs, ood_xs, config)
        assert a.per_repeat == b.per_repeat
        assert a.auroc == b.auroc

    def test_holdout_resamples_move_the_thresholds(self):
        ens = ramp_ensemble()
        rng = np.random.default_rng(4)
        id_xs = rng.uniform(0.0, 2.0, 120)[:, None]
        ood_xs = rng.uniform(1.5, 3.5, 60)[:, None]
        config = ood.OODProtocolConfig(n_repeats=2, seed=0)
        report = ood.run_ood_eval(ens, id_xs, ood_xs, config)
        taus_a = [p.tau for p in report.operating_points[0]]
        taus_b = [p.tau for p in report.operating_points[1]]
        assert taus_a != taus_b

    def test_degenerate_holdout_rejected(self):
        ens = ramp_ensemble()
        config = ood.OODProtocolConfig(holdout_fraction=0.2, n_repeats=1)
        with pytest.raises(DomainError):
            ood.run_ood_eval(ens, np.zeros((2, 1)), np.ones((5, 1)), config)

    def test_identical_populations_are_indistinguishable(self):
        ens = ramp_ensemble()
        rng = np.random.default_rng(6)
        id_xs = rng.uniform(0.0, 2.0, 400)[:, None]
        ood_xs = rng.uniform(0.0, 2.0, 200)[:, None]
        report = ood.run_ood_eval(ens, id_xs, ood_xs,
                                  ood.OODProtocolConfig(n_repeats=5, seed=1))
        assert abs(report.auroc[0] - 0.5) < 0.1

    def test_single_repeat_has_zero_std(self):
        ens = ramp_ensemble()
        rng = np.random.default_rng(8)
        id_xs = rng.uniform(0.0, 1.0, 100)[:, None]
        ood_xs = rng.uniform(2.0, 3.0, 50)[:, None]
        report = ood.run_ood_eval(ens, id_xs, ood_xs,
                                  ood.OODProtocolConfig(n_repeats=1))
        assert report.auroc[1] == 0.0
        assert report.aupr[1] == 0.0
        assert report.fpr80[1] == 0.0

    def test_empty_ood_set_rejected(self):
        ens = ramp_ensemble()
        with pytest.raises(DomainError):
            ood.run_ood_eval(ens, np.zeros((50, 1)), np.zeros((0, 1)))

    def test_json_payload_shape(self):
        report = ood.OODReport(auroc=(0.9, 0.01), aupr=(0.8, 0.02),
                               fpr80=(0.1, 0.0), n_repeats=3)
        payload = report.to_json_dict()
        assert payload["auroc"] == {"mean": 0.9, "std": 0.01}
        assert payload["n_repeats"] == 3
        assert set(payload) == {"auroc", "aupr", "fpr80", "n_repeats"}


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(DomainError):
            ood.OODProtocolConfig(holdout_fraction=0.0)
        with pytest.raises(DomainError):
            ood.OODProtocolConfig(n_repeats=0)
        with pytest.raises(DomainError):
            ood.OODProtocolConfig(alphas=(0.5,))
        with pytest.raises(DomainError):
            ood.OODProtocolConfig(alphas=(0.0, 1.5))
