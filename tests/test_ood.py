"""Quantile-threshold OOD protocol: thresholds, sweeps, and aggregation."""

import tracemalloc

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


def ramp_scores(xs):
    """The ramp ensemble's OOD scores at the rows of xs."""
    return ensemble.member_heads(ramp_ensemble(), xs).scores()


def fit_threshold(scores, alpha):
    """Scalar oracle of the sweep: the (1 - alpha) empirical quantile of the
    holdout scores with linear interpolation."""
    return float(np.quantile(np.asarray(scores, dtype=float), 1.0 - alpha, method="linear"))


def sweep_taus(holdout, alphas):
    return ood.sweep_operating_points(holdout, [0.0], [0.0], alphas)["tau"].tolist()


class TestFitThreshold:
    """The thresholds tau_alpha that sweep_operating_points fits on a holdout."""

    def test_quantile_endpoints_and_interpolation(self):
        taus = sweep_taus([1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.5])
        assert taus[:2] == [4.0, 1.0]
        assert_allclose(taus[2], 2.5, rtol=1e-14)

    def test_monotone_nonincreasing_in_alpha(self):
        rng = np.random.default_rng(0)
        scores = rng.gamma(2.0, 3.0, 200)
        taus = sweep_taus(scores, np.linspace(0.0, 1.0, 41))
        assert all(a >= b for a, b in zip(taus, taus[1:]))

    def test_validation(self):
        with pytest.raises(ShapeError, match="sweep_operating_points needs"):
            ood.sweep_operating_points([], [1.0], [1.0], [0.5])
        with pytest.raises(DomainError, match="alpha"):
            ood.sweep_operating_points([1.0], [1.0], [1.0], [1.5])
        for id_scores, ood_scores in (([], [1.0]), ([1.0], [])):
            with pytest.raises(ShapeError, match="sweep_operating_points needs"):
                ood.sweep_operating_points([1.0], id_scores, ood_scores, [0.5])


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
            sweep = ood.sweep_operating_points(holdout, id_scores, ood_scores, alphas)
            assert set(sweep) == {"alpha", "tau", "fpr", "tpr", "precision"}
            assert all(column.shape == alphas.shape for column in sweep.values())
            assert sweep["alpha"].tolist() == alphas.tolist()
            for i, alpha in enumerate(alphas):
                tau = fit_threshold(holdout, alpha)
                fp, tp = np.sum(id_scores > tau), np.sum(ood_scores > tau)
                assert sweep["tau"][i] == tau
                assert sweep["fpr"][i] == float(fp) / id_scores.size
                assert sweep["tpr"][i] == float(tp) / ood_scores.size
                assert sweep["precision"][i] == (tp / (fp + tp) if fp + tp else 1.0)

    def test_hand_counted_operating_point(self):
        holdout = np.arange(1.0, 11.0)  # quantile(0.8) = 8.2
        sweep = ood.sweep_operating_points(holdout, [5.0, 9.0], [8.5, 20.0], [0.2])
        assert_allclose(sweep["tau"], [8.2], rtol=1e-12)
        assert sweep["fpr"].tolist() == [0.5]
        assert sweep["tpr"].tolist() == [1.0]
        assert_allclose(sweep["precision"], [2.0 / 3.0], rtol=1e-12)

    def test_strict_inequality_at_threshold(self):
        # a score exactly at tau is not flagged
        sweep = ood.sweep_operating_points([0.0, 10.0], [10.0], [10.0], [0.0])
        assert sweep["fpr"].tolist() == [0.0]
        assert sweep["tpr"].tolist() == [0.0]
        assert sweep["precision"].tolist() == [1.0]  # nothing flagged at all

    def test_infinite_holdout_scores_give_infinite_thresholds(self):
        """Interpolating toward a +inf score reaches +inf (numpy's quantile
        gives nan there), above which nothing is flagged."""
        sweep = ood.sweep_operating_points([1.0, 2.0, np.inf, np.inf], [1.5, np.inf],
                                           [np.inf, 3.0], [0.0, 0.4, 0.5, 1.0])
        assert sweep["tau"].tolist() == [np.inf, np.inf, np.inf, 1.0]
        assert sweep["tpr"].tolist() == [0.0, 0.0, 0.0, 1.0]

    @pytest.mark.parametrize("holdout", [
        [3.0], [0.0, 0.0, 2.0], [1.0, 2.0, 2.0, 5.0, 1e300], [4.0, np.nan, 1.0],
        [np.inf, 1.0, 2.0], [np.nan, np.inf], np.random.default_rng(3).gamma(2.0, 3.0, 100)])
    def test_linear_rule_matches_numpy_quantile(self, holdout):
        """The written-out linear rule gives np.quantile's thresholds bit for
        bit, nan (a nan holdout score, or inf - inf) read as +inf."""
        alphas = np.linspace(0.0, 1.0, 1001)
        with np.errstate(invalid="ignore"):
            want = np.quantile(np.asarray(holdout, dtype=float), 1.0 - alphas, method="linear")
        want[np.isnan(want)] = np.inf
        assert np.asarray(sweep_taus(holdout, alphas)).tobytes() == want.tobytes()

    def test_alpha_one_flags_everything_above_min(self):
        sweep = ood.sweep_operating_points([2.0, 4.0], [3.0, 1.0], [5.0], [1.0])
        assert sweep["tpr"].tolist() == [1.0]
        assert sweep["fpr"].tolist() == [0.5]  # only the 3.0 exceeds tau = 2.0


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
        rng = np.random.default_rng(2)
        id_scores = ramp_scores(rng.uniform(0.0, 1.0, 300)[:, None])
        ood_scores = ramp_scores(rng.uniform(3.0, 4.0, 150)[:, None])
        config = ood.OODProtocolConfig(n_repeats=4, seed=7)
        report = ood.run_ood_eval(id_scores, ood_scores, config)
        # score ranking is perfect; the sweep concedes a sliver of ROC area
        # because no threshold can sit above the holdout maximum
        rank_auroc, _, _ = metrics.ood_curve_metrics(metrics.OODScores(
            id_scores=id_scores, ood_scores=ood_scores))
        assert rank_auroc == 1.0
        assert report.auroc[0] > 0.95
        assert report.n_repeats == 4
        assert report.auroc[1] >= 0.0

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        id_scores = ramp_scores(rng.uniform(0.0, 1.5, 100)[:, None])
        ood_scores = ramp_scores(rng.uniform(1.0, 3.0, 60)[:, None])
        config = ood.OODProtocolConfig(n_repeats=3, seed=11)
        a = ood.run_ood_eval(id_scores, ood_scores, config)
        b = ood.run_ood_eval(id_scores, ood_scores, config)
        assert a == b

    def test_holdout_resamples_move_the_thresholds(self, monkeypatch):
        rng = np.random.default_rng(4)
        id_scores = ramp_scores(rng.uniform(0.0, 2.0, 120)[:, None])
        ood_scores = ramp_scores(rng.uniform(1.5, 3.5, 60)[:, None])
        config = ood.OODProtocolConfig(n_repeats=2, seed=0)
        taus = []
        sweep = ood._sweep

        def recording(*args):
            points = sweep(*args)
            taus.append(points["tau"].tolist())
            return points

        monkeypatch.setattr(ood, "_sweep", recording)
        ood.run_ood_eval(id_scores, ood_scores, config)
        assert len(taus) == 2
        assert taus[0] != taus[1]

    def test_degenerate_holdout_rejected(self):
        config = ood.OODProtocolConfig(holdout_fraction=0.2, n_repeats=1)
        with pytest.raises(DomainError):
            ood.run_ood_eval(ramp_scores(np.zeros((2, 1))), ramp_scores(np.ones((5, 1))), config)

    def test_identical_populations_are_indistinguishable(self):
        rng = np.random.default_rng(6)
        id_scores = ramp_scores(rng.uniform(0.0, 2.0, 400)[:, None])
        ood_scores = ramp_scores(rng.uniform(0.0, 2.0, 200)[:, None])
        report = ood.run_ood_eval(id_scores, ood_scores,
                                  ood.OODProtocolConfig(n_repeats=5, seed=1))
        assert abs(report.auroc[0] - 0.5) < 0.1

    def test_single_repeat_has_zero_std(self):
        rng = np.random.default_rng(8)
        id_scores = ramp_scores(rng.uniform(0.0, 1.0, 100)[:, None])
        ood_scores = ramp_scores(rng.uniform(2.0, 3.0, 50)[:, None])
        report = ood.run_ood_eval(id_scores, ood_scores, ood.OODProtocolConfig(n_repeats=1))
        assert report.auroc[1] == 0.0
        assert report.aupr[1] == 0.0
        assert report.fpr80[1] == 0.0

    def test_empty_ood_set_rejected(self):
        with pytest.raises(DomainError):
            ood.run_ood_eval(ramp_scores(np.zeros((50, 1))), ramp_scores(np.zeros((0, 1))))

    def test_json_payload_shape(self):
        report = ood.OODReport(auroc=(0.9, 0.01), aupr=(0.8, 0.02),
                               fpr80=(0.1, 0.0), n_repeats=3)
        payload = report.to_json_dict()
        assert payload["auroc"] == {"mean": 0.9, "std": 0.01}
        assert payload["n_repeats"] == 3
        assert set(payload) == {"auroc", "aupr", "fpr80", "n_repeats"}


class TestFootprint:
    def test_run_ood_eval_peak_memory(self):
        """At the benchmark's sizes (a 5-member 128-128-128-64 ensemble, 500 ID
        and 1000 OOD rows, 20 repeats of 1001 alphas) the protocol holds one
        row block's activations and the last hidden layer's output, and each
        sweep as five columns: a traced peak of 1.06 MB, against 2.12 MB with
        whole-batch activations per layer and 5.9 MB when every layer's
        activations and one object per operating point were held."""
        spec = LossSpec("double_poisson")
        ens = ensemble.Ensemble(tuple(
            (network.init_mlp(network.MLPConfig(input_dim=1, seed=s)), spec)
            for s in range(5)))
        rng = np.random.default_rng(0)
        id_xs = rng.uniform(0.0, 10.0, 500)[:, None]
        ood_xs = rng.uniform(4.0 * np.pi, 6.0 * np.pi, 1000)[:, None]
        config = ood.OODProtocolConfig(n_repeats=20, alphas=np.linspace(0.0, 1.0, 1001))
        tracemalloc.start()
        try:
            report = ood.run_ood_eval(ensemble.member_heads(ens, id_xs).scores(),
                                      ensemble.member_heads(ens, ood_xs).scores(), config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n_repeats == 20
        assert peak < 1.5e6, f"traced peak {peak / 1e6:.2f} MB"


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
