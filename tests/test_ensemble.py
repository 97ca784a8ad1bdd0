"""Ensemble mixtures, uncertainty decomposition, and manifest I/O.

Members built here are zero-weight GLMs whose heads are pure biases, so
every predictive distribution is known in closed form.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from ddpnkit import distributions as dists
from ddpnkit import ensemble, network
from ddpnkit.errors import DomainError, NumericOverflow, ShapeError
from ddpnkit.losses import LossSpec


def const_member(log_mu, log_second=None, family="double_poisson", beta=0.0):
    spec = LossSpec(family, beta)
    w = network.init_mlp(1, (), spec.head_count, 0)
    head_w, head_b = w.layers[-1]
    head_w[:] = 0.0
    head_b[0] = log_mu
    if spec.head_count == 2:
        head_b[1] = log_second
    return w, spec


def const_moments(log_mu, log_second=None, family="double_poisson",
                  mode=ensemble.EFRON_APPROX):
    """(mean, variance) that MemberHeads.moments reads off a const_member's heads."""
    ens = ensemble.Ensemble((const_member(log_mu, log_second, family=family),))
    means, variances = ensemble.member_heads(ens, np.zeros((1, 1))).moments(mode)
    return float(means[0, 0]), float(variances[0, 0])


def dp_ensemble():
    # members predict (mu, gamma) = (2, 1) and (4, 2) everywhere
    return ensemble.Ensemble((
        const_member(np.log(2.0), np.log(1.0)),
        const_member(np.log(4.0), np.log(2.0)),
    ))


class TestMixtureMoments:
    def test_hand_computed_example(self):
        dec = ensemble.decompose_variance([2.0, 4.0], [2.0, 2.0])
        assert_allclose(dec.mean, 3.0, rtol=1e-14)
        assert_allclose(dec.total, 2.0 + 1.0, rtol=1e-14)  # aleatoric 2, mean spread 1

    def test_matches_mixture_pmf_moments(self):
        a = dists.poisson(3.0)
        b = dists.double_poisson(7.0, 2.0)
        moments = [const_moments(np.log(3.0), family="poisson"),
                   const_moments(np.log(7.0), np.log(2.0), mode=ensemble.EXACT_SERIES)]
        dec = ensemble.decompose_variance(*zip(*moments))
        mean, var = dec.mean, dec.total
        mix_pmfs = [pmf[0] for d in (a, b) for _, pmf in dists._pmf_blocks(d)]
        size = max(p.size for p in mix_pmfs)
        p = sum(np.pad(q, (0, size - q.size)) for q in mix_pmfs) / 2.0
        ys = np.arange(size)
        bf_mean = float(np.sum(p * ys))
        bf_var = float(np.sum(p * (ys - bf_mean) ** 2))
        assert_allclose((mean, var), (bf_mean, bf_var), rtol=1e-9)

    def test_vectorized_rows(self):
        means = np.array([[1.0, 2.0], [3.0, 6.0]])
        variances = np.ones((2, 2))
        dec = ensemble.decompose_variance(means, variances)
        mean, var = dec.mean, dec.total
        assert mean.shape == (2,)
        assert_allclose(mean, [2.0, 4.0])
        assert_allclose(var, [1.0 + 1.0, 1.0 + 4.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ensemble.decompose_variance([1.0], [1.0, 2.0])

    def test_agrees_with_decomposition_bit_for_bit(self):
        """The heads' scores are the decomposition's total of their moments,
        and its mean is the members' average, bit for bit."""
        rng = np.random.default_rng(2)
        means = rng.uniform(1.0, 1e8, (5, 60))
        variances = rng.uniform(1e-6, 10.0, (5, 60))
        heads = ensemble.MemberHeads("gaussian", np.log(np.stack((means, variances), axis=2)))
        member_means, member_vars = heads.moments()
        dec = ensemble.decompose_variance(member_means, member_vars)
        assert np.array_equal(heads.scores(), dec.total)
        assert np.array_equal(dec.mean, member_means.mean(axis=0))


class TestDecomposition:
    def test_additivity_and_parts(self):
        rng = np.random.default_rng(0)
        means = rng.uniform(1.0, 20.0, (5, 40))
        variances = rng.uniform(0.5, 8.0, (5, 40))
        dec = ensemble.decompose_variance(means, variances)
        assert_allclose(dec.total, dec.aleatoric + dec.epistemic, rtol=1e-13)
        assert_allclose(dec.aleatoric, variances.mean(axis=0), rtol=1e-13)
        assert_allclose(dec.epistemic, means.var(axis=0), rtol=1e-10, atol=1e-12)
        mix_var = np.mean(variances + means**2, axis=0) - means.mean(axis=0) ** 2
        assert_allclose(dec.total, mix_var, rtol=1e-10, atol=1e-10)

    def test_identical_members_have_no_epistemic_part(self):
        dec = ensemble.decompose_variance([3.0, 3.0, 3.0], [2.0, 2.0, 2.0])
        assert dec.epistemic == 0.0
        assert dec.aleatoric == 2.0

    def test_single_member(self):
        dec = ensemble.decompose_variance([5.0], [1.5])
        assert dec.epistemic == 0.0
        assert dec.total == 1.5

    def test_everything_nonnegative(self):
        rng = np.random.default_rng(1)
        means = rng.uniform(0.1, 30.0, (4, 100))
        variances = rng.uniform(0.01, 10.0, (4, 100))
        dec = ensemble.decompose_variance(means, variances)
        assert np.all(np.asarray(dec.epistemic) >= 0.0)
        assert np.all(np.asarray(dec.total) >= np.asarray(dec.aleatoric))

    def test_overflowed_means_give_inf_spread_not_nan(self):
        dec = ensemble.decompose_variance([[np.inf, 1.0, 1e200], [0.0, 2.0, 3e200]],
                                          np.ones((2, 3)))
        assert_allclose(dec.epistemic, [np.inf, 0.25, np.inf])
        assert_allclose(dec.total, [np.inf, 1.25, np.inf])


def member_distribution(w, spec, x):
    """The predictive distribution of a one-member ensemble at one input row."""
    batch = ensemble.member_heads(ensemble.Ensemble(((w, spec),)), x).batch
    assert batch.shape == (1, 1)
    return batch


class TestMemberDistributions:
    def test_neg_binomial_head_conversion(self):
        """Heads are (log mean, log dispersion); the distribution they induce
        must keep mean m and variance m(1 + alpha*m)."""
        m, alpha = 6.0, 0.5
        w, spec = const_member(np.log(m), np.log(alpha), family="neg_binomial")
        d = member_distribution(w, spec, np.array([[0.7]]))
        assert d.kind == dists.NEG_BINOMIAL
        r, p = (float(q[0, 0]) for q in d.params)
        assert_allclose(stats.nbinom.mean(r, p), m, rtol=1e-12)
        assert_allclose(stats.nbinom.var(r, p), m * (1.0 + alpha * m), rtol=1e-12)

    def test_double_poisson_and_poisson_heads(self):
        w, spec = const_member(np.log(3.0), np.log(0.5))
        d = member_distribution(w, spec, np.array([[0.0]]))
        assert d.kind == dists.DOUBLE_POISSON
        assert_allclose(np.concatenate(d.params)[:, 0], (3.0, 0.5), rtol=1e-12)
        w, spec = const_member(np.log(4.0), family="poisson")
        d = member_distribution(w, spec, np.array([[0.0]]))
        assert d.kind == dists.POISSON

    def test_gaussian_heads(self):
        w, spec = const_member(np.log(2.0), np.log(9.0), family="gaussian")
        d = member_distribution(w, spec, np.array([[0.0]]))
        assert_allclose(np.concatenate(d.params)[:, 0], (2.0, 9.0), rtol=1e-12)

    def test_heads_out_of_the_domain_are_numeric_overflow(self):
        """Heads whose parameters leave the family's domain raise
        NumericOverflow naming the first such row: alpha * mean = e^800
        overflows, so the negative binomial p = 1/(1 + alpha*mean) is 0."""
        ens = ensemble.Ensemble((const_member(400.0, 400.0, family="neg_binomial"),))
        with pytest.raises(NumericOverflow, match=r"p must lie in \(0, 1\), got 0.0 at row 0"):
            ensemble.member_heads(ens, np.zeros((2, 1))).batch


class TestMixturePredict:
    def test_pmf_is_member_average(self):
        ens = dp_ensemble()
        mix = ensemble.member_heads(ens, np.array([0.2])).batch
        assert mix.shape == (2, 1)
        comp = [dists.double_poisson(2.0, 1.0), dists.double_poisson(4.0, 2.0)]
        for y in (0, 2, 6):
            expected = 0.5 * sum(dists.predictive_summary(c, [y]).pmf[0] for c in comp)
            assert_allclose(dists.predictive_summary(mix, [y]).pmf[0], expected, rtol=1e-12)


class TestMemberMoments:
    def test_shapes_and_efron_values(self):
        ens = dp_ensemble()
        X = np.zeros((3, 1))
        means, variances = ensemble.member_heads(ens, X).moments()
        assert means.shape == (2, 3)
        assert_allclose(means[:, 0], [2.0, 4.0], rtol=1e-12)
        assert_allclose(variances[:, 0], [2.0, 2.0], rtol=1e-12)

    def test_exact_series_mode_differs_from_efron_off_unit_gamma(self):
        w, spec = const_member(np.log(1.0), np.log(5.0))
        ens = ensemble.Ensemble(((w, spec),))
        X = np.zeros((1, 1))
        heads = ensemble.member_heads(ens, X)
        _, v_efron = heads.moments(ensemble.EFRON_APPROX)
        _, v_exact = heads.moments(ensemble.EXACT_SERIES)
        var_corr = dists.double_poisson(1.0, 5.0).dp_corrections()[1][0, 0]
        assert_allclose(v_exact[0, 0], 1.0 / 5.0 + var_corr, rtol=1e-10)
        assert abs(v_efron[0, 0] - v_exact[0, 0]) > 1e-3

    def test_exact_moments_are_the_batch_moments(self):
        """The exact member moments are the heads' Efron moments plus the
        corrections of the one kept batch, bit for bit, and the values are a
        read-only copy, so that batch cannot fall out of step with them."""
        ens = ensemble.Ensemble((const_member(np.log(1.5), np.log(3.0)),
                                 const_member(np.log(7.0), np.log(0.4))))
        heads = ensemble.member_heads(ens, np.linspace(-1.0, 1.0, 4)[:, None])
        got = heads.moments(ensemble.EXACT_SERIES)
        want = [e + c for e, c in zip(heads.moments(), heads.batch.dp_corrections())]
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        assert heads.batch is heads.batch
        with pytest.raises(ValueError, match="read-only"):
            heads.values[0, 0, 0] = 1.0
        values = np.zeros((1, 2, 2))
        direct = ensemble.MemberHeads("double_poisson", values)
        modes = dists.predictive_summary(direct.batch).modes
        values[..., 0] = np.log(50.0)  # the caller's array, not the copy
        assert np.array_equal(dists.predictive_summary(direct.batch).modes, modes)
        assert np.array_equal(direct.moments()[0], np.ones((1, 2)))

    def test_double_poisson_variance_from_heads_in_log_space(self):
        """exp(800) overflows both exp(log mu) and exp(log gamma); their ratio
        mu/gamma = exp(10) does not."""
        ens = ensemble.Ensemble((const_member(800.0, 790.0),))
        means, variances = ensemble.member_heads(ens, np.zeros((1, 1))).moments()
        assert means[0, 0] == np.inf
        assert_allclose(variances[0, 0], np.exp(10.0), rtol=1e-14)

    @pytest.mark.parametrize("log_alpha", [-15.0, -22.0])
    def test_neg_binomial_variance_at_tiny_dispersion(self, log_alpha):
        """m(1 + alpha*m) from the heads in log space. Read back from the
        batch's (r, p) = (1/alpha, 1/(1 + alpha*m)), the variance was off by
        1.6e-11 relative at log alpha = -15 and by 4.4e-8 at -22."""
        m = 5.0
        mean, var = const_moments(np.log(m), log_alpha, family="neg_binomial")
        assert_allclose(mean, m, rtol=1e-15)
        assert_allclose(var, m * (1.0 + np.exp(log_alpha) * m), rtol=1e-15)

    def test_overflowed_rows_score_inf(self):
        """A variance that overflows, or that inf - inf heads leave undefined,
        ranks as the most out-of-distribution."""
        for heads in ((800.0, -800.0), (np.inf, np.inf)):
            ens = ensemble.Ensemble((const_member(*heads), const_member(0.0, 0.0)))
            assert ensemble.member_heads(ens, np.zeros((1, 1))).scores()[0] == np.inf

    def test_scores_are_total_variance(self):
        heads = ensemble.member_heads(dp_ensemble(), np.linspace(-1.0, 1.0, 5)[:, None])
        scores = heads.scores()
        dec = ensemble.decompose_variance(*heads.moments())
        assert_allclose(scores, dec.total, rtol=1e-13)


class TestPredictTable:
    def test_columns_and_interval_coverage(self):
        ens = dp_ensemble()
        X = np.zeros((2, 1))
        heads = ensemble.member_heads(ens, X)
        ends = dists.predictive_summary(heads.batch, levels=ensemble.INTERVAL).quantiles
        dec = ensemble.decompose_variance(*heads.moments())
        table = {"mean": dec.mean, "aleatoric": dec.aleatoric, "epistemic": dec.epistemic,
                 "q025": ends[0], "q975": ends[1]}
        assert_allclose(table["mean"], [3.0, 3.0], rtol=1e-12)
        mix = ensemble.member_heads(ens, X[:1]).batch
        assert dists.predictive_summary(mix, table["q975"][:1]).cdf[0] >= 0.975
        assert table["q025"][0] <= table["mean"][0] <= table["q975"][0]


class TestManifest:
    def _write_members(self, tmp_path, family="double_poisson"):
        paths = []
        for i, (log_mu, log_g) in enumerate(((0.5, 0.0), (1.0, 0.3))):
            w, spec = const_member(log_mu, log_g, family=family)
            p = tmp_path / f"member{i}.ckpt"
            meta = {"family": family, "beta": "0.0", "input_dim": "1"}
            p.write_text(network.render_checkpoint(w, meta))
            paths.append(p.name)
        return paths

    def test_round_trip(self, tmp_path):
        names = self._write_members(tmp_path)
        manifest = tmp_path / "ens.manifest"
        manifest.write_text(network.render_manifest(names, LossSpec("double_poisson", 0.5)))
        paths, spec = network.load_manifest(manifest)
        assert paths == names
        assert spec.family == "double_poisson"
        assert spec.beta == 0.5
        ens = ensemble.load_ensemble(manifest)
        assert len(ens.members) == 2
        means, _ = ensemble.member_heads(ens, np.zeros((1, 1))).moments()
        assert_allclose(means[:, 0], [np.exp(0.5), np.exp(1.0)], rtol=1e-12)

    def test_missing_header(self, tmp_path):
        bad = tmp_path / "bad.manifest"
        bad.write_text("member0.ckpt\n")
        with pytest.raises(network.ManifestFormatError):
            network.load_manifest(bad)

    def test_unparseable_beta(self, tmp_path):
        bad = tmp_path / "beta.manifest"
        bad.write_text(f"{network.MANIFEST_HEADER}\nfamily=poisson\nbeta=half\nm0.ckpt\n")
        with pytest.raises(network.ManifestFormatError):
            network.load_manifest(bad)

    def test_no_members_listed(self, tmp_path):
        bad = tmp_path / "empty.manifest"
        bad.write_text(f"{network.MANIFEST_HEADER}\nfamily=poisson\n")
        with pytest.raises(network.ManifestFormatError):
            network.load_manifest(bad)

    # member names holding "=" (a tag-like "family=..." or "beta=..." too), but
    # no line break or NUL
    NAME_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                      blacklist_characters="\n\r\0"), max_size=8)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(names=st.lists(st.builds("{}={}".format, st.one_of(
               st.sampled_from(("family", "beta")), NAME_TEXT), NAME_TEXT), min_size=1,
               max_size=4),
           spec=st.sampled_from((LossSpec("double_poisson", 0.5), LossSpec("poisson"))))
    def test_reads_back_every_member_name(self, tmp_path, names, spec):
        manifest = tmp_path / "ens.manifest"
        manifest.write_text(network.render_manifest(names, spec))
        assert network.load_manifest(manifest) == (names, spec)

    def test_family_mismatch_between_member_and_manifest(self, tmp_path):
        names = self._write_members(tmp_path, family="poisson")
        manifest = tmp_path / "ens.manifest"
        manifest.write_text(network.render_manifest(names, LossSpec("double_poisson")))
        with pytest.raises(network.ManifestFormatError):
            ensemble.load_ensemble(manifest)


class TestEnsembleValidation:
    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ensemble.Ensemble(())

    def test_mixed_families_rejected(self):
        with pytest.raises(DomainError):
            ensemble.Ensemble((
                const_member(0.0, 0.0),
                const_member(0.0, family="poisson"),
            ))
