"""Synthetic process generators: distributional checks and CSV round trips.

Conflation moments are pinned against a 60-digit mpmath evaluation; the
sampling checks compare empirical statistics with the process definitions
at generous multiples of the sampling error.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ddpnkit import datagen
from ddpnkit.errors import DomainError, ShapeError

# lam -> (mean, variance) of the latent 5-fold conflation count
CONFLATION_ORACLE = {
    10.0: (9.5959216856807295, 2.0008309020968841),
    2.0: (1.574335558932922, 0.40647683003030822),
    19.5: (19.097927878912744, 3.9004185464481021),
}


class TestSineConflation:
    def test_pmf_moments_match_oracle(self):
        for lam, (mean, var) in CONFLATION_ORACLE.items():
            p = datagen.sine_conflation_pmf(lam)
            ys = np.arange(p.size)
            m = float(np.sum(p * ys))
            v = float(np.sum(p * (ys - m) ** 2))
            assert_allclose((m, v), (mean, var), rtol=1e-12)
            assert_allclose(p.sum(), 1.0, rtol=1e-12)

    def test_conflation_divides_variance_by_the_power(self):
        """Conflating k identical Poisson laws shrinks variance roughly k-fold
        while keeping the location."""
        for lam in (5.0, 10.0, 15.0):
            p = datagen.sine_conflation_pmf(lam)
            ys = np.arange(p.size)
            m = float(np.sum(p * ys))
            v = float(np.sum(p * (ys - m) ** 2))
            assert abs(m - lam) < 0.5
            assert abs(v - lam / datagen.CONFLATION_POWER) < 0.15

    def test_true_moments_flip(self):
        mean, var = datagen.sine_conflation_true_moments(math.pi / 2)
        p = datagen.sine_conflation_pmf(20.0)
        ys = np.arange(p.size)
        m0 = float(np.sum(p * ys))
        assert_allclose(mean, datagen.CONFLATION_SHIFT - m0, rtol=1e-12)
        assert var > 0.0

    def test_dataset_shape_and_bounds(self):
        ds, split = datagen.gen_sine_conflation(seed=3)
        assert ds.n == 1000
        assert ds.xs.shape == (1000, 1)
        assert np.all(ds.xs >= 0.0) and np.all(ds.xs <= 2.0 * math.pi)
        assert np.all(ds.ys >= 0) and np.all(ds.ys <= datagen.CONFLATION_SHIFT)
        assert split.train.size == 800
        assert split.val.size == 100
        assert split.test.size == 100
        together = np.concatenate([split.train, split.val, split.test])
        assert np.array_equal(np.sort(together), np.arange(1000))

    def test_deterministic_per_seed(self):
        a, _ = datagen.gen_sine_conflation(seed=9)
        b, _ = datagen.gen_sine_conflation(seed=9)
        c, _ = datagen.gen_sine_conflation(seed=10)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.ys, b.ys)
        assert not np.array_equal(a.ys, c.ys)

    def test_empirical_mean_tracks_process_mean(self):
        ds, _ = datagen.gen_sine_conflation(4000, 500, 500, seed=1)
        true_means = np.array([
            datagen.sine_conflation_true_moments(float(x))[0] for x in ds.xs[:, 0]
        ])
        # conditional variance is at most ~4, so the paired residual mean
        # has std below 0.03 on 5000 rows
        assert abs((ds.ys - true_means).mean()) < 0.12


class TestMisspecPoisson:
    def test_conditional_moments(self):
        ds, _ = datagen.gen_misspec_poisson(20000, seed=0)
        rates = np.exp(ds.xs[:, 0] / 2.0)
        resid = ds.ys - rates
        assert abs(resid.mean()) < 4.0 * math.sqrt(rates.mean() / ds.n)
        assert abs(np.mean(resid**2) / rates.mean() - 1.0) < 0.05

    def test_covariate_range(self):
        ds, split = datagen.gen_misspec_poisson(500, seed=1)
        assert np.all(ds.xs >= 0.5) and np.all(ds.xs <= 5.0)
        assert split.train.size == 400

    def test_custom_range(self):
        ds, _ = datagen.gen_misspec_poisson(200, seed=0, x_low=2.0, x_high=3.0)
        assert np.all(ds.xs >= 2.0) and np.all(ds.xs <= 3.0)


class TestMisspecNb:
    def test_conditional_moments_are_overdispersed(self):
        ds, _ = datagen.gen_misspec_nb(20000, seed=0)
        means = ds.xs[:, 0] ** 2
        resid = ds.ys - means
        assert abs(resid.mean()) < 4.0 * math.sqrt(2.0 * means.mean() / ds.n)
        # Var[y|x] = 2 x^2
        assert abs(np.mean(resid**2) / means.mean() - 2.0) < 0.1

    def test_deterministic(self):
        a, _ = datagen.gen_misspec_nb(300, seed=4)
        b, _ = datagen.gen_misspec_nb(300, seed=4)
        assert np.array_equal(a.ys, b.ys)


class TestBetaStudy:
    def test_ground_truth_params(self):
        mu, gamma = datagen.beta_study_params(4.0)
        assert mu == math.ceil(4.0 * math.sin(4.0) + 15.0)
        assert_allclose(gamma, 6.0 - 0.03 * 16.0, rtol=1e-14)

    def test_isolated_points_live_in_the_train_block(self):
        ds, split = datagen.gen_beta_study(200, seed=0)
        train_x = ds.xs[split.train, 0]
        for x_iso, y_iso in datagen.ISOLATED_POINTS:
            hits = np.nonzero(train_x == x_iso)[0]
            assert hits.size == 1
            assert ds.ys[split.train][hits[0]] == y_iso
        for idx in (split.val, split.test):
            assert not np.any(np.isin(ds.xs[idx, 0], [p[0] for p in datagen.ISOLATED_POINTS]))

    def test_isolated_repeat_count(self):
        ds0, split0 = datagen.gen_beta_study(100, seed=0, isolated_repeat=0)
        ds3, split3 = datagen.gen_beta_study(100, seed=0, isolated_repeat=3)
        assert ds0.n == 100
        assert ds3.n == 106
        train_x = ds3.xs[split3.train, 0]
        assert int(np.sum(train_x == 1.0)) == 3
        assert int(np.sum(train_x == 10.0)) == 3
        with pytest.raises(DomainError):
            datagen.gen_beta_study(100, seed=0, isolated_repeat=-1)

    def test_bulk_labels_trail_the_target_mean(self):
        ds, split = datagen.gen_beta_study(2000, seed=2, isolated_repeat=0)
        mus = np.array([datagen.beta_study_params(float(x))[0] for x in ds.xs[:, 0]])
        assert abs(ds.ys.mean() - mus.mean()) < 0.2

    def test_split_partition(self):
        ds, split = datagen.gen_beta_study(500, seed=0)
        together = np.concatenate([split.train, split.val, split.test])
        assert np.array_equal(np.sort(together), np.arange(ds.n))
        assert split.val.size == 50
        assert split.test.size == 50


class TestSplitIndices:
    def test_default_fractions(self):
        split = datagen.split_indices(1000)
        assert (split.train.size, split.val.size, split.test.size) == (800, 100, 100)
        assert split.train[0] == 0 and split.train[-1] == 799

    def test_explicit_counts(self):
        split = datagen.split_indices(10, counts=(6, 2, 2))
        assert list(split.val) == [6, 7]

    def test_bad_counts(self):
        with pytest.raises(DomainError):
            datagen.split_indices(10, counts=(5, 3, 3))


class TestProcessRegistry:
    def test_known_names(self):
        assert set(datagen.PROCESSES) == {
            "sine-conflation", "misspec-poisson", "misspec-nb", "beta-study",
        }


def write_split_csvs(ds, split, prefix):
    """The prefix_train/val/test.csv files that simulate writes."""
    for name, idx in (("train", split.train), ("val", split.val), ("test", split.test)):
        path = prefix.parent / f"{prefix.name}_{name}.csv"
        path.write_text(datagen.render_dataset_csv(ds.xs[idx], ds.ys[idx]))


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        ds, _ = datagen.gen_misspec_poisson(50, seed=0)
        path = tmp_path / "data.csv"
        path.write_text(datagen.render_dataset_csv(ds.xs, ds.ys))
        xs, ys = datagen.read_dataset_csv(path)
        assert np.array_equal(xs, ds.xs)
        assert np.array_equal(ys, ds.ys)
        assert path.read_text().splitlines()[0] == "x,y"

    def test_header_enforced(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1.0,2\n")
        with pytest.raises(DomainError):
            datagen.read_dataset_csv(bad)

    def test_malformed_row(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1.0\n")
        with pytest.raises(DomainError):
            datagen.read_dataset_csv(bad)

    def test_unparseable_cell(self, tmp_path):
        bad = tmp_path / "bad.csv"
        for body in ("1.0,2.5\n", "one,2\n"):
            bad.write_text("x,y\n" + body)
            with pytest.raises(datagen.DatasetFormatError):
                datagen.read_dataset_csv(bad)

    def test_split_files_round_trip(self, tmp_path):
        ds, split = datagen.gen_beta_study(80, seed=1)
        prefix = tmp_path / "beta"
        write_split_csvs(ds, split, prefix)
        ds2, split2 = datagen.read_split_csvs(prefix)
        assert np.array_equal(ds2.xs, ds.xs)
        assert np.array_equal(ds2.ys, ds.ys)
        assert np.array_equal(split2.train, split.train)
        assert np.array_equal(split2.test, split.test)

    def test_missing_test_file_tolerated(self, tmp_path):
        ds, split = datagen.gen_misspec_poisson(40, seed=0)
        prefix = tmp_path / "d"
        write_split_csvs(ds, split, prefix)
        (tmp_path / "d_test.csv").unlink()
        ds2, split2 = datagen.read_split_csvs(prefix)
        assert split2.test.size == 0
        assert ds2.n == split.train.size + split.val.size

    def test_missing_train_file_fatal(self, tmp_path):
        with pytest.raises(DomainError):
            datagen.read_split_csvs(tmp_path / "nothing")


class TestDatasetValidation:
    def test_rejects_negative_labels(self):
        with pytest.raises(DomainError):
            datagen.SyntheticDataset(np.ones((2, 1)), np.array([1, -1]), "p", 0)

    def test_rejects_non_finite_inputs(self):
        with pytest.raises(DomainError):
            datagen.SyntheticDataset(np.array([[np.inf]]), np.array([1]), "p", 0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ShapeError):
            datagen.SyntheticDataset(np.ones((3, 1)), np.array([1, 2]), "p", 0)
