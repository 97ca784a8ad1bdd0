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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_bad_rates_and_covariates(self, bad):
        with pytest.raises(DomainError, match="rate"):
            datagen.sine_conflation_pmf(bad)
        if not math.isfinite(bad):
            with pytest.raises(DomainError, match="covariate"):
                datagen.sine_conflation_true_moments(bad)

    def test_zero_rate_is_point_mass(self):
        p = datagen.sine_conflation_pmf(0.0)
        assert p[0] == 1.0 and np.all(p[1:] == 0.0)
        mean, var = datagen.sine_conflation_true_moments(1.5 * math.pi)
        assert (mean, var) == (datagen.CONFLATION_SHIFT, 0.0)

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


def write_split_csvs(ds, split, prefix):
    """The prefix_train/val/test.csv files that simulate writes."""
    for name, idx in (("train", split.train), ("val", split.val), ("test", split.test)):
        path = prefix.parent / f"{prefix.name}_{name}.csv"
        path.write_text("".join(datagen.dataset_csv_chunks(ds.xs[idx], ds.ys[idx])))


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        ds, _ = datagen.gen_misspec_poisson(50, seed=0)
        path = tmp_path / "data.csv"
        path.write_text("".join(datagen.dataset_csv_chunks(ds.xs, ds.ys)))
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
        """float() and int() would read 1_0 as 10 and Arabic-Indic or
        fullwidth digits as their values; a dataset cell is plain ASCII."""
        bad = tmp_path / "bad.csv"
        for body in ("1.0,2.5\n", "one,2\n", "1_0,2\n", "1.0,2_0\n", "\u0663.5,3\n",
                     "3.5,\u0663\n", "1.0,\uff12\n", "1.0\u2003,2\n"):
            bad.write_text("x,y\n" + body, encoding="utf-8")
            with pytest.raises(datagen.DatasetFormatError, match="cannot parse row"):
                datagen.read_dataset_csv(bad)

    def test_plain_decimals_load(self, tmp_path):
        """The leading minus and the exponent's own sign are the signs a cell
        may hold; leading zeros in a label are digits."""
        path = tmp_path / "plain.csv"
        path.write_text("x,y\n-1.5e-05,0003\n2,1\n1E+3,0\n1e300,7\n-0.0,0\n")
        xs, ys = datagen.read_dataset_csv(path)
        assert xs[:, 0].tolist() == [-1.5e-05, 2.0, 1000.0, 1e300, -0.0]
        assert ys.tolist() == [3, 1, 0, 7, 0]

    def test_split_files_round_trip(self, tmp_path):
        ds, split = datagen.gen_beta_study(80, seed=1)
        prefix = tmp_path / "beta"
        write_split_csvs(ds, split, prefix)
        ds2, split2 = datagen._read_splits(prefix, ("train", "val", "test"))
        assert np.array_equal(ds2.xs, ds.xs)
        assert np.array_equal(ds2.ys, ds.ys)
        assert np.array_equal(split2.train, split.train)
        assert np.array_equal(split2.test, split.test)

    def test_missing_test_file_tolerated(self, tmp_path):
        ds, split = datagen.gen_misspec_poisson(40, seed=0)
        prefix = tmp_path / "d"
        write_split_csvs(ds, split, prefix)
        (tmp_path / "d_test.csv").unlink()
        ds2, split2 = datagen._read_splits(prefix, ("train", "val"))  # what train reads
        assert split2.test.size == 0
        assert ds2.n == split.train.size + split.val.size

    def test_missing_train_file_fatal(self, tmp_path):
        with pytest.raises(DomainError):
            datagen._read_splits(tmp_path / "nothing", ("train", "val"))


class TestDatasetValidation:
    def test_rejects_negative_labels(self):
        with pytest.raises(DomainError):
            datagen.SyntheticDataset(np.ones((2, 1)), np.array([1, -1]), "p")

    @pytest.mark.parametrize("labels", [[2.7, 3.0], [np.nan, 1.0], [1e30, 1.0], [2.0**63, 1.0],
                                        [-1.0, 1.0], [np.inf, 1.0],
                                        np.array([2**63, 1], dtype=np.uint64)])
    def test_rejects_labels_that_are_not_int64_counts(self, labels):
        """A label that is not a nonnegative integer below 2^63 is refused,
        not truncated (2.7 -> 2) or wrapped (nan, 1e30 -> -2^63)."""
        with pytest.raises(DomainError, match="count label"):
            datagen.SyntheticDataset(np.ones((2, 1)), labels, "p")

    def test_keeps_integer_labels_exactly(self):
        """Integer labels are stored as they are, with no float round trip
        (2^53 + 1 is not a float64); integer-valued floats become their
        counts."""
        big = np.array([2**53 + 1, 2**63 - 1, 0], dtype=np.int64)
        ds = datagen.SyntheticDataset(np.ones((3, 1)), big, "p")
        assert ds.ys.dtype == np.int64 and ds.ys.tolist() == big.tolist()
        ds = datagen.SyntheticDataset(np.ones((3, 1)), [3.0, 0.0, 2.0**62], "p")
        assert ds.ys.dtype == np.int64 and ds.ys.tolist() == [3, 0, 2**62]

    def test_rejects_non_finite_inputs(self):
        with pytest.raises(DomainError):
            datagen.SyntheticDataset(np.array([[np.inf]]), np.array([1]), "p")

    def test_rejects_length_mismatch(self):
        with pytest.raises(ShapeError):
            datagen.SyntheticDataset(np.ones((3, 1)), np.array([1, 2]), "p")

    @pytest.mark.parametrize("xs", [np.ones(3), np.ones((1, 3, 1)), 1.0])
    def test_rejects_inputs_that_are_not_a_matrix(self, xs):
        """Inputs must be (n, d): a vector is refused, not read as one row or
        one column."""
        with pytest.raises(ShapeError, match=r"\(n, d\) matrix"):
            datagen.SyntheticDataset(xs, np.array([1, 2, 3]), "p")
