"""Moment deviation factors for the mean/variance parameterization.

Frozen values come from a 60-digit mpmath evaluation of the weight series
summed to convergence, written independently of the library code.
"""

import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ddpnkit import distributions as dists
from ddpnkit import moments
from ddpnkit.errors import DomainError, NumericOverflow

# (mu0, var0) -> (eps1, eps2) of the converged series
MDF_ORACLE = {
    (0.05, 5.0): (7.602073043809256, 116.70070746573772),
    (10.0, 2.0): (0.0013878851582198942, 0.00028871667235954492),
    (1.0, 10.0): (1.5419645006451243, 1.5667883940663968),
    (2.0, 0.4): (0.011451042927608241, 0.00075837376263895146),
}


def traced_peak(fn):
    """(fn(), the peak of memory traced by tracemalloc while it ran, in bytes)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEpsilon:
    def test_frozen_values(self):
        for (mu0, var0), (e1, e2) in MDF_ORACLE.items():
            got = moments.mdf_epsilon(mu0, var0)
            assert_allclose(got, (e1, e2), rtol=1e-10)

    def test_diagonal_is_tiny(self):
        """var0 = mu0 means gamma0 = 1, where the parameterization is exact."""
        rng = np.random.default_rng(2)
        for mu0 in (*rng.uniform(0.5, 40.0, size=12), 50.0, 75.0, 100.0):
            e1, e2 = moments.mdf_epsilon(float(mu0), float(mu0))
            assert e1 <= 1e-9
            assert e2 <= 1e-9

    def test_matches_truncated_series_moments(self):
        """eps1 and eps2 equal the absolute mean and variance corrections of
        the series, computed here by direct summation over 2000 terms, which
        cover the mass of every draw."""
        rng = np.random.default_rng(5)
        for _ in range(15):
            mu0 = float(rng.uniform(0.3, 20.0))
            var0 = float(rng.uniform(0.3 * mu0, 4.0 * mu0))
            gamma0 = mu0 / var0
            ys = np.arange(2000)
            logw = dists.dp_log_weight(mu0, gamma0, ys.astype(float))
            w = np.exp(logw - logw.max())
            s0 = w.sum()
            mean = float(np.sum(w * ys) / s0)
            var = float(np.sum(w * (ys - mean) ** 2) / s0)
            e1, e2 = moments.mdf_epsilon(mu0, var0)
            assert_allclose(e1, abs(mean - mu0), rtol=1e-8, atol=1e-12)
            assert_allclose(e2, abs(var - var0), rtol=1e-8, atol=1e-12)

    def test_truncation_insensitive_when_support_covered(self):
        """With mu0 + 6*sigma0 well below the term count, adding terms does
        not move the answer."""
        for mu0, var0 in ((5.0, 10.0), (20.0, 60.0), (1.0, 4.0)):
            base = moments.mdf_epsilon(mu0, var0, n_terms=100)
            more = moments.mdf_epsilon(mu0, var0, n_terms=1000)
            assert_allclose(base, more, rtol=1e-7, atol=1e-13)

    def test_deviation_grows_toward_small_mean(self):
        """At fixed large sigma0^2, deviations grow as mu0 shrinks to 0.01."""
        mus = (3.0, 1.0, 0.3, 0.1, 0.05, 0.01)
        for var0 in (5.0, 20.0):
            e1s, e2s = zip(*(moments.mdf_epsilon(m, var0) for m in mus))
            assert all(a < b for a, b in zip(e1s, e1s[1:]))
            assert all(a < b for a, b in zip(e2s, e2s[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            moments.mdf_epsilon(0.0, 1.0)
        with pytest.raises(DomainError):
            moments.mdf_epsilon(1.0, -1.0)
        with pytest.raises(DomainError):
            moments.mdf_epsilon(1.0, 1.0, n_terms=1)
        with pytest.raises(DomainError):
            moments.mdf_epsilon(1.0, 1.0, n_terms=moments.MAX_TERMS + 1)
        # gamma0 = 1e-8: the mass reaches far past MAX_TERMS
        with pytest.raises(NumericOverflow):
            moments.mdf_epsilon(0.01, 1e6)


def from_scratch(mu0: float, var0: float, n: int) -> tuple[float, float]:
    """eps1 and eps2 summed directly over the support 0..n-1."""
    ys = np.arange(n)
    logw = dists.dp_log_weight(mu0, mu0 / var0, ys.astype(float))
    w = np.exp(logw - logw.max())
    s0 = w.sum()
    mean = float(np.sum(w * ys) / s0)
    var = float(np.sum(w * (ys - mean) ** 2) / s0)
    return abs(mean - mu0), abs(var - var0)


class TestGrowingSupport:
    @settings(max_examples=60, deadline=None)
    @given(log_mu=st.floats(-2.0, 2.0), log_var=st.floats(-2.0, 2.0),
           n_terms=st.integers(2, 400))
    # gamma0 of about 1000 and 3400 magnify the log weights' rounding
    @example(log_mu=1.9974996246716303, log_var=-1.0, n_terms=2)
    @example(log_mu=1.5253106566334935, log_var=-2.0, n_terms=2)
    def test_matches_sum_over_final_support(self, log_mu, log_var, n_terms):
        """Summing block by block gives the direct sum over the support the
        cell ended on; that support is n_terms doubled until it converged."""
        mu0, var0 = 10.0**log_mu, 10.0**log_var
        grid = moments.moments_grid([mu0], [var0], n_terms)
        n = int(grid.support[0, 0])
        assert n == moments.MAX_TERMS or (n % n_terms == 0
                                          and (n // n_terms) & (n // n_terms - 1) == 0)
        want = from_scratch(mu0, var0, n)
        # both sides cancel sums of size mu0 and var0 to get eps
        atol = 1e-13 * (1.0 + mu0 + var0)
        assert_allclose(grid.eps1[0, 0], want[0], rtol=1e-12, atol=atol)
        assert_allclose(grid.eps2[0, 0], want[1], rtol=1e-12, atol=atol)

    @pytest.mark.parametrize("mu0", [100.0, 1e4])
    def test_mode_past_first_block(self, mu0):
        """From a two-term start the weights near the mode are e^mu0 times
        the first block's, so the running sums must be rescaled."""
        short = moments.mdf_epsilon(mu0, mu0, n_terms=2)
        # on the diagonal (gamma0 = 1) both are 0; log weights that carried
        # rounding of about 1e-16 * y*log(y) left eps2 at 1.3e-9 at mu0 = 1e4
        assert max(short) <= 1e-14 * max(1e3, mu0)
        assert_allclose(short, moments.mdf_epsilon(mu0, mu0, n_terms=100), rtol=1e-7,
                        atol=1e-10)

    def test_unconverged_cell_is_named(self):
        with pytest.raises(NumericOverflow, match=r"mu0=0\.01, var0=10000\.0 "):
            moments.moments_grid([1.0, 0.01], [1.0, 1e4])

    @settings(max_examples=60, deadline=None)
    @given(log_mu=st.floats(math.log(5e-324), math.log(1e308)),
           log_var=st.floats(math.log(5e-324), math.log(1e308)))
    @example(log_mu=math.log(1e308), log_var=0.0)  # mu0 past MAX_TERMS
    @example(log_mu=math.log(5e-324), log_var=math.log(1e308))  # mu0 / n underflows
    @example(log_mu=math.log(100.0), log_var=math.log(1e-306))  # g * (log weight) overflows
    @example(log_mu=0.0, log_var=-709.0)  # gamma0 * log(mu0/n) overflows
    def test_any_positive_cell_is_finite_or_overflow(self, log_mu, log_var):
        """A one-cell grid anywhere in the positive floats gives finite
        deviations or raises NumericOverflow, without a RuntimeWarning."""
        mu0, var0 = (min(max(math.exp(v), 5e-324), 1e308) for v in (log_mu, log_var))
        try:
            eps = moments.mdf_epsilon(mu0, var0)
        except NumericOverflow as exc:
            assert f"mu0={mu0}, var0={var0} " in str(exc)
        else:
            assert all(math.isfinite(e) for e in eps)


class TestOneEngine:
    @settings(max_examples=25, deadline=None)
    @given(members=st.integers(1, 5), rows=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
    def test_batch_moments_match_grid(self, members, rows, seed):
        """The exact-series member moments of a random Double Poisson batch
        deviate from (mu, mu/gamma) by mdf_epsilon's eps1 and eps2: the batch
        and the grid read one engine."""
        rng = np.random.default_rng(seed)
        mu, gamma = np.exp(rng.uniform(math.log(0.01), math.log(100.0), (2, members, rows)))
        batch = dists.PredictiveBatch(dists.DOUBLE_POISSON, (mu, gamma))
        mean, var = batch.member_moments(dists.EXACT_SERIES)
        for m, i in np.ndindex(mu.shape):
            mu0, var0 = float(mu[m, i]), float(mu[m, i] / gamma[m, i])
            want = moments.mdf_epsilon(mu0, var0)
            atol = 1e-13 * (1.0 + mu0 + var0)
            assert_allclose(abs(mean[m, i] - mu0), want[0], rtol=1e-12, atol=atol)
            assert_allclose(abs(var[m, i] - var0), want[1], rtol=1e-12, atol=atol)


class TestGrid:
    def test_shapes_and_content(self):
        mu_axis = np.array([1.0, 10.0])
        var_axis = np.array([1.0, 10.0])
        grid = moments.moments_grid(mu_axis, var_axis)
        assert grid.eps1.shape == (2, 2)
        assert grid.eps2.shape == (2, 2)
        e1, e2 = moments.mdf_epsilon(1.0, 10.0)
        assert_allclose(grid.eps1[0, 1], e1, rtol=1e-12)
        assert_allclose(grid.eps2[0, 1], e2, rtol=1e-12)

    def test_default_axis(self):
        axis = moments.default_grid_axis()
        assert axis[0] == pytest.approx(0.01)
        assert axis[-1] == pytest.approx(100.0)
        assert axis.size == 25
        assert np.all(np.diff(np.log(axis)) > 0)

    def test_csv_round_trip_text(self):
        grid = moments.moments_grid(np.array([1.0, 2.0]), np.array([0.5, 3.0]))
        lines = moments.render_grid_csv(grid).strip().split("\n")
        assert lines[0] == "mu0,var0,eps1,eps2"
        assert len(lines) == 1 + 4
        cells = lines[1].split(",")
        assert float(cells[0]) == 1.0
        assert float(cells[2]) == grid.eps1[0, 0]

    def test_grid_and_csv_peak_memory(self):
        """The 200x200 grid reads each block's peak bounds off the block's own
        rows of bd0, and its CSV formats the eps values a row at a time:
        traced peaks of 7.6 MB and 6.3 MB, against 11.0 MB and 9.5 MB when
        bd0 was formed again for every cell at once for the peak bounds and
        the eps values were listed as whole-grid floats."""
        axis = moments.default_grid_axis(200)
        grid, grid_peak = traced_peak(lambda: moments.moments_grid(axis, axis))
        text, csv_peak = traced_peak(lambda: moments.render_grid_csv(grid))
        assert text.count("\n") == 1 + 200 * 200
        assert grid_peak < 9.0e6, f"moments_grid traced peak {grid_peak / 1e6:.2f} MB"
        assert csv_peak < 8.0e6, f"render_grid_csv traced peak {csv_peak / 1e6:.2f} MB"

    def test_csv_bytes_match_csv_writer(self):
        values = np.array([[0.0, 1e-300, 5e-324], [1e300, 3.0, 2.5e-7]])
        grid = moments.MomentGrid(np.array([1e-300, 7.0]), np.array([2.0, 1e300, 0.1]),
                                  values, values[::-1] * 3.0, 100,
                                  np.zeros((2, 3), dtype=np.int64))
        ref = io.StringIO(newline="")
        writer = csv.writer(ref, lineterminator="\n")
        writer.writerow(["mu0", "var0", "eps1", "eps2"])
        for i, mu0 in enumerate(grid.mu_values):
            for j, var0 in enumerate(grid.var_values):
                writer.writerow([repr(float(mu0)), repr(float(var0)),
                                 repr(float(grid.eps1[i, j])), repr(float(grid.eps2[i, j]))])
        assert moments.render_grid_csv(grid) == ref.getvalue()
