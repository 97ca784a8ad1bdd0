"""Loss values, analytic gradients, and the dispersion/fit decomposition.

Gradients are checked against central finite differences computed in the
test, with the beta scale factor frozen wherever the loss definition treats
it as a constant. The baselines are checked through head_nll, the training
loss on log-space heads, one head row at a time.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats
from scipy.special import gammaln

from ddpnkit import losses
from ddpnkit.errors import DomainError, NumericDivergence


def central_diff(f, x, h=None):
    if h is None:
        h = 1e-6 * max(1.0, abs(x))
    return (f(x + h) - f(x - h)) / (2.0 * h)


def random_tuples(n, seed):
    rng = np.random.default_rng(seed)
    ys = np.where(rng.random(n) < 0.15, 0.0, rng.integers(0, 40, n)).astype(float)
    mus = rng.uniform(0.2, 30.0, n)
    gammas = rng.uniform(0.05, 6.0, n)
    return ys, mus, gammas


class TestDoublePoissonNll:
    def test_frozen_value(self):
        assert_allclose(losses.ddpn_nll(4.0, 2.0, 0.5), 0.7328679513998633, rtol=1e-14)

    def test_decomposition_identity(self):
        """NLL(y, mu, gamma) = d + a*r with phi = 1/gamma, exactly."""
        ys, mus, gammas = random_tuples(200, 0)
        for y, mu, gamma in zip(ys, mus, gammas):
            nll = losses.ddpn_nll(y, mu, gamma)
            p = losses.attenuation_decompose(y, mu, 1.0 / gamma)
            assert abs(nll - (p.d + p.a * p.r)) <= 1e-12

    def test_residual_nonnegative_zero_only_at_fit(self):
        ys, mus, _ = random_tuples(100, 1)
        for y, mu in zip(ys, mus):
            p = losses.attenuation_decompose(y, mu, 1.0)
            assert p.r >= 0.0
        for y in (0.0, 1.0, 7.0):
            exact = losses.attenuation_decompose(y, max(y, 1e-12) if y == 0 else y, 1.0)
            if y > 0:
                assert exact.r == 0.0

    def test_beta_scaling_relationship(self):
        ys, mus, gammas = random_tuples(50, 2)
        for beta in (0.0, 0.3, 1.0):
            for y, mu, gamma in zip(ys, mus, gammas):
                value = losses.ddpn_nll(y, mu, gamma, beta)
                assert_allclose(value, gamma ** (-beta) * losses.ddpn_nll(y, mu, gamma),
                                rtol=1e-12)

    def test_beta_is_inert_at_unit_gamma(self):
        for beta in (0.0, 0.5, 1.0):
            value = losses.ddpn_nll(3.0, 2.5, 1.0, beta)
            assert_allclose(value, losses.ddpn_nll(3.0, 2.5, 1.0), rtol=1e-14)

    def test_gradients_match_finite_differences(self):
        """With the scale factor frozen, the analytic partials agree with
        central differences of the scaled loss."""
        ys, mus, gammas = random_tuples(40, 3)
        for beta in (0.0, 0.5, 1.0):
            for y, mu, gamma in zip(ys, mus, gammas):
                scale = gamma ** (-beta)
                dmu, dgamma = losses.ddpn_grads(y, mu, gamma, beta)
                fd_mu = central_diff(lambda m: scale * losses.ddpn_nll(y, m, gamma), mu)
                fd_gamma = central_diff(lambda g: scale * losses.ddpn_nll(y, mu, g), gamma)
                assert_allclose(dmu, fd_mu, rtol=2e-5, atol=1e-7)
                assert_allclose(dgamma, fd_gamma, rtol=2e-5, atol=1e-7)

    def test_dispersion_gradient_example(self):
        _, dgamma = losses.ddpn_grads(4.0, 2.0, 0.5, beta=0.0)
        assert_allclose(dgamma, -0.227411277762, atol=1e-9)

    def test_array_broadcast_matches_scalar(self):
        ys, mus, gammas = random_tuples(20, 4)
        vec = losses.ddpn_nll(ys, mus, gammas)
        for i in range(20):
            assert vec[i] == losses.ddpn_nll(ys[i], mus[i], gammas[i])
        dmu, dgamma = losses.ddpn_grads(ys, mus, gammas, 0.5)
        for i in range(5):
            s_mu, s_gamma = losses.ddpn_grads(ys[i], mus[i], gammas[i], 0.5)
            assert dmu[i] == s_mu
            assert dgamma[i] == s_gamma

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            losses.ddpn_nll(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            losses.ddpn_nll(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            losses.ddpn_nll(1.0, 1.0, -2.0)
        with pytest.raises(DomainError):
            losses.ddpn_nll(1.0, 1.0, 1.0, 1.5)
        with pytest.raises(DomainError):
            losses.attenuation_decompose(1.0, 1.0, 0.0)


class TestAttenuationParts:
    def test_fields(self):
        p = losses.attenuation_decompose(4.0, 2.0, 2.0)
        assert_allclose(p.d, 0.5 * math.log(2.0), rtol=1e-14)
        assert_allclose(p.a, 0.5, rtol=1e-14)
        assert p.phi == 2.0
        # r = (mu - y) - y*log(mu/y)
        assert_allclose(p.r, (2.0 - 4.0) - 4.0 * math.log(0.5), rtol=1e-14)

    def test_inflating_phi_discounts_a_fixed_residual(self):
        """Raising claimed dispersion trades a log penalty for attenuation:
        with r fixed, a*r falls like 1/phi while d only grows like log."""
        y, mu = 10.0, 3.0
        phis = (0.5, 1.0, 4.0, 16.0)
        parts = [losses.attenuation_decompose(y, mu, p) for p in phis]
        ar = [p.a * p.r for p in parts]
        assert all(a > b for a, b in zip(ar, ar[1:]))
        assert all(parts[i].d < parts[i + 1].d for i in range(len(parts) - 1))


class TestLossSpec:
    def test_beta_pinned_for_fixed_dispersion_families(self):
        assert losses.LossSpec("poisson", 0.7).beta == 0.0
        assert losses.LossSpec("neg_binomial", 1.0).beta == 0.0
        assert losses.LossSpec("gaussian", 0.7).beta == 0.7
        assert losses.LossSpec("double_poisson", 0.25).beta == 0.25

    def test_head_counts(self):
        assert losses.LossSpec("poisson").head_count == 1
        for family in ("double_poisson", "neg_binomial", "gaussian"):
            assert losses.LossSpec(family).head_count == 2

    def test_validation(self):
        with pytest.raises(DomainError):
            losses.LossSpec("binomial")
        with pytest.raises(DomainError):
            losses.LossSpec("gaussian", -0.1)


def head_loss(spec, y, *heads):
    """head_nll on one example: (value, gradients w.r.t. each head)."""
    values, dheads = losses.head_nll(spec, np.array([y]), np.array([heads]))
    return float(values[0]), tuple(dheads[0].tolist())


class TestPoissonBaseline:
    def test_value_is_logpmf_without_parameter_free_terms(self):
        y = 6.0
        diffs = []
        for log_mu in (-0.5, 0.2, 1.7):
            value, _ = head_loss(losses.LossSpec("poisson"), y, log_mu)
            diffs.append(value + stats.poisson.logpmf(y, math.exp(log_mu)))
        assert_allclose(diffs, -gammaln(y + 1.0), rtol=1e-12)

    def test_gradient_in_log_space(self):
        rng = np.random.default_rng(6)
        spec = losses.LossSpec("poisson")
        for _ in range(20):
            y = float(rng.integers(0, 15))
            a = float(rng.uniform(-1.0, 2.5))

            def f(t):
                return head_loss(spec, y, t)[0]

            _, grads = head_loss(spec, y, a)
            assert len(grads) == 1
            assert_allclose(grads[0], central_diff(f, a), rtol=1e-5, atol=1e-7)


class TestNegBinomialBaseline:
    def test_value_matches_library_logpmf(self):
        """m = exp(log_mu), r = 1/dispersion, p = r/(r+m); the loss equals
        the negative log PMF with the log y! term put back."""
        rng = np.random.default_rng(7)
        spec = losses.LossSpec("neg_binomial")
        for _ in range(25):
            y = float(rng.integers(0, 20))
            a = float(rng.uniform(-0.5, 2.5))
            b = float(rng.uniform(-2.0, 1.5))
            value, _ = head_loss(spec, y, a, b)
            m, r = math.exp(a), math.exp(-b)
            ref = -(stats.nbinom.logpmf(y, r, r / (r + m)) + gammaln(y + 1.0))
            assert_allclose(value, ref, rtol=1e-10, atol=1e-10)

    def test_gradients(self):
        rng = np.random.default_rng(8)
        spec = losses.LossSpec("neg_binomial")
        for _ in range(20):
            y = float(rng.integers(0, 20))
            a = float(rng.uniform(-0.5, 2.5))
            b = float(rng.uniform(-2.0, 1.5))
            _, (g_mu, g_disp) = head_loss(spec, y, a, b)

            def f_mu(t):
                return head_loss(spec, y, t, b)[0]

            def f_disp(t):
                return head_loss(spec, y, a, t)[0]

            assert_allclose(g_mu, central_diff(f_mu, a), rtol=2e-5, atol=1e-6)
            assert_allclose(g_disp, central_diff(f_disp, b), rtol=2e-5, atol=1e-6)


class TestGaussianBaseline:
    def test_value_matches_library_logpdf(self):
        spec = losses.LossSpec("gaussian")
        value, _ = head_loss(spec, 4.0, 1.0, 0.6)
        mu, s2 = math.exp(1.0), math.exp(0.6)
        ref = -stats.norm.logpdf(4.0, mu, math.sqrt(s2)) - 0.5 * math.log(2.0 * math.pi)
        assert_allclose(value, ref, rtol=1e-12)

    def test_beta_scales_by_variance_power(self):
        base, _ = head_loss(losses.LossSpec("gaussian", 0.0), 3.0, 0.5, 1.2)
        scaled, _ = head_loss(losses.LossSpec("gaussian", 0.5), 3.0, 0.5, 1.2)
        assert_allclose(scaled, math.exp(1.2) ** 0.5 * base, rtol=1e-12)

    def test_gradients_with_frozen_scale(self):
        rng = np.random.default_rng(9)
        for beta in (0.0, 0.5, 1.0):
            spec = losses.LossSpec("gaussian", beta)
            for _ in range(15):
                y = float(rng.uniform(0.0, 12.0))
                a = float(rng.uniform(-0.5, 2.0))
                b = float(rng.uniform(-1.5, 1.5))
                _, (g_mu, g_disp) = head_loss(spec, y, a, b)
                scale = math.exp(b) ** beta
                base_spec = losses.LossSpec("gaussian", 0.0)

                def f_mu(t):
                    return scale * head_loss(base_spec, y, t, b)[0]

                def f_disp(t):
                    return scale * head_loss(base_spec, y, a, t)[0]

                assert_allclose(g_mu, central_diff(f_mu, a), rtol=2e-5, atol=1e-6)
                assert_allclose(g_disp, central_diff(f_disp, b), rtol=2e-5, atol=1e-6)


HEAD_SPECS = [losses.LossSpec("double_poisson", 0.5), losses.LossSpec("poisson"),
              losses.LossSpec("neg_binomial"), losses.LossSpec("gaussian", 0.5)]


class TestHeadNll:
    def test_double_poisson_matches_natural_parameter_oracles(self):
        """Values are ddpn_nll at (e^h0, e^h1) and the head gradients are
        ddpn_grads times the chain factors (mu, gamma), bit for bit."""
        ys, mus, gammas = random_tuples(64, 10)
        heads = np.stack([np.log(mus), np.log(gammas)], axis=1)
        for beta in (0.0, 0.5, 1.0):
            values, dheads = losses.head_nll(losses.LossSpec("double_poisson", beta), ys, heads)
            mu, gamma = np.exp(heads[:, 0]), np.exp(heads[:, 1])
            dmu, dgamma = losses.ddpn_grads(ys, mu, gamma, beta)
            assert values.tobytes() == losses.ddpn_nll(ys, mu, gamma, beta).tobytes()
            assert dheads.tobytes() == np.stack([dmu * mu, dgamma * gamma], axis=1).tobytes()

    @pytest.mark.parametrize("spec", HEAD_SPECS, ids=lambda spec: spec.family)
    def test_batch_equals_rows_bit_for_bit(self, spec):
        rng = np.random.default_rng(11)
        ys = rng.integers(0, 20, 9).astype(float)
        heads = rng.uniform(-1.0, 2.0, (9, spec.head_count))
        values, dheads = losses.head_nll(spec, ys, heads)
        assert values.shape == (9,) and dheads.shape == (9, spec.head_count)
        for i in range(9):
            row_value, row_grads = losses.head_nll(spec, ys[i:i + 1], heads[i:i + 1])
            assert row_value.tobytes() == values[i:i + 1].tobytes()
            assert row_grads.tobytes() == dheads[i:i + 1].tobytes()

    @pytest.mark.parametrize("head", [[800.0, 0.0], [0.0, -800.0], [math.nan, 0.0]])
    def test_double_poisson_overflow_is_numeric_divergence(self, head):
        heads = np.array([[0.5, 0.1], head])
        with np.errstate(over="ignore"), pytest.raises(NumericDivergence, match="overflowed"):
            losses.head_nll(losses.LossSpec("double_poisson"), np.array([1.0, 2.0]), heads)
