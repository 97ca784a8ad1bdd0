"""MLP forward/backward, the training loop, and checkpoint round trips.

Backpropagation is checked against central finite differences over every
trainable parameter of a small network, for each loss family.
"""

import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ddpnkit import datagen, network
from ddpnkit.errors import DomainError, NumericDivergence, ShapeError
from ddpnkit.losses import LossSpec, ddpn_grads, head_nll


def toy_problem(head_count=2, seed=0, n=7, d=2):
    rng = np.random.default_rng(seed)
    weights = network.init_mlp(d, (5, 4), head_count, seed, gamma_bias_init=0.3)
    weights.x_mean = rng.normal(0.0, 0.5, d)
    weights.x_std = rng.uniform(0.5, 2.0, d)
    X = rng.normal(0.0, 1.0, (n, d))
    ys = rng.integers(0, 12, n).astype(float)
    return weights, X, ys


def flat_params(layers):
    """The arrays of a list of [W, b] pairs, in order."""
    return [arr for pair in layers for arr in pair]


def backward(weights, X, ys, spec):
    """network._backward as train runs it, in train's error state, into views
    of a fresh flat gradient vector: (gradient [W, b] pairs, mean loss)."""
    flat = np.empty(sum(a.size for a in flat_params(weights.layers)))
    grads = network._flat_views(flat, weights.layers)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return grads, network._backward(weights, X, ys, spec, grads)


class TestForward:
    def test_glm_at_train_mean_returns_biases(self):
        """With no hidden layers the heads are affine in standardized x, so
        the initial dispersion head output at x = x_mean is its bias."""
        w = network.init_mlp(1, (), 2, 3, gamma_bias_init=5.0)
        w.x_mean = np.array([2.0])
        w.x_std = np.array([4.0])
        out = network.forward_batch(w, np.array([[2.0]]))[0]
        assert out[1] == 5.0
        assert out[0] == w.layers[-1][1][0]

    def test_single_head_output(self):
        w = network.init_mlp(2, (4,), 1, 0)
        out = network.forward_batch(w, np.array([[0.3, -0.1]]))
        assert out.shape == (1, 1)

    def test_forward_matches_manual_computation(self):
        weights, X, _ = toy_problem()
        z = (X - weights.x_mean) / weights.x_std
        h = z
        for W, b in weights.layers[:-1]:
            h = np.maximum(h @ W.T + b, 0.0)
        head_w, head_b = weights.layers[-1]
        expected = h @ head_w.T + head_b
        assert_allclose(network.forward_batch(weights, X), expected, rtol=1e-14)

    def test_single_row_consistency(self):
        # matmul blocking may differ between batch sizes, so compare to
        # rounding error rather than bit-exactly
        weights, X, _ = toy_problem()
        batch = network.forward_batch(weights, X)
        one = network.forward_batch(weights, X[2][None])[0]
        assert_allclose(one, batch[2], rtol=1e-12)

    def test_feature_count_mismatch(self):
        weights, _, _ = toy_problem(d=2)
        with pytest.raises(ShapeError):
            network.forward_batch(weights, np.zeros((3, 5)))


def benchmark_network(seed=0):
    """The default 128-128-128-64 double-head network on one input, with a
    standardizer that is not the identity."""
    weights = network.init_mlp(1, (128, 128, 128, 64), 2, seed)
    weights.x_mean, weights.x_std = np.array([5.0]), np.array([2.9])
    return weights


class TestBlockedInference:
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1000, 4097])
    def test_matches_unblocked_pass_bit_for_bit(self, n):
        """Row blocks through the hidden layers and one whole-rows head give
        the bits of one layer-by-layer pass over all rows."""
        weights = benchmark_network()
        X = np.random.default_rng(n).uniform(-2.0, 20.0, (n, 1))
        a = (X - weights.x_mean) / weights.x_std
        for W, b in weights.layers[:-1]:
            a = np.maximum(a @ W.T + b, 0.0)
        head_w, head_b = weights.layers[-1]
        want = a @ head_w.T + head_b
        got = network.forward_batch(weights, X)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_forward_batch_peak_memory(self):
        """1000 rows through the benchmark network hold one row block's
        activations and the (1000, 64) last hidden layer: a traced peak of
        about 1.0 MB, against 2.05 MB with two (1000, 128) arrays per layer."""
        weights = benchmark_network()
        X = np.random.default_rng(0).uniform(0.0, 10.0, (1000, 1))
        tracemalloc.start()
        try:
            heads = network.forward_batch(weights, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert heads.shape == (1000, 2)
        assert peak < 1.5e6, f"traced peak {peak / 1e6:.2f} MB"


class TestInit:
    def test_deterministic_and_seed_sensitive(self):
        a = network.init_mlp(2, (8, 4), 2, 11)
        b = network.init_mlp(2, (8, 4), 2, 11)
        assert all(np.array_equal(x, y)
                   for x, y in zip(flat_params(a.layers), flat_params(b.layers)))
        c = network.init_mlp(2, (8, 4), 2, 12)
        assert not np.array_equal(a.layers[0][0], c.layers[0][0])

    def test_fan_in_bounds(self):
        w = network.init_mlp(4, (16,), 2, 0)
        assert np.max(np.abs(w.layers[0][0])) <= 1.0 / math.sqrt(4)
        assert np.max(np.abs(w.layers[-1][0])) <= 1.0 / math.sqrt(16)

    def test_gamma_bias_stored_exactly(self):
        assert network.init_mlp(1, (4,), 2, 0, gamma_bias_init=-2.5).layers[-1][1][1] == -2.5

    def test_draw_order(self):
        """One generator draws W, then b, of each layer in turn, the head
        last, each from U(-1/sqrt(fan_in), 1/sqrt(fan_in)); the dispersion
        bias is then set to gamma_bias_init."""
        w = network.init_mlp(2, (3, 4), 2, 9, gamma_bias_init=-1.25)
        rng = np.random.default_rng(9)
        want = []
        for fan_in, width in ((2, 3), (3, 4), (4, 2)):
            bound = 1.0 / math.sqrt(fan_in)
            want += [rng.uniform(-bound, bound, size=(width, fan_in)),
                     rng.uniform(-bound, bound, size=width)]
        want[-1][1] = -1.25
        got = flat_params(w.layers)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_config_validation(self):
        with pytest.raises(DomainError, match="input_dim must be positive, got 0"):
            network.init_mlp(0, (4,), 2, 0)
        with pytest.raises(DomainError, match="head_count must be 1 or 2, got 3"):
            network.init_mlp(1, (4,), 3, 0)
        with pytest.raises(DomainError, match=r"hidden widths must be positive, got \(4, 0\)"):
            network.init_mlp(1, (4, 0), 2, 0)


class TestBackward:
    @staticmethod
    def _frozen_scale_loss(weights, X, ys, spec, scale0):
        """Batch loss with the per-example beta scale pinned at scale0, which
        is the function the analytic stop-gradient derivative belongs to."""
        from ddpnkit.losses import ddpn_nll

        heads = network.forward_batch(weights, X)
        if spec.family == "double_poisson":
            values = ddpn_nll(ys, np.exp(heads[:, 0]), np.exp(heads[:, 1]))
        elif spec.family == "gaussian":
            values, _ = head_nll(LossSpec("gaussian", 0.0), ys, heads)
        else:
            return network.batch_loss(weights, X, ys, spec)
        return float(np.mean(scale0 * values))

    @pytest.mark.parametrize("spec", [
        LossSpec("double_poisson", 0.0),
        LossSpec("double_poisson", 0.5),
        LossSpec("double_poisson", 1.0),
        LossSpec("poisson"),
        LossSpec("neg_binomial"),
        LossSpec("gaussian", 0.3),
    ])
    def test_gradients_match_finite_differences(self, spec):
        weights, X, ys = toy_problem(head_count=spec.head_count)
        grads, loss0 = backward(weights, X, ys, spec)
        assert_allclose(loss0, network.batch_loss(weights, X, ys, spec), rtol=1e-13)
        heads0 = network.forward_batch(weights, X)
        if spec.family == "double_poisson":
            scale0 = np.exp(heads0[:, 1]) ** (-spec.beta)
        elif spec.family == "gaussian":
            scale0 = np.exp(heads0[:, 1]) ** spec.beta
        else:
            scale0 = np.ones(ys.size)
        h = 1e-6
        for p_arr, g_arr in zip(flat_params(weights.layers), flat_params(grads)):
            flat_p = p_arr.reshape(-1)
            flat_g = np.asarray(g_arr).reshape(-1)
            for k in range(flat_p.size):
                orig = flat_p[k]
                flat_p[k] = orig + h
                up = self._frozen_scale_loss(weights, X, ys, spec, scale0)
                flat_p[k] = orig - h
                down = self._frozen_scale_loss(weights, X, ys, spec, scale0)
                flat_p[k] = orig
                fd = (up - down) / (2.0 * h)
                assert_allclose(flat_g[k], fd, rtol=5e-4, atol=1e-7)

    def test_label_count_mismatch(self):
        weights, X, ys = toy_problem()
        with pytest.raises(ShapeError):
            backward(weights, X, ys[:-1], LossSpec("double_poisson"))

    def test_overflowed_heads_divergence(self):
        weights, X, ys = toy_problem()
        weights.layers[-1][1] = np.array([1000.0, 0.0])  # exp overflows to inf
        with pytest.raises(NumericDivergence):
            backward(weights, X, ys, LossSpec("double_poisson"))
        assert network.batch_loss(weights, X, ys, LossSpec("double_poisson")) == math.inf

    @pytest.mark.parametrize("head_b", [[-1000.0, 0.0], [0.0, -1000.0], [math.nan, 0.0]])
    def test_underflowed_or_nan_heads_divergence(self, head_b):
        """exp(-1000) is 0, out of the positive range like an overflow; with a
        zero label in the batch the loss itself would be nan, not inf."""
        weights, X, ys = toy_problem()
        ys[0] = 0.0
        weights.layers[-1][1] = np.array(head_b)
        with pytest.raises(NumericDivergence, match="positive range"):
            backward(weights, X, ys, LossSpec("double_poisson"))
        assert network.batch_loss(weights, X, ys, LossSpec("double_poisson")) == math.inf

    @pytest.mark.parametrize("family, head_b", [
        ("double_poisson", [800.0, 0.0]), ("poisson", [800.0]),
        ("neg_binomial", [0.0, -800.0]), ("gaussian", [800.0, 800.0])])
    def test_blown_up_batch_loss_is_inf_for_every_family(self, family, head_b):
        """Heads far out of range give each family an inf or nan loss (a
        dispersion of exp(-800) = 0 makes the negative binomial's nan, and
        inf / inf the Gaussian's); the batch loss reads inf either way."""
        weights, X, ys = toy_problem(head_count=len(head_b))
        weights.layers[-1][1] = np.array(head_b)
        assert network.batch_loss(weights, X, ys, LossSpec(family)) == math.inf


class TestCosineSchedule:
    def test_endpoint_identities(self):
        assert network.cosine_lr(0, 100, 0.5) == 0.5
        assert_allclose(network.cosine_lr(50, 100, 0.5), 0.25, rtol=1e-14)
        assert network.cosine_lr(100, 100, 0.5) == 0.0

    def test_monotone_decay(self):
        lrs = [network.cosine_lr(e, 40, 1e-3) for e in range(41)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))


def tiny_dataset(n=60, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 4.0, n)
    ys = rng.poisson(np.exp(0.5 * xs))

    class DS:
        pass

    ds = DS()
    ds.xs = xs[:, None]
    ds.ys = ys
    split = datagen.SplitIndices(np.arange(48), np.arange(48, 60))
    return ds, split


class TestTrain:
    def test_deterministic_for_fixed_seed(self):
        ds, split = tiny_dataset()
        config = network.TrainConfig(loss=LossSpec("double_poisson"), epochs=4,
                                     hidden_widths=(8,), seed=5)
        w1, r1 = network.train(ds, split, config)
        w2, r2 = network.train(ds, split, config)
        assert r1.train_loss == r2.train_loss
        assert r1.val_loss == r2.val_loss
        assert all(np.array_equal(a, b)
                   for a, b in zip(flat_params(w1.layers), flat_params(w2.layers)))

    def test_best_epoch_minimizes_validation_loss(self):
        ds, split = tiny_dataset()
        config = network.TrainConfig(loss=LossSpec("double_poisson"), epochs=6,
                                     hidden_widths=(8,), seed=1)
        best, report = network.train(ds, split, config)
        assert report.best_epoch == int(np.argmin(report.val_loss)) + 1
        assert report.val_loss[report.best_epoch - 1] == min(report.val_loss)
        recomputed = network.batch_loss(best, ds.xs[split.val], ds.ys[split.val], config.loss)
        assert_allclose(recomputed, min(report.val_loss), rtol=1e-13)
        assert len(report.train_loss) == 6
        assert report.wall_time > 0.0

    def test_standardizer_from_train_split(self):
        ds, split = tiny_dataset()
        config = network.TrainConfig(loss=LossSpec("poisson"), epochs=1, hidden_widths=(4,))
        w, _ = network.train(ds, split, config)
        assert_allclose(w.x_mean, ds.xs[split.train].mean(axis=0), rtol=1e-13)
        assert_allclose(w.x_std, ds.xs[split.train].std(axis=0), rtol=1e-13)

    def test_epoch_hook_sees_every_epoch(self):
        ds, split = tiny_dataset()
        config = network.TrainConfig(loss=LossSpec("poisson"), epochs=3, hidden_widths=(4,))
        seen = []
        network.train(ds, split, config, epoch_hook=lambda e, w: seen.append(e))
        assert seen == [1, 2, 3]

    def test_loss_improves_on_well_specified_data(self):
        """Validation loss after a short run beats the first-epoch value on
        data an exponential-rate head can represent exactly."""
        from ddpnkit.datagen import gen_misspec_poisson

        ds, split = gen_misspec_poisson(n=500, seed=0)
        config = network.TrainConfig(loss=LossSpec("poisson"), epochs=50, seed=0)
        _, report = network.train(ds, split, config)
        assert min(report.val_loss) < report.val_loss[0]

    def test_divergence_carries_partial_report(self):
        ds, split = tiny_dataset()
        config = network.TrainConfig(loss=LossSpec("double_poisson"), epochs=3,
                                     hidden_widths=(8,), lr=1e12, seed=0)
        with pytest.raises(NumericDivergence) as err:
            network.train(ds, split, config)
        assert err.value.report is not None
        assert err.value.report.final_weights is not None

    def test_no_finite_validation_loss_raises(self):
        """One AdamW step at lr 1e308 leaves weights whose validation loss is
        not finite; returning the initial weights would hide that."""
        ds, split = tiny_dataset()
        config = network.TrainConfig(loss=LossSpec("double_poisson"), epochs=1,
                                     batch_size=split.train.size, hidden_widths=(8,),
                                     lr=1e308, seed=0)
        with pytest.raises(NumericDivergence, match="finite validation loss") as err:
            network.train(ds, split, config)
        assert err.value.report.best_epoch == 0
        assert err.value.report.val_loss == [math.inf]

    @pytest.mark.parametrize("field, value", [
        ("lr", math.nan), ("lr", math.inf), ("weight_decay", math.nan),
        ("weight_decay", math.inf), ("gamma_bias_init", math.nan),
        ("gamma_bias_init", -math.inf)])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(DomainError, match=field):
            network.TrainConfig(loss=LossSpec("double_poisson"), **{field: value})

    def test_empty_split_rejected(self):
        ds, _ = tiny_dataset()
        bad = datagen.SplitIndices(np.arange(0), np.arange(5))
        config = network.TrainConfig(loss=LossSpec("poisson"), epochs=1)
        with pytest.raises(DomainError):
            network.train(ds, bad, config)

    def test_beta_selection_uses_scaled_loss_unless_told_otherwise(self):
        ds, split = tiny_dataset()
        base = dict(epochs=3, hidden_widths=(6,), seed=2)
        scaled = network.TrainConfig(loss=LossSpec("double_poisson", 1.0), **base)
        _, r_scaled = network.train(ds, split, scaled)
        plain = network.TrainConfig(loss=LossSpec("double_poisson", 1.0),
                                    select_unscaled=True, **base)
        _, r_plain = network.train(ds, split, plain)
        assert r_scaled.train_loss == r_plain.train_loss  # same optimization path
        assert r_scaled.val_loss != r_plain.val_loss      # different selection metric


def _reference_backward(weights, X, ys, spec):
    """Per-array backpropagation: Double Poisson head gradients from the
    checked natural-parameter ddpn_grads, the baselines' from head_nll."""
    acts = []
    heads = network.forward_batch(weights, X, acts)
    if spec.family == "double_poisson":
        mu, gamma = np.exp(heads[:, 0]), np.exp(heads[:, 1])
        dmu, dgamma = ddpn_grads(ys, mu, gamma, spec.beta)
        dheads = np.stack([dmu * mu, dgamma * gamma], axis=1)
    else:
        _, dheads = head_nll(spec, ys, heads)
    dheads = dheads / float(ys.size)
    grads = [[dheads.T @ acts[-1], dheads.sum(axis=0)]]
    delta = dheads @ weights.layers[-1][0]
    for i in range(len(weights.layers) - 2, -1, -1):
        delta = delta * (acts[i + 1] > 0.0)
        grads.append([delta.T @ acts[i], delta.sum(axis=0)])
        delta = delta @ weights.layers[i][0]
    grads.reverse()
    return grads


def _reference_train(ds, split, config):
    """network.train with one folded AdamW update per weight array, the
    reference its flat-vector update must match bit for bit; returns the best
    and the final weights. m and v are the undamped moment sums."""
    xs, ys = ds.xs, np.asarray(ds.ys, dtype=float)
    weights = network.init_mlp(xs.shape[1], config.hidden_widths, config.loss.head_count,
                               config.seed, config.gamma_bias_init)
    train_x, train_y = xs[split.train], ys[split.train]
    std = train_x.std(axis=0)
    std[std < 1e-12] = 1.0
    weights.x_mean = train_x.mean(axis=0)
    weights.x_std = std
    params = flat_params(weights.layers)
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    step = 0
    shuffle_rng = np.random.default_rng(config.seed + 1)
    best_val, best_weights = math.inf, copy.deepcopy(weights)
    for epoch in range(config.epochs):
        lr = network.cosine_lr(epoch, config.epochs, config.lr)
        order = shuffle_rng.permutation(split.train.size)
        for start in range(0, order.size, config.batch_size):
            rows = order[start : start + config.batch_size]
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                grads = _reference_backward(weights, train_x[rows], train_y[rows], config.loss)
            step += 1
            bias1 = 1.0 - network.ADAM_BETA1**step
            bias2 = 1.0 - network.ADAM_BETA2**step
            s = math.sqrt((1.0 - network.ADAM_BETA2) / bias2)
            for p, g, m, v in zip(params, flat_params(grads), m_state, v_state):
                m *= network.ADAM_BETA1
                m += g
                v *= network.ADAM_BETA2
                v += g * g
                step_vec = m / (np.sqrt(v) + network.ADAM_EPS / s)
                step_vec *= lr * (1.0 - network.ADAM_BETA1) / (bias1 * s)
                p *= 1.0 - lr * config.weight_decay
                p -= step_vec
        val_loss = network.batch_loss(weights, xs[split.val], ys[split.val], config.loss)
        if math.isfinite(val_loss) and val_loss < best_val:
            best_val, best_weights = val_loss, copy.deepcopy(weights)
    return best_weights, weights


FAMILY_BETAS = [("double_poisson", 0.0), ("double_poisson", 0.5), ("double_poisson", 1.0),
            ("poisson", 0.0), ("neg_binomial", 0.0), ("gaussian", 0.3)]


class TestFlatOptimizer:
    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(FAMILY_BETAS),
           widths=st.lists(st.integers(1, 9), min_size=0, max_size=3),
           batch_size=st.integers(1, 50), seed=st.integers(0, 2**16))
    @example(family=FAMILY_BETAS[0], widths=[6, 4], batch_size=16, seed=0)
    @example(family=FAMILY_BETAS[1], widths=[5], batch_size=16, seed=1)
    @example(family=FAMILY_BETAS[3], widths=[5], batch_size=16, seed=2)
    @example(family=FAMILY_BETAS[4], widths=[5], batch_size=16, seed=3)
    @example(family=FAMILY_BETAS[5], widths=[5], batch_size=16, seed=4)
    @example(family=FAMILY_BETAS[0], widths=[], batch_size=16, seed=5)
    @example(family=FAMILY_BETAS[1], widths=[7, 3], batch_size=10, seed=6)
    def test_matches_per_array_adamw_bit_for_bit(self, family, widths, batch_size, seed):
        """Best and final weights equal those of the per-array update to the
        bit, for any depth, width, family and batch size (48 training rows,
        so most batch sizes leave a short last batch)."""
        ds, split = tiny_dataset(seed=seed)
        config = network.TrainConfig(loss=LossSpec(*family), epochs=3, batch_size=batch_size,
                                     hidden_widths=tuple(widths), lr=1e-2, seed=seed)
        ref_best, ref_final = _reference_train(ds, split, config)
        best, report = network.train(ds, split, config)
        for ours, ref in ((best, ref_best), (report.final_weights, ref_final)):
            assert all(np.array_equal(a, b)
                       for a, b in zip(flat_params(ours.layers), flat_params(ref.layers)))
            assert network.render_checkpoint(ours, {}) == network.render_checkpoint(ref, {})

    def test_best_and_final_weights_share_no_memory(self):
        ds, split = tiny_dataset()
        config = network.TrainConfig(loss=LossSpec("double_poisson"), epochs=2,
                                     hidden_widths=(6, 4), seed=0)
        best, report = network.train(ds, split, config)
        final = report.final_weights
        for a, b in zip(flat_params(best.layers), flat_params(final.layers)):
            assert not np.shares_memory(a, b)
        assert not np.shares_memory(best.x_mean, final.x_mean)

    def test_backward_into_views_matches_fresh_arrays(self):
        weights, X, ys = toy_problem()
        spec = LossSpec("double_poisson", 0.5)
        fresh, loss0 = backward(weights, X, ys, spec)
        flat = np.full(sum(a.size for a in flat_params(weights.layers)), np.nan)
        out = network._flat_views(flat, weights.layers)
        loss1 = network._backward(weights, X, ys, spec, out)
        assert loss1 == loss0
        assert np.array_equal(flat, np.concatenate([a.ravel() for a in flat_params(fresh)]))
        reference = _reference_backward(weights, X, ys, spec)
        assert all(np.array_equal(a, b)
                   for a, b in zip(flat_params(fresh), flat_params(reference)))

    @pytest.mark.parametrize("family", ["double_poisson", "poisson"])
    @pytest.mark.parametrize("role", ["train", "val"])
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_bad_label_stops_train_before_first_step(self, monkeypatch, family, role, bad):
        ds, split = tiny_dataset()
        ds.ys = ds.ys.astype(float)
        ds.ys[getattr(split, role)[3]] = bad
        steps, epochs = [], []
        update = network._adamw_update
        monkeypatch.setattr(network, "_adamw_update", lambda *a: steps.append(1) or update(*a))
        config = network.TrainConfig(loss=LossSpec(family), epochs=2, hidden_widths=(4,))
        with pytest.raises(DomainError, match="labels"):
            network.train(ds, split, config, epoch_hook=lambda e, w: epochs.append(e))
        assert steps == [] and epochs == []

    def test_bad_test_label_is_never_read(self):
        ds, _ = tiny_dataset()
        split = datagen.SplitIndices(np.arange(40), np.arange(40, 50), np.arange(50, 60))
        config = network.TrainConfig(loss=LossSpec("double_poisson"), epochs=2,
                                     hidden_widths=(4,), seed=0)
        clean, clean_report = network.train(ds, split, config)
        ds.ys = ds.ys.astype(float)
        ds.ys[split.test] = [math.nan, math.inf, -1.0] + [-2.5] * 7
        best, report = network.train(ds, split, config)
        assert report.val_loss == clean_report.val_loss
        assert all(np.array_equal(a, b)
                   for a, b in zip(flat_params(best.layers), flat_params(clean.layers)))

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_double_poisson_labels_still_checked(self, bad):
        ds, split = tiny_dataset()
        ds.ys = ds.ys.astype(float)
        ds.ys[split.train[5]] = bad
        config = network.TrainConfig(loss=LossSpec("double_poisson"), epochs=1,
                                     hidden_widths=(4,), seed=0)
        with pytest.raises(DomainError, match="labels"):
            network.train(ds, split, config)


def _textbook_adamw(p, g, m, v, lr, weight_decay, bias1, bias2):
    """AdamW with damped moments and bias corrections applied to them."""
    b1, b2 = network.ADAM_BETA1, network.ADAM_BETA2
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + ((1.0 - b2) * g) * g
    p = p - lr * ((m / bias1) / (np.sqrt(v / bias2) + network.ADAM_EPS) + weight_decay * p)
    return p, m, v


class TestFoldedAdamW:
    @settings(max_examples=150, deadline=None)
    @given(step=st.floats(0.0, 5.0).map(lambda e: int(round(10.0**e))),
           lr=st.floats(1e-6, 1e-1), weight_decay=st.sampled_from([0.0, 1e-5, 1e-2]),
           g_exp=st.floats(-14.0, 4.0), seed=st.integers(0, 2**16))
    @example(step=1, lr=1e-3, weight_decay=1e-5, g_exp=0.0, seed=0)
    @example(step=100_000, lr=1e-3, weight_decay=1e-5, g_exp=4.0, seed=1)
    @example(step=2, lr=1e-1, weight_decay=1e-2, g_exp=-14.0, seed=2)
    @example(step=1, lr=1e-3, weight_decay=0.0, g_exp=-14.0, seed=3)
    def test_one_step_matches_textbook_adamw(self, step, lr, weight_decay, g_exp, seed):
        """One folded step from the same state as the textbook update, over
        steps 1 to 1e5, gradients from 0 to 1e4 and states where eps
        dominates sqrt(v_hat). The bound is relative to the terms the step
        is made of, since the step itself cancels where m and g disagree."""
        b1, b2 = network.ADAM_BETA1, network.ADAM_BETA2
        rng = np.random.default_rng(seed)
        n = 256
        p = rng.uniform(-10.0, 10.0, n)
        g = 10.0 ** rng.uniform(-14.0, g_exp, n) * rng.choice([-1.0, 0.0, 1.0], n)
        # a history of gradients of any scale up to the present one's, none at step 1
        history = 10.0 ** rng.uniform(-14.0, g_exp, n)
        m = (1.0 - b1 ** (step - 1)) * history * rng.uniform(-1.0, 1.0, n)
        v = (1.0 - b2 ** (step - 1)) * history**2 * rng.uniform(0.0, 1.0, n)
        bias1, bias2 = 1.0 - b1**step, 1.0 - b2**step
        want_p, want_m, want_v = _textbook_adamw(p, g, m, v, lr, weight_decay, bias1, bias2)

        got_p, got_m, got_v = p.copy(), m / (1.0 - b1), v / (1.0 - b2)
        network._adamw_update(got_p, g.copy(), got_m, got_v, lr, weight_decay, bias1, bias2)

        denom = np.sqrt(want_v / bias2) + network.ADAM_EPS
        scale = np.abs(p) + lr * (np.abs(b1 * m) + np.abs((1.0 - b1) * g)) / bias1 / denom
        assert np.all(np.abs(got_p - want_p) <= 1e-14 * scale)
        assert np.all(np.abs((1.0 - b1) * got_m - want_m)
                      <= 1e-14 * (np.abs(b1 * m) + np.abs((1.0 - b1) * g)))
        assert np.all(np.abs((1.0 - b2) * got_v - want_v) <= 1e-14 * (b2 * v + (1.0 - b2) * g * g))

    def test_update_allocates_no_temporary(self):
        """The update runs in place: no vector-sized temporary, which tracemalloc
        does see (the calibration line allocates one)."""
        rng = np.random.default_rng(0)
        p, g, m = (rng.normal(size=41_666) for _ in range(3))
        v = m * m
        network._adamw_update(p, g.copy(), m, v, 1e-3, 1e-5, 0.1, 0.001)
        tracemalloc.start()
        try:
            p -= 2.0 * g
            _, calibration = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            network._adamw_update(p, g, m, v, 1e-3, 1e-5, 1.0 - 0.9**2, 1.0 - 0.999**2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert calibration >= g.nbytes
        assert peak < 4096


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        weights, _, _ = toy_problem()
        meta = {"family": "double_poisson", "beta": "0.5", "input_dim": "2"}
        path = tmp_path / "model.ckpt"
        path.write_text(network.render_checkpoint(weights, meta))
        loaded, meta2 = network.load_checkpoint(path)
        assert meta2 == meta
        assert np.array_equal(loaded.x_mean, weights.x_mean)
        assert np.array_equal(loaded.x_std, weights.x_std)
        assert len(loaded.layers) == len(weights.layers)
        for (W1, b1), (W2, b2) in zip(loaded.layers, weights.layers):
            assert np.array_equal(W1, W2)
            assert np.array_equal(b1, b2)

    def test_text_matches_per_element_repr(self):
        """The row-wise rendering writes each value as repr(float(v)), bit for
        bit, at signed zeros, subnormals and extreme magnitudes."""
        weights = network.init_mlp(3, (5, 4), 2, 7)
        special = [-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.0 / 3.0, -7.0]
        for i, arr in enumerate([weights.layers[0][0], weights.layers[1][1],
                                 *weights.layers[-1]]):
            flat = arr.reshape(-1)
            flat[:len(special)] = np.roll(special, i)[:flat.size]
        weights.x_mean[:] = [-0.0, 5e-324, 1e300]
        meta = {"family": "double_poisson"}

        def per_element(name, arr):
            shape = " ".join(str(n) for n in arr.shape)
            rows = arr.reshape(-1, arr.shape[-1])
            return [f"tensor {name} {arr.ndim} {shape}"] + [
                " ".join(repr(float(v)) for v in row) for row in rows]

        named = [("x_mean", weights.x_mean), ("x_std", weights.x_std)]
        for i, (W, b) in enumerate(weights.layers[:-1]):
            named += [(f"hidden{i}.W", W), (f"hidden{i}.b", b)]
        named += [("head.W", weights.layers[-1][0]), ("head.b", weights.layers[-1][1])]
        want = [network.CKPT_HEADER, "family=double_poisson"]
        for name, arr in named:
            want += per_element(name, arr)
        text = network.render_checkpoint(weights, meta)
        assert text == "\n".join(want) + "\n"
        assert "-0.0 " in text and "5e-324" in text and "-1e+300" in text

    def test_glm_round_trip(self, tmp_path):
        weights = network.init_mlp(1, (), 2, 0)
        path = tmp_path / "glm.ckpt"
        path.write_text(network.render_checkpoint(weights, {"family": "gaussian"}))
        loaded, _ = network.load_checkpoint(path)
        assert len(loaded.layers) == 1
        assert np.array_equal(loaded.layers[0][0], weights.layers[0][0])

    def test_render_is_versioned_text(self):
        weights, _, _ = toy_problem()
        text = network.render_checkpoint(weights, {"family": "poisson"})
        lines = text.splitlines()
        assert lines[0] == network.CKPT_HEADER
        assert lines[1] == "family=poisson"
        assert any(line.startswith("tensor x_mean 1 ") for line in lines)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(network.CheckpointFormatError):
            network.load_checkpoint(path)

    def test_truncated_tensor_rejected(self, tmp_path):
        weights, _, _ = toy_problem()
        text = network.render_checkpoint(weights, {"family": "poisson"})
        clipped = "\n".join(text.splitlines()[:-4]) + "\n"
        path = tmp_path / "clip.ckpt"
        path.write_text(clipped)
        with pytest.raises(network.CheckpointFormatError):
            network.load_checkpoint(path)
        # cut after 400 bytes, inside a tensor block
        path.write_bytes(text.encode()[:400])
        with pytest.raises(network.CheckpointFormatError):
            network.load_checkpoint(path)

    def test_corrupted_float_rejected(self, tmp_path):
        weights, _, _ = toy_problem()
        lines = network.render_checkpoint(weights, {"family": "poisson"}).splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("tensor head.W")) + 1
        lines[row] = "0.5x " + lines[row]
        path = tmp_path / "corrupt.ckpt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(network.CheckpointFormatError, match="not a number"):
            network.load_checkpoint(path)

    @pytest.mark.parametrize("value", ["1_0", "\u0663", "\uff11"])
    def test_digit_separators_and_non_ascii_digits_rejected(self, tmp_path, value):
        """Python's float() reads 1_0 as 10 and Arabic-Indic or fullwidth
        digits as digits; numpy's text reader, which parses every tensor,
        takes neither, so such a value is not a number."""
        weights, _, _ = toy_problem()
        lines = network.render_checkpoint(weights, {"family": "poisson"}).splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("tensor head.W")) + 1
        lines[row] = " ".join([value] + lines[row].split()[1:])
        path = tmp_path / "digits.ckpt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(network.CheckpointFormatError, match="not a number"):
            network.load_checkpoint(path)

    @pytest.mark.parametrize("dim", ["\u0661\u0662\u0668", "12_8", "+128", "\uff11\uff12\uff18",
                                     "\u0663", "128.0", "0x80"])
    def test_dimension_must_be_ascii_digits(self, tmp_path, dim):
        """int() reads Arabic-Indic and fullwidth digits, digit separators and
        a sign; a dimension is ASCII digits only, else the line is refused
        rather than loaded as a (128, 1) tensor."""
        weights, _, _ = toy_problem()
        lines = network.render_checkpoint(weights, {"family": "poisson"}).splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("tensor hidden0.W "))
        parts = lines[at].split()
        lines[at] = " ".join(parts[:3] + [dim] + parts[4:])
        path = tmp_path / "dims.ckpt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(network.CheckpointFormatError, match="bad tensor line"):
            network.load_checkpoint(path)

    @pytest.mark.parametrize("value", ["-inf", "nan", "1e999"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        """A weight that is not finite would turn the forward pass into nan."""
        weights, _, _ = toy_problem()
        lines = network.render_checkpoint(weights, {"family": "poisson"}).splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("tensor head.W")) + 1
        lines[row] = " ".join([value] + lines[row].split()[1:])
        path = tmp_path / "corrupt.ckpt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(network.CheckpointFormatError, match="not finite"):
            network.load_checkpoint(path)

    def test_nonpositive_input_scale_rejected(self, tmp_path):
        weights, _, _ = toy_problem()
        lines = network.render_checkpoint(weights, {"family": "poisson"}).splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("tensor x_std")) + 1
        lines[row] = " ".join(["0"] + lines[row].split()[1:])
        path = tmp_path / "zero.ckpt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(network.CheckpointFormatError, match="x_std must be positive"):
            network.load_checkpoint(path)

    def test_tensors_must_chain(self, tmp_path):
        """A renamed, reshaped or undecodable tensor is a format error, not a
        KeyError or a failed matmul later."""
        weights, _, _ = toy_problem()
        text = network.render_checkpoint(weights, {"family": "double_poisson"})
        path = tmp_path / "bad.ckpt"
        for broken in (text.replace("tensor hidden1.b", "tensor hidden1.c"),
                       text.replace("tensor hidden1.W", "tensor hidden3.W"),
                       text.replace("tensor head.b", "tensor head.c")):
            path.write_text(broken)
            with pytest.raises(network.CheckpointFormatError, match="do not fit"):
                network.load_checkpoint(path)
        path.write_bytes(b"\xff" + text.encode())
        with pytest.raises(network.CheckpointFormatError, match="not a text file"):
            network.load_checkpoint(path)

    @pytest.mark.parametrize("case, match", [
        ("duplicate", "tensor head.W appears twice"),
        ("unknown", "unexpected tensor extra"),
        ("gap", "unexpected tensor hidden2.W"),
        ("negative", "bad tensor line"),
        ("huge", "tensor extra expected shape"),
    ])
    def test_malformed_tensor_set_rejected(self, tmp_path, case, match):
        """A tensor given twice, a tensor no layer uses, a hidden layer after
        a missing one (which would load a deeper network as a shallower one),
        a negative dimension and one too large to allocate are format errors,
        not a silent load or a crash."""
        lines = network.render_checkpoint(network.init_mlp(2, (4, 4, 4), 2, 1),
                                          {"family": "poisson"}).splitlines()

        def at(name):
            return next(i for i, line in enumerate(lines) if line.startswith(f"tensor {name} "))

        if case == "duplicate":
            lines += lines[at("head.W"):at("head.b")]
        elif case == "unknown":
            lines += ["tensor extra 1 2", "1.0 2.0"]
        elif case == "gap":
            del lines[at("hidden1.W"):at("hidden2.W")]
        elif case == "negative":
            lines += ["tensor extra 2 0 -1"]
        else:
            lines += ["tensor extra 1 99999999999999999999", "1.0"]
        path = tmp_path / f"{case}.ckpt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(network.CheckpointFormatError, match=match):
            network.load_checkpoint(path)

    def test_train_meta_echo(self):
        config = network.TrainConfig(loss=LossSpec("double_poisson", 0.5), epochs=7,
                                     hidden_widths=(8, 4), seed=3)
        meta = network.train_meta(config, input_dim=1)
        assert meta["family"] == "double_poisson"
        assert meta["beta"] == "0.5"
        assert meta["input_dim"] == "1"
        assert meta["epochs"] == "7"
        assert meta["hidden_widths"] == "8,4"
