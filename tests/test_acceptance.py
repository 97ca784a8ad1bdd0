"""Release acceptance gate.

Each test checks one numbered criterion and prints a single
``[criterion NN] PASS`` or ``FAIL`` line with the measured quantities, so a
full run reads as a checklist. Tolerances are pinned here; a FAIL means the
implementation does not meet that contract, not that the bound needs
loosening.

The training criteria (5 through 8 and 10) pin small fixed recipes: dataset
seeds, network widths, epoch budgets and batch sizes chosen so the
qualitative effects under test appear at desk scale in a few minutes total.
Criteria 7 and 8 raise the dispersion head's bias init to 3.0; with the bias
at its default the isolated points start out amplified rather than
attenuated and every beta fits them quickly, which hides the recovery
behavior those criteria probe.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np
import pytest

from ddpnkit import cli
from ddpnkit import datagen
from ddpnkit import distributions as dists
from ddpnkit import ensemble
from ddpnkit import losses
from ddpnkit import metrics
from ddpnkit import moments
from ddpnkit import network
from ddpnkit import ood
from ddpnkit.losses import LossSpec


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# --- criterion 1: loss decomposition identity ---------------------------------


def test_criterion_01_nll_decomposition_identity(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    mus = rng.uniform(0.2, 30.0, size=1000)
    phis = rng.uniform(0.1, 20.0, size=1000)
    ys = rng.integers(0, 41, size=1000)
    max_gap = 0.0
    min_r = math.inf
    for y, mu, phi in zip(ys, mus, phis):
        parts = losses.attenuation_decompose(float(y), float(mu), float(phi))
        nll = losses.ddpn_nll(float(y), float(mu), 1.0 / float(phi))
        max_gap = max(max_gap, abs(nll - (parts.d + parts.a * parts.r)))
        min_r = min(min_r, parts.r)
    # equality side of "r = 0 iff mu = y" (mu floats almost surely differ
    # from the integer labels above, so min_r > 0 covers the other side)
    r_at_fit = max(abs(losses.attenuation_decompose(float(k), float(k), 3.0).r)
                   for k in (1, 7, 300))
    elapsed = time.perf_counter() - t0
    ok = max_gap <= 1e-12 and min_r > 0.0 and r_at_fit == 0.0 and elapsed < 1.0
    _report(capsys, 1, ok,
            f"nll vs d + a*r gap {max_gap:.2e} (tol 1e-12) on 1000 tuples; "
            f"min residual off the fit {min_r:.2e} > 0; residual at mu=y "
            f"{r_at_fit:.1e}; {elapsed:.2f}s < 1s")


# --- criterion 2: analytic gradients vs finite differences --------------------


_GRADIENT_SPECS = (
    LossSpec("double_poisson", 0.0),
    LossSpec("double_poisson", 0.5),
    LossSpec("double_poisson", 1.0),
    LossSpec("poisson"),
    LossSpec("neg_binomial"),
    LossSpec("gaussian", 0.0),
    LossSpec("gaussian", 0.5),
    LossSpec("gaussian", 1.0),
)


def _rel_gap(analytic: float, fd: float) -> float:
    return abs(analytic - fd) / max(1.0, abs(analytic), abs(fd))


def _head_gradient_gap(spec: LossSpec, rng: np.random.Generator) -> float:
    """Max relative gap between analytic head gradients and central FD.

    The beta factor is a stop-gradient, so the finite-difference target
    freezes the scale at the expansion point before perturbing parameters.
    """
    worst = 0.0
    for _ in range(40):
        if spec.family == "gaussian":
            y = float(rng.uniform(0.0, 20.0))
        else:
            y = float(rng.integers(0, 21))
        h1 = float(rng.uniform(-0.5, 3.0))
        h2 = float(rng.uniform(-1.5, 1.5))
        if spec.family == "double_poisson":
            mu0, gamma0 = math.exp(h1), math.exp(h2)
            scale0 = gamma0 ** (-spec.beta)
            dmu, dgamma = losses.ddpn_grads(y, mu0, gamma0, spec.beta)
            step = 1e-6 * max(1.0, mu0)
            fd_mu = scale0 * (losses.ddpn_nll(y, mu0 + step, gamma0)
                              - losses.ddpn_nll(y, mu0 - step, gamma0)) / (2.0 * step)
            step = 1e-6 * max(1.0, gamma0)
            fd_gamma = scale0 * (losses.ddpn_nll(y, mu0, gamma0 + step)
                                 - losses.ddpn_nll(y, mu0, gamma0 - step)) / (2.0 * step)
            worst = max(worst, _rel_gap(dmu, fd_mu), _rel_gap(dgamma, fd_gamma))
            continue
        ys = np.array([y])
        _, dheads = losses.head_nll(spec, ys, np.array([[h1, h2][:spec.head_count]]))
        plain = LossSpec(spec.family, 0.0)
        scale0 = math.exp(h2) ** spec.beta if spec.family == "gaussian" else 1.0

        def value(a: float, b: float) -> float:
            heads = np.array([[a, b][:spec.head_count]])
            return scale0 * float(losses.head_nll(plain, ys, heads)[0][0])

        step = 1e-6
        g1 = float(dheads[0, 0])
        worst = max(worst, _rel_gap(g1, (value(h1 + step, h2)
                                         - value(h1 - step, h2)) / (2.0 * step)))
        if spec.head_count == 2:
            g2 = float(dheads[0, 1])
            worst = max(worst, _rel_gap(g2, (value(h1, h2 + step)
                                             - value(h1, h2 - step)) / (2.0 * step)))
    return worst


def _flat_arrays(obj) -> list:
    arrays = []
    for W, b in obj.hidden:
        arrays.extend([W, b])
    arrays.extend([obj.head_w, obj.head_b])
    return arrays


def _network_gradient_gap(spec: LossSpec) -> float:
    rng = np.random.default_rng(7)
    cfg = network.MLPConfig(input_dim=2, hidden_widths=(5, 4),
                            head_count=spec.head_count, seed=3)
    weights = network.init_mlp(cfg, gamma_bias_init=0.2)
    X = rng.uniform(-1.0, 2.0, size=(7, 2))
    if spec.family == "gaussian":
        ys = rng.uniform(0.0, 12.0, size=7)
    else:
        ys = rng.integers(0, 13, size=7).astype(float)
    grads, _ = network.backward(weights, X, ys, spec)
    heads0 = network.forward_batch(weights, X)
    if spec.family == "double_poisson":
        scale0 = np.exp(heads0[:, 1]) ** (-spec.beta)
    elif spec.family == "gaussian":
        scale0 = np.exp(heads0[:, 1]) ** spec.beta
    else:
        scale0 = np.ones(ys.size)

    def frozen_scale_loss() -> float:
        heads = network.forward_batch(weights, X)
        if spec.family == "double_poisson":
            values = losses.ddpn_nll(ys, np.exp(heads[:, 0]), np.exp(heads[:, 1]))
        elif spec.family == "gaussian":
            values, _ = losses.head_nll(LossSpec("gaussian", 0.0), ys, heads)
        else:
            return network.batch_loss(weights, X, ys, spec)
        return float(np.mean(scale0 * values))

    worst = 0.0
    step = 1e-6
    for p_arr, g_arr in zip(_flat_arrays(weights), _flat_arrays(grads)):
        flat_p = p_arr.reshape(-1)
        flat_g = np.asarray(g_arr, dtype=float).reshape(-1)
        for k in range(flat_p.size):
            orig = flat_p[k]
            flat_p[k] = orig + step
            up = frozen_scale_loss()
            flat_p[k] = orig - step
            down = frozen_scale_loss()
            flat_p[k] = orig
            worst = max(worst, _rel_gap(float(flat_g[k]), (up - down) / (2.0 * step)))
    return worst


def test_criterion_02_gradients_match_finite_differences(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    head_gap = max(_head_gradient_gap(spec, rng) for spec in _GRADIENT_SPECS)
    net_gap = max(_network_gradient_gap(spec) for spec in _GRADIENT_SPECS)
    elapsed = time.perf_counter() - t0
    ok = head_gap <= 1e-5 and net_gap <= 1e-4 and elapsed < 30.0
    _report(capsys, 2, ok,
            f"head gradient gap {head_gap:.2e} (tol 1e-5), full-network gap "
            f"{net_gap:.2e} (tol 1e-4) over 8 family/beta specs; {elapsed:.1f}s < 30s")


# --- criterion 3: dispersion attenuates the fit residual ----------------------


def test_criterion_03_attenuation_vanishes_at_high_dispersion(capsys):
    y, mu = 10.0, 3.0
    ratios = []
    for k in range(1, 7):
        parts = losses.attenuation_decompose(y, mu, 10.0 ** k)
        ratios.append(parts.a * parts.r / parts.d)
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    ok = decreasing and ratios[-1] < 1e-4
    _report(capsys, 3, ok,
            "a*r/d at phi=10^1..10^6: " + ", ".join(f"{v:.2e}" for v in ratios)
            + f"; strictly decreasing {decreasing}; final {ratios[-1]:.2e} < 1e-4")


# --- criterion 4: moment fidelity of the mean/variance approximations ---------


def _mp_deviations(mp, mu0: float, var0: float) -> tuple[float, float]:
    """|E[Z] - mu0| and |Var[Z] - var0| of DP(mu0, mu0/var0) by 30-digit
    direct summation of the unnormalized weights, run past y = mu0 (beyond
    which the weights decrease) until a term's contribution to the second
    moment is below 1e-35 of the mass."""
    with mp.workdps(30):
        mu, gamma = mp.mpf(mu0), mp.mpf(mu0) / mp.mpf(var0)
        s0 = s1 = s2 = mp.mpf(0)
        y = 0
        while True:
            ylogy = y * mp.log(y) if y else mp.mpf(0)
            t = mp.exp(-y + ylogy - mp.loggamma(y + 1)
                       + gamma * (y - mu + y * mp.log(mu) - ylogy))
            s0, s1, s2 = s0 + t, s1 + t * y, s2 + t * y * y
            if y > mu and t * y * y < mp.mpf(10) ** -35 * s0:
                break
            y += 1
        mean = s1 / s0
        return float(abs(mean - mu)), float(abs(s2 / s0 - mean**2 - var0))


def test_criterion_04_moment_fidelity_grid(capsys):
    mp = pytest.importorskip("mpmath")
    t0 = time.perf_counter()
    worst1 = worst2 = -1.0
    arg1 = arg2 = (0.0, 0.0)
    # The region clause once asked for eps1, eps2 < 1e-3 here. Independent
    # 30-digit mpmath sums show the distribution itself deviates by up to
    # eps1 = 0.6819 at (mu0=1, var0=5) and eps2 = 2.404 at (4.5, 22.5); only
    # 31 of the 180 cells lie below 1e-3, so no correct program meets that
    # bound. The clause checks instead that the reported surfaces are the
    # true deviations, against an mpmath oracle.
    off = 0
    for mu0 in np.linspace(1.0, 50.0, 15):
        for ratio in np.linspace(0.2, 5.0, 12):
            var0 = float(ratio * mu0)
            e1, e2 = moments.mdf_epsilon(float(mu0), var0, 100)
            want = _mp_deviations(mp, float(mu0), var0)
            off += int(np.sum(~np.isclose((e1, e2), want, rtol=1e-8, atol=1e-10)))
            if e1 > worst1:
                worst1, arg1 = e1, (float(mu0), var0)
            if e2 > worst2:
                worst2, arg2 = e2, (float(mu0), var0)
    region_ok = off == 0
    diag_worst = max(max(moments.mdf_epsilon(float(m), float(m), 100))
                     for m in np.linspace(1.0, 50.0, 15))
    mono_ok = True
    small_mu = (3.0, 1.0, 0.3, 0.1, 0.05, 0.01)
    for var0 in (5.0, 20.0):
        eps = [moments.mdf_epsilon(m, var0, 100) for m in small_mu]
        mono_ok = mono_ok and all(b[0] > a[0] and b[1] > a[1]
                                  for a, b in zip(eps, eps[1:]))
    elapsed = time.perf_counter() - t0
    diag_ok = diag_worst <= 1e-9
    ok = region_ok and diag_ok and mono_ok and elapsed < 60.0
    _report(capsys, 4, ok,
            f"grid mu0 in [1,50] x var0 in [0.2,5]*mu0: max eps1 {worst1:.3f} at "
            f"(mu0={arg1[0]:.1f}, var0={arg1[1]:.1f}), max eps2 {worst2:.3f} at "
            f"(mu0={arg2[0]:.1f}, var0={arg2[1]:.1f}), {off} of 360 values off the "
            f"mpmath oracle (rtol 1e-8, atol 1e-10); diagonal max {diag_worst:.1e} vs "
            f"1e-9 ({'met' if diag_ok else 'exceeded'}); growth toward mu0=0.01 "
            f"monotone {mono_ok}; {elapsed:.1f}s < 60s")


# --- criterion 5: matching a well-specified baseline under misspecification ---


def _single_model_crps(ds, split, spec: LossSpec, seed: int) -> float:
    cfg = network.TrainConfig(loss=spec, epochs=60, batch_size=64, lr=1e-3,
                              weight_decay=1e-5, seed=seed, hidden_widths=(64, 64))
    weights, _ = network.train(ds, split, cfg)
    preds = ensemble.member_heads(ensemble.Ensemble(((weights, spec),)), ds.xs[split.test]).batch()
    return metrics.evaluate(preds, ds.ys[split.test]).crps_mean


def test_criterion_05_misspecification_recovery(capsys):
    parts = []
    ok = True
    for gen, matched in ((datagen.gen_misspec_poisson, "poisson"),
                         (datagen.gen_misspec_nb, "neg_binomial")):
        t0 = time.perf_counter()
        flexible, reference = [], []
        for seed in range(5):
            ds, split = gen(2000, seed)
            flexible.append(_single_model_crps(ds, split, LossSpec("double_poisson"), seed))
            reference.append(_single_model_crps(ds, split, LossSpec(matched), seed))
        elapsed = time.perf_counter() - t0
        flex_mean = float(np.mean(flexible))
        ref_mean = float(np.mean(reference))
        gap = abs(flex_mean - ref_mean) / ref_mean
        ok = ok and gap <= 0.10 and elapsed <= 600.0
        parts.append(f"{matched} data: crps {flex_mean:.4f} vs matched {ref_mean:.4f} "
                     f"(gap {100.0 * gap:.2f}% <= 10%, 5 seeds, {elapsed:.0f}s)")
    _report(capsys, 5, ok, "; ".join(parts))


# --- criteria 6 and 10 share three ensembles on the conflation task -----------


_SINE_FAMILIES = ("double_poisson", "poisson", "neg_binomial")


@pytest.fixture(scope="module")
def sine_ensembles():
    """Three 5-member ensembles (one per count family) on sine-conflation."""
    ds, split = datagen.gen_sine_conflation(800, 100, 1000, 0)
    t0 = time.perf_counter()
    built = {}
    for family in _SINE_FAMILIES:
        spec = LossSpec(family)
        members = []
        for seed in range(5):
            cfg = network.TrainConfig(loss=spec, epochs=120, batch_size=32, lr=1e-3,
                                      weight_decay=1e-5, seed=seed,
                                      hidden_widths=(64, 64))
            weights, _ = network.train(ds, split, cfg)
            members.append((weights, spec))
        built[family] = ensemble.Ensemble(members=tuple(members))
    return ds, split, built, time.perf_counter() - t0


def test_criterion_06_ensemble_crps_and_aleatoric_ordering(capsys, sine_ensembles):
    ds, split, built, train_seconds = sine_ensembles
    xs_test, ys_test = ds.xs[split.test], ds.ys[split.test]
    heads = {family: ensemble.member_heads(built[family], xs_test) for family in _SINE_FAMILIES}
    crps_by_family = {}
    for family in _SINE_FAMILIES:
        crps_by_family[family] = metrics.evaluate(heads[family].batch(), ys_test,
                                                  variances=heads[family].scores()).crps_mean
    wins = (crps_by_family["double_poisson"] < crps_by_family["poisson"]
            and crps_by_family["double_poisson"] < crps_by_family["neg_binomial"])
    # under-dispersed high-count region: true mean >= 25
    true_means = np.array([datagen.sine_conflation_true_moments(float(x))[0]
                           for x in xs_test[:, 0]])
    in_region = true_means >= 25.0

    def mean_aleatoric(family: str) -> float:
        means, variances = heads[family].moments()
        dec = ensemble.decompose_variance(means[:, in_region], variances[:, in_region])
        return float(np.mean(np.asarray(dec.aleatoric)))

    flexible_alea = mean_aleatoric("double_poisson")
    poisson_alea = mean_aleatoric("poisson")
    factor = poisson_alea / flexible_alea
    ok = wins and factor >= 2.0 and train_seconds <= 1200.0
    _report(capsys, 6, ok,
            f"ensemble crps dp {crps_by_family['double_poisson']:.4f} < poisson "
            f"{crps_by_family['poisson']:.4f} and < neg_binomial "
            f"{crps_by_family['neg_binomial']:.4f}: {wins}; high-count aleatoric "
            f"{flexible_alea:.3f} vs poisson {poisson_alea:.3f} (factor {factor:.1f} "
            f">= 2, {np.count_nonzero(in_region)} rows); training {train_seconds:.0f}s < 1200s")


# --- criterion 7: beta ordering of mean convergence at an isolated point ------


def _sustained_fit_epoch(trace: np.ndarray, target: float, tol: float = 2.0) -> float:
    """First 1-based epoch from which |trace - target| < tol holds to the end.

    The init transient can cross the band briefly, so first-touch epochs
    are not comparable across runs; sustained entry is.
    """
    inside = np.abs(trace - target) < tol
    if not inside[-1]:
        return math.inf
    bad = np.nonzero(~inside)[0]
    return 1.0 if bad.size == 0 else float(bad[-1] + 2)


def _isolated_point_fit_epoch(ds, split, beta: float, seed: int, epochs: int) -> float:
    probe = np.array([[10.0]])
    trace = []

    def record(epoch, weights):
        trace.append(float(np.exp(network.forward_batch(weights, probe)[0, 0])))

    cfg = network.TrainConfig(loss=LossSpec("double_poisson", beta), epochs=epochs,
                              batch_size=256, lr=1e-3, weight_decay=1e-5, seed=seed,
                              gamma_bias_init=3.0, hidden_widths=(64, 64))
    network.train(ds, split, cfg, epoch_hook=record)
    return _sustained_fit_epoch(np.array(trace), target=10.0)


def test_criterion_07_beta_convergence_ordering(capsys):
    t0 = time.perf_counter()
    ds, split = datagen.gen_beta_study(500, 0)
    hits = 0
    parts = []
    for seed in (0, 1, 2):
        fit = {beta: _isolated_point_fit_epoch(ds, split, beta, seed, 1400)
               for beta in (1.0, 0.5, 0.0)}
        ordered = fit[1.0] < fit[0.5] < fit[0.0]
        hits += int(ordered)
        parts.append(f"seed {seed}: {fit[1.0]:.0f} / {fit[0.5]:.0f} / {fit[0.0]:.0f}"
                     f" {'ordered' if ordered else 'not ordered'}")
    elapsed = time.perf_counter() - t0
    ok = hits >= 2
    _report(capsys, 7, ok,
            f"epochs to sustain |mu(10) - 10| < 2 as (beta=1 / 0.5 / 0): "
            + "; ".join(parts) + f"; ordering holds in {hits}/3 seeds (need >= 2); "
            f"{elapsed:.0f}s")


# --- criterion 8: beta=1 recovers from high dispersion inits ------------------


def test_criterion_08_high_dispersion_init_recovery(capsys):
    t0 = time.perf_counter()
    ds, split = datagen.gen_beta_study(500, 0)
    probes = np.array([[10.0], [1.0]])
    targets = np.array([10.0, 16.0])

    def final_residuals(beta: float, gamma_bias_init: float) -> np.ndarray:
        cfg = network.TrainConfig(loss=LossSpec("double_poisson", beta), epochs=1000,
                                  batch_size=256, lr=1e-3, weight_decay=1e-5, seed=0,
                                  gamma_bias_init=gamma_bias_init,
                                  hidden_widths=(64, 64))
        _, report = network.train(ds, split, cfg)
        mus = np.exp(network.forward_batch(report.final_weights, probes)[:, 0])
        return np.abs(mus - targets)

    parts = []
    recovered = True
    for g0 in (0.0, 1.0, 3.0):
        res = final_residuals(1.0, g0)
        recovered = recovered and bool(np.all(res <= 2.0))
        parts.append(f"beta=1 init {g0:g}: residuals ({res[0]:.2f}, {res[1]:.2f})")
    stuck = float(final_residuals(0.0, 3.0)[0])
    elapsed = time.perf_counter() - t0
    ok = recovered and stuck > 2.0
    _report(capsys, 8, ok,
            "isolated points (x=10, x=1), fit within 2: " + "; ".join(parts)
            + f"; beta=0 init 3 leaves x=10 residual {stuck:.2f} > 2; {elapsed:.0f}s")


# --- criterion 9: metric implementations against independent oracles ----------


def test_criterion_09_metric_oracles(capsys):
    point_exact = True
    for k in (0, 3, 7):
        pmf = np.zeros(k + 1)
        pmf[k] = 1.0
        for y in (0, 2, 3, 10):
            point_exact = point_exact and (metrics.crps_from_pmf(pmf, y)
                                           == float(abs(k - y)))

    # summation form vs a literal Riemann integral of (F(z) - 1{z >= y})^2
    cases = [
        (dists.double_poisson(4.0, 0.7), (0, 3, 8)),
        (dists.double_poisson(12.0, 2.0), (5, 12, 20)),
        (dists.neg_binomial(3.0, 0.4), (0, 4, 9)),
        (dists.poisson(6.0), (2, 6, 11)),
    ]
    integral_gap = 0.0
    for dist, labels in cases:
        cdf = np.cumsum(dists.pmf_vector(dist))
        mids = (np.arange(cdf.size * 100) + 0.5) * 0.01
        step_cdf = cdf[np.minimum(mids.astype(int), cdf.size - 1)]
        for y in labels:
            integral = float(np.sum((step_cdf - (mids >= y)) ** 2) * 0.01)
            integral_gap = max(integral_gap, abs(metrics.crps(dist, y) - integral))

    rng = np.random.default_rng(17)
    id_scores = np.round(rng.normal(0.0, 1.0, size=260), 1)
    ood_scores = np.round(rng.normal(0.8, 1.0, size=240), 1)
    auroc = metrics.ood_curve_metrics(metrics.OODScores(id_scores, ood_scores))[0]
    greater = np.sum(ood_scores[:, None] > id_scores[None, :])
    ties = np.sum(ood_scores[:, None] == id_scores[None, :])
    pairwise = (greater + 0.5 * ties) / float(ood_scores.size * id_scores.size)
    auroc_gap = abs(auroc - float(pairwise))

    ok = point_exact and integral_gap <= 1e-6 and auroc_gap <= 1e-10
    _report(capsys, 9, ok,
            f"point-mass crps exact: {point_exact}; crps sum vs integral gap "
            f"{integral_gap:.1e} <= 1e-6; auroc vs pairwise oracle gap "
            f"{auroc_gap:.1e} <= 1e-10 (500 tied scores)")


# --- criterion 10: far-range detection and sweep vs rank agreement ------------


def test_criterion_10_ood_detection_and_sweep_agreement(capsys, sine_ensembles):
    ds, split, built, _ = sine_ensembles
    ens = built["double_poisson"]
    xs_test = ds.xs[split.test]
    ood_xs = np.random.default_rng(2026).uniform(4.0 * math.pi, 6.0 * math.pi,
                                                 200)[:, None]
    id_all = ensemble.member_heads(ens, xs_test).scores()
    ood_all = ensemble.member_heads(ens, ood_xs).scores()
    config = ood.OODProtocolConfig()
    report = ood.run_ood_eval(id_all, ood_all, config)
    sweep_auroc = report.auroc[0]

    # rank route, replicating each repeat's holdout split
    n_hold = int(round(config.holdout_fraction * id_all.size))
    rank_values = []
    for rep in range(config.n_repeats):
        perm = np.random.default_rng(config.seed + rep).permutation(id_all.size)
        scores = metrics.OODScores(id_all[perm[n_hold:]], ood_all)
        rank_values.append(metrics.ood_curve_metrics(scores)[0])
    rank_auroc = float(np.mean(rank_values))
    gap = abs(sweep_auroc - rank_auroc)
    ok = sweep_auroc >= 0.8 and gap <= 0.01
    _report(capsys, 10, ok,
            f"threshold-sweep auroc {sweep_auroc:.4f} >= 0.8 "
            f"({config.n_repeats} repeats); rank auroc {rank_auroc:.4f}; "
            f"gap {gap:.4f} <= 0.01")


# --- criterion 11: byte-identical pipeline reruns -----------------------------


def _snapshot_tree(root: str) -> dict:
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def _without_wall_time(raw: bytes) -> dict:
    payload = json.loads(raw.decode())
    for member in payload.get("members", []):
        member.pop("wall_time", None)
    return payload


def _run_pipeline(root: str) -> dict:
    prefix = os.path.join(root, "data", "beta_study_seed0")
    manifest = os.path.join(root, "ckpt", "m.manifest")
    commands = [
        ["simulate", "--process", "beta-study", "--n", "60", "--seed", "0"],
        ["train", "--data", prefix, "--members", "2", "--epochs", "2",
         "--hidden", "4", "--batch-size", "16", "--tag", "m"],
        ["eval", "--ckpt", os.path.join(root, "ckpt", "m_member0.ckpt"),
         "--data", prefix, "--tag", "single"],
        ["ensemble-eval", "--manifest", manifest, "--data", prefix, "--tag", "ens"],
        ["ood", "--manifest", manifest, "--data", prefix, "--ood-n", "20",
         "--n-repeats", "3", "--tag", "far"],
        ["moments-grid", "--mu-points", "3", "--var-points", "3",
         "--n-terms", "40", "--tag", "grid"],
        ["attenuation-demo", "--hidden", "4", "--epochs", "2", "--n", "40",
         "--tag", "trace"],
    ]
    for argv in commands:
        code = cli.main(argv + ["--out", root])
        assert code == 0, f"{argv[0]} exited with {code}"
    return _snapshot_tree(root)


def test_criterion_11_pipeline_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    first = _run_pipeline(str(tmp_path / "run_a"))
    second = _run_pipeline(str(tmp_path / "run_b"))
    same_names = sorted(first) == sorted(second)
    identical = masked = mismatched = 0
    for rel in first:
        if rel not in second:
            continue
        if rel.endswith("_train.json"):
            # wall-time fields are the one allowed difference
            if _without_wall_time(first[rel]) == _without_wall_time(second[rel]):
                masked += 1
            else:
                mismatched += 1
        elif first[rel] == second[rel]:
            identical += 1
        else:
            mismatched += 1
    elapsed = time.perf_counter() - t0
    ok = same_names and mismatched == 0
    _report(capsys, 11, ok,
            f"7 subcommands run twice: {identical} files byte-identical, {masked} "
            f"train report(s) identical after dropping wall-time fields, "
            f"{mismatched} mismatched; same file sets: {same_names}; {elapsed:.0f}s")
