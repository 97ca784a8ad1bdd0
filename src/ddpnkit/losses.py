"""Training losses for heteroscedastic count regression.

The main loss is the Double Poisson negative log likelihood with the
normalizer held at 1 and all parameter-free terms dropped:

    L(y, mu, gamma) = -log(gamma)/2 + gamma*mu - gamma*y*(1 + log mu - log y)

with y*log(y) = 0 at y = 0. Its beta-scaled variant multiplies both the
value and the gradients by gamma^(-beta) treated as a plain number (a
stop-gradient), which interpolates between the raw likelihood (beta = 0)
and a mean-focused objective (beta = 1).

The loss also factors exactly into a dispersion penalty plus an attenuated
fit residual, L = d(phi) + a(phi) * r(mu, y) with phi = 1/gamma, which is
what lets a model buy down a bad fit by inflating its predicted dispersion.

Baseline losses (Poisson, negative binomial, Gaussian) share the log-space
head convention: every head emits a log parameter and the loss exponentiates
internally, so the returned gradients are with respect to the head outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ddpnkit.errors import DomainError

FAMILIES = ("double_poisson", "poisson", "neg_binomial", "gaussian")


@dataclass(frozen=True)
class LossSpec:
    """Predictive family plus the beta weighting of its likelihood.

    beta must lie in [0, 1]. Poisson and negative binomial training does not
    use beta scaling, so it is pinned to 0 for those families.
    """

    family: str
    beta: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        _check_beta(self.beta)
        if self.family in ("poisson", "neg_binomial"):
            object.__setattr__(self, "beta", 0.0)

    @property
    def head_count(self) -> int:
        return 1 if self.family == "poisson" else 2


@dataclass(frozen=True)
class AttenuationParts:
    """Exact decomposition NLL = d + a * r at dispersion phi = 1/gamma.

    d = log(phi)/2 is the price of claiming dispersion phi, a = 1/phi is the
    attenuation applied to the fit residual, and r = (mu - y) - y*(log mu -
    log y) is a nonnegative divergence that vanishes only at mu = y.
    """

    d: float
    a: float
    r: float
    phi: float


def _check_labels(y):
    if np.any(y < 0.0) or not np.all(np.isfinite(y)):
        raise DomainError("labels must be finite and nonnegative")


def _check_beta(beta):
    if not (0.0 <= beta <= 1.0):
        raise DomainError(f"beta must lie in [0, 1], got {beta}")


def _check_dp_args(y, mu, gamma):
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    _check_labels(y)
    if np.any(mu <= 0.0) or not np.all(np.isfinite(mu)):
        raise DomainError("mu must be finite and positive")
    if np.any(gamma <= 0.0) or not np.all(np.isfinite(gamma)):
        raise DomainError("gamma must be finite and positive")
    return y, mu, gamma


def _fit_residual(y, mu):
    # (mu - y) - y*(log mu - log y) = distributions._bd0(y, mu) in closed form, a
    # sixth of bd0's cost on a 32-row training batch; log(y) is taken as 0 at y = 0
    return (mu - y) - (y * np.log(mu) - y * np.log(np.where(y == 0.0, 1.0, y)))


def ddpn_nll(y, mu, gamma):
    """Per-example Double Poisson NLL; broadcasts over array inputs."""
    out = _dp_loss_and_grads(*_check_dp_args(y, mu, gamma), 0.0)[0]
    return float(out) if out.ndim == 0 else out


def _dp_loss_and_grads(y, mu, gamma, beta: float):
    """Unchecked beta-scaled NLL, its scale gamma^(-beta) and dL/dmu, dL/dgamma.

    The one place the Double Poisson loss formulas are written; callers
    validate y, mu, gamma and beta first.
    """
    scale = gamma ** (-beta)
    resid = _fit_residual(y, mu)
    value = scale * (-0.5 * np.log(gamma) + gamma * resid)
    dmu = gamma ** (1.0 - beta) * (1.0 - y / mu)
    dgamma = -0.5 * scale / gamma + scale * resid
    return value, scale, dmu, dgamma


def ddpn_beta_nll(y, mu, gamma, beta: float):
    """Beta-scaled NLL. Returns (scaled value, scale factor gamma^(-beta)).

    The scale factor carries no gradient; callers multiply their gradients
    by it rather than differentiating through it.
    """
    _check_beta(beta)
    value, scale, _, _ = _dp_loss_and_grads(*_check_dp_args(y, mu, gamma), beta)
    if value.ndim == 0:
        return float(value), float(scale)
    return value, scale


def ddpn_grads(y, mu, gamma, beta: float = 0.0):
    """Partial derivatives of the beta-scaled NLL w.r.t. mu and gamma.

        dL/dmu    = gamma^(1-beta) * (1 - y/mu)
        dL/dgamma = -1/(2*gamma^(1+beta))
                    + gamma^(-beta) * (mu - y*(1 + log mu - log y))

    beta = 0 gives the plain NLL gradients.
    """
    _check_beta(beta)
    _, _, dmu, dgamma = _dp_loss_and_grads(*_check_dp_args(y, mu, gamma), beta)
    if dmu.ndim == 0:
        return float(dmu), float(dgamma)
    return dmu, dgamma


def attenuation_decompose(y: float, mu: float, phi: float) -> AttenuationParts:
    """Split the NLL at dispersion phi = 1/gamma into its d, a, r parts."""
    if not (phi > 0.0 and math.isfinite(phi)):
        raise DomainError(f"phi must be finite and positive, got {phi}")
    y_arr, mu_arr, _ = _check_dp_args(y, mu, 1.0 / phi)
    r = float(_fit_residual(y_arr, mu_arr))
    return AttenuationParts(d=0.5 * math.log(phi), a=1.0 / phi, r=r, phi=phi)


# --- baseline losses ----------------------------------------------------------


def baseline_nll(spec: LossSpec, y, head):
    """Loss value and gradients w.r.t. the log-space head outputs.

    head must expose log_mu and (except for Poisson) log_gamma_or_disp. The
    second head holds log dispersion for negative binomial and log variance
    for Gaussian. Gaussian supports beta scaling with the stop-gradient
    factor (sigma^2)^beta; parameter-free terms such as log y! are omitted.

    Returns (value, (grad_log_mu, grad_second)) with grad_second None for
    Poisson. Scalars in, scalars out; arrays broadcast elementwise.
    """
    y = np.asarray(y, dtype=float)
    log_mu = np.asarray(head.log_mu, dtype=float)
    scalar = y.ndim == 0 and log_mu.ndim == 0

    if spec.family == "poisson":
        lam = np.exp(log_mu)
        value = lam - y * log_mu
        grad = lam - y
        if scalar:
            return float(value), (float(grad), None)
        return value, (grad, None)

    second = np.asarray(head.log_gamma_or_disp, dtype=float)

    if spec.family == "neg_binomial":
        from scipy.special import digamma, gammaln

        m = np.exp(log_mu)
        r = np.exp(-second)  # r = 1/dispersion
        log_rm = np.log(r + m)
        loglik = gammaln(y + r) - gammaln(r) + r * (-second) - (r + y) * log_rm + y * log_mu
        value = -loglik
        dl_dm = y / m - (r + y) / (r + m)
        dl_dr = digamma(y + r) - digamma(r) - second + 1.0 - log_rm - (r + y) / (r + m)
        grad_mu = -m * dl_dm
        grad_disp = r * dl_dr
        if scalar:
            return float(value), (float(grad_mu), float(grad_disp))
        return value, (grad_mu, grad_disp)

    if spec.family == "gaussian":
        mu = np.exp(log_mu)
        s2 = np.exp(second)
        resid = y - mu
        base = 0.5 * second + 0.5 * resid * resid / s2
        scale = s2**spec.beta  # stop-gradient beta factor
        value = scale * base
        grad_mu = scale * mu * (mu - y) / s2
        grad_disp = scale * (0.5 - 0.5 * resid * resid / s2)
        if scalar:
            return float(value), (float(grad_mu), float(grad_disp))
        return value, (grad_mu, grad_disp)

    raise DomainError("double_poisson is trained through ddpn_grads, not baseline_nll")
