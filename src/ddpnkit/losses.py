"""Training losses for heteroscedastic count regression.

The main loss is the Double Poisson negative log likelihood with the
normalizer held at 1 and all parameter-free terms dropped:

    L(y, mu, gamma) = -log(gamma)/2 + gamma*mu - gamma*y*(1 + log mu - log y)

with y*log(y) = 0 at y = 0. Its beta-scaled variant multiplies both the
value and the gradients by gamma^(-beta) treated as a plain number (a
stop-gradient), which interpolates between the raw likelihood (beta = 0)
and a mean-focused objective (beta = 1). ddpn_nll and ddpn_grads give the
value and the partial derivatives in the natural parameters mu and gamma.

The loss also factors exactly into a dispersion penalty plus an attenuated
fit residual, L = d(phi) + a(phi) * r(mu, y) with phi = 1/gamma, which is
what lets a model buy down a bad fit by inflating its predicted dispersion.

Training goes through head_nll, the one loss of every family on log-space
heads: column 0 of the heads is log mu, column 1 log gamma (Double
Poisson), log dispersion (negative binomial) or log variance (Gaussian).
It exponentiates internally and returns the per-example values with their
gradients with respect to the heads, the chain factors included.

count_labels, the one rule for count labels, lives here because every
command loads this module: datagen.SyntheticDataset and the scoring of
the discrete families (distributions.check_labels) apply it. The loss
formulas above take real-valued labels and check only that they are
finite and nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ddpnkit.errors import DomainError, NumericDivergence

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


def count_labels(ys) -> np.ndarray:
    """Count labels: an integer array as it is, any other labels rounded to
    integer floats. DomainError for a label that is negative, nan, infinite
    or more than 1e-9 from an integer."""
    ys = np.asarray(ys)
    if ys.dtype.kind in "iu":
        labels = ys
        bad = np.flatnonzero(ys < 0)
    else:
        ys = np.asarray(ys, dtype=float)
        labels = np.rint(np.where(np.isfinite(ys), ys, -1.0))
        bad = np.flatnonzero((labels < 0) | (np.abs(ys - labels) > 1e-9))
    if bad.size:
        raise DomainError(f"a count label must be a nonnegative integer, got {ys[bad[0]]}")
    return labels


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


def ddpn_nll(y, mu, gamma, beta: float = 0.0):
    """Per-example beta-scaled NLL gamma^(-beta) * L; broadcasts over array
    inputs. beta = 0 gives the plain NLL.

    The scale factor carries no gradient; ddpn_grads multiplies the
    gradients of L by it rather than differentiating through it.
    """
    _check_beta(beta)
    out = _dp_loss_and_grads(*_check_dp_args(y, mu, gamma), beta)[0]
    return float(out) if out.ndim == 0 else out


def _dp_loss_and_grads(y, mu, gamma, beta: float):
    """Unchecked beta-scaled NLL and its dL/dmu, dL/dgamma.

    The one place the Double Poisson loss formulas are written; callers
    validate y, mu, gamma and beta first.
    """
    scale = gamma ** (-beta)
    resid = _fit_residual(y, mu)
    value = scale * (-0.5 * np.log(gamma) + gamma * resid)
    dmu = gamma ** (1.0 - beta) * (1.0 - y / mu)
    dgamma = -0.5 * scale / gamma + scale * resid
    return value, dmu, dgamma


def ddpn_grads(y, mu, gamma, beta: float = 0.0):
    """Partial derivatives of the beta-scaled NLL w.r.t. mu and gamma.

        dL/dmu    = gamma^(1-beta) * (1 - y/mu)
        dL/dgamma = -1/(2*gamma^(1+beta))
                    + gamma^(-beta) * (mu - y*(1 + log mu - log y))

    beta = 0 gives the plain NLL gradients.
    """
    _check_beta(beta)
    _, dmu, dgamma = _dp_loss_and_grads(*_check_dp_args(y, mu, gamma), beta)
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


# --- the training loss on log-space heads -------------------------------------


def head_nll(spec: LossSpec, ys: np.ndarray, heads: np.ndarray):
    """Per-example loss values and their gradients w.r.t. the log-space heads.

    heads has shape (n, spec.head_count) and ys shape (n,); returns
    (values, dheads) of shapes (n,) and (n, head_count). Double Poisson and
    Gaussian scale by the stop-gradient factors gamma^(-beta) and
    (sigma^2)^beta; parameter-free terms such as log y! are omitted. ys are
    not checked here. Raises NumericDivergence if a Double Poisson head
    leaves the range where its exponential is finite and positive; callers
    that take overflow as a result set np.errstate.
    """
    if spec.family == "double_poisson":
        pos = np.exp(heads)
        # exp overflow/underflow leaves the positive range (nan fails both
        # tests); that is a numeric blow-up of the optimization, not bad user input
        if not (pos.min() > 0.0 and pos.max() < math.inf):
            raise NumericDivergence("head outputs overflowed out of the positive range")
        mu, gamma = pos[:, 0], pos[:, 1]
        values, dmu, dgamma = _dp_loss_and_grads(ys, mu, gamma, spec.beta)
        mu *= dmu  # pos becomes d/d(heads): the chain factors mu and gamma
        gamma *= dgamma
        return values, pos

    log_mu = heads[:, 0]
    if spec.family == "poisson":
        lam = np.exp(log_mu)
        return lam - ys * log_mu, (lam - ys)[:, None]

    second = heads[:, 1]
    if spec.family == "neg_binomial":
        from scipy.special import digamma, gammaln

        m = np.exp(log_mu)
        r = np.exp(-second)  # r = 1/dispersion
        log_rm = np.log(r + m)
        loglik = gammaln(ys + r) - gammaln(r) + r * (-second) - (r + ys) * log_rm + ys * log_mu
        dl_dm = ys / m - (r + ys) / (r + m)
        dl_dr = digamma(ys + r) - digamma(r) - second + 1.0 - log_rm - (r + ys) / (r + m)
        return -loglik, np.stack([-m * dl_dm, r * dl_dr], axis=1)

    mu = np.exp(log_mu)  # gaussian
    s2 = np.exp(second)
    resid = ys - mu
    base = 0.5 * second + 0.5 * resid * resid / s2
    scale = s2**spec.beta  # stop-gradient beta factor
    grad_mu = scale * mu * (mu - ys) / s2
    grad_var = scale * (0.5 - 0.5 * resid * resid / s2)
    return scale * base, np.stack([grad_mu, grad_var], axis=1)
