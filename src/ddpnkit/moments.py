"""Moment fidelity of the Double Poisson mean/variance approximations.

A Double Poisson with mu0 and gamma0 = mu0/var0 is advertised as having mean
close to mu0 and variance close to var0. The two deviation functions below
measure how far the true moments drift from those targets:

    eps1(mu0, var0) = |E[Z] - mu0|
    eps2(mu0, var0) = |Var[Z] - var0|

expressed through the weight series s(mu, gamma, y) = h(y) exp(r(mu, gamma, y))
(see distributions.dp_moment_corrections). Both vanish on the Poisson
diagonal var0 = mu0 and grow toward small mu0.

The infinite sums are evaluated in log space over a support 0..N-1 that
starts at n_terms and doubles until a bound on the neglected tail is
negligible. Past y = mu the ratio of successive weights is at most

    rho = (mu0/N)^gamma0 * exp(max(0, gamma0 - 1) / (2(N-1))),

so the tail of sum(s*y^2), which dominates the tails of every sum in the
deviations, is at most s(N-1) times sum_k rho^k (N-1+k)^2. A cell counts as
converged once that bound is below TAIL_TOL * min(1, gamma0) * sum(s). A
cell still unconverged at MAX_TERMS raises NumericOverflow instead of
returning a truncated value.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from ddpnkit.distributions import _xlogy, dp_log_h, dp_moment_corrections
from ddpnkit.errors import DomainError, NumericOverflow

DEFAULT_N_TERMS = 100
MAX_TERMS = 1 << 16
TAIL_TOL = 1e-14
# largest (cells x terms) block summed at once, to bound memory
_BLOCK = 1 << 17


def _tail_converged(w: np.ndarray, mu0: float, gamma: np.ndarray) -> np.ndarray:
    """Per row of w, whether the neglected tail past the support is negligible."""
    n = w.shape[1]
    log_rho = gamma * math.log(mu0 / n) + np.maximum(gamma - 1.0, 0.0) / (2.0 * (n - 1))
    a = n - 1.0
    with np.errstate(all="ignore"):  # rho >= 1 where n <= mu0: rejected below
        rho = np.exp(log_rho)
        q = -np.expm1(log_rho)  # 1 - rho
        bound = rho * (a * a / q + 2.0 * a / q**2 + (1.0 + rho) / q**3)
        return (log_rho < 0.0) & (w[:, -1] * bound <= TAIL_TOL * np.minimum(1.0, gamma)
                                  * np.sum(w, axis=1))


def _deviation_row(mu0: float, var_values: np.ndarray, n_terms: int):
    """eps1 and eps2 at mu0 for every var0 in var_values, summed to convergence.

    All cells start on the support 0..n_terms-1; the unconverged ones are
    summed again at double length, up to MAX_TERMS.
    """
    gamma = mu0 / var_values
    eps1 = np.empty_like(gamma)
    eps2 = np.empty_like(gamma)
    todo = np.arange(gamma.size)
    n = n_terms
    while True:
        ys = np.arange(n, dtype=float)
        log_h = dp_log_h(ys)
        base = ys * (1.0 + math.log(mu0)) - mu0 - _xlogy(ys, ys)
        left = []
        step = max(1, _BLOCK // n)
        for lo in range(0, todo.size, step):
            cells = todo[lo:lo + step]
            g = gamma[cells]
            w = np.multiply.outer(g, base)
            w += log_h
            w -= np.max(w, axis=1, keepdims=True)
            np.exp(w, out=w)
            ok = _tail_converged(w, mu0, g)
            mean_corr, var_corr = dp_moment_corrections(w[ok], mu0, g[ok])
            eps1[cells[ok]] = np.abs(mean_corr)
            eps2[cells[ok]] = np.abs(var_corr)
            left.append(cells[~ok])
        todo = np.concatenate(left)
        if todo.size == 0:
            return eps1, eps2
        if n == MAX_TERMS:
            raise NumericOverflow(
                f"moment series for mu0={mu0}, var0={float(var_values[todo[0]])} did not "
                f"converge within {MAX_TERMS} terms")
        n = min(2 * n, MAX_TERMS)


def mdf_epsilon(mu0: float, var0: float, n_terms: int = DEFAULT_N_TERMS) -> tuple[float, float]:
    """Mean and variance deviations (eps1, eps2) at the target (mu0, var0).

    With gamma0 = mu0/var0 and the corrections of dp_moment_corrections,

        eps1 = |E[Z] - mu0|,  eps2 = |Var[Z] - var0|,

    summed over a support of at least n_terms terms that grows until the
    neglected tail is below TAIL_TOL (see the module docstring). This is the
    1x1 case of moments_grid. Raises NumericOverflow if the series has not
    converged within MAX_TERMS terms.
    """
    grid = moments_grid([mu0], [var0], n_terms)
    return float(grid.eps1[0, 0]), float(grid.eps2[0, 0])


@dataclass(frozen=True)
class MomentGrid:
    """Deviation surfaces over a (mu0, var0) grid.

    eps1 and eps2 are arrays of shape (len(mu_values), len(var_values)).
    n_terms is the minimum support length the sums started from.
    """

    mu_values: np.ndarray
    var_values: np.ndarray
    eps1: np.ndarray
    eps2: np.ndarray
    n_terms: int


def default_grid_axis(n_points: int = 25) -> np.ndarray:
    """Logarithmic axis from 0.01 to 100, shared by both grid dimensions."""
    return np.logspace(np.log10(0.01), np.log10(100.0), n_points)


def moments_grid(
    mu_values, var_values, n_terms: int = DEFAULT_N_TERMS
) -> MomentGrid:
    """eps1 and eps2 (see mdf_epsilon) on the cross product of the two axes."""
    mu_values = np.asarray(mu_values, dtype=float)
    var_values = np.asarray(var_values, dtype=float)
    if mu_values.size == 0 or var_values.size == 0:
        raise DomainError("grid axes must be nonempty")
    for name, axis in (("mu0", mu_values), ("var0", var_values)):
        bad = axis[~(np.isfinite(axis) & (axis > 0.0))]
        if bad.size:
            raise DomainError(f"{name} must be finite and positive, got {bad[0]}")
    if not 2 <= n_terms <= MAX_TERMS:
        raise DomainError(f"n_terms must lie in [2, {MAX_TERMS}], got {n_terms}")
    eps1 = np.zeros((mu_values.size, var_values.size))
    eps2 = np.zeros_like(eps1)
    for i, mu0 in enumerate(mu_values):
        eps1[i], eps2[i] = _deviation_row(float(mu0), var_values, n_terms)
    return MomentGrid(mu_values, var_values, eps1, eps2, n_terms)


def write_moment_grid_csv(grid: MomentGrid, path) -> None:
    """Write rows mu0,var0,eps1,eps2 in row-major grid order, one per line."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["mu0", "var0", "eps1", "eps2"])
        for i, mu0 in enumerate(grid.mu_values):
            for j, var0 in enumerate(grid.var_values):
                writer.writerow([repr(float(mu0)), repr(float(var0)),
                                 repr(float(grid.eps1[i, j])), repr(float(grid.eps2[i, j]))])
