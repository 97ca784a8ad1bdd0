"""Moment fidelity of the Double Poisson mean/variance approximations.

A Double Poisson with mu0 and gamma0 = mu0/var0 is advertised as having mean
close to mu0 and variance close to var0. The two deviation functions below
measure how far the true moments drift from those targets:

    eps1(mu0, var0) = |E[Z] - mu0|
    eps2(mu0, var0) = |Var[Z] - var0|

expressed through the weight series s(mu, gamma, y) = h(y) exp(r(mu, gamma, y))
(see distributions.dp_moment_corrections). Both vanish on the Poisson
diagonal var0 = mu0 and grow toward small mu0.

The grid's cells are summed by the one series engine of the distributions
module (distributions._series), from a first support of n_terms terms that
doubles until a proven bound on the neglected tail of sum(s*y^2) is below
distributions.TAIL_TOL * min(1, gamma0) of the sum. No term is summed
twice. A cell that can never converge within MAX_TERMS terms (mu0 >=
MAX_TERMS, or a gamma0 that overflows to inf or underflows to 0) is refused
before any summing, and one still unconverged at MAX_TERMS raises
NumericOverflow instead of returning a truncated value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ddpnkit.datagen import render_csv
from ddpnkit.distributions import DOUBLE_POISSON, MAX_TERMS, _series, dp_moment_corrections
from ddpnkit.errors import DomainError

DEFAULT_N_TERMS = 100


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
    n_terms is the minimum support length the sums started from; support
    holds, per cell, the length 0..N-1 they were summed over.
    """

    mu_values: np.ndarray
    var_values: np.ndarray
    eps1: np.ndarray
    eps2: np.ndarray
    n_terms: int
    support: np.ndarray


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
    with np.errstate(over="ignore"):
        gamma = mu_values[:, None] / var_values
    n_var = var_values.size

    def label(k: int) -> str:
        return (f"moment series for mu0={float(mu_values[k // n_var])}, "
                f"var0={float(var_values[k % n_var])}")

    sums, _, support = _series(DOUBLE_POISSON, (np.repeat(mu_values, n_var), gamma.ravel()),
                               label, n_terms)
    mean_corr, var_corr = dp_moment_corrections(*sums, gamma.ravel())
    return MomentGrid(mu_values, var_values, np.abs(mean_corr).reshape(gamma.shape),
                      np.abs(var_corr).reshape(gamma.shape), n_terms,
                      support.reshape(gamma.shape))


def render_grid_csv(grid: MomentGrid) -> str:
    """CSV text of rows mu0,var0,eps1,eps2 in row-major grid order (repr floats)."""
    mu_text = [repr(v) for v in grid.mu_values.tolist()]
    var_text = [repr(v) for v in grid.var_values.tolist()]
    # eps values are formatted a row at a time as they stream past: no whole-grid
    # list of floats
    return render_csv("mu0,var0,eps1,eps2", [
        (t for t in mu_text for _ in var_text), itertools.cycle(var_text),
        *(itertools.chain.from_iterable(map(repr, row.tolist()) for row in eps)
          for eps in (grid.eps1, grid.eps2))])
