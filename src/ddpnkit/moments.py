"""Moment fidelity of the Double Poisson mean/variance approximations.

A Double Poisson with mu0 and gamma0 = mu0/var0 is advertised as having mean
close to mu0 and variance close to var0. The two deviation functions below
measure how far the true moments drift from those targets:

    eps1(mu0, var0) = |E[Z] - mu0|
    eps2(mu0, var0) = |Var[Z] - var0|

expressed through the weight series s(mu, gamma, y) = h(y) exp(r(mu, gamma, y))
(see distributions.dp_moment_corrections). Both vanish on the Poisson
diagonal var0 = mu0 and grow toward small mu0.

The infinite sums are evaluated in log space and grown block by block: a
cell first sums the support 0..n_terms-1, and while the bound below says
its neglected tail still matters it adds the next block n..2n-1 to running
sums, so no term is summed twice. One matmul of a block's weights with the
columns 1, y-mu0, (y-mu0)^2 and y updates all four sums. Past y = mu the
ratio of successive weights is at most

    rho = (mu0/N)^gamma0 * exp(max(0, gamma0 - 1) / (2(N-1))),

so the tail of sum(s*y^2), which dominates the tails of every sum in the
deviations, is at most s(N-1) times sum_k rho^k (N-1+k)^2. A cell counts as
converged once that bound is below TAIL_TOL * min(1, gamma0) * sum(s). A
cell still unconverged at MAX_TERMS raises NumericOverflow instead of
returning a truncated value.
"""

from __future__ import annotations

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


def _tail_converged(w_last: np.ndarray, s0: np.ndarray, mu0: float, gamma: np.ndarray,
                    n: int) -> np.ndarray:
    """Per cell, whether the tail past the support 0..n-1 is negligible.

    w_last is the weight at y = n-1 and s0 the sum over the support, both at
    the cell's common scale.
    """
    log_rho = gamma * math.log(mu0 / n) + np.maximum(gamma - 1.0, 0.0) / (2.0 * (n - 1))
    a = n - 1.0
    with np.errstate(all="ignore"):  # rho >= 1 where n <= mu0: rejected below
        rho = np.exp(log_rho)
        q = -np.expm1(log_rho)  # 1 - rho
        bound = rho * (a * a / q + 2.0 * a / q**2 + (1.0 + rho) / q**3)
        return (log_rho < 0.0) & (w_last * bound <= TAIL_TOL * np.minimum(1.0, gamma) * s0)


def _series_sums(mu_values: np.ndarray, var_values: np.ndarray, n_terms: int):
    """Sums (s0, s1, s2, sy) of every cell's weight series, and its support length.

    Cell (i, j), at mu0 = mu_values[i] and var0 = var_values[j], sums the
    weights s(y) = s(mu0, mu0/var0, y) over the support 0..N-1 with
    N = n_terms * 2^k (capped at MAX_TERMS), the shortest that passes
    _tail_converged:

        s0 = sum(s), s1 = sum(s*(y-mu)), s2 = sum(s*(y-mu)^2), sy = sum(s*y).

    Each pass sums only the new terms n..2n-1 of the unconverged cells into
    their running sums. The sums are kept at scale exp(-shift), shift being
    the largest log weight seen so far; a block holding larger weights
    raises it and rescales the sums.
    """
    gamma = mu_values[:, None] / var_values
    sums = np.zeros(gamma.shape + (4,))
    shift = np.full(gamma.shape, -np.inf)
    support = np.zeros(gamma.shape, dtype=np.int64)
    todo = [np.arange(gamma.shape[1])] * gamma.shape[0]
    lo, hi = 0, n_terms
    while True:
        ys = np.arange(lo, hi, dtype=float)
        log_h = dp_log_h(ys)
        ylogy = _xlogy(ys, ys)
        ones = np.ones_like(ys)
        step = max(1, _BLOCK // ys.size)
        for i, mu0 in enumerate(mu_values.tolist()):
            if todo[i].size == 0:
                continue
            base = ys * (1.0 + math.log(mu0)) - mu0 - ylogy
            d = ys - mu0
            F = np.column_stack((ones, d, d * d, ys))
            left = []
            for start in range(0, todo[i].size, step):
                cells = todo[i][start:start + step]
                g = gamma[i, cells]
                w = np.multiply.outer(g, base)
                w += log_h
                old = shift[i, cells]
                new = np.maximum(old, np.max(w, axis=1))
                w -= new[:, None]
                np.exp(w, out=w)
                s = sums[i, cells] * np.exp(old - new)[:, None] + w @ F
                sums[i, cells] = s
                shift[i, cells] = new
                ok = _tail_converged(w[:, -1], s[:, 0], mu0, g, hi)
                support[i, cells[ok]] = hi
                left.append(cells[~ok])
            todo[i] = np.concatenate(left)
        rows = [i for i, cells in enumerate(todo) if cells.size]
        if not rows:
            return np.moveaxis(sums, -1, 0), support
        if hi == MAX_TERMS:
            i, j = rows[0], todo[rows[0]][0]
            raise NumericOverflow(
                f"moment series for mu0={float(mu_values[i])}, "
                f"var0={float(var_values[j])} did not converge within "
                f"{MAX_TERMS} terms")
        lo, hi = hi, min(2 * hi, MAX_TERMS)


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
    sums, support = _series_sums(mu_values, var_values, n_terms)
    mean_corr, var_corr = dp_moment_corrections(*sums, mu_values[:, None] / var_values)
    return MomentGrid(mu_values, var_values, np.abs(mean_corr), np.abs(var_corr), n_terms,
                      support)


def write_moment_grid_csv(grid: MomentGrid, path) -> None:
    """Write rows mu0,var0,eps1,eps2 in row-major grid order, one per line.

    The bytes are those of csv.writer with "\\n" line ends, which quotes no
    float repr.
    """
    var_text = [repr(v) for v in grid.var_values.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("mu0,var0,eps1,eps2\n")
        for mu0, eps1, eps2 in zip(grid.mu_values.tolist(), grid.eps1.tolist(),
                                   grid.eps2.tolist()):
            mu_text = repr(mu0)
            fh.write("".join(f"{mu_text},{v},{e1!r},{e2!r}\n"
                             for v, e1, e2 in zip(var_text, eps1, eps2)))
