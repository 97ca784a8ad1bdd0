"""Count distributions used as predictive families.

The central object is the Double Poisson distribution DP(mu, gamma) with
density proportional to

    gamma^(1/2) exp(-gamma*mu) * (exp(-y) y^y / y!) * (e*mu/y)^(gamma*y),

normalized by the series c(mu, gamma). Its first two moments are
approximately mu and mu/gamma, so mu acts as a mean and gamma as an inverse
dispersion: gamma < 1 is over-dispersed, gamma > 1 under-dispersed, and
gamma = 1 recovers the ordinary Poisson exactly.

Poisson, negative binomial and Gaussian families are provided as baselines.
All probability work on the discrete families happens in log space over a
finite integer support; the conventions 0^0 = 1 and y*log(y) = 0 at y = 0
apply throughout. Every Double Poisson log weight is log h(y) - gamma *
bd0(y, mu), Loader's (2000) saddle-point form (see _dp_log_weight), and a
Poisson(lam) is summed as DP(lam, 1), which it is. Only the negative
binomial (gammaln) and Gaussian (ndtr, ndtri) paths import scipy.special.

One engine, _series, sums every infinite series: the PMF supports, the
normalizer, the exact-series moments and the moment grid of the moments
module. A PredictiveBatch runs it once at most, and its PMF supports, its
exact moment corrections (dp_corrections) and dp_normalizer read that one
result. Each cell's support 0..N-1 grows as N = n0 * 2^k, summing only the
new block into running sums, until a proven bound on the neglected tail of
sum(s*y^2) is below TAIL_TOL of the sum (times min(1, gamma) for the
Double Poisson). The bound uses rho >= s(y+1)/s(y) for y >= N-1:
(mu/N)^gamma * exp(max(0, gamma-1)/(2(N-1))) for the Double Poisson (lam/N
for a Poisson) and max(1, (N+r-1)/N) * (1-p) for the negative binomial. A
cell that cannot converge within MAX_TERMS terms is refused before any
summing, and one unconverged at the cap raises NumericOverflow: no support
is cut short silently. A Double Poisson term costs one multiply, one exp
and one matmul read (see _series).

Every predictive distribution is a PredictiveBatch: n rows, each a uniform
mixture of M members of one family, with parameters shaped (M, n). The
constructors (double_poisson, poisson, ...) return one-member, one-row
batches, and mixture stacks such batches along the member axis.
predictive_summary builds the member log weights in blocks of rows of one
width (the widest support among a row's members) and at most BLOCK_CELLS
cells, exponentiates each weight once, normalizes each member by its sum,
averages over members, and reads modes, quantiles, CRPS and p(y), F(y) at
the labels off one PMF and CDF matrix per block. It is the one reader of
predictive distributions: a single distribution is a one-row batch. Each
row is summed at its own width and over members in member order, so a row
of any family and member count scores the same bits alone as in a batch.
Member means and variances are not read here but off the network heads,
by ensemble.MemberHeads.moments alone; a batch adds only what needs its
series, the exact Double Poisson corrections to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ddpnkit.errors import DomainError, NumericOverflow, ShapeError
from ddpnkit.losses import count_labels

DOUBLE_POISSON = "double_poisson"
POISSON = "poisson"
NEG_BINOMIAL = "neg_binomial"
GAUSSIAN = "gaussian"

# parameter names of each kind, in the order of PredictiveBatch.params
_FIELDS = {
    DOUBLE_POISSON: ("mu", "gamma"),
    POISSON: ("lam",),
    NEG_BINOMIAL: ("r", "p"),
    GAUSSIAN: ("mu", "sigma2"),
}

# largest block of cells x terms summed, or members x rows x support built, at once
BLOCK_CELLS = 1 << 17
# every series is summed over at most MAX_TERMS terms, 0..MAX_TERMS-1
MAX_TERMS = 1 << 16
# a series stops once its neglected tail is bounded below TAIL_TOL of its sum
TAIL_TOL = 1e-14
# first support length of the predictive series (PMFs, normalizer, moments)
PMF_N0 = 32
# the upper CRPS sum stops at its first term below this
CRPS_TAIL_TOL = 1e-12
# modes and quantiles allow this relative rounding of the PMF and CDF values
_SLACK = 1e-12


def _valid(kind: str, params: tuple) -> None:
    """Raise DomainError naming the first row, then member, holding a value
    outside kind's parameter domain.

    Every parameter must be finite and positive, except the Gaussian mean,
    which need only be finite, and the negative binomial p, which must lie
    in (0, 1).
    """
    rules = []
    for name, p in zip(_FIELDS[kind], params):
        if name == "p":
            rules.append(((p > 0.0) & (p < 1.0), "must lie in (0, 1)"))
        elif kind == GAUSSIAN and name == "mu":
            rules.append((np.isfinite(p), "must be finite"))
        else:
            rules.append((np.isfinite(p) & (p > 0.0), "must be finite and positive"))
    bad = np.flatnonzero(~np.logical_and.reduce([ok for ok, _ in rules]).T)
    if bad.size:
        row, member = divmod(int(bad[0]), params[0].shape[0])
        for name, p, (ok, rule) in zip(_FIELDS[kind], params, rules):
            if not ok[member, row]:
                raise DomainError(f"{name} {rule}, got {float(p[member, row])} at row {row}")


@dataclass(frozen=True)
class PredictiveBatch:
    """n predictive distributions, each a uniform mixture of M members of one kind.

    ``params`` holds one (M, n) read-only copy per parameter of the kind, in
    the order of _FIELDS: (mu, gamma), (lam,), (r, p) or (mu, sigma2). M = 1
    is one plain distribution per row. 1-D arrays are read as M = 1.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in _FIELDS:
            raise DomainError(f"unknown distribution kind {self.kind!r}")
        params = tuple(np.array(p, dtype=float, ndmin=2) for p in self.params)
        names = _FIELDS[self.kind]
        if len(params) != len(names):
            raise ShapeError(f"kind {self.kind!r} takes {len(names)} parameter arrays")
        if params[0].ndim != 2 or any(p.shape != params[0].shape for p in params):
            raise ShapeError("parameter arrays must share one (members, rows) shape")
        if params[0].shape[0] == 0:
            raise ShapeError("a batch needs at least one member")
        _valid(self.kind, params)
        for p in params:  # _summed is kept, so the parameters must not change under it
            p.flags.writeable = False
        object.__setattr__(self, "params", params)

    @property
    def shape(self) -> tuple:
        """(members, rows)."""
        return self.params[0].shape

    def __len__(self) -> int:
        return self.shape[1]

    @cached_property
    def _summed(self) -> tuple:
        """The batch's one _series pass: (sums, shift, support), member-major."""
        def label(i: int) -> str:
            values = ", ".join(f"{name}={float(p.flat[i])!r}"
                               for name, p in zip(_FIELDS[self.kind], self.params))
            return f"series of {self.kind}({values})"
        return _series(self.kind, [p.ravel() for p in self.params], label, PMF_N0)

    def dp_corrections(self) -> tuple:
        """The exact Double Poisson moments less their Efron approximations
        (mu, mu/gamma), each (M, n), read off the batch's one series pass
        (dp_moment_corrections). DomainError for another kind."""
        if self.kind != DOUBLE_POISSON:
            raise DomainError(f"{self.kind} has no Double Poisson moment corrections")
        corrections = dp_moment_corrections(*self._summed[0], self.params[1].ravel())
        return tuple(c.reshape(self.shape) for c in corrections)


def double_poisson(mu: float, gamma: float) -> PredictiveBatch:
    return PredictiveBatch(DOUBLE_POISSON, ([[mu]], [[gamma]]))


def poisson(lam: float) -> PredictiveBatch:
    return PredictiveBatch(POISSON, ([[lam]],))


def neg_binomial(r: float, p: float) -> PredictiveBatch:
    return PredictiveBatch(NEG_BINOMIAL, ([[r]], [[p]]))


def gaussian(mu: float, sigma2: float) -> PredictiveBatch:
    return PredictiveBatch(GAUSSIAN, ([[mu]], [[sigma2]]))


def mixture(members) -> PredictiveBatch:
    """Uniform mixture of one-member, one-row batches of one kind, stacked along M."""
    members = tuple(members)
    if not members:
        raise DomainError("mixture requires at least one component")
    kinds = {m.kind for m in members}
    if len(kinds) != 1:
        raise DomainError(f"mixture members must share one kind, got {kinds}")
    if any(m.shape != (1, 1) for m in members):
        raise DomainError("mixture members must be one-member, one-row distributions")
    return PredictiveBatch(members[0].kind,
                           tuple(np.concatenate(p) for p in zip(*(m.params for m in members))))


def _member_mean(x):
    """Mean over axis 0 (the members), summed in member order as np.mean sums
    two or more columns; np.mean sums one column pairwise from 8 values on."""
    total = x[0] + 0.0  # a new array, and -0.0 sums to 0.0 as in np.mean
    for member in x[1:]:
        total += member
    return total / len(x)


@dataclass(frozen=True)
class UncertaintyDecomposition:
    """A uniform mixture's mean and its variance, total = aleatoric + epistemic."""

    mean: object
    total: object
    aleatoric: object
    epistemic: object


def decompose_variance(means, variances) -> UncertaintyDecomposition:
    """The one mixture decomposition: mean and variance of uniform mixtures.

    Members run along the first axis; 1-D inputs give floats, (M, n) inputs
    one value per column. aleatoric is the average member variance;
    epistemic the population variance of the member means, taken about
    their average so that it never cancels or goes negative (inf where the
    means overflowed); total is their sum. A column, or a 1-D input, gives
    the bits it gives in a batch."""
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if means.shape != variances.shape or means.shape[0] == 0:
        raise ShapeError("means and variances must be equal-length and nonempty")
    aleatoric = _member_mean(variances)
    center = _member_mean(means)
    finite = np.isfinite(center)
    with np.errstate(over="ignore"):
        epistemic = _member_mean((means - np.where(finite, center, 0.0)) ** 2)
    epistemic = np.where(finite, epistemic, np.inf)
    parts = center, aleatoric + epistemic, aleatoric, epistemic
    if means.ndim == 1:
        parts = map(float, parts)
    return UncertaintyDecomposition(*parts)


# --- Double Poisson series machinery -----------------------------------------

# log h(y) = y*log(y) - y - log(y!) for y = 0..15, each the correctly rounded
# value of a 40-digit evaluation from the exact factorial; from y = 16 on the
# Stirling series of _log_h serves
_LOG_H_TABLE = (
    0.0, -1.0, -1.3068528194400546, -1.4959226032237258, -1.6328763858683832,
    -1.7403021806115442, -1.828694396641771, -1.9037903176782212, -1.9690705693065629,
    -2.0268062840554952, -2.0785616431350586, -2.12545984509181, -2.168334698205882,
    -2.207822206123445, -2.244418568125061, -2.2785183673077407)
_STIRLING_FROM = len(_LOG_H_TABLE)


def _log_h(ys: np.ndarray) -> np.ndarray:
    """log h(y) = -log(2*pi*y)/2 - stirlerr(y) at unchecked counts: the table
    below y = 16, then the series 1/(12y) - 1/(360y^3) + ... + 1/(1188y^9) of
    stirlerr(y) = log(y!) - (y + 1/2)*log(y) + y - log(2*pi)/2, exact to 1e-16.
    Strictly decreasing in y."""
    big = np.maximum(ys, float(_STIRLING_FROM))
    w = 1.0 / (big * big)
    stirlerr = (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))) / big
    table = np.take(_LOG_H_TABLE, np.minimum(ys, _STIRLING_FROM - 1).astype(np.intp))
    return np.where(ys < _STIRLING_FROM, table, -0.5 * np.log(2.0 * math.pi * big) - stirlerr)


_TINY_RATIO = np.finfo(float).tiny
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10  # fdlibm's split


def _bd0(ys, mu) -> np.ndarray:
    """Loader's deviance bd0(y, mu) = y*log(y/mu) + mu - y >= 0, and mu at y = 0.

    At unchecked counts ys and mu > 0 (mu = 0 gives +inf at y >= 1), broadcast
    together. With r = mu/y it is y*((r - 1) - log(r)): the rounding of r
    costs |y - mu| * 1e-16, not y * 1e-16. Where these terms cancel,
    |y - mu| < 0.1*(y + mu) (9/11 < r < 11/9), and at y = 0 (v = -1 gives
    mu), it is Loader's (2000) series (y - mu)*v + 2y*(v^3/3 + ... + v^17/17)
    in v = (y - mu)/(y + mu), exact to 1e-18 as v^2 < 0.01. Where r is
    subnormal or underflows to 0 (mu below 2.2e-308 * y), bd0 is formed from
    log(mu) and log(y) instead, so no digits of r are lost.
    """
    den = np.where(ys == 0.0, 1.0, ys)
    ratio = np.asarray(mu / den)
    near = (ratio > 9.0 / 11.0) & (ratio < 11.0 / 9.0) | (ys == 0.0)
    tiny = ratio < _TINY_RATIO
    with np.errstate(divide="ignore"):  # an underflowed ratio is replaced below
        log_r = np.log(ratio)
    out = np.subtract(ratio, 1.0, out=ratio)
    out -= log_r
    out *= ys
    if np.any(tiny):
        # r - 1 is -1 there and log r = log(mu) - log(y); with mu = frac*2^expo,
        # log(mu) = log(frac) + expo*log(2), where expo times the high part
        # of log 2 is exact, so log(mu) adds no rounding at its own scale
        frac, expo = np.frexp(mu)
        with np.errstate(divide="ignore"):  # mu = 0 keeps bd0 = +inf for y >= 1
            low = (np.log(den) - 1.0) - (np.log(frac) + expo * _LN2_LO)
        out = np.where(tiny, ys * (-expo * _LN2_HI) + ys * low, out)
    if np.any(near):
        y = np.broadcast_to(ys, out.shape)[near]
        m = np.broadcast_to(mu, out.shape)[near]
        d = y - m
        v = d / (y + m)
        w = v * v
        series = 1.0 / 17.0
        for k in range(15, 2, -2):
            series = series * w + 1.0 / k
        out[near] = d * v + 2.0 * y * (v * w) * series
    return out


def _dp_log_weight(mu, gamma, ys) -> np.ndarray:
    """log s(mu, gamma, y) = log h(y) - gamma*bd0(y, mu) at unchecked counts:
    the summand of the normalizing series without its gamma^(1/2) prefactor,
    within 1e-13 of 40-digit mpmath over mu +- 8 sd for mu up to 6e4 and gamma
    from 1e-3 to 1e8. mu and gamma broadcast against ys; a weight whose
    exponent overflows is 0."""
    with np.errstate(over="ignore"):  # a weight that underflows is 0
        log_w = -gamma * _bd0(ys, mu)
    log_w += _log_h(ys)
    return log_w


def _log_weights(kind: str, params, ys: np.ndarray) -> np.ndarray:
    """Log weights at the unchecked counts ys, broadcast against the parameters.

    The negative binomial weights are its log PMF; the Double Poisson
    weights are log s(mu, gamma, y), whose sum is c(mu, gamma) without the
    gamma^(1/2) prefactor, and a Poisson(lam) is DP(lam, 1) with c = 1.
    """
    if kind != NEG_BINOMIAL:
        return _dp_log_weight(params[0], params[1] if kind == DOUBLE_POISSON else 1.0, ys)
    from scipy.special import gammaln

    r, p = params
    return gammaln(ys + r) - gammaln(r) - gammaln(ys + 1.0) + r * np.log(p) + ys * np.log1p(-p)


def _tail_bound(kind: str, params, n: int) -> np.ndarray:
    """Per cell, B such that the tail past the support 0..n-1 is negligible once
    w_last * B <= s0 (the weight at y = n-1 and the sum, at one scale).

    With rho of the module docstring, the tail of sum(s*y^2) is at most
    w_last * sum_{k>=1} rho^k (n-1+k)^2; B is that over the tolerance, inf
    where rho >= 1.
    """
    with np.errstate(all="ignore"):  # an infinite gamma gives nan: never converges
        if kind == DOUBLE_POISSON:
            mu, gamma = params
            log_rho = (gamma * (np.log(mu) - math.log(n))
                       + np.maximum(gamma - 1.0, 0.0) / (2.0 * (n - 1)))
            tol = TAIL_TOL * np.minimum(1.0, gamma)
        else:
            r, p = params
            log_rho, tol = np.log1p(-p) + np.maximum(0.0, np.log1p((r - 1.0) / n)), TAIL_TOL
        rho, q, a = np.exp(log_rho), -np.expm1(log_rho), n - 1.0
        bound = rho * (a * a / q + 2.0 * a / q**2 + (1.0 + rho) / q**3) / tol
    return np.where(log_rho < 0.0, bound, np.inf)


def _run_bounds(values: np.ndarray) -> np.ndarray:
    """Start of every run of equal values, then len(values)."""
    edge = np.ones(values.size + 1, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=edge[1:-1])
    return np.flatnonzero(edge)


_EXP_FLOOR = -600.0  # exp is 20-200 times slower where it underflows


def _block_sums(kind: str, part, ys, old, step: int):
    """(t, edge, new) of cells sorted by m, of shifts old: t their four sums
    over ys and edge their weight at ys[-1], at their new shifts new."""
    dp = kind == DOUBLE_POISSON
    m, g = part if dp else (part[0], np.ones_like(part[0]))
    log_h = _log_h(ys) if dp else np.zeros_like(ys)
    lead, c = log_h[0], np.rint(m)  # log h(lo)
    h = np.exp(log_h, out=log_h)
    t, edge, least = np.empty((m.size, 4)), np.empty(m.size), np.empty(m.size)
    runs = _run_bounds(m) if dp else np.arange(m.size + 1)  # cells sharing a row of e
    cols, at = np.stack((h, h, h, h * ys)), None  # h, h(y-at), h(y-at)^2, h*y
    for r0 in range(0, runs.size - 1, step):  # step rows of e
        r1 = min(r0 + step, runs.size - 1)
        i0, i1, heads = runs[r0], runs[r1], runs[r0:r1, None]
        e = buf = w = None  # the last block's arrays go before these are built
        e = _bd0(ys, m[heads]) if dp else -_log_weights(kind, [p[heads] for p in part], ys)
        rows = np.repeat(np.arange(r1 - r0), np.diff(runs[r0:r1 + 1]))
        row_least = np.min(e, axis=1)
        e -= row_least[:, None]
        least[i0:i1] = row_least[rows]
        with np.errstate(over="ignore"):  # e is convex or monotone: largest at an end
            low = g[i0:i1] * np.maximum(e[:, 0], e[:, -1])[rows] > -_EXP_FLOOR
        if i1 - i0 > r1 - r0:  # else e's rows become the weights
            buf = np.empty((min(step, i1 - i0), ys.size))
        for start in range(i0, i1, step):
            end = min(start + step, i1)  # "clip" takes into buf without a copy
            w = e if buf is None else np.take(e, rows[start - i0:end - i0], 0,
                                              buf[:end - start], "clip")
            with np.errstate(over="ignore"):
                w *= -g[start:end, None]
            floor = low[start - i0:end - i0, None]
            if floor.any():
                np.maximum(w, _EXP_FLOOR, out=w, where=floor)
            w = np.exp(w, out=w)
            edge[start:end] = w[:, -1]
            crs = _run_bounds(c[start:end]) + start
            for a, b in zip(crs[:-1], crs[1:]):
                if c[a] != at:
                    at, d = c[a], ys - c[a]
                    np.multiply(h, d, out=cols[1])
                    np.multiply(cols[1], d, out=cols[2])
                t[a:b] = w[a - start:b - start] @ cols.T
    with np.errstate(over="ignore"):
        new = np.maximum(old, lead - g * least)
        scale = np.exp(-g * least - np.where(new > -np.inf, new, 0.0))
    t *= scale[:, None]
    edge *= h[-1] * scale
    return t, edge, new


def _series(kind: str, params, label, n0: int):
    """Sums of the weight series of flat cells of one discrete kind.

    params holds one flat array per parameter; label(i) names cell i in
    errors. Returns (sums, shift, support): support[i] is the cell's final
    N, and sums[:, i] holds s0, s1, s2, sy = the sums of s, s*(y-m),
    s*(y-m)^2 and s*y about the cell's first parameter m, at scale
    exp(-shift[i]). Cells go in order of m. A weight is h(y) exp(-g*e) times
    exp(-g*least - shift) on its cell's sums: for the Double Poisson g =
    gamma and e = bd0(y, mu) less its least value, one row for a run of
    equal mu; else h = g = 1 and e = -log weight. log h(lo) - g*least bounds
    the block's log weights (log h falls, bd0 is convex), by under 7 over
    their max. An exponent below -600 is read as -600, < 1e-240 of any sum.
    Cells of equal c = round(m) share one matmul with the columns h, h(y-c),
    h(y-c)^2, h*y; the sums move from c to m at the end (|m - c| <= 1/2, so
    nothing cancels).
    """
    if kind == POISSON:  # summed as DP(lam, 1), which it is
        kind, params = DOUBLE_POISSON, (params[0], np.ones_like(params[0]))
    with np.errstate(over="ignore"):
        mean = params[0] * (1.0 - params[1]) / params[1] if kind == NEG_BINOMIAL else params[0]
    hopeless = ~(mean < MAX_TERMS) | ~(_tail_bound(kind, params, MAX_TERMS) < np.inf)
    if hopeless.any():
        raise NumericOverflow(f"{label(int(np.argmax(hopeless)))} cannot be summed within "
                              f"{MAX_TERMS} terms")
    order = np.argsort(params[0], kind="stable")
    params = [p[order] for p in params]
    sums = np.zeros((order.size, 4))
    shift = np.full(order.size, -np.inf)
    support = np.zeros(order.size, dtype=np.int64)
    todo = np.arange(order.size)
    lo, hi = 0, n0
    while todo.size:
        if lo == MAX_TERMS:
            raise NumericOverflow(f"{label(int(order[todo[0]]))} did not converge within "
                                  f"{MAX_TERMS} terms")
        ys = np.arange(lo, hi, dtype=float)
        step = max(1, BLOCK_CELLS // ys.size)
        sweep = step * max(1, (BLOCK_CELLS >> 5) // step)  # few cells: small per-cell arrays
        left = []
        for cells in np.split(todo, range(sweep, todo.size, sweep)):
            part = [p[cells] for p in params]
            old = shift[cells]
            t, edge, new = _block_sums(kind, part, ys, old, step)
            top = np.where(new > -np.inf, new, 0.0)
            s = sums[cells] * np.exp(old - top)[:, None]
            s += t
            sums[cells], shift[cells] = s, new
            ok = edge * _tail_bound(kind, part, hi) <= s[:, 0]
            support[cells[ok]] = hi
            left.append(cells[~ok])
        todo = np.concatenate(left)
        lo, hi = hi, min(2 * hi, MAX_TERMS)
    t0, t1 = sums[:, 0], sums[:, 1]  # moved from c to m in place
    delta = params[0] - np.rint(params[0])
    sums[:, 2] -= delta * (2.0 * t1 - delta * t0)
    sums[:, 1] -= delta * t0
    inverse = np.argsort(order)
    return sums[inverse].T, shift[inverse], support[inverse]


def _pmf_blocks(batch: PredictiveBatch):
    """Yield (rows, pmf) per block of rows of one width N, the widest support
    from _series among a row's members.

    rows indexes the block's rows in the batch and pmf is their (r, N)
    mixture PMF, each member normalized over its own support and zero past
    it. As every row of a block has the block's width, plain sums along axis
    1 add each row up exactly as when it is alone: a row's results cannot
    depend on its neighbours. A block holds at most BLOCK_CELLS member
    cells unless a single row needs more.
    """
    members, n = batch.shape
    support = batch._summed[2].reshape(members, n)
    width = support.max(axis=0)
    # rows grouped by width with a sort (np.unique would load numpy.ma)
    order = np.argsort(width, kind="stable")
    runs = _run_bounds(width[order])
    for lo, hi in zip(runs[:-1], runs[1:]):
        same = order[lo:hi]
        w = int(width[same[0]])
        step = max(1, BLOCK_CELLS // (members * w))
        ys = np.arange(w, dtype=float)
        for start in range(0, same.size, step):
            rows = same[start:start + step]
            log_w = _log_weights(batch.kind, [p[:, rows, None] for p in batch.params], ys)
            log_w[ys >= support[:, rows, None]] = -np.inf
            log_w -= np.max(log_w, axis=2, keepdims=True)
            w = np.exp(log_w, out=log_w)
            w /= np.sum(w, axis=2, keepdims=True)
            pmf = _member_mean(w)
            if not np.all(np.isfinite(pmf)):
                raise NumericOverflow(f"non-finite PMF values for kind {batch.kind}")
            yield rows, pmf


def _inverse_cdf(batch: PredictiveBatch, u: np.ndarray) -> np.ndarray:
    """Smallest z with CDF(z) >= u[i], for one draw u[i] in [0, 1) per row i.

    Each row's CDF is taken as 1 at the last point of its support, so every
    draw lands on it; as the CDF is nondecreasing, z is the count of its
    values below u[i].
    """
    z = np.empty(u.shape, dtype=np.int64)
    for rows, pmf in _pmf_blocks(batch):
        cdf = np.cumsum(pmf, axis=1)
        cdf[:, -1] = 1.0
        z[rows] = np.sum(cdf < u[rows, None], axis=1)
    return z


def dp_normalizer(mu: float, gamma: float) -> float:
    """Normalizing constant c(mu, gamma) of the Double Poisson.

    Sum over the engine's support of gamma^(1/2) h(y) exp(r(mu, gamma, y)).
    Equals 1 exactly when gamma = 1. The training loss drops it, as the
    paper does, but c is near 1 only away from low counts: 0.99 at (5, 2),
    yet 0.035 at (0.5, 20), 1.65 at (1, 20) and 0.66 at (0.1, 0.2). What
    that costs the fit is open; see "the exact Double Poisson likelihood at
    low counts" in ROADMAP.md.
    """
    (s0, *_), shift, _ = double_poisson(mu, gamma)._summed
    with np.errstate(over="ignore"):
        c = float(np.exp(0.5 * math.log(gamma) + shift[0] + math.log(s0[0])))
    if not math.isfinite(c):
        raise NumericOverflow(f"normalizer overflowed for mu={mu}, gamma={gamma}")
    return c


def dp_moment_corrections(s0, s1, s2, sy, gamma) -> tuple:
    """Mean and variance corrections of DP(mu, gamma) from its weight series.

    The arguments are sums over y of the weights s(mu, gamma, y), at any
    common scale: s0 = sum(s), s1 = sum(s*(y-mu)), s2 = sum(s*(y-mu)^2) and
    sy = sum(s*y). Returns, elementwise,

        E[Z] - mu       = s1 / s0
        Var[Z] - mu/gamma = (d*sqrt(gamma)*s0 - gamma*s1^2) / (gamma*s0^2)

    with d(mu, gamma) = gamma^(-1/2) * (gamma*s2 - sy + s1). These are the
    correction terms that the Efron moment approximations drop; both are
    ratios of the sums, so their scale cancels.
    """
    d_scaled = gamma * s2 - sy + s1  # d * sqrt(gamma)
    return s1 / s0, (d_scaled * s0 - gamma * s1 * s1) / (gamma * s0 * s0)


# --- the batched predictive engine --------------------------------------------


@dataclass(frozen=True)
class PredictiveSummary:
    """Point, interval and score read off a batch, one entry per row.

    modes: most probable values, (n,). quantiles: one row per requested
    level, (levels, n). crps, pmf and cdf: CRPS, p(y) and F(y) at each row's
    label y, each (n,), or None when no labels were given; Gaussian rows give
    the mixture density as p(y).
    """

    modes: np.ndarray
    quantiles: np.ndarray
    crps: object = None
    pmf: object = None
    cdf: object = None


def crps_from_cdf(cdf: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """CRPS of each row of a discrete CDF matrix against nonnegative integer labels.

    Every row is a CDF over the support 0..N-1, N = cdf.shape[1], and is 1
    past it; ys are integer-valued floats:

        CRPS(F, y) = sum_{z<y} F(z)^2 + sum_{z>=y} (F(z) - 1)^2,

    with the upper sum stopped at its first term below CRPS_TAIL_TOL. Both
    sums are masked sums over whole rows, so a row's value depends on its
    own CDF and label alone.
    """
    z = np.arange(cdf.shape[1])
    below = z < ys[:, None]
    tail = (cdf - 1.0) ** 2
    small = (tail < CRPS_TAIL_TOL) & ~below
    stop = np.where(small.any(axis=1), np.argmax(small, axis=1), cdf.shape[1])
    upper = ~below & (z < stop[:, None])
    total = np.sum(np.where(below, cdf**2, 0.0), axis=1) + np.maximum(0.0, ys - cdf.shape[1])
    return total + np.sum(np.where(upper, tail, 0.0), axis=1)


def check_labels(batch: PredictiveBatch, ys) -> np.ndarray:
    """Labels to score batch against, as floats: count_labels for the
    discrete families; Gaussian rows take any finite label. DomainError for
    a label that does not qualify."""
    if batch.kind != GAUSSIAN:
        return np.asarray(count_labels(ys), dtype=float)
    ys = np.asarray(ys, dtype=float)
    bad = np.flatnonzero(~np.isfinite(ys))
    if bad.size:
        raise DomainError(f"a label must be finite, got {ys[bad[0]]}")
    return ys


def _normal_density(u) -> np.ndarray:
    """Standard normal density at u."""
    return np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)


def _gaussian_cdf(x, mu: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """CDF at x of uniform Gaussian mixtures, the members along axis 0."""
    from scipy.special import ndtr

    return _member_mean(ndtr((x - mu) / sd))


def _gauss_abs_moment(delta: np.ndarray, var: np.ndarray) -> np.ndarray:
    """E|N(delta, var)|."""
    from scipy.special import ndtr

    s = np.sqrt(var)
    u = delta / s
    return s * (u * (2.0 * ndtr(u) - 1.0) + 2.0 * _normal_density(u))


def gaussian_crps(mu: np.ndarray, sigma2: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """CRPS of uniform Gaussian mixtures with (M, n) parameters against n labels.

    Uses the kernel identity CRPS = E|X - y| - E|X - X'|/2, whose second
    term is sigma/sqrt(pi) for a single Gaussian.
    """
    if mu.shape[0] == 1:
        return _gauss_abs_moment(ys - mu[0], sigma2[0]) - np.sqrt(sigma2[0] / math.pi)
    to_label = _member_mean(_gauss_abs_moment(ys - mu, sigma2))
    pairs = _gauss_abs_moment(mu[:, None] - mu[None], sigma2[:, None] + sigma2[None])
    return to_label - 0.5 * _member_mean(pairs.reshape(-1, mu.shape[1]))  # M*M members


def _gaussian_quantile(mu: np.ndarray, sigma2: np.ndarray, q: float) -> np.ndarray:
    """q-quantile of uniform Gaussian mixtures, one per column: ndtri for one
    member, else the mixture CDF bisected from 10 sd past the members until a
    halving moves no bracket, at most 200 times; later halvings would repeat it."""
    from scipy.special import ndtri

    sd = np.sqrt(sigma2)
    if mu.shape[0] == 1:
        return mu[0] + sd[0] * ndtri(q)
    # mixture: bisect the averaged CDF, all rows at once
    lo, hi = np.min(mu - 10.0 * sd, axis=0), np.max(mu + 10.0 * sd, axis=0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = _gaussian_cdf(mid, mu, sd) < q
        if np.all(np.where(below, lo, hi) == mid):
            break  # no bracket moves, so every later halving repeats this one
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def predictive_summary(
    batch: PredictiveBatch,
    ys=None,
    levels=(),
) -> PredictiveSummary:
    """Modes, quantiles at ``levels`` and, given labels ``ys``, CRPS, p(y) and
    F(y) of every row.

    Discrete rows: the mode is the smallest z whose mass is within a
    relative 1e-12 of the row's largest (Poisson(k) gives k - 1, not k), the
    q-quantile the smallest z with CDF(z) >= q less a relative 1e-12 of q,
    and CRPS follows crps_from_cdf; p(y) and F(y) are read off the row's PMF
    and CDF, and are 0 and 1 past its support. Gaussian rows report their
    mean as the mode, unrounded, and use closed forms (bisection for mixture
    quantiles). Labels go through check_labels first.
    """
    levels = tuple(float(q) for q in levels)
    for q in levels:
        if not (0.0 < q < 1.0):
            raise DomainError(f"quantile level must lie in (0, 1), got {q}")
    n = len(batch)
    labels = None
    if ys is not None:
        ys = np.asarray(ys, dtype=float)
        if ys.shape != (n,):
            raise ShapeError(f"{ys.size} labels for {n} predictive rows")
        labels = check_labels(batch, ys)
    quantiles = np.empty((len(levels), n))
    if batch.kind == GAUSSIAN:
        mu, sigma2 = batch.params
        for j, q in enumerate(levels):
            quantiles[j] = _gaussian_quantile(mu, sigma2, q)
        if labels is None:
            return PredictiveSummary(_member_mean(mu), quantiles)
        sd = np.sqrt(sigma2)
        return PredictiveSummary(_member_mean(mu), quantiles,
                                 gaussian_crps(mu, sigma2, labels),
                                 _member_mean(_normal_density((labels - mu) / sd) / sd),
                                 _gaussian_cdf(labels, mu, sd))
    modes = np.empty(n)
    crps = pmf_y = cdf_y = None
    if labels is not None:
        crps, pmf_y, cdf_y = np.empty(n), np.empty(n), np.empty(n)
    for rows, pmf in _pmf_blocks(batch):
        modes[rows] = np.argmax(pmf >= (1.0 - _SLACK) * pmf.max(axis=1, keepdims=True), axis=1)
        cdf = np.cumsum(pmf, axis=1)
        for j, q in enumerate(levels):
            quantiles[j, rows] = np.sum(cdf < q * (1.0 - _SLACK), axis=1)
        if labels is not None:
            y = labels[rows]
            crps[rows] = crps_from_cdf(cdf, y)
            # compared as floats before the cast: a label may be far past any index
            inside = y < pmf.shape[1]
            at = np.where(inside, y, 0.0).astype(np.intp)[:, None]
            pmf_y[rows] = np.where(inside, np.take_along_axis(pmf, at, axis=1)[:, 0], 0.0)
            cdf_y[rows] = np.where(inside, np.take_along_axis(cdf, at, axis=1)[:, 0], 1.0)
    return PredictiveSummary(modes, quantiles, crps, pmf_y, cdf_y)
