"""Count distributions used as predictive families.

The central object is the Double Poisson distribution DP(mu, gamma) with
density proportional to

    gamma^(1/2) exp(-gamma*mu) * (exp(-y) y^y / y!) * (e*mu/y)^(gamma*y),

normalized by the series c(mu, gamma). Its first two moments are
approximately mu and mu/gamma, so mu acts as a mean and gamma as an inverse
dispersion: gamma < 1 is over-dispersed, gamma > 1 under-dispersed, and
gamma = 1 recovers the ordinary Poisson exactly.

Poisson, negative binomial and Gaussian families are provided as baselines,
plus a uniform Mixture for ensemble predictions. All probability work on the
discrete families happens in log space over a truncated integer support; the
conventions 0^0 = 1 and y*log(y) = 0 at y = 0 apply throughout. The Double
Poisson and Poisson paths need only numpy: log(y!) comes from one cached
table. scipy.special is imported on first use by the negative binomial
(gammaln) and Gaussian (ndtr, ndtri) paths alone.

Scoring runs on a PredictiveBatch: n rows, each a uniform mixture of M
members of one family, with parameters shaped (M, n). predictive_summary
builds the member log weights on a shared support in row blocks of at most
BLOCK_CELLS cells, normalizes each member once, averages over members, and
reads modes, quantiles and CRPS off one CDF matrix per block. The
single-distribution functions (pmf_vector, dist_mode, dist_quantile, ...) are
one-row views of the same engine, and every row is summed exactly as it
would be alone, so a row's results do not depend on the rows batched with it.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from ddpnkit.errors import DomainError, NumericOverflow, ShapeError

DOUBLE_POISSON = "double_poisson"
POISSON = "poisson"
NEG_BINOMIAL = "neg_binomial"
GAUSSIAN = "gaussian"
MIXTURE = "mixture"

_SCALAR_KINDS = frozenset({DOUBLE_POISSON, POISSON, NEG_BINOMIAL, GAUSSIAN})

EFRON_APPROX = "efron_approx"
EXACT_SERIES = "exact_series"

# largest (members x rows x support) block of log weights built at once
BLOCK_CELLS = 1 << 17
# the upper CRPS sum stops at its first term below this
CRPS_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class SupportTruncation:
    """Truncation policy for infinite-support summations.

    The support of each distribution starts 10 standard deviations past its
    mean and doubles until its edge term falls below tail_mass_tol times the
    accumulated sum. A support still unconverged at hard_cap terms raises
    NumericOverflow instead of being cut short.
    """

    tail_mass_tol: float = 1e-10
    hard_cap: int = 10000

    def __post_init__(self):
        if not (0.0 < self.tail_mass_tol < 1.0):
            raise DomainError(f"tail_mass_tol must lie in (0, 1), got {self.tail_mass_tol}")
        if self.hard_cap < 1:
            raise DomainError(f"hard_cap must be positive, got {self.hard_cap}")


DEFAULT_TRUNCATION = SupportTruncation()


@dataclass(frozen=True)
class DoublePoissonParams:
    """Mean parameter mu > 0 and inverse-dispersion gamma > 0."""

    mu: float
    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise DomainError(f"mu must be finite and positive, got {self.mu}")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise DomainError(f"gamma must be finite and positive, got {self.gamma}")


@dataclass(frozen=True)
class PoissonParams:
    """Rate parameter lam > 0."""

    lam: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise DomainError(f"lam must be finite and positive, got {self.lam}")


@dataclass(frozen=True)
class NegBinomialParams:
    """Successes r > 0 and success probability p in (0, 1).

    Mean is r*(1-p)/p and variance r*(1-p)/p^2, so the variance always
    exceeds the mean (over-dispersion only).
    """

    r: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise DomainError(f"r must be finite and positive, got {self.r}")
        if not (0.0 < self.p < 1.0):
            raise DomainError(f"p must lie in (0, 1), got {self.p}")


@dataclass(frozen=True)
class GaussianParams:
    """Mean mu and variance sigma2 > 0."""

    mu: float
    sigma2: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu}")
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0.0):
            raise DomainError(f"sigma2 must be finite and positive, got {self.sigma2}")


_RECORDS = {
    DOUBLE_POISSON: DoublePoissonParams,
    POISSON: PoissonParams,
    NEG_BINOMIAL: NegBinomialParams,
    GAUSSIAN: GaussianParams,
}


@dataclass(frozen=True)
class PredictiveDistribution:
    """Tagged union over the supported families.

    For scalar kinds ``params`` holds the matching parameter record and
    ``components`` is empty. For kind "mixture", ``components`` holds the
    member distributions (uniform weights) and ``params`` is None. Mixture
    members must all share one non-mixture kind.
    """

    kind: str
    params: object = None
    components: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind in _SCALAR_KINDS:
            expected = _RECORDS[self.kind]
            if not isinstance(self.params, expected):
                raise DomainError(
                    f"kind {self.kind!r} requires {expected.__name__} params, "
                    f"got {type(self.params).__name__}"
                )
            if self.components:
                raise DomainError("components must be empty for non-mixture kinds")
        elif self.kind == MIXTURE:
            if self.params is not None:
                raise DomainError("mixture takes components, not params")
            if len(self.components) == 0:
                raise DomainError("mixture requires at least one component")
            kinds = {c.kind for c in self.components}
            if len(kinds) != 1 or MIXTURE in kinds:
                raise DomainError(f"mixture members must share one non-mixture kind, got {kinds}")
        else:
            raise DomainError(f"unknown distribution kind {self.kind!r}")

    @property
    def is_discrete(self) -> bool:
        base = self.components[0].kind if self.kind == MIXTURE else self.kind
        return base != GAUSSIAN


def double_poisson(mu: float, gamma: float) -> PredictiveDistribution:
    return PredictiveDistribution(DOUBLE_POISSON, DoublePoissonParams(float(mu), float(gamma)))


def poisson(lam: float) -> PredictiveDistribution:
    return PredictiveDistribution(POISSON, PoissonParams(float(lam)))


def neg_binomial(r: float, p: float) -> PredictiveDistribution:
    return PredictiveDistribution(NEG_BINOMIAL, NegBinomialParams(float(r), float(p)))


def gaussian(mu: float, sigma2: float) -> PredictiveDistribution:
    return PredictiveDistribution(GAUSSIAN, GaussianParams(float(mu), float(sigma2)))


def mixture(components) -> PredictiveDistribution:
    return PredictiveDistribution(MIXTURE, components=tuple(components))


# --- batches of mixtures --------------------------------------------------------


def _valid(kind: str, params: tuple) -> np.ndarray:
    """Elementwise parameter domain of kind, the batch form of its record checks."""
    ok = np.logical_and.reduce([np.isfinite(p) for p in params])
    if kind == GAUSSIAN:
        return ok & (params[1] > 0.0)
    if kind == NEG_BINOMIAL:
        return ok & (params[0] > 0.0) & (params[1] > 0.0) & (params[1] < 1.0)
    return ok & np.logical_and.reduce([p > 0.0 for p in params])


@dataclass(frozen=True)
class PredictiveBatch:
    """n predictive distributions, each a uniform mixture of M members of one kind.

    ``params`` holds one (M, n) array per field of the kind's parameter
    record, in field order: (mu, gamma), (lam,), (r, p) or (mu, sigma2).
    M = 1 is one plain distribution per row. 1-D arrays are read as M = 1.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in _SCALAR_KINDS:
            raise DomainError(f"unknown batch kind {self.kind!r}")
        record = _RECORDS[self.kind]
        params = tuple(np.atleast_2d(np.asarray(p, dtype=float)) for p in self.params)
        if len(params) != len(fields(record)):
            raise ShapeError(f"kind {self.kind!r} takes {len(fields(record))} parameter arrays")
        if params[0].ndim != 2 or any(p.shape != params[0].shape for p in params):
            raise ShapeError("parameter arrays must share one (members, rows) shape")
        if params[0].shape[0] == 0:
            raise ShapeError("a batch needs at least one member")
        bad = np.flatnonzero(~_valid(self.kind, params))
        if bad.size:
            record(*(float(p.flat[bad[0]]) for p in params))  # raises its DomainError
        object.__setattr__(self, "params", params)

    @property
    def shape(self) -> tuple:
        """(members, rows)."""
        return self.params[0].shape

    def __len__(self) -> int:
        return self.shape[1]

    def components(self, i: int) -> tuple:
        """The member distributions of row i."""
        record = _RECORDS[self.kind]
        members = zip(*(p[:, i].tolist() for p in self.params))
        return tuple(PredictiveDistribution(self.kind, record(*values)) for values in members)

    def member_moments(self, mode: str = EFRON_APPROX,
                       trunc: SupportTruncation = DEFAULT_TRUNCATION) -> tuple:
        """Member means and variances, both (M, n).

        mode "exact_series" adds the Double Poisson correction series to the
        Efron approximations (mu, mu/gamma); other kinds have closed forms.
        """
        if mode not in (EFRON_APPROX, EXACT_SERIES):
            raise DomainError(f"unknown moments mode {mode!r}")
        if self.kind == DOUBLE_POISSON:
            mu, gamma = self.params
            mean, var = mu, mu / gamma
            if mode == EXACT_SERIES:
                mean, var = mean.copy(), var.copy()
                for rows, log_w, log_c, _ in _member_blocks(self, trunc):
                    w = np.exp(log_w - log_c[..., None])
                    mc, vc = dp_moment_corrections(w.reshape(-1, w.shape[-1]),
                                                   mu[:, rows].reshape(-1, 1),
                                                   gamma[:, rows].ravel())
                    mean[:, rows] += mc.reshape(w.shape[:2])
                    var[:, rows] += vc.reshape(w.shape[:2])
            return mean, var
        if self.kind == POISSON:
            return self.params[0], self.params[0]
        if self.kind == NEG_BINOMIAL:
            r, p = self.params
            mean = r * (1.0 - p) / p
            return mean, mean / p
        return self.params

    def moments(self, mode: str = EFRON_APPROX,
                trunc: SupportTruncation = DEFAULT_TRUNCATION) -> tuple:
        """Mixture mean and variance per row, both (n,)."""
        means, variances = self.member_moments(mode, trunc)
        if self.shape[0] == 1:
            return means[0], variances[0]
        return mixture_moments(means, variances)


def mixture_moments(means, variances) -> tuple:
    """Mean and variance of a uniform mixture with the given member moments.

    Members run along the first axis; 1-D inputs give floats, (M, n) inputs
    one value per column.
    """
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if means.shape != variances.shape or means.shape[0] == 0:
        raise ShapeError("means and variances must be equal-length and nonempty")
    mean = np.mean(means, axis=0)
    var = np.mean(variances + means**2, axis=0) - mean**2
    if means.ndim == 1:
        return float(mean), float(var)
    return mean, var


def stack(predictions) -> list:
    """Group distributions into batches that share a kind and a member count.

    Returns (row indices, PredictiveBatch) pairs that together cover every
    position of ``predictions`` once. A PredictiveBatch is one group as is.
    """
    if isinstance(predictions, PredictiveBatch):
        return [(np.arange(len(predictions)), predictions)]
    groups = {}
    for i, dist in enumerate(predictions):
        members = dist.components if dist.kind == MIXTURE else (dist,)
        rows, values = groups.setdefault((members[0].kind, len(members)), ([], []))
        rows.append(i)
        values.append([astuple(c.params) for c in members])
    # values: (rows, members, fields) -> one (members, rows) array per field
    return [(np.array(rows), PredictiveBatch(kind, tuple(np.array(values).transpose(2, 1, 0))))
            for (kind, _), (rows, values) in groups.items()]


def as_batch(dist: PredictiveDistribution) -> PredictiveBatch:
    """One-row batch of a single (possibly mixture) distribution."""
    return stack([dist])[0][1]


# --- Double Poisson series machinery -----------------------------------------

# log(k!) for k = 0..size-1, grown on demand by _log_factorial
_log_fact_table = np.zeros(0)
# counts from here on are computed per call rather than tabled
_LOG_FACT_TABLE_MAX = 1 << 20


def _log_factorial_entry(k: int) -> float:
    # Exact factorials up to 170!, the largest below the float limit, keep the
    # small entries correctly rounded (log(2!) == log(2)), so float ties such
    # as Poisson(2)'s equal mass at 1 and 2 survive; lgamma serves past it.
    return math.log(math.factorial(k)) if k <= 170 else math.lgamma(k + 1.0)


def _log_factorial(ys: np.ndarray) -> np.ndarray:
    """log(y!) at nonnegative integer-valued ys, read from one cached table."""
    global _log_fact_table
    top = ys.max(initial=-1.0)
    if top >= _LOG_FACT_TABLE_MAX:
        return np.array([_log_factorial_entry(int(y)) for y in ys.ravel().tolist()]
                        ).reshape(ys.shape)
    if top >= _log_fact_table.size:
        size = min(max(int(top) + 1, 2 * _log_fact_table.size, 256), _LOG_FACT_TABLE_MAX)
        new = [_log_factorial_entry(k) for k in range(_log_fact_table.size, size)]
        _log_fact_table = np.concatenate([_log_fact_table, new])
    return _log_fact_table[ys.astype(np.intp)]


def _xlogy(x, y) -> np.ndarray:
    """x*log(y) elementwise, with 0*log(y) = 0 for every y (so 0*log(0) = 0)."""
    with np.errstate(divide="ignore"):  # log(0) = -inf where x != 0
        return x * np.log(np.where(x == 0.0, 1.0, y))


def _check_counts(ys) -> np.ndarray:
    ys = np.asarray(ys, dtype=float)
    bad = ~(np.isfinite(ys) & (ys >= 0.0) & (ys == np.floor(ys)))
    if bad.any():
        raise DomainError(f"counts must be nonnegative integers, got {ys[bad][0]}")
    return ys


def _dp_log_h(ys: np.ndarray) -> np.ndarray:
    return -ys + _xlogy(ys, ys) - _log_factorial(ys)


def dp_log_h(ys) -> np.ndarray:
    """log of h(y) = exp(-y) y^y / y!, with h(0) = 1.

    Raises DomainError unless every y is a nonnegative integer.
    """
    return _dp_log_h(_check_counts(ys))


def dp_log_weight(mu, gamma, ys) -> np.ndarray:
    """log of s(mu, gamma, y) = h(y) exp(r(mu, gamma, y)).

    r(mu, gamma, y) = gamma * (y - mu + y*log(mu) - y*log(y)); the
    gamma^(1/2) prefactor of the normalizing series is not included. mu and
    gamma broadcast against ys. Raises DomainError unless every y is a
    nonnegative integer.
    """
    ys = _check_counts(ys)
    r = gamma * (ys - mu + ys * np.log(mu) - _xlogy(ys, ys))
    return _dp_log_h(ys) + r


def _log_weights(kind: str, params, ys: np.ndarray) -> np.ndarray:
    """Log weights at ys, broadcast against the parameter arrays.

    The Poisson and negative binomial weights are their log PMFs; the Double
    Poisson weights are log s(mu, gamma, y), whose sum is c(mu, gamma)
    without the gamma^(1/2) prefactor.
    """
    if kind == DOUBLE_POISSON:
        return dp_log_weight(*params, ys)
    if kind == POISSON:
        (lam,) = params  # lam > 0, so y*log(lam) needs no 0*log(0) guard
        return ys * np.log(lam) - lam - _log_factorial(ys)
    from scipy.special import gammaln

    r, p = params
    return gammaln(ys + r) - gammaln(r) - _log_factorial(ys) + r * np.log(p) + ys * np.log1p(-p)


def _segment_sums(values: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """sum(values[i, start[i]:stop[i]]) for every row i.

    Rows are summed in groups of equal length, so each row is added up
    exactly as np.sum adds a vector of that length and its value does not
    depend on the rows beside it.
    """
    out = np.zeros(values.shape[0])
    width = stop - start
    for k in np.unique(width[width > 0]):
        rows = np.flatnonzero(width == k)
        out[rows] = np.sum(values[rows[:, None], start[rows, None] + np.arange(k)], axis=1)
    return out


def _log_sums(log_w: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """log(sum(exp(log_w[i, :lengths[i]]))) per row; entries past a row's length are -inf.

    The largest terms are taken out of the sum and added back through
    log1p, which keeps the result accurate when one term dominates.
    """
    top = np.max(log_w, axis=1, keepdims=True)
    at_top = log_w == top
    e = np.exp(log_w - top)
    e[at_top] = 0.0
    count = np.sum(at_top, axis=1)
    rest = _segment_sums(e, np.zeros_like(lengths), lengths) / count
    return np.log1p(rest) + np.log(count) + top[:, 0]


def _member_blocks(batch: PredictiveBatch, trunc: SupportTruncation):
    """Yield (rows, log_w, log_c, lengths) per row block of a discrete batch.

    log_w is the (M, r, N) array of member log weights on the shared support
    0..N-1 of the block's r rows, -inf past each member's own support length
    lengths[m, i]; log_c (M, r) holds their log sums. A block holds at most
    BLOCK_CELLS cells unless a single row needs more.

    Each member support starts at ceil(mean + 10*sqrt(var + 1) + 16), at
    least 32, and doubles until its edge term is below tail_mass_tol times
    its sum. A support unconverged at hard_cap raises NumericOverflow.
    """
    members, n = batch.shape
    mean, var = batch.member_moments()
    with np.errstate(over="ignore", invalid="ignore"):
        start = np.ceil(mean + 10.0 * np.sqrt(var + 1.0) + 16.0)
    lengths = np.minimum(trunc.hard_cap, np.maximum(32.0, start)).astype(np.int64)
    log_tol = math.log(trunc.tail_mass_tol)
    lo = 0
    while lo < n:
        widest = np.maximum.accumulate(
            lengths[:, lo:lo + BLOCK_CELLS // (32 * members) + 1].max(axis=0))
        cells = members * np.arange(1, widest.size + 1) * widest
        hi = lo + max(1, int(np.searchsorted(cells, BLOCK_CELLS, side="right")))
        L = lengths[:, lo:hi]
        ys = np.arange(L.max(), dtype=float)
        log_w = _log_weights(batch.kind, [p[:, lo:hi, None] for p in batch.params], ys)
        log_w[ys >= L[..., None]] = -np.inf
        log_c = _log_sums(log_w.reshape(-1, ys.size), L.ravel()).reshape(L.shape)
        edge = np.take_along_axis(log_w, L[..., None] - 1, axis=2)[..., 0]
        unconverged = ~(edge < log_tol + log_c)
        if unconverged.any():
            capped = np.argwhere(unconverged & (L >= trunc.hard_cap))
            if capped.size:
                m, i = capped[0]
                values = ", ".join(f"{f.name}={float(p[m, lo + i])!r}" for f, p in
                                   zip(fields(_RECORDS[batch.kind]), batch.params))
                raise NumericOverflow(
                    f"PMF support of {batch.kind}({values}) has not converged "
                    f"within hard_cap={trunc.hard_cap} terms")
            lengths[:, lo:hi] = np.where(unconverged, np.minimum(2 * L, trunc.hard_cap), L)
            continue  # re-block these rows on their longer supports
        yield slice(lo, hi), log_w, log_c, L
        lo = hi


def _pmf_blocks(batch: PredictiveBatch, trunc: SupportTruncation):
    """Yield (rows, pmf, lengths) per row block of a discrete batch.

    pmf is the (r, N) mixture PMF of the block's rows, each member
    normalized over its own support, and zero past the row's support length
    lengths[i], the longest of its members.
    """
    for rows, log_w, log_c, lengths in _member_blocks(batch, trunc):
        p = np.exp(log_w - log_c[..., None])
        pmf = p[0]
        for member in p[1:]:
            pmf += member
        if len(p) > 1:
            pmf /= len(p)
        if not np.all(np.isfinite(pmf)):
            raise NumericOverflow(f"non-finite PMF values for kind {batch.kind}")
        yield rows, pmf, lengths.max(axis=0)


def _dp_batch(mu: float, gamma: float) -> PredictiveBatch:
    return PredictiveBatch(DOUBLE_POISSON, ([[mu]], [[gamma]]))


def dp_normalizer(mu: float, gamma: float, trunc: SupportTruncation = DEFAULT_TRUNCATION) -> float:
    """Normalizing constant c(mu, gamma) of the Double Poisson.

    Sum over the truncated support of gamma^(1/2) h(y) exp(r(mu, gamma, y)).
    Equals 1 exactly when gamma = 1 and stays within a few percent of 1 over
    moderate parameter ranges, which is what justifies dropping it from
    training losses.
    """
    _, _, log_c, _ = next(_member_blocks(_dp_batch(mu, gamma), trunc))
    c = math.exp(0.5 * math.log(gamma) + float(log_c[0, 0]))
    if not math.isfinite(c):
        raise NumericOverflow(f"normalizer overflowed for mu={mu}, gamma={gamma}")
    return c


def dp_moment_corrections(w: np.ndarray, mu, gamma) -> tuple:
    """Mean and variance corrections of DP(mu, gamma) from its weight series.

    w holds the weights s(mu, gamma, y) for y = 0..N-1 at any common scale,
    one series per row of a 2-D array (gamma then has one entry per row, and
    mu is a scalar or a column). Returns, elementwise,

        E[Z] - mu       = sum(s*(y-mu)) / sum(s)
        Var[Z] - mu/gamma = (d*sqrt(gamma)*sum(s) - gamma*sum(s*(y-mu))^2)
                            / (gamma*sum(s)^2)

    with d(mu, gamma) = gamma^(-1/2) * (sum(s*(gamma*(y-mu)^2 - y))
    + sum(s*(y-mu))). These are the correction terms that the Efron moment
    approximations drop; both are ratios of weighted sums, so the scale of w
    cancels.
    """
    gamma = np.asarray(gamma, dtype=float)
    ys = np.arange(w.shape[-1])
    s0 = np.sum(w, axis=-1)
    s1 = np.sum(w * (ys - mu), axis=-1)
    # d * sqrt(gamma)
    d_scaled = np.sum(w * (gamma[..., None] * (ys - mu) ** 2 - ys), axis=-1) + s1
    return s1 / s0, (d_scaled * s0 - gamma * s1 * s1) / (gamma * s0 * s0)


def dp_series_moments(
    mu: float, gamma: float, trunc: SupportTruncation = DEFAULT_TRUNCATION
) -> tuple[float, float]:
    """Exact mean and variance of DP(mu, gamma) from the normalizing series.

    Adds the corrections of dp_moment_corrections, summed over the truncated
    support, to the Efron approximations mu and mu/gamma.
    """
    mean, var = _dp_batch(mu, gamma).member_moments(EXACT_SERIES, trunc)
    return float(mean[0, 0]), float(var[0, 0])


# --- the batched predictive engine --------------------------------------------


@dataclass(frozen=True)
class PredictiveSummary:
    """Point, interval and score read off a batch, one entry per row.

    modes: most probable values, (n,). quantiles: one row per requested
    level, (levels, n). crps: CRPS against the labels, (n,), or None when no
    labels were given.
    """

    modes: np.ndarray
    quantiles: np.ndarray
    crps: object = None


def crps_from_cdf(cdf: np.ndarray, lengths: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """CRPS of each row of a discrete CDF matrix against nonnegative integer labels.

    Row i is a CDF over the support 0..lengths[i]-1 (later entries are
    ignored) and is 1 past it:

        CRPS(F, y) = sum_{z<y} F(z)^2 + sum_{z>=y} (F(z) - 1)^2,

    with the upper sum stopped at its first term below CRPS_TAIL_TOL.
    """
    low = np.minimum(ys, lengths)
    total = _segment_sums(cdf**2, np.zeros_like(low), low) + np.maximum(0, ys - lengths)
    tail = (cdf - 1.0) ** 2
    small = (tail < CRPS_TAIL_TOL) & (np.arange(cdf.shape[1]) >= low[:, None])
    stop = np.where(small.any(axis=1), np.argmax(small, axis=1), cdf.shape[1])
    return total + _segment_sums(tail, low, np.minimum(stop, lengths))


def _count_labels(ys: np.ndarray) -> np.ndarray:
    labels = np.rint(ys)
    off = np.flatnonzero(np.abs(ys - labels) > 1e-9)
    if off.size:
        raise DomainError(f"discrete CRPS needs an integer label, got {ys[off[0]]}")
    if np.any(labels < 0):
        raise DomainError(f"count label must be nonnegative, got {int(labels.min())}")
    return labels.astype(np.int64)


def _gauss_abs_moment(delta: np.ndarray, var: np.ndarray) -> np.ndarray:
    """E|N(delta, var)|."""
    from scipy.special import ndtr

    s = np.sqrt(var)
    u = delta / s
    return s * (u * (2.0 * ndtr(u) - 1.0) + 2.0 * np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi))


def gaussian_crps(mu: np.ndarray, sigma2: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """CRPS of uniform Gaussian mixtures with (M, n) parameters against n labels.

    Uses the kernel identity CRPS = E|X - y| - E|X - X'|/2, whose second
    term is sigma/sqrt(pi) for a single Gaussian.
    """
    if mu.shape[0] == 1:
        return _gauss_abs_moment(ys - mu[0], sigma2[0]) - np.sqrt(sigma2[0] / math.pi)
    to_label = np.mean(_gauss_abs_moment(ys - mu, sigma2), axis=0)
    cross = np.mean(_gauss_abs_moment(mu[:, None] - mu[None], sigma2[:, None] + sigma2[None]),
                    axis=(0, 1))
    return to_label - 0.5 * cross


def _gaussian_quantile(mu: np.ndarray, sigma2: np.ndarray, q: float) -> np.ndarray:
    from scipy.special import ndtr, ndtri

    sd = np.sqrt(sigma2)
    if mu.shape[0] == 1:
        return mu[0] + sd[0] * ndtri(q)
    # mixture: bisect the averaged CDF, all rows at once
    lo = np.min(mu - 10.0 * sd, axis=0)
    hi = np.max(mu + 10.0 * sd, axis=0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = np.mean(ndtr((mid - mu) / sd), axis=0) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def predictive_summary(
    batch: PredictiveBatch,
    ys=None,
    levels=(),
    trunc: SupportTruncation = DEFAULT_TRUNCATION,
) -> PredictiveSummary:
    """Modes, quantiles at ``levels`` and, given labels ``ys``, CRPS of every row.

    Discrete rows: the mode is the most probable value (ties break toward
    the smallest), the q-quantile the smallest z with CDF(z) >= q, and CRPS
    follows crps_from_cdf. Gaussian rows report their mean as the mode,
    unrounded, and use closed forms (bisection for mixture quantiles).
    """
    levels = tuple(float(q) for q in levels)
    for q in levels:
        if not (0.0 < q < 1.0):
            raise DomainError(f"quantile level must lie in (0, 1), got {q}")
    n = len(batch)
    if ys is not None:
        ys = np.asarray(ys, dtype=float)
        if ys.shape != (n,):
            raise ShapeError(f"{ys.size} labels for {n} predictive rows")
    quantiles = np.empty((len(levels), n))
    if batch.kind == GAUSSIAN:
        mu, sigma2 = batch.params
        for j, q in enumerate(levels):
            quantiles[j] = _gaussian_quantile(mu, sigma2, q)
        crps = None if ys is None else gaussian_crps(mu, sigma2, ys)
        return PredictiveSummary(np.mean(mu, axis=0), quantiles, crps)
    labels = None if ys is None else _count_labels(ys)
    modes = np.empty(n)
    crps = None if ys is None else np.empty(n)
    for rows, pmf, lengths in _pmf_blocks(batch, trunc):
        modes[rows] = np.argmax(pmf, axis=1)
        cdf = np.cumsum(pmf, axis=1)
        for j, q in enumerate(levels):
            quantiles[j, rows] = np.minimum(np.sum(cdf < q - 1e-12, axis=1), lengths)
        if crps is not None:
            crps[rows] = crps_from_cdf(cdf, lengths, labels[rows])
    return PredictiveSummary(modes, quantiles, crps)


# --- single-distribution views ---------------------------------------------------


def pmf_vector(
    dist: PredictiveDistribution, trunc: SupportTruncation = DEFAULT_TRUNCATION
) -> np.ndarray:
    """Normalized PMF over the truncated support 0..N-1 for discrete kinds.

    Raises DomainError for Gaussian-based distributions and NumericOverflow
    when the support has not converged within trunc.hard_cap terms.
    """
    if not dist.is_discrete:
        raise DomainError("pmf_vector requires a discrete distribution")
    _, pmf, lengths = next(_pmf_blocks(as_batch(dist), trunc))
    return pmf[0, :lengths[0]]


def dist_pmf(
    dist: PredictiveDistribution,
    y: int,
    trunc: SupportTruncation = DEFAULT_TRUNCATION,
    normalized: bool = True,
) -> float:
    """PMF at integer y (density for Gaussian).

    For the Double Poisson, normalized=False returns the c = 1 value that the
    training loss implicitly uses; normalized=True divides by dp_normalizer.
    """
    if dist.kind == GAUSSIAN:
        mu, s2 = dist.params.mu, dist.params.sigma2
        return float(math.exp(-0.5 * (y - mu) ** 2 / s2) / math.sqrt(2.0 * math.pi * s2))
    if dist.kind == MIXTURE:
        return float(np.mean([dist_pmf(c, y, trunc, normalized) for c in dist.components]))
    if y < 0 or y != int(y):
        return 0.0
    y = int(y)
    log_term = float(_log_weights(dist.kind, astuple(dist.params), np.array([float(y)]))[0])
    if dist.kind != DOUBLE_POISSON:
        return math.exp(log_term)
    mu, gamma = dist.params.mu, dist.params.gamma
    log_term += 0.5 * math.log(gamma)
    if normalized:
        log_term -= math.log(dp_normalizer(mu, gamma, trunc))
    val = math.exp(log_term)
    if not math.isfinite(val):
        raise NumericOverflow(f"PMF overflowed at y={y} for mu={mu}, gamma={gamma}")
    return val


def dist_cdf(
    dist: PredictiveDistribution, y: float, trunc: SupportTruncation = DEFAULT_TRUNCATION
) -> float:
    """CDF at real y. Nondecreasing, right-continuous, reaches 1 at the cap."""
    if dist.kind == GAUSSIAN:
        from scipy.special import ndtr

        mu, s2 = dist.params.mu, dist.params.sigma2
        return float(ndtr((y - mu) / math.sqrt(s2)))
    if dist.kind == MIXTURE:
        return float(np.mean([dist_cdf(c, y, trunc) for c in dist.components]))
    if y < 0:
        return 0.0
    k = int(math.floor(y))
    p = pmf_vector(dist, trunc)
    return float(np.sum(p[: k + 1])) if k < p.size else 1.0


def dist_moments(
    dist: PredictiveDistribution,
    mode: str = EFRON_APPROX,
    trunc: SupportTruncation = DEFAULT_TRUNCATION,
) -> tuple[float, float]:
    """Mean and variance.

    mode selects how Double Poisson moments are computed: "efron_approx"
    uses (mu, mu/gamma); "exact_series" evaluates the correction series.
    Other kinds have closed forms and ignore the distinction.
    """
    mean, var = as_batch(dist).moments(mode, trunc)
    return float(mean[0]), float(var[0])


def dist_mode(
    dist: PredictiveDistribution, trunc: SupportTruncation = DEFAULT_TRUNCATION
) -> float:
    """Most probable value; ties break toward the smallest.

    Gaussian mode is the mean, left unrounded even on count labels. A
    mixture of Gaussians also reports its mean as the point prediction.
    """
    return float(predictive_summary(as_batch(dist), trunc=trunc).modes[0])


def dist_quantile(
    dist: PredictiveDistribution, q: float, trunc: SupportTruncation = DEFAULT_TRUNCATION
) -> float:
    """Smallest support value z with CDF(z) >= q (equal-tailed interval use)."""
    return float(predictive_summary(as_batch(dist), levels=(q,), trunc=trunc).quantiles[0, 0])


def dist_sample(
    dist: PredictiveDistribution,
    rng: np.random.Generator,
    n: int,
    trunc: SupportTruncation = DEFAULT_TRUNCATION,
) -> np.ndarray:
    """Draw n samples; deterministic for a given generator state.

    Discrete kinds sample by inverse CDF over the normalized truncated PMF.
    """
    if n < 0:
        raise DomainError(f"sample count must be nonnegative, got {n}")
    if dist.kind == GAUSSIAN:
        mu, s2 = dist.params.mu, dist.params.sigma2
        return mu + math.sqrt(s2) * rng.standard_normal(n)
    if dist.is_discrete:
        cdf = np.cumsum(pmf_vector(dist, trunc))
        cdf[-1] = 1.0
        return np.searchsorted(cdf, rng.random(n), side="left").astype(np.int64)
    # mixture of Gaussians: pick a member, then draw from it
    idx = rng.integers(0, len(dist.components), size=n)
    mus = np.array([c.params.mu for c in dist.components])
    sds = np.array([math.sqrt(c.params.sigma2) for c in dist.components])
    return mus[idx] + sds[idx] * rng.standard_normal(n)
