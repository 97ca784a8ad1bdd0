"""Deep ensembles over count heads and their uncertainty decomposition.

An ensemble is a uniform mixture of M independently trained members. For a
mixture the first two moments follow from the member moments alone:

    mean     = (1/M) * sum(mu_m)
    variance = (1/M) * sum(sigma2_m) + (1/M) * sum((mu_m - mean)^2)

that is, an aleatoric part, the average member variance, plus an epistemic
part, the spread of member means about their average. Member
variances come from the Efron approximation mu/gamma by default; the exact
series evaluation is available behind a flag.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ddpnkit import distributions as dists
from ddpnkit.errors import DomainError, FileFormatError
from ddpnkit.losses import LossSpec
from ddpnkit.network import CheckpointFormatError, forward_batch, load_checkpoint

MANIFEST_HEADER = "ddpnkit-ensemble v1"


@dataclass(frozen=True)
class Ensemble:
    """Members as (weights, loss spec) pairs; all must share one family."""

    members: tuple

    def __post_init__(self):
        if len(self.members) == 0:
            raise DomainError("ensemble requires at least one member")
        families = {spec.family for _, spec in self.members}
        if len(families) != 1:
            raise DomainError(f"ensemble members must share one family, got {families}")
        object.__setattr__(self, "members", tuple(self.members))

    @property
    def family(self) -> str:
        return self.members[0][1].family


@dataclass(frozen=True)
class UncertaintyDecomposition:
    """total = aleatoric + epistemic, all nonnegative."""

    total: object
    aleatoric: object
    epistemic: object


mixture_moments = dists.mixture_moments


def decompose_variance(means, variances) -> UncertaintyDecomposition:
    """Split the mixture variance into aleatoric and epistemic parts.

    aleatoric is the average member variance, epistemic the population
    variance of the member means (see dists.mixture_variance_parts); they
    sum to the mixture variance.
    """
    _, aleatoric, epistemic = dists.mixture_variance_parts(means, variances)
    total = aleatoric + epistemic
    if np.ndim(means) == 1:
        return UncertaintyDecomposition(float(total), float(aleatoric), float(epistemic))
    return UncertaintyDecomposition(total, aleatoric, epistemic)


@dataclass(frozen=True)
class MemberHeads:
    """Head outputs of every member at one set of input rows.

    values is (M, n, heads), in log space, with overflow left as inf. Every
    prediction at those rows is read from it, so a caller that needs several
    (ensemble-eval needs the distributions, the scores and the table) runs
    each member's network once, and sums each mode's moments once.
    """

    family: str
    values: np.ndarray
    _moments: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def batch(self) -> dists.PredictiveBatch:
        """The predictive distributions: row i is the uniform mixture of the M
        member distributions, with parameters (M, n). Heads are (log mean, log
        second parameter): the inverse dispersion gamma for the Double
        Poisson, the dispersion alpha of the negative binomial (r = 1/alpha,
        p = 1/(1 + alpha*mean)), and the variance for the Gaussian. Raises
        DomainError for rows whose heads overflow.
        """
        with np.errstate(over="ignore"):
            mean = np.exp(self.values[..., 0])
            if self.family == "poisson":
                return dists.PredictiveBatch(dists.POISSON, (mean,))
            second = np.exp(self.values[..., 1])
        if self.family == "neg_binomial":
            return dists.PredictiveBatch(dists.NEG_BINOMIAL,
                                         (1.0 / second, 1.0 / (1.0 + second * mean)))
        return dists.PredictiveBatch(self.family, (mean, second))

    def moments(self, mode: str = dists.EFRON_APPROX) -> tuple[np.ndarray, np.ndarray]:
        """Member means and variances, both shaped (M, n).

        mode "efron_approx" reads moments straight off the heads, in log space
        where it takes two heads, and tolerates extreme values (variances may
        overflow to inf far from the training data); "exact_series" evaluates
        the Double Poisson series. Any other mode is a DomainError. The
        arrays are kept per mode, shared by later calls and read-only.
        """
        if mode not in (dists.EFRON_APPROX, dists.EXACT_SERIES):
            raise DomainError(f"unknown moments mode {mode!r}")
        if mode not in self._moments:
            means, variances = self._member_moments(mode)
            means.flags.writeable = variances.flags.writeable = False
            self._moments[mode] = means, variances
        return self._moments[mode]

    def _member_moments(self, mode: str) -> tuple[np.ndarray, np.ndarray]:
        if self.family == "double_poisson" and mode == dists.EXACT_SERIES:
            return self.batch().member_moments(mode)
        log_m = self.values[..., 0]
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf heads give nan
            m = np.exp(log_m)
            if self.family == "double_poisson":
                v = np.exp(log_m - self.values[..., 1])
            elif self.family == "poisson":
                v = m.copy()
            elif self.family == "neg_binomial":
                v = m + np.exp(self.values[..., 1] + 2.0 * log_m)
            else:
                v = np.exp(self.values[..., 1])
        return m, v

    def scores(self, mode: str = dists.EFRON_APPROX) -> np.ndarray:
        """Total mixture variance per row, the OOD detection score.

        A row whose variance overflows, or is left undefined by overflowed
        heads, scores +inf: it ranks as the most out-of-distribution.
        """
        total = np.asarray(decompose_variance(*self.moments(mode)).total)
        return np.where(np.isnan(total), np.inf, total)


def member_heads(ens: Ensemble, X: np.ndarray) -> MemberHeads:
    """One forward pass of every member over the rows of X."""
    with np.errstate(over="ignore"):
        return MemberHeads(ens.family, np.stack([forward_batch(w, X) for w, _ in ens.members]))


def predictive_batch(ens: Ensemble, X: np.ndarray) -> dists.PredictiveBatch:
    """The ensemble's predictive distributions at the rows of X (MemberHeads.batch)."""
    return member_heads(ens, X).batch()


def member_moments(
    ens: Ensemble, X: np.ndarray, mode: str = dists.EFRON_APPROX
) -> tuple[np.ndarray, np.ndarray]:
    """Member means and variances at the rows of X, both (M, n) (MemberHeads.moments)."""
    return member_heads(ens, X).moments(mode)


def variance_scores(ens: Ensemble, X: np.ndarray, mode: str = dists.EFRON_APPROX) -> np.ndarray:
    """Total mixture variance per row of X, the OOD score (MemberHeads.scores)."""
    return member_heads(ens, X).scores(mode)


INTERVAL = (0.025, 0.975)


def predict_table(heads: MemberHeads, mode: str = dists.EFRON_APPROX, quantiles=None):
    """Per-row decomposition and equal-tailed 95 percent mixture interval.

    Returns a dict of arrays: mean, aleatoric, epistemic, q025, q975.
    quantiles, shaped (2, n), supplies interval ends already read at the
    INTERVAL levels (as metrics.evaluate does with levels=INTERVAL); by
    default they are computed here.
    """
    means, variances = heads.moments(mode)
    dec = decompose_variance(means, variances)
    if quantiles is None:
        quantiles = dists.predictive_summary(heads.batch(), levels=INTERVAL).quantiles
    return {
        "mean": np.mean(means, axis=0),
        "aleatoric": np.asarray(dec.aleatoric),
        "epistemic": np.asarray(dec.epistemic),
        "q025": quantiles[0],
        "q975": quantiles[1],
    }


# --- manifest I/O -------------------------------------------------------------


class ManifestFormatError(FileFormatError):
    """The ensemble manifest does not follow the expected layout."""


def render_manifest(paths, spec: LossSpec) -> str:
    """Manifest text: header, family and beta tags, one member path per line."""
    lines = [MANIFEST_HEADER, f"family={spec.family}", f"beta={spec.beta!r}"]
    lines.extend(str(p) for p in paths)
    return "\n".join(lines) + "\n"


def load_manifest(path) -> tuple[list, LossSpec]:
    """Read a manifest; returns (checkpoint paths, loss spec)."""
    try:
        with open(path) as fh:
            lines = [line.rstrip("\n") for line in fh]
    except UnicodeDecodeError as exc:
        raise ManifestFormatError(f"{path}: not a text file ({exc})") from exc
    if not lines or lines[0] != MANIFEST_HEADER:
        raise ManifestFormatError(f"{path}: missing header {MANIFEST_HEADER!r}")
    # the family and beta tags, once each, follow the header; every later
    # line names a member, whatever characters it holds
    meta = {}
    i = 1
    while i < len(lines):
        key, sep, value = lines[i].partition("=")
        if not sep or key not in ("family", "beta") or key in meta:
            break
        meta[key] = value
        i += 1
    if "family" not in meta:
        raise ManifestFormatError(f"{path}: missing family tag")
    try:
        spec = LossSpec(meta["family"], float(meta.get("beta", 0.0)))
    except (ValueError, DomainError) as exc:
        raise ManifestFormatError(f"{path}: bad family or beta: {exc}") from exc
    paths = [line for line in lines[i:] if line.strip()]
    if not paths:
        raise ManifestFormatError(f"{path}: no member checkpoints listed")
    if any("\0" in p for p in paths):
        raise ManifestFormatError(f"{path}: a member path holds a NUL character")
    return paths, spec


def load_member(path, fallback: LossSpec | None = None) -> tuple:
    """(weights, loss spec) of one checkpoint.

    The spec comes from the checkpoint's family and beta tags, or from
    fallback where a tag is missing. Raises CheckpointFormatError when the
    tags name no valid spec or the head count does not match the family.
    """
    weights, meta = load_checkpoint(path)
    try:
        spec = LossSpec(meta.get("family", getattr(fallback, "family", None)),
                        float(meta.get("beta", getattr(fallback, "beta", 0.0))))
    except (ValueError, DomainError) as exc:
        raise CheckpointFormatError(f"{path}: bad family or beta: {exc}") from exc
    if weights.head_count != spec.head_count:
        raise CheckpointFormatError(f"{path}: {weights.head_count} heads for family "
                                    f"{spec.family}")
    return weights, spec


def load_ensemble(manifest_path) -> Ensemble:
    """Load all member checkpoints; relative paths resolve against the manifest."""
    paths, spec = load_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    members = []
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(base, p)
        weights, member_spec = load_member(full, spec)
        if member_spec.family != spec.family:
            raise ManifestFormatError(
                f"{full}: family {member_spec.family} does not match manifest {spec.family}"
            )
        members.append((weights, member_spec))
    return Ensemble(tuple(members))
