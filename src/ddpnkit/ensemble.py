"""Deep ensembles over count heads and their uncertainty decomposition.

An ensemble is a uniform mixture of M independently trained members. For a
mixture the first two moments follow from the member moments alone:

    mean     = (1/M) * sum(mu_m)
    variance = (1/M) * sum(sigma2_m) + (1/M) * sum((mu_m - mean)^2)

that is, an aleatoric part, the average member variance, plus an epistemic
part, the spread of member means about their average. Member
variances come from the Efron approximation mu/gamma by default; the exact
series evaluation is available behind a flag.

member_heads(ens, X) is the one way to read an ensemble at a set of rows:
it runs each member's network once, and the MemberHeads it returns gives
the predictive distributions (heads.batch, built once and kept), the member
moments (heads.moments(mode), the one place they are written) and the OOD
scores (heads.scores()) at those rows. The mixture decomposition itself,
decompose_variance and UncertaintyDecomposition, lives in distributions;
the scores here are its totals. eval and ensemble-eval read one
decomposition for their metrics and for ensemble-eval's table:

    dec = decompose_variance(*heads.moments(mode))
    summary, ends = metrics.evaluate(heads.batch, ys, total_scores(dec), INTERVAL)
    {"mean": dec.mean, "aleatoric": dec.aleatoric,
     "epistemic": dec.epistemic, "q025": ends[0], "q975": ends[1]}

load_ensemble reads a manifest and the checkpoints it lists. The manifest
format (network.render_manifest, load_manifest and ManifestFormatError)
lives in network, beside the checkpoint format, so the train command
writes a manifest without executing this module or distributions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ddpnkit import distributions as dists
from ddpnkit.distributions import UncertaintyDecomposition, decompose_variance
from ddpnkit.errors import DomainError, NumericOverflow
from ddpnkit.losses import LossSpec
from ddpnkit.network import CheckpointFormatError, forward_batch, load_checkpoint
from ddpnkit.network import ManifestFormatError, load_manifest

# the modes of MemberHeads.moments
EFRON_APPROX = "efron_approx"
EXACT_SERIES = "exact_series"


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
class MemberHeads:
    """Head outputs of every member at one set of input rows.

    values is (M, n, heads), in log space, with overflow left as inf, held as
    a read-only copy. Every prediction at those rows is read from it, so a
    caller that needs several (ensemble-eval needs the distributions, the
    scores and the table) runs each member's network once and builds one
    batch, which is kept.
    """

    family: str
    values: np.ndarray

    def __post_init__(self):  # the batch is kept, so the values must not change under it
        object.__setattr__(self, "values", np.array(self.values, dtype=float))
        self.values.flags.writeable = False

    @cached_property
    def batch(self) -> dists.PredictiveBatch:
        """The predictive distributions, built on first read and kept: row i
        is the uniform mixture of the M member distributions, with parameters
        (M, n). Heads are (log mean, log second parameter): the inverse
        dispersion gamma for the Double Poisson, the dispersion alpha of the
        negative binomial (r = 1/alpha, p = 1/(1 + alpha*mean)), and the
        variance for the Gaussian. Raises NumericOverflow naming the first row
        where a member's heads over- or underflow out of the family's
        parameter domain (an inf or zero mean, say, or a negative binomial p
        of 0).
        """
        with np.errstate(all="ignore"):
            mean = np.exp(self.values[..., 0])
            if self.family == "poisson":
                params = (mean,)
            else:
                second = np.exp(self.values[..., 1])
                params = ((1.0 / second, 1.0 / (1.0 + second * mean))
                          if self.family == "neg_binomial" else (mean, second))
        try:
            return dists.PredictiveBatch(self.family, params)
        except DomainError as exc:
            raise NumericOverflow(f"member heads over- or underflow out of the "
                                  f"{self.family} parameter domain: {exc}") from exc

    def moments(self, mode: str = EFRON_APPROX) -> tuple[np.ndarray, np.ndarray]:
        """Member means and variances, both shaped (M, n): the one place
        where a family's member moments are written.

        They are read off the heads, in log space where they take two heads,
        and tolerate extreme values (variances may overflow to inf far from
        the training data). Mode "exact_series" adds to the Double Poisson's
        Efron moments its exact corrections (PredictiveBatch.dp_corrections),
        read from the batch's one engine pass; "efron_approx" does not. Any
        other mode is a DomainError.
        """
        if mode not in (EFRON_APPROX, EXACT_SERIES):
            raise DomainError(f"unknown moments mode {mode!r}")
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
        if self.family == "double_poisson" and mode == EXACT_SERIES:
            mean_corr, var_corr = self.batch.dp_corrections()
            m, v = m + mean_corr, v + var_corr
        return m, v

    def scores(self) -> np.ndarray:
        """Total mixture variance per row, the OOD detection score (total_scores)."""
        return total_scores(decompose_variance(*self.moments()))


def total_scores(dec: UncertaintyDecomposition) -> np.ndarray:
    """A decomposition's total variance as OOD scores.

    A row whose variance overflows, or is left undefined by overflowed
    heads, scores +inf: it ranks as the most out-of-distribution.
    """
    return np.where(np.isnan(dec.total), np.inf, dec.total)


def member_heads(ens: Ensemble, X: np.ndarray) -> MemberHeads:
    """One forward pass of every member over the rows of X."""
    with np.errstate(over="ignore"):
        return MemberHeads(ens.family, np.stack([forward_batch(w, X) for w, _ in ens.members]))


INTERVAL = (0.025, 0.975)  # levels of the equal-tailed 95 percent mixture interval


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
