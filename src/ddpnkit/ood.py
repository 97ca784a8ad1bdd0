"""Out-of-distribution detection via thresholded predictive variance.

The protocol holds out a fraction of the in-distribution test inputs,
computes total predictive (mixture) variance on the holdout, and sets the
detection threshold tau_alpha at the (1 - alpha) empirical quantile of
those scores. Remaining ID inputs and the OOD inputs are then classified
as OOD whenever their variance exceeds tau_alpha. Sweeping alpha over a
grid traces ROC and precision/recall curves, and the whole procedure is
repeated with fresh holdout resamples to report mean and spread.

Ranking by raw variance induces the same ROC up to the quantile grid
resolution; the sweep is implemented literally and its AUROC is checked
against the rank-based statistic in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ddpnkit.ensemble import Ensemble, variance_scores
from ddpnkit.errors import DomainError, ShapeError

DEFAULT_ALPHAS = tuple(np.linspace(0.0, 1.0, 101))


@dataclass(frozen=True)
class OODProtocolConfig:
    holdout_fraction: float = 0.2
    n_repeats: int = 10
    alphas: tuple = DEFAULT_ALPHAS
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.holdout_fraction < 1.0):
            raise DomainError(
                f"holdout_fraction must lie in (0, 1), got {self.holdout_fraction}"
            )
        if self.n_repeats < 1:
            raise DomainError(f"n_repeats must be positive, got {self.n_repeats}")
        alphas = tuple(float(a) for a in self.alphas)
        if len(alphas) < 2 or any(not 0.0 <= a <= 1.0 for a in alphas):
            raise DomainError("alphas must hold at least two values in [0, 1]")
        object.__setattr__(self, "alphas", alphas)


@dataclass(frozen=True)
class OperatingPoint:
    alpha: float
    tau: float
    fpr: float
    tpr: float
    precision: float


@dataclass(frozen=True)
class OODReport:
    auroc: tuple
    aupr: tuple
    fpr80: tuple
    n_repeats: int
    per_repeat: tuple = field(default_factory=tuple)
    operating_points: tuple = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        return {
            "auroc": {"mean": self.auroc[0], "std": self.auroc[1]},
            "aupr": {"mean": self.aupr[0], "std": self.aupr[1]},
            "fpr80": {"mean": self.fpr80[0], "std": self.fpr80[1]},
            "n_repeats": self.n_repeats,
        }


def fit_threshold(scores, alpha: float) -> float:
    """(1 - alpha) empirical quantile with linear interpolation.

    alpha = 0 returns the maximum score (nothing flagged beyond the holdout
    range), alpha = 1 the minimum.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ShapeError("fit_threshold needs at least one score")
    if not (0.0 <= alpha <= 1.0):
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    return float(np.quantile(scores, 1.0 - alpha, method="linear"))


def sweep_operating_points(holdout_scores, id_scores, ood_scores, alphas):
    """Classify score > tau_alpha as OOD for every alpha in the grid.

    All thresholds come from one quantile call (the same values fit_threshold
    returns one at a time), and the flagged counts from binary searches in
    the sorted scores.
    """
    holdout_scores = np.asarray(holdout_scores, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    if holdout_scores.size == 0:
        raise ShapeError("fit_threshold needs at least one score")
    bad = alphas[~((alphas >= 0.0) & (alphas <= 1.0))]
    if bad.size:
        raise DomainError(f"alpha must lie in [0, 1], got {bad[0]}")
    with np.errstate(invalid="ignore"):  # interpolating toward +inf scores gives inf - inf
        taus = np.quantile(holdout_scores, 1.0 - alphas, method="linear")
    taus[np.isnan(taus)] = np.inf  # flags what nan did: nothing lies above it
    id_scores = np.asarray(id_scores, dtype=float)
    ood_scores = np.asarray(ood_scores, dtype=float)

    def flagged(scores):
        # NaN is never above a threshold, so it is left out of the search
        ordered = np.sort(scores[~np.isnan(scores)])
        return ordered.size - np.searchsorted(ordered, taus, side="right")

    fp, tp = flagged(id_scores), flagged(ood_scores)
    points = []
    for alpha, tau, f, t in zip(alphas.tolist(), taus.tolist(), fp.tolist(), tp.tolist()):
        points.append(OperatingPoint(
            alpha=alpha,
            tau=tau,
            fpr=f / id_scores.size,
            tpr=t / ood_scores.size,
            precision=t / (f + t) if f + t > 0 else 1.0,
        ))
    return points


def curve_metrics_from_points(points) -> tuple[float, float, float]:
    """(AUROC, AUPR, FPR80) integrated from sweep operating points.

    The ROC integral runs trapezoidal over (FPR, TPR) with (0,0) and (1,1)
    anchors; the PR integral is a step sum in recall with the OOD side as
    positives. FPR80 is read at the first point reaching TPR >= 0.80 and
    defaults to 1.0 if the sweep never gets there.
    """
    fpr = np.array([p.fpr for p in points])
    tpr = np.array([p.tpr for p in points])
    precision = np.array([p.precision for p in points])
    order = np.lexsort((tpr, fpr))
    fpr_curve = np.concatenate([[0.0], fpr[order], [1.0]])
    tpr_curve = np.concatenate([[0.0], tpr[order], [1.0]])
    auroc = float(np.trapezoid(tpr_curve, fpr_curve))

    rec_order = np.argsort(tpr, kind="stable")
    recall_curve = tpr[rec_order]
    prec_curve = precision[rec_order]
    aupr = float(np.sum(np.diff(np.concatenate([[0.0], recall_curve])) * prec_curve))

    reach = np.nonzero(tpr[rec_order] >= 0.80)[0]
    fpr80 = float(fpr[rec_order][reach[0]]) if reach.size else 1.0
    return auroc, aupr, fpr80


def run_ood_eval(
    ens: Ensemble,
    id_xs: np.ndarray,
    ood_xs: np.ndarray,
    config: OODProtocolConfig = OODProtocolConfig(),
) -> OODReport:
    """Full protocol: score, threshold on a holdout, sweep, repeat, aggregate.

    Each repeat redraws the ID holdout with a derived seed; the OOD inputs
    are scored once. Reported statistics are (mean, std) over repeats.
    """
    if np.asarray(ood_xs).size == 0:
        raise DomainError("OOD input set must be nonempty")
    id_all = variance_scores(ens, id_xs)
    ood_all = variance_scores(ens, ood_xs)
    n_hold = int(round(config.holdout_fraction * id_all.size))
    if n_hold < 1 or n_hold >= id_all.size:
        raise DomainError(
            f"holdout of {n_hold} from {id_all.size} ID points leaves no evaluation set"
        )
    per_repeat = []
    all_points = []
    for rep in range(config.n_repeats):
        rng = np.random.default_rng(config.seed + rep)
        perm = rng.permutation(id_all.size)
        holdout = id_all[perm[:n_hold]]
        id_eval = id_all[perm[n_hold:]]
        points = sweep_operating_points(holdout, id_eval, ood_all, config.alphas)
        per_repeat.append(curve_metrics_from_points(points))
        all_points.append(tuple(points))
    per = np.array(per_repeat)
    return OODReport(
        auroc=(float(per[:, 0].mean()), float(per[:, 0].std())),
        aupr=(float(per[:, 1].mean()), float(per[:, 1].std())),
        fpr80=(float(per[:, 2].mean()), float(per[:, 2].std())),
        n_repeats=config.n_repeats,
        per_repeat=tuple(map(tuple, per_repeat)),
        operating_points=tuple(all_points),
    )
