"""Calibration and detection metrics for count predictions.

Point accuracy is mean absolute error against the distribution mode (ties
break toward the smallest value; Gaussian predictions use their mean,
unrounded). Sharpness-aware accuracy is the continuous ranked probability
score; for a discrete predictive CDF F and a count label y

    CRPS(F, y) = sum_{z<y} F(z)^2 + sum_{z>=y} (F(z) - 1)^2,

with the upper sum truncated once its terms fall below 1e-12. Gaussian
families use the closed form, and Gaussian mixtures the kernel identity
CRPS = E|X - y| - E|X - X'|/2. Median precision summarizes how tightly a
model concentrates, the median of 1/variance over the evaluation set; the
caller passes those variances, as ensemble.MemberHeads reads them.

Modes, CRPS and interval quantiles all come from one pass of the batched
engine, distributions.predictive_summary, over every row of a
PredictiveBatch; evaluate scores them into the metrics dict that the
reports write, and a single distribution is a one-row batch. Labels are
checked first (distributions.check_labels): the discrete families take
nonnegative integer labels and Gaussian rows finite ones, and any other
label raises DomainError.

OOD detection quality is scored on AUROC (rank statistic with tie
correction), AUPR with the OOD points as positives, and FPR80, the false
positive rate where the true positive rate first reaches 0.80.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ddpnkit import distributions as dists
from ddpnkit.errors import DomainError, ShapeError


def median_precision(variances) -> float:
    """Median of the reciprocal predictive variances."""
    variances = np.asarray(variances, dtype=float)
    if variances.size == 0:
        raise ShapeError("median_precision needs at least one variance")
    if np.any(np.isnan(variances)) or np.any(variances <= 0.0):
        raise DomainError("variances must be positive")
    precision = np.sort(1.0 / variances, axis=None)
    half = precision.size // 2
    # the mean of the middle one or two values, as np.median takes it (which
    # would load numpy.ma)
    return float(np.mean(precision[half - 1 + precision.size % 2:half + 1]))


@dataclass(frozen=True)
class OODScores:
    """Uncertainty scores of in-distribution and OOD inputs."""

    id_scores: np.ndarray
    ood_scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "id_scores", np.asarray(self.id_scores, dtype=float))
        object.__setattr__(self, "ood_scores", np.asarray(self.ood_scores, dtype=float))
        if self.id_scores.size == 0 or self.ood_scores.size == 0:
            raise ShapeError("both score sets must be nonempty")
        if np.any(np.isnan(self.id_scores)) or np.any(np.isnan(self.ood_scores)):
            raise DomainError("scores must not contain NaN")


def _detection_counts(scores: OODScores):
    """Cumulative TP and FP per distinct threshold, thresholds descending."""
    all_scores = np.concatenate([scores.ood_scores, scores.id_scores])
    labels = np.concatenate([
        np.ones(scores.ood_scores.size), np.zeros(scores.id_scores.size)
    ])
    order = np.argsort(-all_scores, kind="stable")
    sorted_scores = all_scores[order]
    sorted_labels = labels[order]
    # group tied scores so each distinct threshold appears once
    boundary = np.nonzero(np.diff(sorted_scores))[0]
    ends = np.append(boundary, sorted_scores.size - 1)
    tp = np.cumsum(sorted_labels)[ends]
    fp = np.cumsum(1.0 - sorted_labels)[ends]
    return tp, fp


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of values, tied values sharing the mean of their ranks."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def ood_curve_metrics(scores: OODScores) -> tuple[float, float, float]:
    """(AUROC, AUPR, FPR80) of ranking by raw score, higher means more OOD."""
    n_ood = scores.ood_scores.size
    n_id = scores.id_scores.size
    ranks = _average_ranks(np.concatenate([scores.ood_scores, scores.id_scores]))
    auroc = (float(np.sum(ranks[:n_ood])) - n_ood * (n_ood + 1) / 2.0) / (n_ood * n_id)

    tp, fp = _detection_counts(scores)
    recall = tp / n_ood
    precision = tp / np.maximum(tp + fp, 1.0)
    aupr = float(np.sum(np.diff(np.concatenate([[0.0], recall])) * precision))

    reach = np.nonzero(recall >= 0.80)[0]
    fpr80 = float(fp[reach[0]] / n_id) if reach.size else 1.0
    return auroc, aupr, fpr80


def evaluate(predictions: dists.PredictiveBatch, ys, variances, levels=()) -> tuple:
    """Score predictive distributions against labels: (metrics, quantiles).

    metrics is the dict the reports write: mae, crps_mean and
    median_precision, the last of the one predictive variance per row given
    in variances (ensembles pass their mixture variance). quantiles holds
    one row per level in levels, (levels, n). All are read off one pass of
    the batched engine over the rows of predictions.
    """
    ys = np.asarray(ys, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if not len(predictions) == ys.size == variances.size:
        raise ShapeError(f"{len(predictions)} predictions for {ys.size} labels and "
                         f"{variances.size} variances")
    if ys.size == 0:
        raise ShapeError("evaluate needs at least one example")
    summary = dists.predictive_summary(predictions, ys, levels)
    return {"mae": float(np.mean(np.abs(ys - summary.modes))),
            "crps_mean": float(np.mean(summary.crps)),
            "median_precision": median_precision(variances)}, summary.quantiles
