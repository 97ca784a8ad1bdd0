"""Calibration and detection metrics for count predictions.

Point accuracy is mean absolute error against the distribution mode (ties
break toward the smallest value; Gaussian predictions use their mean,
unrounded). Sharpness-aware accuracy is the continuous ranked probability
score; for a discrete predictive CDF F and a count label y

    CRPS(F, y) = sum_{z<y} F(z)^2 + sum_{z>=y} (F(z) - 1)^2,

with the upper sum truncated once its terms fall below 1e-12. Gaussian
families use the closed form, and Gaussian mixtures the kernel identity
CRPS = E|X - y| - E|X - X'|/2. Median precision summarizes how tightly a
model concentrates, the median of 1/variance over the evaluation set.

Modes, CRPS and interval quantiles all come from the batched engine in
distributions.predictive_summary: mae and evaluate score every row of a
PredictiveBatch, and crps scores a one-row batch. All three check their
labels first (distributions.check_labels): the discrete families take
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


def mae(predictions: dists.PredictiveBatch, ys) -> float:
    """Mean absolute error between labels and distribution modes; DomainError
    for a label the batch cannot be scored against (distributions.check_labels)."""
    if len(predictions) != len(ys):
        raise ShapeError(f"{len(predictions)} predictions for {len(ys)} labels")
    if len(ys) == 0:
        raise ShapeError("mae needs at least one example")
    ys = np.asarray(ys, dtype=float)
    dists.check_labels(predictions, ys)
    modes = dists.predictive_summary(predictions).modes
    return float(np.mean(np.abs(ys - modes)))


def crps_from_pmf(pmf: np.ndarray, y) -> float:
    """CRPS of a normalized PMF vector against a nonnegative integer label."""
    cdf = np.cumsum(np.asarray(pmf, dtype=float))
    return float(dists.crps_from_cdf(cdf[None], dists.count_labels([y]))[0])


def crps(dist: dists.PredictiveBatch, y) -> float:
    """CRPS of a one-row batch against one label; ShapeError for other batches."""
    return float(dists.predictive_summary(dist, [y]).crps[0])


def median_precision(variances) -> float:
    """Median of the reciprocal predictive variances."""
    variances = np.asarray(variances, dtype=float)
    if variances.size == 0:
        raise ShapeError("median_precision needs at least one variance")
    if np.any(np.isnan(variances)) or np.any(variances <= 0.0):
        raise DomainError("variances must be positive")
    return float(np.median(1.0 / variances))


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


@dataclass(frozen=True)
class EvalRecord:
    """Per-example metric pieces plus their aggregates.

    quantiles holds one row per level requested from evaluate, (levels, n).
    """

    modes: np.ndarray
    crps_values: np.ndarray
    variances: np.ndarray
    mae: float
    crps_mean: float
    median_precision: float
    quantiles: np.ndarray = None

    def summary(self) -> dict:
        return {
            "mae": self.mae,
            "crps_mean": self.crps_mean,
            "median_precision": self.median_precision,
        }


def evaluate(
    predictions: dists.PredictiveBatch,
    ys,
    variances=None,
    levels=(),
) -> EvalRecord:
    """Score predictive distributions against labels.

    All pieces come from one pass of the batched engine over the rows of
    ``predictions``, which also reads the quantiles at ``levels`` (e.g.
    interval ends) into the record. variances defaults to each row's own
    (Efron approximate) mixture variance; ensembles pass their mixture
    variance explicitly.
    """
    ys = np.asarray(ys, dtype=float)
    if len(predictions) != ys.size:
        raise ShapeError(f"{len(predictions)} predictions for {ys.size} labels")
    if ys.size == 0:
        raise ShapeError("evaluate needs at least one example")
    summary = dists.predictive_summary(predictions, ys, levels)
    if variances is None:
        variances = predictions.moments()[1]
    else:
        variances = np.asarray(variances, dtype=float)
        if variances.size != ys.size:
            raise ShapeError("variances must match the number of examples")
    return EvalRecord(
        modes=summary.modes,
        crps_values=summary.crps,
        variances=variances,
        mae=float(np.mean(np.abs(ys - summary.modes))),
        crps_mean=float(np.mean(summary.crps)),
        median_precision=median_precision(variances),
        quantiles=summary.quantiles,
    )
