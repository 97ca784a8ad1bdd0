"""Out-of-distribution detection via thresholded predictive variance.

The protocol takes the scores of the in-distribution test inputs and of
the OOD inputs, the total predictive (mixture) variance that
ensemble.MemberHeads.scores reads off one forward pass of each member; it
runs no network itself. It holds out a fraction of the ID scores and sets
the detection threshold tau_alpha at the (1 - alpha) empirical quantile of
the holdout. Remaining ID inputs and the OOD inputs are then classified as
OOD whenever their score exceeds tau_alpha. Sweeping alpha over a grid
traces ROC and precision/recall curves, and the whole procedure is
repeated with fresh holdout resamples to report mean and spread:
run_ood_eval(id_scores, ood_scores, holdout_fraction=0.2, n_repeats=10,
alphas=np.linspace(0, 1, 101), seed=0) returns the report as the dict
that the ood command writes.

Ranking by raw variance induces the same ROC up to the quantile grid
resolution; the sweep is implemented literally and its AUROC is checked
against the rank-based statistic in the test suite.

The thresholds are numpy's "linear" quantile rule written out on the sorted
holdout (_linear_quantiles): the virtual index (n - 1) * q, with its floor
and next neighbour clipped to the last score, interpolated as numpy's _lerp
does. They equal np.quantile's to the bit, and numpy.ma, which np.quantile
loads, is never imported.
"""

from __future__ import annotations

import numpy as np

from ddpnkit.errors import DomainError


def _side(scores) -> tuple[np.ndarray, int]:
    """(the scores ascending with NaN left out, the count with NaN): a NaN
    score is never above a threshold, but it counts in the rates."""
    scores = np.asarray(scores, dtype=float)
    return np.sort(scores[~np.isnan(scores)]), scores.size


def _linear_quantiles(sorted_scores: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.quantile(scores, q, method="linear") of the ascending scores, bit
    for bit, without the sort and np.unique (which loads numpy.ma) inside
    np.quantile. numpy's rule: the virtual index (n - 1) * q, its floor and
    next neighbour, both clipped to the last score from n - 1 on; with t the
    virtual index minus the clipped floor, a + d * t, or b - d * (1 - t)
    where t >= 0.5 (d = b - a); all nan if a score is nan.
    """
    n = sorted_scores.size
    if np.isnan(sorted_scores[-1]):  # nan sorts last
        return np.full(q.shape, np.nan)
    virtual = (n - 1) * q
    below = np.floor(virtual)
    above = below + 1
    top = virtual >= n - 1
    below[top] = -1
    above[top] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    t = virtual - below
    a, b = sorted_scores[below], sorted_scores[above]
    d = b - a
    out = a + d * t
    np.subtract(b, d * (1 - t), out=out, where=t >= 0.5)
    return out


def _sweep(holdout_scores, alphas, id_side, ood_side) -> dict:
    """Classify score > tau_alpha as OOD for every alpha in the grid.

    tau_alpha is the (1 - alpha) empirical quantile of the holdout scores,
    linearly interpolated: alpha = 0 gives the largest holdout score (nothing
    flagged beyond the holdout range), alpha = 1 the smallest; a nan
    threshold (a nan holdout score, or inf - inf) reads as +inf. All
    thresholds come from one pass of _linear_quantiles over the sorted
    holdout, and the flagged counts from binary searches in the ID and OOD
    scores, given as _side pairs. Returns the operating points as columns: a
    dict of arrays alpha, tau, fpr, tpr and precision, one entry per alpha
    (precision is 1 where nothing is flagged). The inputs are taken as
    checked: run_ood_eval refuses an empty holdout, ID or OOD set and an
    alpha outside [0, 1].
    """
    with np.errstate(invalid="ignore"):  # interpolating toward +inf scores gives inf - inf
        taus = _linear_quantiles(np.sort(holdout_scores), 1.0 - alphas)
    taus[np.isnan(taus)] = np.inf  # flags what nan did: nothing lies above it
    (id_sorted, n_id), (ood_sorted, n_ood) = id_side, ood_side
    fp = id_sorted.size - np.searchsorted(id_sorted, taus, side="right")
    tp = ood_sorted.size - np.searchsorted(ood_sorted, taus, side="right")
    flagged = fp + tp
    return {"alpha": alphas, "tau": taus, "fpr": fp / n_id, "tpr": tp / n_ood,
            "precision": np.where(flagged > 0, tp / np.maximum(flagged, 1), 1.0)}


def curve_metrics_from_points(points) -> tuple[float, float, float]:
    """(AUROC, AUPR, FPR80) integrated from the columns of a sweep.

    The ROC integral runs trapezoidal over (FPR, TPR) with (0,0) and (1,1)
    anchors; the PR integral is a step sum in recall with the OOD side as
    positives. FPR80 is read at the first point reaching TPR >= 0.80 and
    defaults to 1.0 if the sweep never gets there.
    """
    fpr, tpr, precision = points["fpr"], points["tpr"], points["precision"]
    order = np.lexsort((tpr, fpr))
    fpr_curve = np.concatenate([[0.0], fpr[order], [1.0]])
    tpr_curve = np.concatenate([[0.0], tpr[order], [1.0]])
    auroc = float(np.trapezoid(tpr_curve, fpr_curve))

    rec_order = np.argsort(tpr, kind="stable")
    recall_curve = tpr[rec_order]
    prec_curve = precision[rec_order]
    aupr = float(np.sum(np.diff(np.concatenate([[0.0], recall_curve])) * prec_curve))

    reach = np.nonzero(recall_curve >= 0.80)[0]
    fpr80 = float(fpr[rec_order][reach[0]]) if reach.size else 1.0
    return auroc, aupr, fpr80


def run_ood_eval(id_scores, ood_scores, *, holdout_fraction: float, n_repeats: int, alphas,
                 seed: int) -> dict:
    """Full protocol over the ID and OOD scores: threshold on a holdout,
    sweep, repeat, aggregate.

    Each repeat redraws the ID holdout with the seed seed + repeat; the OOD
    scores are sorted once. A repeat's sweep is reduced to its (AUROC, AUPR,
    FPR80) as soon as it is made, so the protocol holds one sweep's columns
    at a time. Returns {"auroc", "aupr", "fpr80": {"mean", "std"} over the
    repeats, "n_repeats"}. Raises DomainError for a holdout_fraction outside
    (0, 1), fewer than one repeat, fewer than two alphas or one outside
    [0, 1], no OOD scores, or a holdout that leaves no ID point either side.
    """
    if not (0.0 < holdout_fraction < 1.0):
        raise DomainError(f"holdout_fraction must lie in (0, 1), got {holdout_fraction}")
    if n_repeats < 1:
        raise DomainError(f"n_repeats must be positive, got {n_repeats}")
    alphas = np.array([float(a) for a in alphas])
    if alphas.size < 2 or any(not 0.0 <= a <= 1.0 for a in alphas):
        raise DomainError("alphas must hold at least two values in [0, 1]")
    id_all = np.asarray(id_scores, dtype=float)
    if np.size(ood_scores) == 0:
        raise DomainError("OOD input set must be nonempty")
    n_hold = int(round(holdout_fraction * id_all.size))
    if n_hold < 1 or n_hold >= id_all.size:
        raise DomainError(
            f"holdout of {n_hold} from {id_all.size} ID points leaves no evaluation set"
        )
    ood_side = _side(ood_scores)
    per_repeat = []
    for rep in range(n_repeats):
        rng = np.random.default_rng(seed + rep)
        perm = rng.permutation(id_all.size)
        points = _sweep(id_all[perm[:n_hold]], alphas, _side(id_all[perm[n_hold:]]), ood_side)
        per_repeat.append(curve_metrics_from_points(points))
    per = np.array(per_repeat)
    payload = {name: {"mean": float(per[:, i].mean()), "std": float(per[:, i].std())}
               for i, name in enumerate(("auroc", "aupr", "fpr80"))}
    payload["n_repeats"] = n_repeats
    return payload
