"""Confusion accounting and imbalance-aware evaluation metrics.

All scalar metrics work on weighted confusion counts, so the same code path
serves raw counts (weights of 1) and the weighted pseudo-losses used inside
the boosting engines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetric


@dataclass(frozen=True)
class ConfusionCounts:
    """Weighted (or raw) true/false positive/negative totals."""

    tp: float
    fp: float
    tn: float
    fn: float

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be nonnegative")

    @property
    def total(self) -> float:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class PrCurve:
    """Precision-recall points from a descending threshold sweep.

    Recall is nondecreasing along the arrays because lowering the threshold
    can only add predicted positives.
    """

    recalls: np.ndarray
    precisions: np.ndarray
    thresholds: np.ndarray


def weighted_confusion(
    true_labels, predicted_labels, weights
) -> ConfusionCounts:
    """Sum the weights falling into each confusion cell.

    With uniform weights of one this reduces to plain counts.
    """
    y = np.asarray(true_labels)
    yhat = np.asarray(predicted_labels)
    w = np.asarray(weights, dtype=np.float64)
    if not (y.shape == yhat.shape == w.shape):
        raise ValueError("labels, predictions, and weights must align")
    if not ((np.abs(y) == 1).all() and (np.abs(yhat) == 1).all()):
        raise ValueError("labels must be -1 or +1")
    pos = y == 1
    pred_pos = yhat == 1
    return ConfusionCounts(
        tp=float(w[pos & pred_pos].sum()),
        fp=float(w[~pos & pred_pos].sum()),
        tn=float(w[~pos & ~pred_pos].sum()),
        fn=float(w[pos & ~pred_pos].sum()),
    )


def f_beta(c: ConfusionCounts, beta: float) -> float:
    """F-measure from counts: (1+b^2)tp / ((1+b^2)tp + fp + b^2*fn)."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    b2 = beta * beta
    denom = (1.0 + b2) * c.tp + c.fp + b2 * c.fn
    if denom <= 0.0:
        raise UndefinedMetric("no positives and no false positives")
    return (1.0 + b2) * c.tp / denom


def g_mean(c: ConfusionCounts) -> float:
    """Geometric mean of the true-positive and true-negative rates."""
    pos = c.tp + c.fn
    neg = c.tn + c.fp
    if pos <= 0 or neg <= 0:
        raise UndefinedMetric("both classes must be present")
    return float(np.sqrt((c.tp / pos) * (c.tn / neg)))


def expected_cost(c: ConfusionCounts, pi: float) -> float:
    """pi * FNR + (1 - pi) * FPR: the expected cost at unit error costs."""
    if not 0.0 < pi < 1.0:
        raise ValueError("pi must lie strictly between 0 and 1")
    pos = c.tp + c.fn
    neg = c.tn + c.fp
    if pos <= 0 or neg <= 0:
        raise UndefinedMetric("both classes must be present")
    fnr = c.fn / pos
    fpr = c.fp / neg
    return pi * fnr + (1.0 - pi) * fpr


def _sweep(scores, labels):
    """Confusion cells at every unique score threshold, descending:
    (thresholds, true positives, predicted positives, positives).

    The decision rule is score >= threshold -> +1, so the highest threshold
    predicts the fewest positives. The scores must be finite and aligned
    with the labels, and at least one label positive.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape:
        raise ValueError("scores and labels must align")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    n_pos = int(np.count_nonzero(y == 1))
    if n_pos == 0:
        raise ValueError("a precision-recall sweep needs at least one positive label")
    order = np.argsort(-s, kind="stable")
    sorted_scores = s[order]
    sorted_pos = (y[order] == 1).astype(np.int64)
    cum_tp = np.cumsum(sorted_pos)
    cum_pp = np.arange(1, s.size + 1)
    # last index of each run of equal scores = counts at threshold == that score
    last = np.flatnonzero(np.diff(sorted_scores) != 0)
    last = np.append(last, s.size - 1)
    thresholds = sorted_scores[last]
    tp = cum_tp[last].astype(np.float64)
    pp = cum_pp[last].astype(np.float64)
    return thresholds, tp, pp, n_pos


def pr_curve_and_aupr(scores, labels) -> tuple[PrCurve, float]:
    """PR curve over the unique-score threshold sweep and its area.

    The area is a trapezoid over the distinct recall levels reached by the
    sweep, each paired with the best precision attained at that recall; the
    recall-0 endpoint carries the first achieved precision so that a curve
    starting at high precision is not penalized for having no point there.
    """
    thresholds, tp, pp, n_pos = _sweep(scores, labels)
    recalls = tp / n_pos
    precisions = tp / pp
    curve = PrCurve(recalls=recalls, precisions=precisions, thresholds=thresholds)

    # Best precision per distinct recall comes from the highest threshold
    # reaching it (fewest false positives), i.e. the first sweep entry.
    keep = np.ones(recalls.size, dtype=bool)
    keep[1:] = np.diff(recalls) > 0
    grid_r = recalls[keep]
    grid_p = precisions[keep]
    achieved = grid_r > 0
    grid_r = grid_r[achieved]
    grid_p = grid_p[achieved]
    grid_r = np.concatenate([[0.0], grid_r])
    grid_p = np.concatenate([[grid_p[0]], grid_p])
    aupr = float(np.trapezoid(grid_p, grid_r))
    return curve, aupr


def select_threshold_max_fbeta(scores, labels, beta: float) -> tuple[float, float]:
    """Pick the decision threshold maximizing F-beta over a full sweep.

    Candidates are midpoints between consecutive distinct scores plus one
    sentinel on each side; ties resolve to the lowest threshold, which favors
    recall. The rule everywhere is score >= threshold -> +1. One pass over
    the cumulative counts of the score sweep scores every candidate.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    # Candidate k in ascending order predicts the same rows as the k-th lowest
    # unique score (-inf for k = 0, the midpoint just below it otherwise);
    # the +inf sentinel predicts nothing.
    thresholds, tp, pp, n_pos = _sweep(scores, labels)
    uniq = thresholds[::-1]
    candidates = np.concatenate([[-np.inf], (uniq[:-1] + uniq[1:]) / 2.0, [np.inf]])
    tp = np.append(tp[::-1], 0.0)
    fp = np.append(pp[::-1], 0.0) - tp
    fn = n_pos - tp
    b2 = beta * beta
    f = (1.0 + b2) * tp / ((1.0 + b2) * tp + fp + b2 * fn)
    best = int(np.argmax(f))  # first maximum: the lowest threshold wins ties
    return float(candidates[best]), float(f[best])
