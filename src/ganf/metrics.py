"""Detection and structure metrics: ROC/AUC (hard and smoothed noisy-label
variants), structural Hamming distance, and score histograms.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_settings


class UndefinedAucError(ValueError):
    """All-positive or all-negative label mass; the ROC curve is undefined."""


def smooth_labels(window_starts: np.ndarray, anomaly_starts: np.ndarray,
                  sigma: float = 6.0) -> np.ndarray:
    """Soft labels p(t) = max_i exp(-(t - t_i)^2 / sigma^2).

    Every sigma in (0, inf) gives labels in [0, 1]: a sigma^2 that overflows
    reads as infinite (every label 1), and one that underflows to zero gives
    the hard labels (1 at an anomaly start, 0 elsewhere).
    """
    check_settings({"sigma": sigma}, {"sigma": "(0, inf)"})
    window_starts = np.asarray(window_starts, dtype=np.float64)
    anomaly_starts = np.asarray(anomaly_starts, dtype=np.float64)
    if anomaly_starts.size == 0:
        return np.zeros_like(window_starts)
    diffs = window_starts[:, None] - anomaly_starts[None, :]
    with np.errstate(divide="ignore", over="ignore"):
        try:
            scale = sigma ** 2
        except OverflowError:   # a Python float's square raises where NumPy's is inf
            scale = np.inf
        # t = t_i is exp(0) = 1 whatever the scale, 0 / 0 included
        ratio = np.divide(diffs ** 2, scale, out=np.zeros_like(diffs), where=diffs != 0)
    return np.exp(-ratio).max(axis=1)


@dataclass
class RocResult:
    tpr: np.ndarray
    fpr: np.ndarray
    auc: float


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> RocResult:
    """ROC over probabilistic labels in [0, 1].

    Confusion entries sum label probabilities: at threshold theta,
    TP = sum of p over scores >= theta, FP = sum of (1 - p) there. Tied
    scores share one threshold point; AUC by trapezoid over the curve.
    Hard 0/1 labels reduce to the standard ROC.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape:
        raise ValueError(f"scores and labels differ in length: "
                         f"{scores.shape[0]} vs {labels.shape[0]}")
    if not np.all((labels >= 0) & (labels <= 1)):
        raise ValueError("labels must lie in [0, 1]")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    pos = labels.sum()
    neg = (1.0 - labels).sum()
    if pos <= 0 or neg <= 0:
        raise UndefinedAucError(
            f"degenerate label mass (positives={pos}, negatives={neg})")
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    p_sorted = labels[order]
    # group tied scores: one operating point per distinct threshold
    boundaries = np.nonzero(np.diff(s_sorted))[0]
    idx = np.concatenate([boundaries, [len(s_sorted) - 1]])
    tp = np.cumsum(p_sorted)[idx]
    fp = np.cumsum(1.0 - p_sorted)[idx]
    tpr = np.concatenate([[0.0], tp / pos])
    fpr = np.concatenate([[0.0], fp / neg])
    auc = float(np.trapezoid(tpr, fpr))
    return RocResult(tpr=tpr, fpr=fpr, auc=auc)


def shd(pred_edges, true_edges) -> int:
    """Structural Hamming distance; a reversed edge counts once."""
    pred = {(int(j), int(i)) for j, i in pred_edges}
    true = {(int(j), int(i)) for j, i in true_edges}
    extra = pred - true
    missing = true - pred
    reversals = {(j, i) for (j, i) in extra if (i, j) in missing}
    return len(extra) + len(missing) - len(reversals)


def density_histogram(scores: np.ndarray, bins: int = 50) -> tuple[np.ndarray, np.ndarray]:
    """(counts, bin edges) over the scores."""
    check_settings({"bins": bins}, {"bins": 1})
    return np.histogram(np.asarray(scores, dtype=np.float64), bins=bins)

