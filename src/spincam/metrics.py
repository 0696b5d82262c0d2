"""Evaluation metrics: count success, optimal assignment errors, and
classification scores for downwash prediction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CardinalityMismatch


def success(predictions: Sequence, ground_truth: Sequence) -> bool:
    """Count-only success: did the detector report the right neighbor count."""
    return len(predictions) == len(ground_truth)


@dataclass(frozen=True)
class AssignmentResult:
    pairs: tuple[tuple[int, int], ...]  # (prediction index, ground-truth index)
    total_cost: float
    unmatched_predictions: int
    unmatched_ground_truth: int


def hungarian(cost) -> AssignmentResult:
    """Minimum-cost assignment of predictions (rows) to ground truth (cols)."""
    matrix = np.asarray(cost, dtype=float)
    if matrix.size == 0:
        n_rows = matrix.shape[0] if matrix.ndim == 2 else 0
        n_cols = matrix.shape[1] if matrix.ndim == 2 else 0
        return AssignmentResult((), 0.0, n_rows, n_cols)
    if matrix.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("cost matrix must be finite")
    # imported here: scipy.optimize is most of the package's import time, and
    # no CLI command matches detections
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(matrix)
    pairs = tuple(sorted(zip(rows.tolist(), cols.tolist())))
    total = float(matrix[rows, cols].sum())
    return AssignmentResult(
        pairs=pairs,
        total_cost=total,
        unmatched_predictions=matrix.shape[0] - len(pairs),
        unmatched_ground_truth=matrix.shape[1] - len(pairs),
    )


def position_errors(pred_positions, gt_positions) -> list[float]:
    """Matched Euclidean distances after optimal assignment.

    Only frames with the correct predicted count contribute to the paper-style
    error distribution, so unequal cardinalities are an error here.
    """
    preds = [np.asarray(p, dtype=float) for p in pred_positions]
    gts = [np.asarray(g, dtype=float) for g in gt_positions]
    if len(preds) != len(gts):
        raise CardinalityMismatch(f"{len(preds)} predictions vs {len(gts)} ground truth")
    if not preds:
        return []
    cost = np.array([[float(np.linalg.norm(p - g)) for g in gts] for p in preds])
    result = hungarian(cost)
    return [float(cost[i, j]) for i, j in result.pairs]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[bool, bool]]) -> "ConfusionCounts":
        """Count (ground_truth, predicted) boolean pairs."""
        tp = fp = fn = tn = 0
        for gt, pred in pairs:
            if gt and pred:
                tp += 1
            elif not gt and pred:
                fp += 1
            elif gt and not pred:
                fn += 1
            else:
                tn += 1
        return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def classification_metrics(counts: ConfusionCounts) -> tuple[float, float, float]:
    """(precision, recall, f1); precision is NaN without positive predictions,
    and f1 is 0 whenever there are no true positives."""
    tp, fp, fn = counts.tp, counts.fp, counts.fn
    precision = tp / (tp + fp) if tp + fp > 0 else math.nan
    recall = tp / (tp + fn) if tp + fn > 0 else math.nan
    if tp == 0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return precision, recall, f1


@dataclass(frozen=True)
class ErrorDistribution:
    """Whisker-plot summary of a sample of Euclidean errors."""

    samples: tuple[float, ...]
    mean: float
    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]

    @staticmethod
    def from_samples(samples: Iterable[float]) -> "ErrorDistribution":
        values = np.sort(np.asarray(list(samples), dtype=float))
        if values.size == 0:
            raise ValueError("error distribution needs at least one sample")
        q1, median, q3 = np.percentile(values, [25.0, 50.0, 75.0])
        iqr = q3 - q1
        low_fence = q1 - 1.5 * iqr
        high_fence = q3 + 1.5 * iqr
        inliers = values[(values >= low_fence) & (values <= high_fence)]
        outliers = values[(values < low_fence) | (values > high_fence)]
        return ErrorDistribution(
            samples=tuple(values.tolist()),
            mean=float(values.mean()),
            median=float(median),
            q1=float(q1),
            q3=float(q3),
            whisker_low=float(inliers.min()),
            whisker_high=float(inliers.max()),
            outliers=tuple(outliers.tolist()),
        )
