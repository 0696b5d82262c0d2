"""Evaluation metrics: optimal assignment errors, and classification
scores for downwash prediction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import CardinalityMismatch


@dataclass(frozen=True)
class AssignmentResult:
    pairs: tuple[tuple[int, int], ...]  # (prediction index, ground-truth index)
    total_cost: float
    unmatched_predictions: int
    unmatched_ground_truth: int


def _assignment_columns(cost: list[list[float]]) -> list[int]:
    """Column matched to each row of a minimum-cost assignment, for a
    list-of-lists cost with no more rows than columns.

    Shortest augmenting paths with row and column potentials (Jonker and
    Volgenant 1987): row i joins along the cheapest path in reduced costs
    from it to a free column, then the potentials keep every reduced cost
    non-negative. O(rows^2 cols) in Python, sized for small matrices. Costs
    near the float range can overflow the reduced costs to inf or NaN; when
    no column then has a finite one, ValueError is raised.
    """
    n, m = len(cost), len(cost[0])
    u = [0.0] * (n + 1)  # row potentials, 1-based
    v = [0.0] * (m + 1)  # column potentials; column 0 roots each path
    owner = [0] * (m + 1)  # 1-based row matched to each column, 0 when free
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        minv = [math.inf] * (m + 1)  # cheapest reduced path cost to each column
        way = [0] * (m + 1)  # the column before each one on that path
        used = [False] * (m + 1)
        while owner[j0]:
            used[j0] = True
            i0 = owner[j0]
            row, ui = cost[i0 - 1], u[i0]
            delta, j1 = math.inf, 0
            for j in range(1, m + 1):
                if not used[j]:
                    reduced = row[j - 1] - ui - v[j]
                    if reduced < minv[j]:
                        minv[j], way[j] = reduced, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            if not j1:
                raise ValueError("cost matrix overflows the assignment's reduced costs")
            for j in range(m + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    columns = [0] * n
    for j in range(1, m + 1):
        if owner[j]:
            columns[owner[j] - 1] = j - 1
    return columns


def hungarian(cost) -> AssignmentResult:
    """Minimum-cost assignment of predictions (rows) to ground truth (cols).

    Exact, by `_assignment_columns`, but written in Python for the small
    matrices of one frame's detections: about 60 us at 6x6 and 2.6 ms at
    50x50 on a 2-vCPU Xeon. Raises ValueError for a non-finite cost, and
    when finite costs overflow the assignment or its total.
    """
    matrix = np.asarray(cost, dtype=float)
    if matrix.size == 0:
        n_rows = matrix.shape[0] if matrix.ndim == 2 else 0
        n_cols = matrix.shape[1] if matrix.ndim == 2 else 0
        return AssignmentResult((), 0.0, n_rows, n_cols)
    if matrix.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("cost matrix must be finite")
    if matrix.shape[0] <= matrix.shape[1]:
        pairs = tuple(enumerate(_assignment_columns(matrix.tolist())))
    else:
        pairs = tuple(sorted((i, j) for j, i in enumerate(_assignment_columns(matrix.T.tolist()))))
    rows, cols = zip(*pairs)
    with np.errstate(over="ignore"):
        total = float(matrix[list(rows), list(cols)].sum())
    if not math.isfinite(total):
        raise ValueError("the matched costs' total overflows the float range")
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
    # the sqrt of the dot is np.linalg.norm's formula for a vector
    cost = [[math.sqrt(d.dot(d)) for d in (p - g for g in gts)] for p in preds]
    if not all(math.isfinite(c) for row in cost for c in row):
        raise ValueError("cost matrix must be finite")
    return [row[j] for row, j in zip(cost, _assignment_columns(cost))]


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
