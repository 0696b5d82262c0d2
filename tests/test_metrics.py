"""Assignment, error distributions, and classification scores."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from spincam.errors import CardinalityMismatch
from spincam.metrics import (
    AssignmentResult,
    ConfusionCounts,
    ErrorDistribution,
    classification_metrics,
    hungarian,
    position_errors,
)


def brute_force_assignment(cost: np.ndarray) -> float:
    """Exhaustive minimum over all row/column pairings."""
    if cost.shape[0] > cost.shape[1]:
        cost = cost.T
    n, m = cost.shape
    return min(math.fsum(cost[r, c] for r, c in enumerate(cols))
               for cols in itertools.permutations(range(m), n))


def matrices(elements):
    """Lists of 1-6 rows of 1-6 `elements`."""
    return st.integers(1, 6).flatmap(lambda m: st.lists(
        st.lists(elements, min_size=m, max_size=m), min_size=1, max_size=6))


# integer-valued costs (tie-heavy), signed zeros, and magnitudes up to 1e300,
# whose sums over six entries stay far from the float range
FINITE_COSTS = st.one_of(
    matrices(st.integers(-3, 3).map(float)),
    matrices(st.sampled_from([0.0, -0.0, 1.0])),
    matrices(st.floats(-1e300, 1e300)),
    matrices(st.one_of(st.floats(-1e300, 1e300), st.integers(-3, 3).map(float),
                       st.just(-0.0))),
)
NEAR_OVERFLOW_COSTS = matrices(st.one_of(
    st.sampled_from([1.7e308, -1.7e308, 1.79e308, -1.79e308, 1e308, -1e308, 0.0, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False)))


def assert_one_to_one(result: AssignmentResult, n: int, m: int):
    rows = [i for i, _ in result.pairs]
    cols = [j for _, j in result.pairs]
    assert len(result.pairs) == min(n, m)
    assert len(set(rows)) == len(set(cols)) == min(n, m)
    assert list(result.pairs) == sorted(result.pairs)
    assert all(0 <= i < n for i in rows) and all(0 <= j < m for j in cols)
    assert (result.unmatched_predictions, result.unmatched_ground_truth) == (
        n - min(n, m), m - min(n, m))


class TestHungarian:
    def test_single_entry(self):
        result = hungarian([[5.0]])
        assert result.pairs == ((0, 0),)
        assert result.total_cost == 5.0
        assert result.unmatched_predictions == 0

    def test_two_by_two_prefers_cross_assignment(self):
        # brute force over both permutations: 1+4=5 vs 2+2=4
        result = hungarian([[1.0, 2.0], [2.0, 4.0]])
        assert result.pairs == ((0, 1), (1, 0))
        assert result.total_cost == 4.0

    def test_empty_matrix(self):
        result = hungarian(np.zeros((0, 0)))
        assert result == AssignmentResult((), 0.0, 0, 0)

    def test_rectangular_counts_unmatched(self):
        result = hungarian([[1.0, 5.0, 2.0]])
        assert len(result.pairs) == 1
        assert result.unmatched_ground_truth == 2
        assert result.unmatched_predictions == 0

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            cost = rng.uniform(0.0, 10.0, (n, m))
            assert hungarian(cost).total_cost == pytest.approx(
                brute_force_assignment(cost), abs=1e-9
            )

    def test_rejects_non_finite_costs(self):
        with pytest.raises(ValueError):
            hungarian([[np.inf, 1.0], [1.0, 2.0]])

    @settings(max_examples=300, deadline=None)
    @given(FINITE_COSTS)
    def test_optimal_one_to_one_on_finite_matrices(self, cost):
        matrix = np.array(cost)
        result = hungarian(matrix)
        assert_one_to_one(result, *matrix.shape)
        # differences below 1e-9 of the largest cost are under float
        # resolution: both totals round at that scale
        scale = max(1.0, float(np.abs(matrix).max()))
        assert abs(result.total_cost - brute_force_assignment(matrix)) <= 1e-9 * scale

    @settings(max_examples=300, deadline=None)
    @given(NEAR_OVERFLOW_COSTS)
    @example([[-1.7e308, 1.79e308, 1.79e308], [-1.79e308, 1.7e308, 1.7e308]])
    @example([[1e308, -1e308], [-1e308, 1e308]])
    def test_near_overflow_returns_or_raises(self, cost):
        """Reduced costs may overflow to inf or NaN: the assignment is then
        still one-to-one, or ValueError says no finite column was left."""
        matrix = np.array(cost)
        try:
            with np.errstate(over="ignore"):
                result = hungarian(matrix)
        except ValueError as exc:
            assert "overflows" in str(exc)
        else:
            assert_one_to_one(result, *matrix.shape)

    def test_overflowing_reduced_costs_raise(self):
        # the second row takes column 0 from the first, whose reduced costs
        # to the other columns are then 1.79e308 + 1.7e308 = inf
        with pytest.raises(ValueError, match="overflows"):
            hungarian([[-1.7e308, 1.79e308, 1.79e308], [-1.79e308, 1.7e308, 1.7e308]])

    # the cheapest path costs overflow to inf inside the kernel; the matched
    # total, -1.5e308, does not
    @pytest.mark.parametrize("cost", [
        [[1.5e308, -0.5e308], [-1e308, 1.5e308]],
        [[1.5e308, -0.5e308, 0.0], [-1e308, 1.5e308, 0.0]],
        [[1.5e308, -0.5e308], [-1e308, 1.5e308], [0.0, 1.0]],
    ])
    def test_near_overflow_matches_scipy(self, cost):
        result = hungarian(cost)
        rows, cols = linear_sum_assignment(np.array(cost))
        assert result.pairs == tuple(zip(rows.tolist(), cols.tolist()))
        assert result.total_cost == -1.5e308

    @pytest.mark.parametrize("cost", [
        [[1e308, -1e308], [-1e308, 1e308]],
        [[1.7e308, -1.7e308, 0.0], [-1.7e308, 1.7e308, 0.0]],
        [[1.7e308, -1.7e308], [-1.7e308, 1.7e308], [0.0, 1.0]],
    ])
    def test_overflowing_total_raises(self, cost):
        """Finite costs whose matched total overflows: ValueError, not a -inf
        total behind numpy's RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="total overflows"):
                hungarian(cost)

    def test_matches_scipy_on_continuous_matrices(self):
        """Without ties the optimum is unique, so the pairs are scipy's."""
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n, m = rng.integers(1, 7, 2)
            cost = rng.normal(0.0, 10.0, (n, m))
            rows, cols = linear_sum_assignment(cost)
            result = hungarian(cost)
            assert result.pairs == tuple(zip(rows.tolist(), cols.tolist()))
            assert result.total_cost == float(cost[rows, cols].sum())


class TestPositionErrors:
    def test_identical_lists_give_zeros(self):
        points = [np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.0, 0.5])]
        assert position_errors(points, points) == [0.0, 0.0]

    def test_single_pair_distance(self):
        assert position_errors([(0, 0, 1)], [(0, 0, 2)]) == [1.0]

    def test_crossed_pairs_beat_greedy_matching(self):
        # greedy grabs the 0.1 match and pays 2.1; optimal pays 1.0 + 1.0
        preds = [(1.0, 0.0, 0.0), (2.1, 0.0, 0.0)]
        gts = [(0.0, 0.0, 0.0), (1.1, 0.0, 0.0)]
        errors = position_errors(preds, gts)
        assert errors == pytest.approx([1.0, 1.0])
        assert sum(errors) < 0.1 + 2.1

    def test_cardinality_mismatch(self):
        with pytest.raises(CardinalityMismatch):
            position_errors([(0, 0, 1)], [])

    def test_invariant_under_consistent_permutation(self):
        rng = np.random.default_rng(1)
        preds = [rng.uniform(-1, 1, 3) for _ in range(5)]
        gts = [rng.uniform(-1, 1, 3) for _ in range(5)]
        baseline = sorted(position_errors(preds, gts))
        order = rng.permutation(5)
        shuffled = sorted(position_errors([preds[i] for i in order], [gts[i] for i in order]))
        assert baseline == pytest.approx(shuffled, abs=1e-12)

    def test_empty_lists(self):
        assert position_errors([], []) == []

    def test_bitwise_equal_to_linalg_norm_of_matched_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            k = int(rng.integers(1, 5))
            preds = list(rng.uniform(-3.0, 3.0, (k, 3)))
            gts = list(rng.uniform(-3.0, 3.0, (k, 3)))
            cost = np.array([[float(np.linalg.norm(p - g)) for g in gts] for p in preds])
            expected = [float(cost[i, j]) for i, j in hungarian(cost).pairs]
            errors = position_errors(preds, gts)
            assert [e.hex() for e in errors] == [e.hex() for e in expected]

    def test_rejects_non_finite_positions(self):
        with pytest.raises(ValueError, match="finite"):
            position_errors([(0.0, 0.0, math.nan)], [(0.0, 0.0, 1.0)])


class TestClassificationMetrics:
    def test_balanced_example(self):
        p, r, f1 = classification_metrics(ConfusionCounts(tp=2, fp=1, fn=1))
        assert (p, r, f1) == pytest.approx((2 / 3, 2 / 3, 2 / 3))

    def test_no_positive_predictions_gives_nan_precision(self):
        p, r, f1 = classification_metrics(ConfusionCounts(tp=0, fp=0, fn=5))
        assert math.isnan(p)
        assert r == 0.0
        assert f1 == 0.0

    def test_perfect_classifier(self):
        p, r, f1 = classification_metrics(ConfusionCounts(tp=7, fp=0, fn=0, tn=3))
        assert (p, r, f1) == (1.0, 1.0, 1.0)

    def test_f1_between_precision_and_recall(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            counts = ConfusionCounts(
                tp=int(rng.integers(1, 20)), fp=int(rng.integers(0, 20)),
                fn=int(rng.integers(0, 20)), tn=int(rng.integers(0, 20)),
            )
            p, r, f1 = classification_metrics(counts)
            assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12

    def test_from_columns_counting(self):
        gt = np.array([True, True, False, False, True])
        pred = np.array([True, False, True, False, True])
        counts = ConfusionCounts.from_columns(gt, pred)
        assert (counts.tp, counts.fn, counts.fp, counts.tn) == (2, 1, 1, 1)
        assert ConfusionCounts.from_columns([], []) == ConfusionCounts()

    @pytest.mark.parametrize("gt, pred", [([True], [True, False]), ([[True]], [[True]])])
    def test_from_columns_rejects_unequal_or_non_column_shapes(self, gt, pred):
        with pytest.raises(ValueError, match="columns of one length"):
            ConfusionCounts.from_columns(gt, pred)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1)


class TestErrorDistribution:
    def test_quartiles_ordered(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            dist = ErrorDistribution.from_samples(rng.lognormal(0.0, 1.0, 40))
            assert dist.whisker_low <= dist.q1 <= dist.median <= dist.q3 <= dist.whisker_high

    def test_known_small_sample(self):
        dist = ErrorDistribution.from_samples([1.0, 2.0, 3.0, 4.0])
        assert dist.median == 2.5
        assert dist.q1 == 1.75 and dist.q3 == 3.25  # linear interpolation method
        assert dist.mean == 2.5
        assert dist.outliers == ()
        assert dist.whisker_low == 1.0 and dist.whisker_high == 4.0

    def test_outlier_detection(self):
        dist = ErrorDistribution.from_samples([1.0, 1.1, 0.9, 1.05, 0.95, 10.0])
        assert 10.0 in dist.outliers
        assert dist.whisker_high < 10.0

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            ErrorDistribution.from_samples([])
