"""Tests for the KPI formulas (Equations 4-7 + FR)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EvaluationError
from repro.eval.metrics import compute_kpis


class TestComputeKpis:
    def test_hand_computed_example(self):
        # Three users: 2 hits / 0 hits / 1 hit at k=5.
        hits = np.asarray([2, 0, 1])
        test_sizes = np.asarray([4, 2, 1])
        first_ranks = np.asarray([1, 50, 3])
        report = compute_kpis(hits, test_sizes, first_ranks, k=5)
        assert report.urr == pytest.approx(2 / 3)
        assert report.nrr == pytest.approx(1.0)
        assert report.precision == pytest.approx((2 / 5 + 0 + 1 / 5) / 3)
        assert report.recall == pytest.approx((2 / 4 + 0 + 1 / 1) / 3)
        assert report.first_rank == pytest.approx(18.0)

    def test_perfect_recommender(self):
        hits = np.asarray([3, 3])
        report = compute_kpis(hits, np.asarray([3, 3]), np.asarray([1, 1]), k=3)
        assert report.urr == 1.0
        assert report.recall == 1.0
        assert report.precision == 1.0
        assert report.first_rank == 1.0

    def test_all_misses(self):
        report = compute_kpis(
            np.asarray([0, 0]), np.asarray([2, 2]), np.asarray([90, 10]), k=5
        )
        assert report.urr == 0.0 and report.nrr == 0.0
        assert report.first_rank == 50.0

    def test_length_mismatch(self):
        with pytest.raises(EvaluationError, match="disagree"):
            compute_kpis(np.asarray([1]), np.asarray([1, 2]), np.asarray([1]), k=5)

    def test_zero_users(self):
        with pytest.raises(EvaluationError, match="zero users"):
            compute_kpis(np.asarray([]), np.asarray([]), np.asarray([]), k=5)

    def test_empty_test_set_rejected(self):
        with pytest.raises(EvaluationError, match="non-empty"):
            compute_kpis(np.asarray([0]), np.asarray([0]), np.asarray([1]), k=5)

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 10),   # hits
                st.integers(1, 20),   # extra test size beyond hits
                st.integers(1, 500),  # first rank
            ),
            min_size=1,
            max_size=30,
        ),
        st.integers(1, 50),
    )
    def test_property_bounds(self, rows, k):
        hits = np.asarray([min(h, k) for h, _, __ in rows])
        test_sizes = np.asarray([h + extra for h, extra, __ in rows])
        first_ranks = np.asarray([fr for _, __, fr in rows])
        report = compute_kpis(hits, test_sizes, first_ranks, k)
        assert 0 <= report.urr <= 1
        assert 0 <= report.precision <= 1
        assert 0 <= report.recall <= 1
        assert report.nrr >= report.urr or report.nrr == pytest.approx(report.urr)
