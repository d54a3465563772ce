"""Tests for the beyond-accuracy metrics (diversity/novelty/serendipity)."""

import numpy as np
import pytest

from repro.core.most_read import MostReadItems
from repro.errors import EvaluationError
from repro.eval.beyond_accuracy import evaluate_beyond_accuracy


@pytest.fixture(scope="module")
def similarity(tiny_split, tiny_merged):
    from repro.core.closest_items import ClosestItems

    model = ClosestItems(fields=("author", "genres"))
    model.fit(tiny_split.train, tiny_merged)
    return model.similarity


class TestValidation:
    def test_similarity_shape_checked(self, tiny_bpr, tiny_split):
        with pytest.raises(EvaluationError, match="similarity matrix"):
            evaluate_beyond_accuracy(tiny_bpr, tiny_split, np.eye(3), k=5)

    def test_k_checked(self, tiny_bpr, tiny_split, similarity):
        with pytest.raises(EvaluationError, match="k must be"):
            evaluate_beyond_accuracy(tiny_bpr, tiny_split, similarity, k=0)


class TestMetrics:
    @pytest.fixture(scope="class")
    def bpr_report(self, tiny_bpr, tiny_split, similarity):
        return evaluate_beyond_accuracy(tiny_bpr, tiny_split, similarity, k=10)

    def test_bounds(self, bpr_report):
        assert 0.0 <= bpr_report.serendipity <= 1.0
        assert 0.0 <= bpr_report.coverage <= 1.0
        assert bpr_report.novelty > 0.0
        assert -1.0 <= bpr_report.diversity <= 2.0

    def test_most_read_has_minimal_coverage(
        self, tiny_split, tiny_merged, similarity, tiny_bpr
    ):
        """The global top-k reaches at most k distinct books; a personalised
        model covers far more of the catalogue."""
        most_read = MostReadItems().fit(tiny_split.train, tiny_merged)
        popular = evaluate_beyond_accuracy(
            most_read, tiny_split, similarity, k=10
        )
        personalised = evaluate_beyond_accuracy(
            tiny_bpr, tiny_split, similarity, k=10
        )
        assert popular.coverage <= 10 / tiny_split.train.n_items + 1e-9
        assert personalised.coverage > popular.coverage

    def test_popular_list_least_novel(
        self, tiny_split, tiny_merged, similarity, tiny_bpr
    ):
        most_read = MostReadItems().fit(tiny_split.train, tiny_merged)
        popular = evaluate_beyond_accuracy(
            most_read, tiny_split, similarity, k=10
        )
        personalised = evaluate_beyond_accuracy(
            tiny_bpr, tiny_split, similarity, k=10
        )
        assert popular.novelty < personalised.novelty

    def test_threshold_monotonicity(self, tiny_bpr, tiny_split, similarity):
        strict = evaluate_beyond_accuracy(
            tiny_bpr, tiny_split, similarity, k=10, serendipity_threshold=0.05
        )
        loose = evaluate_beyond_accuracy(
            tiny_bpr, tiny_split, similarity, k=10, serendipity_threshold=0.95
        )
        assert loose.serendipity >= strict.serendipity
