"""Tests for the Recommender base-class contract."""

import numpy as np
import pytest

from repro.core.base import EXCLUDED_SCORE, Recommender
from repro.errors import ConfigurationError, NotFittedError
from tests.factories import matrix_from_pairs


class FixedScores(Recommender):
    """Test double: identical deterministic scores for every user."""

    def __init__(self, scores, exclude_seen=True):
        super().__init__()
        self._scores = np.asarray(scores, dtype=np.float64)
        self.exclude_seen = exclude_seen

    def _fit(self, train, dataset):
        pass

    def score_users(self, user_indices):
        return np.tile(self._scores, (len(user_indices), 1))


@pytest.fixture
def train():
    # u0 read items 0 and 2; u1 read item 1.
    return matrix_from_pairs([("u0", 0), ("u0", 2), ("u1", 1)])


class TestFitContract:
    def test_not_fitted_errors(self):
        model = FixedScores([1.0, 2.0, 3.0])
        with pytest.raises(NotFittedError):
            model.train
        assert not model.is_fitted

    def test_fit_returns_self(self, train):
        model = FixedScores([1.0, 2.0, 3.0])
        assert model.fit(train) is model
        assert model.is_fitted

    def test_default_name(self, train):
        assert FixedScores([1.0]).name == "FixedScores"


class TestMasking:
    def test_seen_items_masked(self, train):
        model = FixedScores([3.0, 2.0, 1.0]).fit(train)
        scores = model.masked_scores(np.asarray([0]))
        assert scores[0, 0] == EXCLUDED_SCORE
        assert scores[0, 2] == EXCLUDED_SCORE
        assert scores[0, 1] == 2.0

    def test_masking_disabled(self, train):
        model = FixedScores([3.0, 2.0, 1.0], exclude_seen=False).fit(train)
        scores = model.masked_scores(np.asarray([0]))
        assert scores[0, 0] == 3.0

    def test_masking_is_per_user(self, train):
        model = FixedScores([3.0, 2.0, 1.0]).fit(train)
        scores = model.masked_scores(np.asarray([0, 1]))
        assert scores[1, 1] == EXCLUDED_SCORE
        assert scores[1, 0] == 3.0


class TestRecommend:
    def test_top_k_order(self, train):
        model = FixedScores([3.0, 2.0, 1.0], exclude_seen=False).fit(train)
        assert model.recommend(0, 2).tolist() == [0, 1]

    def test_recommend_excludes_seen(self, train):
        # u0 read items 0 and 2; only item 1 remains recommendable, so the
        # list is short rather than padded with read books.
        model = FixedScores([3.0, 2.0, 1.0]).fit(train)
        assert model.recommend(0, 2).tolist() == [1]

    def test_k_validation(self, train):
        model = FixedScores([1.0]).fit(train)
        with pytest.raises(ConfigurationError):
            model.recommend(0, 0)
        with pytest.raises(ConfigurationError):
            model.recommend_batch(np.asarray([0]), -1)

    def test_k_larger_than_catalogue(self, train):
        model = FixedScores([3.0, 2.0, 1.0], exclude_seen=False).fit(train)
        assert len(model.recommend(0, 100)) == 3

    def test_batch_matches_single(self, train):
        model = FixedScores([5.0, 1.0, 3.0]).fit(train)
        batch = model.recommend_batch(np.asarray([0, 1]), 2)
        assert batch[0].tolist() == model.recommend(0, 2).tolist()
        assert batch[1].tolist() == model.recommend(1, 2).tolist()

    def test_rank_items_is_full_permutation(self, train):
        model = FixedScores([5.0, 1.0, 3.0], exclude_seen=False).fit(train)
        # Every item once, in decreasing score order.
        assert model.recommend(0, train.n_items).tolist() == [0, 2, 1]
