"""Tests for the hybrid CB+CF blend."""

import numpy as np
import pytest

from repro.core.hybrid import HybridRecommender, _rank_normalize
from repro.errors import ConfigurationError

from tests.core.test_base import FixedScores
from tests.factories import matrix_from_pairs


@pytest.fixture
def train():
    return matrix_from_pairs([("u", 0), ("v", 1), ("w", 2)])


class TestRankNormalize:
    def test_maps_to_unit_interval(self):
        scores = np.asarray([[10.0, -5.0, 3.0]])
        normalized = _rank_normalize(scores)
        assert normalized.min() == 0.0 and normalized.max() == 1.0

    def test_preserves_order(self):
        scores = np.asarray([[10.0, -5.0, 3.0]])
        normalized = _rank_normalize(scores)[0]
        assert normalized[0] > normalized[2] > normalized[1]

    def test_scale_invariant(self):
        a = _rank_normalize(np.asarray([[1.0, 2.0, 3.0]]))
        b = _rank_normalize(np.asarray([[10.0, 200.0, 30000.0]]))
        assert np.allclose(a, b)


class TestHybrid:
    def test_weight_validation(self):
        with pytest.raises(ConfigurationError):
            HybridRecommender(FixedScores([1.0]), FixedScores([1.0]), weight=1.5)

    def test_fits_both_components(self, train):
        first = FixedScores([3.0, 2.0, 1.0])
        second = FixedScores([1.0, 2.0, 3.0])
        hybrid = HybridRecommender(first, second, weight=0.5).fit(train)
        assert first.is_fitted and second.is_fitted

    def test_weight_one_equals_first(self, train):
        first = FixedScores([3.0, 2.0, 1.0])
        second = FixedScores([1.0, 2.0, 3.0])
        hybrid = HybridRecommender(first, second, weight=1.0).fit(train)
        user = 0
        assert (
            hybrid.recommend(user, 2).tolist()
            == first.recommend(user, 2).tolist()
        )

    def test_weight_zero_equals_second(self, train):
        first = FixedScores([3.0, 2.0, 1.0])
        second = FixedScores([1.0, 2.0, 3.0])
        hybrid = HybridRecommender(first, second, weight=0.0).fit(train)
        assert (
            hybrid.recommend(0, 2).tolist() == second.recommend(0, 2).tolist()
        )

    def test_name_mentions_components(self, train):
        hybrid = HybridRecommender(
            FixedScores([1.0]), FixedScores([1.0]), weight=0.25
        )
        assert "0.25" in hybrid.name
