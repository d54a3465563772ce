"""Tests for the Random Items and Most Read Items baselines."""

import numpy as np
import pytest

from repro.core.most_read import MostReadItems
from repro.core.random_items import RandomItems
from tests.factories import matrix_from_pairs


@pytest.fixture
def train():
    # item 0 read 3x (twice by u0), item 1 read once, item 2 unread.
    return matrix_from_pairs(
        [("u0", 0), ("u0", 0), ("u1", 0), ("u1", 1), ("u2", 2)]
    )


class TestRandomItems:
    def test_deterministic_per_user(self, train):
        model = RandomItems(seed=7).fit(train)
        first = model.recommend(0, 3)
        second = model.recommend(0, 3)
        assert first.tolist() == second.tolist()

    def test_different_users_differ(self, train):
        model = RandomItems(seed=7).fit(train)
        scores = model.score_users(np.asarray([0, 1]))
        assert not np.allclose(scores[0], scores[1])

    def test_excludes_seen(self, train):
        model = RandomItems(seed=7).fit(train)
        recommended = set(model.recommend(0, 3).tolist())
        assert 0 not in recommended  # u0 read item 0

    def test_name(self):
        assert RandomItems().name == "Random Items"

    def test_seed_changes_scores(self, train):
        a = RandomItems(seed=1).fit(train).score_users(np.asarray([0]))
        b = RandomItems(seed=2).fit(train).score_users(np.asarray([0]))
        assert not np.allclose(a, b)


class TestMostReadItems:
    def test_ranks_by_event_count(self, train):
        model = MostReadItems().fit(train)
        assert model.top_items(3).tolist() == [0, 1, 2]

    def test_same_list_for_all_users(self, train):
        model = MostReadItems().fit(train)
        assert model.recommend(0, 2).tolist() == model.recommend(2, 2).tolist()

    def test_does_not_exclude_seen_by_default(self, train):
        model = MostReadItems().fit(train)
        # u0 read item 0, yet it is still recommended first (paper).
        assert model.recommend(0, 1).tolist() == [0]

    def test_personalized_variant_excludes_seen(self, train):
        model = MostReadItems(personalized=True).fit(train)
        assert 0 not in model.recommend(0, 2).tolist()
        assert "personalized" in model.name

    def test_multiplicity_counts(self, train):
        """Re-borrows push a book up the chart (key for Table 1)."""
        model = MostReadItems().fit(train)
        counts = train.item_counts()
        assert counts[0] == 3.0  # u0 borrowed twice + u1 once

    def test_deterministic_tiebreak(self):
        train = matrix_from_pairs([("u", 0), ("v", 1)])
        model = MostReadItems().fit(train)
        assert model.top_items(2).tolist() == [0, 1]

    def test_top_items_is_the_stable_argsort_for_every_k(self):
        """Counts with ties: every prefix of the ranking is the stable
        argsort of the counts, ties in index order."""
        counts = np.random.default_rng(5).integers(1, 4, size=40)
        train = matrix_from_pairs(
            (f"u{copy}", item)
            for item, count in enumerate(counts.tolist())
            for copy in range(count)
        )
        assert train.item_counts().tolist() == counts.tolist()
        model = MostReadItems().fit(train)
        order = np.argsort(-counts, kind="stable")
        for k in range(1, train.n_items + 2):
            assert model.top_items(k).tolist() == order[:k].tolist()

    def test_writing_into_top_items_leaves_the_ranking(self, train):
        model = MostReadItems().fit(train)
        first = model.top_items(3)
        expected = first.tolist()
        first[:] = -1
        assert model.top_items(3).tolist() == expected
        assert model.recommend(0, 3).tolist() == expected
