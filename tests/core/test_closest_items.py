"""Tests for the Closest Items content-based recommender."""

import numpy as np
import pytest

from repro.core.closest_items import ClosestItems
from repro.errors import ConfigurationError, NotFittedError


@pytest.fixture(scope="module")
def fitted(tiny_split, tiny_merged):
    model = ClosestItems(fields=("author", "genres"))
    model.fit(tiny_split.train, tiny_merged)
    return model


class TestFitting:
    def test_requires_dataset(self, tiny_split):
        with pytest.raises(ConfigurationError, match="merged dataset"):
            ClosestItems().fit(tiny_split.train, None)

    def test_not_fitted_similarity(self):
        with pytest.raises(NotFittedError):
            ClosestItems().similarity

    def test_similarity_shape(self, fitted, tiny_split):
        n = tiny_split.train.n_items
        assert fitted.similarity.shape == (n, n)

    def test_diagonal_zeroed(self, fitted):
        assert np.allclose(np.diag(fitted.similarity), 0.0)

    def test_fields_exposed(self, fitted):
        assert fitted.fields == ("author", "genres")


class TestEquationOne:
    def test_score_is_mean_similarity_to_history(self, fitted, tiny_split):
        user = next(iter(tiny_split.test_items))
        history = tiny_split.train.user_items(user)
        scores = fitted.score_users(np.asarray([user]))[0]
        candidate = 0
        expected = fitted.similarity[candidate, history].mean()
        assert scores[candidate] == pytest.approx(expected)

    def test_empty_history_scores_zero(self, fitted, tiny_split):
        """A user with no interactions gets all-zero scores, not NaN."""
        scores = fitted.score_users(np.asarray([0]))
        assert not np.isnan(scores).any()


class TestAuthorSignal:
    def test_same_author_books_most_similar(self, fitted, tiny_split, tiny_merged):
        """With the author+genres summary, a book's nearest neighbours are
        dominated by same-author books whenever the author has more than
        one title in the catalogue."""
        books = tiny_merged.books
        author_of = {
            int(b): str(a) for b, a in zip(books["book_id"], books["author"])
        }
        counts: dict[str, int] = {}
        for author in author_of.values():
            counts[author] = counts.get(author, 0) + 1
        # Pick a book whose author wrote at least 3 catalogue books.
        target = next(
            b for b, a in author_of.items() if counts[a] >= 3
        )
        item = tiny_split.train.items.index_of(target)
        k = counts[author_of[target]] - 1
        neighbours = np.argsort(-fitted.similarity[item], kind="stable")[:k]
        same_author = sum(
            1
            for neighbour in neighbours
            if author_of[int(tiny_split.train.items.id_of(int(neighbour)))]
            == author_of[target]
        )
        assert same_author >= 1

    def test_recommendations_exclude_history(self, fitted, tiny_split):
        user = next(iter(tiny_split.test_items))
        history = set(tiny_split.train.user_items(user).tolist())
        recommended = set(fitted.recommend(user, 10).tolist())
        assert not history & recommended
