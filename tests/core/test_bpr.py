"""Tests for the BPR recommender."""

import numpy as np
import pytest

from repro.app.persistence import load_bpr, save_bpr
from repro.core.bpr import BPR, BPRConfig
from repro.errors import ConfigurationError, NotFittedError
from repro.rng import make_rng
from tests.factories import matrix_from_pairs


def block_world(n_users=40, n_items=30, seed=3):
    """Two disjoint taste blocks: users read only their block's items."""
    rng = make_rng(seed)
    pairs = []
    for u in range(n_users):
        block = u % 2
        items = np.arange(block * n_items // 2, (block + 1) * n_items // 2)
        chosen = rng.choice(items, size=8, replace=False)
        pairs.extend((f"u{u:03d}", int(i)) for i in chosen)
    return matrix_from_pairs(pairs)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_factors": 0},
            {"learning_rate": 0.0},
            {"epochs": 0},
            {"batch_size": 0},
            {"regularization": -0.1},
            {"sampler": "importance"},
            {"max_trials": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            BPRConfig(**kwargs)

    def test_defaults_match_grid_winner(self):
        config = BPRConfig()
        assert config.n_factors == 20
        assert config.sampler == "warp"


class TestTraining:
    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            BPR().user_factors

    def test_factor_shapes(self):
        train = block_world()
        model = BPR(BPRConfig(epochs=2, n_factors=8, seed=0)).fit(train)
        assert model.user_factors.shape == (train.n_users, 8)
        assert model.item_factors.shape == (train.n_items, 8)

    def test_history_recorded(self):
        model = BPR(BPRConfig(epochs=3, seed=0)).fit(block_world())
        assert len(model.history) == 3
        assert all(s.seconds >= 0 for s in model.history)
        assert all(0 <= s.updated_fraction <= 1 for s in model.history)

    def test_samples_per_second_is_pairs_over_epoch_seconds(self):
        """The one shared throughput definition (EpochStats and the
        ``bpr.samples_per_second`` gauge both use it)."""
        train = block_world()
        model = BPR(BPRConfig(epochs=2, seed=0)).fit(train)
        for stats in model.history:
            assert stats.samples_per_second > 0
            assert stats.samples_per_second == pytest.approx(
                train.n_interactions / stats.seconds
            )

    def test_deterministic_given_seed(self):
        train = block_world()
        first = BPR(BPRConfig(epochs=2, seed=5)).fit(train)
        second = BPR(BPRConfig(epochs=2, seed=5)).fit(train)
        assert np.array_equal(first.user_factors, second.user_factors)

    def test_seeds_differ(self):
        train = block_world()
        first = BPR(BPRConfig(epochs=2, seed=5)).fit(train)
        second = BPR(BPRConfig(epochs=2, seed=6)).fit(train)
        assert not np.array_equal(first.user_factors, second.user_factors)

    def test_needs_two_items(self):
        train = matrix_from_pairs([("u", 1)])
        with pytest.raises(ConfigurationError, match="two items"):
            BPR(BPRConfig(epochs=1)).fit(train)

    def test_learns_block_structure(self):
        """Users must rank their own block's unread items above the other
        block's — the minimal CF competence check."""
        train = block_world()
        model = BPR(BPRConfig(epochs=15, seed=0)).fit(train)
        scores = model.score_users(np.asarray([0]))[0]  # block-0 user
        own_block = np.arange(0, train.n_items // 2)
        other_block = np.arange(train.n_items // 2, train.n_items)
        seen = set(train.user_items(0).tolist())
        own_unseen = [i for i in own_block if i not in seen]
        assert scores[own_unseen].mean() > scores[other_block].mean()

    def test_uniform_sampler_also_learns(self):
        train = block_world()
        model = BPR(
            BPRConfig(epochs=15, seed=0, sampler="uniform")
        ).fit(train)
        scores = model.score_users(np.asarray([0]))[0]
        own = np.arange(0, train.n_items // 2)
        other = np.arange(train.n_items // 2, train.n_items)
        seen = set(train.user_items(0).tolist())
        own_unseen = [i for i in own if i not in seen]
        assert scores[own_unseen].mean() > scores[other].mean()


class TestScoring:
    def test_score_matrix_shape(self):
        train = block_world()
        model = BPR(BPRConfig(epochs=1, seed=0)).fit(train)
        scores = model.score_users(np.asarray([0, 3, 5]))
        assert scores.shape == (3, train.n_items)

    def test_scores_are_factor_products(self):
        train = block_world()
        model = BPR(BPRConfig(epochs=1, seed=0)).fit(train)
        scores = model.score_users(np.asarray([2]))[0]
        expected = model.user_factors[2] @ model.item_factors.T
        assert np.allclose(scores, expected)

    def test_recommend_excludes_seen(self):
        train = block_world()
        model = BPR(BPRConfig(epochs=2, seed=0)).fit(train)
        seen = set(train.user_items(0).tolist())
        assert not seen & set(model.recommend(0, 10).tolist())


#: A batch of several rows (one repeated), in no particular order.
ROWS = np.asarray([5, 0, 17, 3, 3, 38])


def assert_scores_follow_factors(model):
    """The scoring copy holds the current item factors, bit for bit, and
    ``score_users`` is their product with the user rows. BLAS may round
    the copy's product and the transposed view's differently in the last
    bit, so the product is compared with ``allclose``."""
    assert np.array_equal(model._scoring_factors, model.item_factors.T)
    expected = model.user_factors[ROWS] @ model.item_factors.T
    assert np.allclose(model.score_users(ROWS), expected)


class TestScoringFactors:
    """The scoring copy of the item factors follows every way a model's
    factors are set: fit, warm-started fit, load and refit."""

    def test_fitted(self):
        assert_scores_follow_factors(
            BPR(BPRConfig(epochs=2, seed=0)).fit(block_world())
        )

    def test_warm_started(self):
        old = BPR(BPRConfig(epochs=2, seed=0)).fit(block_world())
        model = BPR(BPRConfig(epochs=2, seed=1)).fit(
            block_world(seed=4), warm_start=old
        )
        assert_scores_follow_factors(model)

    def test_loaded(self, tmp_path):
        train = block_world()
        model = BPR(BPRConfig(epochs=2, seed=0)).fit(train)
        save_bpr(model, train, tmp_path / "model.npz")
        loaded, _ = load_bpr(tmp_path / "model.npz")
        assert_scores_follow_factors(loaded)
        assert np.array_equal(loaded._scoring_factors, model._scoring_factors)

    def test_refit_scores_with_second_factors(self):
        model = BPR(BPRConfig(epochs=2, seed=0)).fit(block_world())
        first = model.score_users(ROWS)
        model.fit(block_world(seed=4))
        assert_scores_follow_factors(model)
        assert not np.array_equal(model.score_users(ROWS), first)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            BPR().score_users(ROWS)
