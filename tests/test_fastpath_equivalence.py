"""Fast-path equivalence: every vectorised path must reproduce its
reference implementation exactly.

The reproduced Table 1 / Fig. 3 numbers must not move, so the CSR-scatter
masking, batched top-k, rank-only (counting) evaluation, blockwise /
truncated similarity, and batched serving are each pinned against the
original per-user/argsort code paths — on fitted models over the tiny
synthetic world and on adversarial random score matrices with heavy ties.
Those original paths live here, as oracles: ``src/`` keeps one
implementation of each job.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.app.service import RecommendationRequest, RecommendationService
from repro.core.base import EXCLUDED_SCORE, Recommender, _top_k
from repro.core.closest_items import ClosestItems
from repro.core.interactions import InteractionMatrix
from repro.errors import EvaluationError
from repro.eval.evaluator import (
    EvaluationResult,
    PerUserOutcome,
    _ranks_by_counting,
    evaluate_model,
)
from repro.eval.metrics import compute_kpis
from repro.eval.split import DatasetSplit


# ----------------------------------------------------------------------
# oracles: the original per-user and argsort paths
# ----------------------------------------------------------------------


def masked_scores_reference(model, user_indices):
    """The pre-vectorisation masking path (per-user loop); must be
    bit-identical to :meth:`Recommender.masked_scores`."""
    user_indices = np.asarray(user_indices, dtype=np.int64)
    scores = model.score_users(user_indices)
    if model.exclude_seen:
        train = model.train
        for row, user_index in enumerate(user_indices):
            scores[row, train.user_items(int(user_index))] = EXCLUDED_SCORE
    return scores


def recommend_batch_reference(model, user_indices, k):
    """Per-row top-k over the masked scores, the batch path's oracle."""
    scores = model.masked_scores(user_indices)
    return [_top_k(row, k) for row in scores]


def evaluate_by_argsort(model, split, ks=(20,), chunk_size=256):
    """The original evaluation path over the test holdout: rank every
    item of every user with a full stable argsort, then read off the
    held-out items' ranks. ``evaluate_model`` counts them instead."""
    holdout_items = split.test_items
    user_indices = np.asarray(sorted(holdout_items), dtype=np.int64)
    hits = {k: np.zeros(len(user_indices), dtype=np.int64) for k in ks}
    first_ranks = np.zeros(len(user_indices), dtype=np.int64)
    test_sizes = np.zeros(len(user_indices), dtype=np.int64)
    for start in range(0, len(user_indices), chunk_size):
        chunk = user_indices[start:start + chunk_size]
        scores = model.masked_scores(chunk)
        # ranks[r, j] = 1-based rank of item j in row r's full ranking.
        order = np.argsort(-scores, axis=1, kind="stable")
        ranks = np.empty_like(order)
        row_index = np.arange(order.shape[0])[:, None]
        ranks[row_index, order] = np.arange(1, order.shape[1] + 1)
        for offset, user in enumerate(chunk):
            held_out = holdout_items[int(user)]
            item_ranks = ranks[offset, held_out]
            position = start + offset
            test_sizes[position] = len(held_out)
            first_ranks[position] = item_ranks.min()
            for k in ks:
                hits[k][position] = int((item_ranks <= k).sum())
    return EvaluationResult(
        model_name=model.name,
        kpis={
            k: compute_kpis(hits[k], test_sizes, first_ranks, k) for k in ks
        },
        per_user=PerUserOutcome(
            user_indices=user_indices,
            train_sizes=split.train_sizes(user_indices),
            test_sizes=test_sizes,
            hits=hits,
            first_ranks=first_ranks,
        ),
    )


class FixedScores(Recommender):
    """Test model serving an arbitrary dense score matrix."""

    def __init__(self, scores, exclude_seen=True):
        super().__init__()
        self._scores = np.asarray(scores, dtype=np.float64)
        self.exclude_seen = exclude_seen

    def _fit(self, train, dataset):
        pass

    def score_users(self, user_indices):
        return self._scores[np.asarray(user_indices, dtype=np.int64)].copy()


def _tied_matrix(seed, n_users=25, n_items=160):
    """A score matrix with many exact ties (quantised normals)."""
    rng = np.random.default_rng(seed)
    return np.round(rng.normal(size=(n_users, n_items)), 1)


def _train_matrix(seed, n_users=25, n_items=160):
    rng = np.random.default_rng(seed)
    pairs = []
    for user in range(n_users):
        history = rng.choice(n_items, size=int(rng.integers(1, 30)), replace=False)
        pairs.extend((f"u{user:03d}", int(item)) for item in history)
    return InteractionMatrix.from_pairs(pairs)


def _fake_split(train, seed):
    """A DatasetSplit over ``train`` with random unseen held-out items."""
    rng = np.random.default_rng(seed + 1)
    test_items = {}
    for user in range(train.n_users):
        unseen = np.setdiff1d(
            np.arange(train.n_items), train.user_items(user)
        )
        held = rng.choice(
            unseen, size=int(rng.integers(1, 6)), replace=False
        )
        test_items[int(user)] = np.asarray(sorted(held), dtype=np.int64)
    return DatasetSplit(
        train=train,
        val_items={},
        test_items=test_items,
        bct_user_indices=np.arange(train.n_users, dtype=np.int64),
    )


class TestMaskingEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_models_with_ties(self, seed):
        train = _train_matrix(seed)
        model = FixedScores(_tied_matrix(seed)).fit(train)
        users = np.arange(train.n_users)
        assert np.array_equal(
            model.masked_scores(users), masked_scores_reference(model, users)
        )

    def test_fitted_bpr(self, tiny_split, tiny_bpr):
        users = np.asarray(sorted(tiny_split.test_items), dtype=np.int64)
        assert np.array_equal(
            tiny_bpr.masked_scores(users),
            masked_scores_reference(tiny_bpr, users),
        )

    def test_no_masking_when_model_includes_seen(self):
        train = _train_matrix(3)
        model = FixedScores(_tied_matrix(3), exclude_seen=False).fit(train)
        users = np.arange(train.n_users)
        assert np.array_equal(
            model.masked_scores(users), model.score_users(users)
        )

    def test_empty_chunk(self, tiny_bpr):
        assert tiny_bpr.masked_scores(np.asarray([], dtype=np.int64)).shape[0] == 0


class TestBatchTopKEquivalence:
    @pytest.mark.parametrize("k", [1, 5, 40, 500])
    def test_matches_per_user_recommend(self, k):
        train = _train_matrix(11)
        model = FixedScores(_tied_matrix(11)).fit(train)
        users = np.arange(train.n_users)
        batched = model.recommend_batch(users, k)
        for user, items in zip(users, batched):
            assert np.array_equal(items, model.recommend(int(user), k))

    def test_matches_reference_batch(self, tiny_split, tiny_bpr):
        users = np.asarray(sorted(tiny_split.test_items), dtype=np.int64)[:40]
        fast = tiny_bpr.recommend_batch(users, 20)
        reference = recommend_batch_reference(tiny_bpr, users, 20)
        assert all(np.array_equal(f, r) for f, r in zip(fast, reference))

    def test_catalogue_exhaustion(self):
        # One user read every item but two: top-k must come back short.
        pairs = [("u", i) for i in range(8)] + [("v", 0)]
        train = InteractionMatrix.from_pairs(pairs + [("u", 8), ("v", 9)])
        scores = np.ones((2, train.n_items))
        model = FixedScores(scores).fit(train)
        batched = model.recommend_batch(np.asarray([0, 1]), k=5)
        assert len(batched[0]) == 1  # "u" has one unread item left
        assert len(batched[1]) == 5
        assert np.array_equal(batched[0], model.recommend(0, 5))
        assert np.array_equal(batched[1], model.recommend(1, 5))


class TestRankOnlyEvaluation:
    def _assert_results_equal(self, fast, reference):
        assert fast.kpis == reference.kpis
        assert np.array_equal(
            fast.per_user.first_ranks, reference.per_user.first_ranks
        )
        assert np.array_equal(
            fast.per_user.test_sizes, reference.per_user.test_sizes
        )
        for k in fast.kpis:
            assert np.array_equal(fast.per_user.hits[k], reference.per_user.hits[k])

    @pytest.mark.parametrize("model_name", ["bpr", "closest", "most_read"])
    def test_identical_kpi_reports(self, tiny_context, model_name):
        model = tiny_context.model(model_name)
        split = tiny_context.split
        fast = evaluate_model(model, split, ks=(1, 5, 20))
        reference = evaluate_by_argsort(model, split, ks=(1, 5, 20))
        self._assert_results_equal(fast, reference)

    def test_identical_across_chunk_sizes(self, tiny_split, tiny_bpr):
        fast = evaluate_model(tiny_bpr, tiny_split, ks=(20,), chunk_size=7)
        reference = evaluate_by_argsort(
            tiny_bpr, tiny_split, ks=(20,), chunk_size=1000
        )
        self._assert_results_equal(fast, reference)

    def test_rejects_unknown_method(self, tiny_split, tiny_bpr):
        # Counting is the only rank method; the selector is gone.
        with pytest.raises(TypeError, match="rank_method"):
            evaluate_model(tiny_bpr, tiny_split, rank_method="argsort")

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10_000))
    def test_property_counting_ranks_match_stable_argsort(self, seed):
        rng = np.random.default_rng(seed)
        n_users, n_items = 8, 60
        scores = np.round(rng.normal(size=(n_users, n_items)), 1)
        scores[rng.random(size=scores.shape) < 0.1] = -np.inf  # masked items
        held = [
            rng.choice(n_items, size=int(rng.integers(1, 6)), replace=False)
            for _ in range(n_users)
        ]
        order = np.argsort(-scores, axis=1, kind="stable")
        ranks = np.empty_like(order)
        row_index = np.arange(n_users)[:, None]
        ranks[row_index, order] = np.arange(1, n_items + 1)
        expected = np.concatenate(
            [ranks[row, items] for row, items in enumerate(held)]
        )
        assert np.array_equal(_ranks_by_counting(scores, held), expected)


class TestSimilarityEquivalence:
    def test_closest_items_sparse_scoring_matches_dense_truncated(
        self, tiny_split, tiny_merged
    ):
        sparse_model = ClosestItems(
            fields=("author", "genres"), top_n_neighbors=15, block_size=64
        ).fit(tiny_split.train, tiny_merged)
        users = np.asarray(sorted(tiny_split.test_items), dtype=np.int64)[:30]
        fast = sparse_model.score_users(users)
        # Reference: Eq. (1) per-user loop over the densified truncated
        # similarity — same ranking required.
        dense = sparse_model.similarity
        train = tiny_split.train
        reference = np.zeros_like(fast)
        for row, user in enumerate(users):
            history = train.user_items(int(user))
            if history.size:
                reference[row] = dense[:, history].mean(axis=1)
        assert np.allclose(fast, reference, atol=1e-12)
        assert np.array_equal(
            np.argsort(-fast, axis=1, kind="stable"),
            np.argsort(-reference, axis=1, kind="stable"),
        )

    def test_sparse_mode_kpis_match_densified_reference(
        self, tiny_split, tiny_merged
    ):
        sparse_model = ClosestItems(
            fields=("author", "genres"), top_n_neighbors=15
        ).fit(tiny_split.train, tiny_merged)
        dense_model = FixedScores(
            sparse_model.score_users(np.arange(tiny_split.train.n_users))
        ).fit(tiny_split.train)
        fast = evaluate_model(sparse_model, tiny_split, ks=(20,))
        reference = evaluate_by_argsort(dense_model, tiny_split, ks=(20,))
        assert fast.kpis == reference.kpis

    def test_dense_mode_unchanged_by_block_size(self, tiny_split, tiny_merged):
        whole = ClosestItems(fields=("author",)).fit(tiny_split.train, tiny_merged)
        blocked = ClosestItems(fields=("author",), block_size=37).fit(
            tiny_split.train, tiny_merged
        )
        assert np.allclose(whole.similarity, blocked.similarity)
        users = np.asarray(sorted(tiny_split.test_items), dtype=np.int64)[:10]
        assert np.array_equal(
            np.argsort(-whole.masked_scores(users), axis=1, kind="stable"),
            np.argsort(-blocked.masked_scores(users), axis=1, kind="stable"),
        )


class TestServingEquivalence:
    @pytest.fixture()
    def service(self, tiny_bpr, tiny_split, tiny_merged):
        return RecommendationService(tiny_bpr, tiny_split.train, tiny_merged)

    def test_cached_request_identical(self, service, tiny_merged):
        request = RecommendationRequest(user_id=tiny_merged.bct_user_ids[0], k=7)
        cold = service.recommend(request)
        warm = service.recommend(request)
        assert cold == warm
        assert service.stats.cache_hits == 1

    def test_recommend_many_matches_per_request(
        self, tiny_bpr, tiny_split, tiny_merged
    ):
        users = tiny_merged.bct_user_ids[:8]
        requests = [RecommendationRequest(user_id=u, k=9) for u in users]
        batch_service = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged, cache_size=0
        )
        single_service = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged, cache_size=0
        )
        batched = batch_service.recommend_many(requests)
        singles = [single_service.recommend(r) for r in requests]
        assert batched == singles


# ----------------------------------------------------------------------
# KPI properties (eval/metrics.py): bounds, invariances, rank-method
# agreement — the aggregate layer the fast paths feed into.
# ----------------------------------------------------------------------

per_user_arrays = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.integers(min_value=1, max_value=30), min_size=n, max_size=n
        ),
        st.lists(
            st.integers(min_value=1, max_value=500), min_size=n, max_size=n
        ),
        st.integers(min_value=1, max_value=50),
    )
)


class TestKpiProperties:
    @settings(deadline=None, max_examples=100)
    @given(arrays=per_user_arrays)
    def test_ratio_kpis_are_bounded_and_fr_at_least_one(self, arrays):
        test_sizes, first_ranks, k = arrays
        rng = np.random.default_rng(sum(test_sizes))
        # hits can never exceed min(|T_u|, k) for any user.
        hits = np.asarray(
            [int(rng.integers(0, min(size, k) + 1)) for size in test_sizes]
        )
        report = compute_kpis(
            hits, np.asarray(test_sizes), np.asarray(first_ranks), k
        )
        assert 0.0 <= report.urr <= 1.0
        assert 0.0 <= report.precision <= 1.0
        assert 0.0 <= report.recall <= 1.0
        assert report.nrr >= 0.0
        assert report.nrr <= min(max(test_sizes), k)
        assert report.first_rank >= 1.0

    @settings(deadline=None, max_examples=100)
    @given(arrays=per_user_arrays, seed=st.integers(0, 2**16))
    def test_kpis_are_invariant_under_user_permutation(self, arrays, seed):
        test_sizes, first_ranks, k = arrays
        rng = np.random.default_rng(seed)
        hits = np.asarray(
            [int(rng.integers(0, min(size, k) + 1)) for size in test_sizes]
        )
        test_sizes = np.asarray(test_sizes)
        first_ranks = np.asarray(first_ranks)
        order = rng.permutation(len(hits))
        original = compute_kpis(hits, test_sizes, first_ranks, k)
        permuted = compute_kpis(
            hits[order], test_sizes[order], first_ranks[order], k
        )
        # Mean-of-floats is permutation-invariant only up to summation
        # order, so compare to a tight relative tolerance.
        assert permuted.as_row() == pytest.approx(
            original.as_row(), rel=1e-12
        )

    @settings(deadline=None, max_examples=50)
    @given(n_users=st.integers(2, 10))
    def test_perfect_and_empty_recommendations_hit_the_bounds(self, n_users):
        k = 10
        test_sizes = np.full(n_users, k)
        perfect = compute_kpis(
            np.full(n_users, k), test_sizes, np.ones(n_users), k
        )
        assert perfect.urr == perfect.precision == perfect.recall == 1.0
        assert perfect.nrr == float(k)
        assert perfect.first_rank == 1.0
        empty = compute_kpis(
            np.zeros(n_users), test_sizes, np.full(n_users, 100), k
        )
        assert empty.urr == empty.precision == empty.recall == empty.nrr == 0.0

    def test_degenerate_inputs_raise(self):
        with pytest.raises(EvaluationError):
            compute_kpis(np.asarray([]), np.asarray([]), np.asarray([]), 5)
        with pytest.raises(EvaluationError):
            compute_kpis(
                np.asarray([1]), np.asarray([0]), np.asarray([1]), 5
            )
        with pytest.raises(EvaluationError):
            compute_kpis(
                np.asarray([1, 2]), np.asarray([3]), np.asarray([1]), 5
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rank_only_kpis_match_argsort_on_tied_matrices(self, seed):
        train = _train_matrix(seed)
        model = FixedScores(_tied_matrix(seed)).fit(train)
        split = _fake_split(train, seed)
        counted = evaluate_model(model, split, ks=(5, 20))
        argsorted = evaluate_by_argsort(model, split, ks=(5, 20))
        assert counted.kpis == argsorted.kpis
        assert np.array_equal(
            counted.per_user.first_ranks, argsorted.per_user.first_ranks
        )
