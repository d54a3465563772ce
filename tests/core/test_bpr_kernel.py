"""Tests for the BPR training kernel (``repro.core.bpr_kernel``).

Two oracles live here. ``_FrozenTrainer`` is a verbatim copy of the
historical float64 trainer (per-trial WARP loop, ``np.add.at``
updates, the original overflow-prone sigmoid); the float32 kernel must
reach its KPI level. ``_SortedKeySampler`` is the kernel's earlier
membership test — a binary search over the sorted
``user * n_items + item`` keys — and a fit that samples through it must
be bit-identical to one that samples through the seen bitset.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.bpr as bpr_module
import repro.core.bpr_kernel as kernel_module
from repro.core.bpr import BPR, BPRConfig
from repro.core.bpr_kernel import (
    RESAMPLE_ROUNDS,
    is_seen,
    predraw_candidates,
    sample_unseen,
    scatter_add,
    seen_bitset,
    stable_neg_sigmoid,
)
from repro.core.interactions import InteractionMatrix
from repro.rng import derive_rng, make_rng

from tests.core.test_bpr import block_world


def bitset_of(train):
    """The seen bitset a fit on ``train`` samples against."""
    return seen_bitset(train.interaction_keys(), train.n_users * train.n_items)


class _FrozenTrainer:
    """The pre-refactor BPR SGD loop, frozen verbatim for bit-identity.

    Copied from the historical ``BPR._fit``/``_train_batch``/
    ``_sample_unseen``/``_apply_updates`` (minus telemetry, which never
    touched the RNG or the arithmetic). Do not modernise this code —
    its whole value is staying bit-equal to the pre-PR trainer.
    """

    def __init__(self, config):
        self.config = config

    def fit(self, train):
        cfg = self.config
        rng = derive_rng(cfg.seed, "bpr", "sgd")
        n_users, n_items = train.n_users, train.n_items
        scale = 1.0 / np.sqrt(cfg.n_factors)
        V = rng.normal(0.0, scale, size=(n_users, cfg.n_factors))
        P = rng.normal(0.0, scale, size=(n_items, cfg.n_factors))
        pos_users, pos_items = train.positive_pairs()
        seen_keys = train.interaction_keys()
        for _ in range(cfg.epochs):
            order = rng.permutation(len(pos_users))
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                self._train_batch(
                    V, P, pos_users[batch], pos_items[batch],
                    seen_keys, n_items, rng,
                )
        return V, P

    def _train_batch(self, V, P, users, items, seen_keys, n_items, rng):
        cfg = self.config
        batch = len(users)
        Vu = V[users]
        pos_scores = np.einsum("ij,ij->i", Vu, P[items])

        if cfg.sampler == "uniform":
            negatives = self._sample_unseen(users, seen_keys, n_items, rng)
            neg_scores = np.einsum("ij,ij->i", Vu, P[negatives])
            x = pos_scores - neg_scores
            weight = 1.0 / (1.0 + np.exp(x))  # the historical naive sigmoid
            self._apply_updates(V, P, users, items, negatives, weight)
            return

        negatives = np.zeros(batch, dtype=np.int64)
        trials = np.zeros(batch, dtype=np.int64)
        unresolved = np.ones(batch, dtype=bool)
        for trial in range(1, cfg.max_trials + 1):
            active = np.flatnonzero(unresolved)
            if active.size == 0:
                break
            candidates = self._sample_unseen(
                users[active], seen_keys, n_items, rng
            )
            cand_scores = np.einsum("ij,ij->i", Vu[active], P[candidates])
            violating = cand_scores > pos_scores[active] - cfg.margin
            hit = active[violating]
            negatives[hit] = candidates[violating]
            trials[hit] = trial
            unresolved[hit] = False
        resolved = trials > 0
        if not resolved.any():
            return
        rank_estimate = np.maximum((n_items - 1) / trials[resolved], 1.0)
        weight = np.log1p(rank_estimate) / np.log1p(n_items - 1)
        self._apply_updates(
            V, P, users[resolved], items[resolved], negatives[resolved], weight
        )

    def _sample_unseen(self, users, seen_keys, n_items, rng):
        candidates = rng.integers(0, n_items, size=len(users), dtype=np.int64)
        for _ in range(4):
            keys = users * np.int64(n_items) + candidates
            positions = np.searchsorted(seen_keys, keys)
            positions = np.minimum(positions, len(seen_keys) - 1)
            seen = seen_keys[positions] == keys
            if not seen.any():
                break
            candidates[seen] = rng.integers(
                0, n_items, size=int(seen.sum()), dtype=np.int64
            )
        return candidates

    def _apply_updates(self, V, P, users, items, negatives, weight):
        cfg = self.config
        lr = cfg.learning_rate
        reg = cfg.regularization
        Vu = V[users]
        diff = P[items] - P[negatives]
        w = weight[:, None]
        np.add.at(V, users, lr * (w * diff - reg * Vu))
        np.add.at(P, items, lr * (w * Vu - reg * P[items]))
        np.add.at(P, negatives, lr * (-w * Vu - reg * P[negatives]))


class _SortedKeySampler:
    """The kernel's sorted-key samplers from before the seen bitset,
    frozen verbatim, and their membership step on its own: a
    ``np.searchsorted`` over the sorted interaction keys, clamped at the
    last key."""

    @staticmethod
    def sample_unseen(users, seen_keys, n_items, rng):
        candidates = rng.integers(0, n_items, size=len(users), dtype=np.int64)
        for _ in range(RESAMPLE_ROUNDS):
            keys = users * np.int64(n_items) + candidates
            positions = np.searchsorted(seen_keys, keys)
            positions = np.minimum(positions, len(seen_keys) - 1)
            seen = seen_keys[positions] == keys
            if not seen.any():
                break
            candidates[seen] = rng.integers(
                0, n_items, size=int(seen.sum()), dtype=np.int64
            )
        return candidates

    @staticmethod
    def predraw_candidates(users, seen_keys, n_items, max_trials, rng):
        shape = (len(users), max_trials)
        total = shape[0] * max_trials
        candidates = rng.integers(0, n_items, size=total, dtype=np.int64)
        base = np.repeat(users * np.int64(n_items), max_trials)
        clamp = max(len(seen_keys) - 1, 0)
        keys = base + candidates
        positions = np.minimum(np.searchsorted(seen_keys, keys), clamp)
        colliding = np.flatnonzero(seen_keys[positions] == keys)
        for _ in range(RESAMPLE_ROUNDS):
            if colliding.size == 0:
                break
            candidates[colliding] = rng.integers(
                0, n_items, size=colliding.size, dtype=np.int64
            )
            keys = base[colliding] + candidates[colliding]
            positions = np.minimum(np.searchsorted(seen_keys, keys), clamp)
            colliding = colliding[seen_keys[positions] == keys]
        valid = np.ones(total, dtype=bool)
        valid[colliding] = False
        return candidates.reshape(shape), valid.reshape(shape)

    @staticmethod
    def is_seen(seen_keys, keys):
        positions = np.minimum(
            np.searchsorted(seen_keys, keys), max(len(seen_keys) - 1, 0)
        )
        return seen_keys[positions] == keys


def _block_preference(model, train):
    """Mean score gap of a block-0 user's unseen own-block items over the
    other block's — positive once the model has learned the structure."""
    scores = model.score_users(np.asarray([0]))[0]
    own = np.arange(0, train.n_items // 2)
    other = np.arange(train.n_items // 2, train.n_items)
    seen = set(train.user_items(0).tolist())
    own_unseen = [i for i in own if i not in seen]
    return scores[own_unseen].mean() - scores[other].mean()


def _own_block_hit_rate(V, P, train, k=5):
    """Share of each user's top-``k`` unseen items that lie in the user's
    own taste block of ``block_world`` — a recall-style KPI."""
    scores = V @ P.T
    half = train.n_items // 2
    hits = 0
    for user in range(train.n_users):
        row = scores[user].astype(np.float64)
        row[train.user_items(user)] = -np.inf
        top = np.argsort(-row, kind="stable")[:k]
        own = (top < half) if user % 2 == 0 else (top >= half)
        hits += int(own.sum())
    return hits / (k * train.n_users)


class TestSortedKeyBitIdentity:
    """The seen bitset answers exactly what the sorted-key binary search
    answered, so training through it stays bit-identical."""

    @pytest.fixture
    def sorted_key_sampling(self, monkeypatch):
        monkeypatch.setattr(
            bpr_module, "seen_bitset", lambda keys, n_keys: keys
        )
        monkeypatch.setattr(
            kernel_module, "sample_unseen", _SortedKeySampler.sample_unseen
        )
        monkeypatch.setattr(
            kernel_module,
            "predraw_candidates",
            _SortedKeySampler.predraw_candidates,
        )

    @pytest.mark.parametrize(
        "overrides,warm",
        [
            ({"sampler": "warp"}, False),
            ({"sampler": "warp", "max_trials": 3, "batch_size": 7}, False),
            ({"sampler": "uniform"}, False),
            ({"sampler": "warp"}, True),
        ],
        ids=["warp", "warp-short-trials", "uniform", "warp-warm-start"],
    )
    def test_fit_bit_identical_to_sorted_key_sampling(
        self, request, overrides, warm
    ):
        train = block_world()
        previous = BPR(BPRConfig(epochs=2, seed=3)).fit(train) if warm else None
        config = BPRConfig(epochs=4, seed=11, **overrides)
        bitset_fit = BPR(config).fit(train, warm_start=previous)
        request.getfixturevalue("sorted_key_sampling")
        sorted_key_fit = BPR(config).fit(train, warm_start=previous)
        assert np.array_equal(bitset_fit.user_factors, sorted_key_fit.user_factors)
        assert np.array_equal(bitset_fit.item_factors, sorted_key_fit.item_factors)


class TestSeenBitset:
    @staticmethod
    def _assert_same_membership(train):
        keys = train.interaction_keys()
        n_keys = train.n_users * train.n_items
        every_key = np.arange(n_keys, dtype=np.int64)
        bitset = bitset_of(train)
        assert bitset.nbytes == (n_keys + 7) // 8
        assert np.array_equal(
            is_seen(bitset, every_key),
            _SortedKeySampler.is_seen(keys, every_key),
        )

    def test_last_key_of_the_last_user(self):
        """The key the sorted-key search had to clamp: the last user's
        last item, the final bit of the bitset, both set and unset."""
        read = InteractionMatrix.from_pairs([("u0", 0), ("u0", 1), ("u1", 2)])
        unread = InteractionMatrix.from_pairs([("u0", 2), ("u1", 0), ("u1", 1)])
        last_key = np.asarray([2 * 3 - 1])
        assert is_seen(bitset_of(read), last_key)[0]
        assert not is_seen(bitset_of(unread), last_key)[0]
        self._assert_same_membership(read)
        self._assert_same_membership(unread)

    @settings(deadline=None, max_examples=80)
    @given(
        n_users=st.integers(1, 9),
        n_items=st.integers(1, 19),
        data=st.data(),
    )
    def test_matches_sorted_keys_on_every_key(self, n_users, n_items, data):
        pairs = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, n_users - 1), st.integers(0, n_items - 1)
                ),
                min_size=1,
            )
        )
        # Half the time the highest user id reads the highest item id,
        # which sets the bitset's final bit.
        pairs += [(n_users - 1, n_items - 1)] if data.draw(st.booleans()) else []
        train = InteractionMatrix.from_pairs(
            [(f"u{user}", item) for user, item in pairs]
        )
        self._assert_same_membership(train)


class TestStableSigmoid:
    def test_no_overflow_for_large_inputs(self):
        # The naive 1 / (1 + exp(x)) overflows (an error under the
        # suite's filterwarnings) beyond x ~ 709.
        x = np.array([-1e4, -710.0, 0.0, 710.0, 1e4])
        out = stable_neg_sigmoid(x)
        assert np.all(np.isfinite(out))
        assert out[0] == 1.0 and out[-1] == 0.0

    def test_bit_identical_to_naive_for_non_positive_x(self):
        x = -np.linspace(0.0, 500.0, 1001)
        assert np.array_equal(stable_neg_sigmoid(x), 1.0 / (1.0 + np.exp(x)))

    def test_close_to_naive_for_positive_x(self):
        x = np.linspace(1e-6, 500.0, 1001)
        np.testing.assert_allclose(
            stable_neg_sigmoid(x), 1.0 / (1.0 + np.exp(x)), rtol=1e-15
        )

    def test_preserves_float32(self):
        out = stable_neg_sigmoid(np.array([-2.0, 3.0], dtype=np.float32))
        assert out.dtype == np.float32


class TestScatterAdd:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_accumulates_duplicates_like_add_at(self, dtype):
        rng = make_rng(0)
        target = rng.normal(size=(50, 8))
        indices = rng.integers(0, 50, size=400)
        updates = rng.normal(size=(400, 8))
        expected = target.copy()
        np.add.at(expected, indices, updates)
        actual = target.astype(dtype)
        scatter_add(actual, indices, updates.astype(dtype))
        # float32 input rounds each update once; the accumulation itself
        # runs in float64 inside np.bincount.
        np.testing.assert_allclose(actual, expected, rtol=1e-4, atol=1e-5)

    def test_rows_without_updates_untouched(self):
        target = np.ones((10, 3))
        scatter_add(target, np.array([2, 2]), np.full((2, 3), 0.5))
        assert np.array_equal(target[2], [2.0, 2.0, 2.0])
        untouched = np.delete(target, 2, axis=0)
        assert np.array_equal(untouched, np.ones((9, 3)))


class TestSampleUnseen:
    def test_searchsorted_past_the_end_is_clamped(self):
        """Candidate keys beyond every interaction key — the case the
        sorted-key search had to clamp at ``len(seen_keys)`` — are plain
        lookups in the bitset's last bytes, and unseen ones are kept."""
        # User 9 reads only item 2, so its other keys exceed every seen key.
        train = InteractionMatrix.from_pairs(
            [("u0", 0), ("u0", 1)] + [(f"u{u}", 2) for u in range(1, 10)]
        )
        users = np.full(64, train.n_users - 1, dtype=np.int64)
        rng = make_rng(7)
        candidates = sample_unseen(users, bitset_of(train), train.n_items, rng)
        # Bit-reproduce the draw: nothing that user reads beyond item 2,
        # so the first draw must be kept verbatim wherever it is unseen.
        expected = make_rng(7).integers(
            0, train.n_items, size=64, dtype=np.int64
        )
        seen = set(train.user_items(train.n_users - 1).tolist())
        kept = np.array([item not in seen for item in expected])
        assert np.array_equal(candidates[kept], expected[kept])

    def test_all_but_one_item_read_never_raises_and_can_find_it(self):
        """A user who has read everything except one item exercises the
        collision path hard; the sampler must terminate after its redraw
        rounds and at least sometimes land on the single unseen item."""
        n_items = 12
        unseen_item = 7
        pairs = [("u0", i) for i in range(n_items) if i != unseen_item]
        pairs += [("u1", unseen_item)]  # so the item exists in the matrix
        train = InteractionMatrix.from_pairs(pairs)
        users = np.zeros(256, dtype=np.int64)
        candidates = sample_unseen(
            users, bitset_of(train), train.n_items, make_rng(3)
        )
        assert np.all((candidates >= 0) & (candidates < train.n_items))
        assert (candidates == unseen_item).any()

    def test_collision_survivors_keep_their_last_draw(self):
        """After the redraw rounds a still-colliding candidate is kept:
        the pinned no-op semantics (positive vs itself trains down to
        the regularisation pull) rather than a loop or an error."""
        # One user, two items, both read: every draw collides forever.
        train = InteractionMatrix.from_pairs([("u0", 0), ("u0", 1)])
        users = np.zeros(32, dtype=np.int64)
        rng = make_rng(1)
        candidates = sample_unseen(users, bitset_of(train), train.n_items, rng)
        # Reproduce the RNG stream: initial draw + RESAMPLE_ROUNDS full
        # redraws (every candidate collides every round).
        mirror = make_rng(1)
        expected = mirror.integers(0, 2, size=32, dtype=np.int64)
        for _ in range(RESAMPLE_ROUNDS):
            expected = mirror.integers(0, 2, size=32, dtype=np.int64)
        assert np.array_equal(candidates, expected)


class TestPredrawCandidates:
    def test_valid_entries_are_unseen(self):
        train = block_world()
        users = np.arange(train.n_users, dtype=np.int64)
        candidates, valid = predraw_candidates(
            users, bitset_of(train), train.n_items, 16, make_rng(5)
        )
        assert candidates.shape == (train.n_users, 16)
        assert valid.shape == candidates.shape
        for row, user in enumerate(users):
            seen = set(train.user_items(int(user)).tolist())
            for col in range(16):
                if valid[row, col]:
                    assert int(candidates[row, col]) not in seen
                else:
                    assert int(candidates[row, col]) in seen

    def test_deterministic_given_rng(self):
        train = block_world()
        seen = bitset_of(train)
        users = np.arange(train.n_users, dtype=np.int64)
        first = predraw_candidates(users, seen, train.n_items, 8, make_rng(9))
        second = predraw_candidates(users, seen, train.n_items, 8, make_rng(9))
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])


class TestFastKernel:
    @pytest.mark.parametrize("sampler", ["warp", "uniform"])
    def test_learns_block_structure(self, sampler):
        train = block_world()
        model = BPR(BPRConfig(epochs=15, seed=0, sampler=sampler)).fit(train)
        assert model.user_factors.dtype == np.float32
        assert _block_preference(model, train) > 0

    def test_deterministic_given_seed(self):
        train = block_world()
        first = BPR(BPRConfig(epochs=3, seed=5)).fit(train)
        second = BPR(BPRConfig(epochs=3, seed=5)).fit(train)
        assert np.array_equal(first.user_factors, second.user_factors)

    def test_converges_to_reference_kpi_level(self):
        """The converged-KPI contract: from the same config, the float32
        kernel reaches the KPI level of the historical float64 trainer
        (``_FrozenTrainer``), within 0.05 of its own-block hit rate, for
        both samplers. By chance a top-5 list would hold 7/22 ≈ 0.32
        own-block items."""
        train = block_world()
        for sampler in ("warp", "uniform"):
            config = BPRConfig(epochs=15, seed=0, sampler=sampler)
            frozen_V, frozen_P = _FrozenTrainer(config).fit(train)
            fast = BPR(config).fit(train)
            frozen_rate = _own_block_hit_rate(frozen_V, frozen_P, train)
            fast_rate = _own_block_hit_rate(
                fast.user_factors, fast.item_factors, train
            )
            assert frozen_rate >= 0.75, sampler
            assert fast_rate >= frozen_rate - 0.05, sampler


class TestConfigTiers:
    def test_unknown_kernel_rejected(self):
        """``kernel`` is no longer a config field, so every tier name —
        the retired ones included — fails loudly; only ``load_bpr``
        drops the key from configs stored by older builds."""
        for name in ("turbo", "fast", "reference"):
            with pytest.raises(TypeError, match="kernel"):
                BPRConfig(kernel=name)
