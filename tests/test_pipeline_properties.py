"""Property-based integration tests: random worlds through the pipeline.

Hypothesis draws small world configurations; for every draw the full
generate → clean → merge → split chain must succeed and its invariants must
hold. These catch structural assumptions (e.g. "every genre has books",
"every user survives filtering") that fixed fixtures never vary.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import BPR, BPRConfig
from repro.datasets import WorldConfig, generate_sources
from repro.eval import split_readings
from repro.pipeline import MergeConfig, build_merged_dataset
from tests.factories import matrix_from_pairs

settings.register_profile("worlds", deadline=None, max_examples=6)

world_configs = st.builds(
    WorldConfig,
    n_books=st.integers(min_value=80, max_value=160),
    n_authors=st.integers(min_value=30, max_value=60),
    n_bct_users=st.integers(min_value=20, max_value=40),
    n_anobii_users=st.integers(min_value=60, max_value=120),
    seed=st.integers(min_value=0, max_value=2**20),
    author_loyalty=st.floats(min_value=0.1, max_value=0.7),
    n_communities=st.integers(min_value=2, max_value=6),
    popularity_exponent=st.floats(min_value=0.5, max_value=1.2),
)


@settings(deadline=None, max_examples=6)
@given(world_configs)
def test_pipeline_invariants_hold_for_any_world(config):
    sources = generate_sources(config)
    sources.bct.validate()
    sources.anobii.validate()
    merged, report = build_merged_dataset(
        sources.bct, sources.anobii,
        MergeConfig(min_user_readings=5, min_book_readings=2),
    )
    merged.validate()  # genre probabilities sum to 1, no dangling keys
    assert report.users_after_filter == merged.n_users
    if merged.n_readings == 0:
        return  # a legitimately empty merge: nothing else to check
    split = split_readings(merged)
    # Holdouts never intersect the training history.
    for user_index, held in split.test_items.items():
        train_items = set(split.train.user_items(user_index).tolist())
        assert not train_items & set(held.tolist())
    # All BCT survivors get a test set, Anobii users never do.
    for user_index in split.test_items:
        assert str(split.users.id_of(user_index)).startswith("bct_")


@settings(deadline=None, max_examples=6)
@given(
    st.integers(min_value=5, max_value=30),   # users
    st.integers(min_value=4, max_value=25),   # items
    st.integers(min_value=0, max_value=2**20),
)
def test_bpr_training_is_always_finite(n_users, n_items, seed):
    """SGD on arbitrary random interaction matrices never diverges."""
    rng = np.random.default_rng(seed)
    pairs = [
        (f"u{rng.integers(n_users)}", int(rng.integers(n_items)))
        for _ in range(n_users * 3)
    ]
    train = matrix_from_pairs(pairs)
    if train.n_items < 2:
        return
    model = BPR(BPRConfig(epochs=3, n_factors=4, seed=0)).fit(train)
    assert np.isfinite(model.user_factors).all()
    assert np.isfinite(model.item_factors).all()
    scores = model.score_users(np.arange(train.n_users))
    assert np.isfinite(scores).all()
