"""Tests for signed feature hashing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.text.hashing import hash_feature, hashed_counts


class TestHashFeature:
    def test_deterministic(self):
        assert hash_feature("w=eco", 512) == hash_feature("w=eco", 512)

    def test_bucket_in_range(self):
        bucket, sign = hash_feature("anything", 64)
        assert 0 <= bucket < 64
        assert sign in (1.0, -1.0)

    def test_dim_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            hash_feature("x", 0)

    @settings(deadline=None, max_examples=100)
    @given(st.text(min_size=0, max_size=20), st.integers(min_value=1, max_value=4096))
    def test_property_bucket_bounds(self, feature, dim):
        bucket, sign = hash_feature(feature, dim)
        assert 0 <= bucket < dim
        assert abs(sign) == 1.0

    def test_signs_roughly_balanced(self):
        signs = [hash_feature(f"tok{i}", 512)[1] for i in range(2000)]
        positive = sum(1 for s in signs if s > 0)
        assert 800 < positive < 1200


class TestHashedVector:
    def test_accumulates_counts(self):
        counts = hashed_counts(["a", "a", "a"], 32)
        assert sum(abs(value) for value in counts.values()) == 3.0

    def test_empty_features(self):
        assert hashed_counts([], 8) == {}

    def test_sparse_matches_dense(self):
        features = ["x", "y", "x", "z"]
        dense = np.zeros(64)
        for feature in features:
            bucket, sign = hash_feature(feature, 64)
            dense[bucket] += sign
        rebuilt = np.zeros(64)
        for bucket, value in hashed_counts(features, 64).items():
            rebuilt[bucket] = value
        # Collisions may stack features in one bucket; both paths must agree.
        assert np.allclose(dense, rebuilt)
