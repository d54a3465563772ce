"""Tests for cosine-similarity kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ConfigurationError
from repro.text.similarity import (
    cosine_similarity_matrix,
    truncated_similarity_matrix,
)


class TestCosineMatrix:
    def test_self_similarity_diagonal_one(self):
        matrix = np.asarray([[1.0, 0.0], [3.0, 4.0]])
        sim = cosine_similarity_matrix(matrix)
        assert np.allclose(np.diag(sim), 1.0)

    def test_orthogonal_rows(self):
        matrix = np.asarray([[1.0, 0.0], [0.0, 2.0]])
        sim = cosine_similarity_matrix(matrix)
        assert sim[0, 1] == pytest.approx(0.0)

    def test_scale_invariance(self):
        left = np.asarray([[1.0, 2.0]])
        right = np.asarray([[10.0, 20.0]])
        assert cosine_similarity_matrix(left, right)[0, 0] == pytest.approx(1.0)

    def test_zero_rows_give_zero(self):
        matrix = np.asarray([[0.0, 0.0], [1.0, 1.0]])
        sim = cosine_similarity_matrix(matrix)
        assert sim[0, 1] == 0.0
        assert not np.isnan(sim).any()

    def test_rectangular(self):
        left = np.ones((3, 4))
        right = np.ones((2, 4))
        assert cosine_similarity_matrix(left, right).shape == (3, 2)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            cosine_similarity_matrix(np.ones((2, 3)), np.ones((2, 4)))

    def test_one_dimensional_rejected(self):
        with pytest.raises(ConfigurationError):
            cosine_similarity_matrix(np.ones(3))

    @settings(deadline=None, max_examples=40)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 5)),
            elements=st.floats(-5, 5, allow_nan=False),
        )
    )
    def test_property_values_bounded(self, matrix):
        sim = cosine_similarity_matrix(matrix)
        assert (sim <= 1.0).all()
        assert (sim >= -1.0).all()
        assert np.allclose(sim, sim.T)


class TestBlockwiseCosine:
    @settings(deadline=None, max_examples=40)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 12), st.integers(1, 5)),
            elements=st.floats(-5, 5, allow_nan=False),
        ),
        st.integers(1, 15),
    )
    def test_property_blockwise_matches_whole(self, matrix, block_size):
        whole = cosine_similarity_matrix(matrix)
        blocked = cosine_similarity_matrix(matrix, block_size=block_size)
        assert np.allclose(whole, blocked)

    def test_float32_output(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(6, 4))
        sim = cosine_similarity_matrix(matrix, dtype=np.float32)
        assert sim.dtype == np.float32
        assert np.allclose(sim, cosine_similarity_matrix(matrix), atol=1e-6)

    def test_invalid_block_size(self):
        with pytest.raises(ConfigurationError, match="block_size"):
            cosine_similarity_matrix(np.ones((2, 2)), block_size=0)

    def test_invalid_dtype(self):
        with pytest.raises(ConfigurationError, match="dtype"):
            cosine_similarity_matrix(np.ones((2, 2)), dtype=np.int32)


class TestTruncatedSimilarity:
    def _embeddings(self, n=20, dim=6, seed=3):
        return np.random.default_rng(seed).normal(size=(n, dim))

    def test_keeps_top_n_per_row(self):
        embeddings = self._embeddings()
        top_n = 4
        truncated = truncated_similarity_matrix(embeddings, top_n)
        dense = cosine_similarity_matrix(embeddings)
        np.fill_diagonal(dense, 0.0)
        row_counts = np.diff(truncated.indptr)
        assert (row_counts <= top_n).all()
        for row in range(len(embeddings)):
            kept = truncated.getrow(row).toarray().ravel()
            expected_floor = np.sort(dense[row])[-top_n]
            # Every kept value is among the row's top-N dense values.
            assert (kept[kept != 0] >= expected_floor - 1e-12).all()
            assert np.allclose(kept[kept != 0], dense[row][kept != 0])

    def test_diagonal_removed_by_default(self):
        truncated = truncated_similarity_matrix(self._embeddings(), 5)
        assert truncated.diagonal().max() == pytest.approx(0.0)

    def test_diagonal_kept_when_requested(self):
        truncated = truncated_similarity_matrix(
            self._embeddings(), 5, zero_diagonal=False
        )
        assert truncated.diagonal().max() == pytest.approx(1.0)

    def test_blockwise_matches_whole(self):
        embeddings = self._embeddings(n=23)
        whole = truncated_similarity_matrix(embeddings, 6)
        blocked = truncated_similarity_matrix(embeddings, 6, block_size=5)
        assert np.allclose(whole.toarray(), blocked.toarray())

    def test_top_n_larger_than_catalogue(self):
        # Non-negative embeddings keep every off-diagonal similarity above
        # the zeroed diagonal, so nothing is truncated.
        embeddings = np.abs(self._embeddings(n=4))
        truncated = truncated_similarity_matrix(embeddings, 100)
        dense = cosine_similarity_matrix(embeddings)
        np.fill_diagonal(dense, 0.0)
        assert np.allclose(truncated.toarray(), dense)

    def test_invalid_top_n(self):
        with pytest.raises(ConfigurationError, match="top_n"):
            truncated_similarity_matrix(np.ones((2, 2)), 0)
