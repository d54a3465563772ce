"""Tests for cosine-similarity kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ConfigurationError
from repro.text.similarity import cosine_similarity_matrix


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
        matrix = np.asarray([[1.0, 2.0], [10.0, 20.0]])
        assert cosine_similarity_matrix(matrix)[0, 1] == pytest.approx(1.0)

    def test_zero_rows_give_zero(self):
        matrix = np.asarray([[0.0, 0.0], [1.0, 1.0]])
        sim = cosine_similarity_matrix(matrix)
        assert sim[0, 1] == 0.0
        assert not np.isnan(sim).any()

    def test_rectangular(self):
        # n embeddings of any width give an n x n matrix.
        assert cosine_similarity_matrix(np.ones((3, 4))).shape == (3, 3)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError, match="2-D"):
            cosine_similarity_matrix(np.ones((2, 3, 4)))

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
    """The one matrix product against a row-block oracle."""

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
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        normed = matrix / np.where(norms > 0, norms, 1.0)
        blocked = np.vstack([
            np.clip(normed[start:start + block_size] @ normed.T, -1.0, 1.0)
            for start in range(0, len(matrix), block_size)
        ])
        assert np.allclose(cosine_similarity_matrix(matrix), blocked)

    def test_float32_output(self):
        # float32 embeddings are widened: the matrix is float64 and equal
        # to the one for the same values given as float64.
        matrix = np.random.default_rng(0).normal(size=(6, 4)).astype(np.float32)
        sim = cosine_similarity_matrix(matrix)
        assert sim.dtype == np.float64
        assert np.array_equal(sim, cosine_similarity_matrix(matrix.astype(np.float64)))
