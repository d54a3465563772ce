"""Unit tests for the corpus generator's chunking helper."""

import pytest

from repro.datasets.corpus import chunk_slices
from repro.errors import ConfigurationError


class TestChunkSlices:
    @pytest.mark.parametrize("n_items,n_chunks", [
        (0, 1), (1, 1), (5, 2), (10, 3), (3, 10), (100, 7),
    ])
    def test_covers_range_in_order(self, n_items, n_chunks):
        slices = chunk_slices(n_items, n_chunks)
        flat = [i for piece in slices for i in range(n_items)[piece]]
        assert flat == list(range(n_items))

    def test_sizes_differ_by_at_most_one(self):
        sizes = [
            piece.stop - piece.start for piece in chunk_slices(100, 7)
        ]
        assert max(sizes) - min(sizes) <= 1

    def test_caps_chunks_at_items(self):
        assert len(chunk_slices(3, 10)) == 3

    def test_empty(self):
        assert chunk_slices(0, 4) == []

    def test_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            chunk_slices(-1, 2)
        with pytest.raises(ConfigurationError):
            chunk_slices(5, 0)
