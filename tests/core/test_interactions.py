"""Tests for Indexer and InteractionMatrix."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.interactions import Indexer, InteractionMatrix
from repro.errors import DatasetError, UnknownUserError
from tests.factories import matrix_from_ids, matrix_from_pairs

#: Column forms a split hands to ``Indexer.indices_of``.
OBJECT_ARRAY = partial(np.asarray, dtype=object)
INT64_ARRAY = partial(np.asarray, dtype=np.int64)


class TestIndexer:
    def test_sorted_assignment(self):
        indexer = Indexer(["b", "a", "c", "a"])
        assert indexer.ids == ("a", "b", "c")
        assert indexer.index_of("b") == 1
        assert indexer.id_of(0) == "a"

    def test_contains(self):
        indexer = Indexer([1, 2])
        assert 1 in indexer and 9 not in indexer

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            Indexer(["a"]).index_of("zzz")

    def test_equality(self):
        assert Indexer([2, 1]) == Indexer([1, 2, 2])

    def test_indices_of(self):
        indexer = Indexer(["a", "b", "c"])
        assert indexer.indices_of(["c", "a"]).tolist() == [2, 0]

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.integers(0, 50), min_size=1))
    def test_property_bijection(self, values):
        indexer = Indexer(values)
        for i in range(len(indexer)):
            assert indexer.index_of(indexer.id_of(i)) == i

    def test_indices_of_empty(self):
        result = Indexer(["a"]).indices_of([])
        assert result.dtype == np.int64 and len(result) == 0

    def test_indices_of_unknown_raises(self):
        indexer = Indexer([10, 20, 30])
        # Between two known ids, and beyond the last one.
        with pytest.raises(KeyError):
            indexer.indices_of([10, 15])
        with pytest.raises(KeyError):
            indexer.indices_of([99])

    def test_indices_of_unsortable_ids_fall_back(self):
        # Tuple ids would become a 2-D numpy array; the dict lookup
        # resolves them as they are.
        indexer = Indexer([("a", 1), ("b", 2)])
        assert indexer.indices_of([("b", 2), ("a", 1)]).tolist() == [1, 0]
        with pytest.raises(KeyError):
            indexer.indices_of([("c", 3)])

    @settings(deadline=None, max_examples=50)
    @given(
        st.one_of(
            st.tuples(
                st.lists(st.text(max_size=6), min_size=1, max_size=40),
                st.sampled_from((list, OBJECT_ARRAY)),
            ),
            st.tuples(
                st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=40),
                st.sampled_from((list, OBJECT_ARRAY, INT64_ARRAY)),
            ),
        )
    )
    def test_property_indices_of_matches_index_of(self, case):
        values, form = case
        indexer = Indexer(values)
        queries = list(indexer.ids) + list(reversed(indexer.ids))
        expected = [indexer.index_of(value) for value in queries]
        assert indexer.indices_of(form(queries)).tolist() == expected


class TestInteractionMatrix:
    def test_from_pairs_counts_repeats(self):
        matrix = matrix_from_pairs(
            [("u1", 1), ("u1", 1), ("u1", 2), ("u2", 1)]
        )
        assert matrix.n_users == 2 and matrix.n_items == 2
        assert matrix.n_interactions == 3  # distinct pairs
        counts = matrix.item_counts()
        assert counts[matrix.items.index_of(1)] == 3.0  # with multiplicity

    def test_user_items_sorted_indices(self):
        matrix = matrix_from_pairs([("u", 5), ("u", 2), ("u", 9)])
        items = matrix.user_items(0)
        assert sorted(items.tolist()) == items.tolist()
        assert len(items) == 3

    def test_user_items_out_of_range(self):
        matrix = matrix_from_pairs([("u", 1)])
        with pytest.raises(UnknownUserError):
            matrix.user_items(5)

    def test_history_sizes(self):
        matrix = matrix_from_pairs(
            [("a", 1), ("a", 2), ("b", 1), ("a", 1)]
        )
        sizes = matrix.user_history_sizes()
        assert sizes[matrix.users.index_of("a")] == 2
        assert sizes[matrix.users.index_of("b")] == 1

    def test_binary_view(self):
        # The paper's binary I is the CSR's nonzero pattern; the data keep
        # the multiplicity Most Read counts.
        matrix = matrix_from_pairs([("u", 1), ("u", 1)])
        assert matrix.csr.data.tolist() == [2.0]
        users, items = matrix.positive_pairs()
        assert (users.tolist(), items.tolist()) == ([0], [0])

    def test_positive_pairs_distinct(self):
        matrix = matrix_from_pairs(
            [("u", 1), ("u", 1), ("v", 2)]
        )
        rows, cols = matrix.positive_pairs()
        assert len(rows) == 2

    def test_interaction_keys_sorted_and_complete(self):
        matrix = matrix_from_pairs(
            [("u", 3), ("u", 1), ("v", 2)]
        )
        keys = matrix.interaction_keys()
        assert sorted(keys.tolist()) == keys.tolist()
        assert len(keys) == 3

    def test_shared_indexers_align(self, tiny_merged):
        users = Indexer(tiny_merged.user_ids)
        items = Indexer(int(b) for b in tiny_merged.books["book_id"])
        readings = tiny_merged.readings
        matrix = matrix_from_ids(
            readings["user_id"].tolist(), readings["book_id"].tolist(),
            users=users, items=items,
        )
        assert matrix.n_users == len(users)
        assert matrix.n_items == len(items)

    def test_shape_mismatch_rejected(self):
        from scipy import sparse

        with pytest.raises(DatasetError):
            InteractionMatrix(
                Indexer(["u"]), Indexer([1, 2]), sparse.csr_matrix((5, 5))
            )

