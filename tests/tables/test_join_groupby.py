"""Tests for Table.group_by."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.tables import Table, ops


@pytest.fixture
def loans():
    return Table.from_columns(
        {
            "user": ["u1", "u1", "u2", "u3"],
            "book": [1, 2, 1, 9],
            "days": [7, 14, 3, 30],
        }
    )


class TestGroupBy:
    def test_sizes(self, loans):
        sizes = loans.group_by("user").aggregate({"n": ("book", ops.count)})
        assert dict(zip(sizes["user"], sizes["n"].tolist())) == {
            "u1": 2, "u2": 1, "u3": 1,
        }

    def test_len(self, loans):
        assert len(loans.group_by("user")) == 3

    def test_iteration_yields_subtables(self, loans):
        for key, sub in loans.group_by("user"):
            assert all(u == key[0] for u in sub["user"])

    def test_aggregate_count_and_sum(self, loans):
        agg = loans.group_by("user").aggregate(
            {"n": ("book", ops.count), "total_days": ("days", lambda v: v.sum().item())}
        )
        by_user = {row["user"]: row for row in agg.iter_rows()}
        assert by_user["u1"]["n"] == 2
        assert by_user["u1"]["total_days"] == 21

    def test_aggregate_mean_median(self, loans):
        agg = loans.group_by("user").aggregate(
            {"mean_days": ("days", np.mean), "median_days": ("days", np.median)}
        )
        row = agg.filter(agg["user"] == "u1").row(0)
        assert row["mean_days"] == pytest.approx(10.5)
        assert row["median_days"] == pytest.approx(10.5)

    def test_aggregate_output_collision_rejected(self, loans):
        with pytest.raises(SchemaError, match="collides"):
            loans.group_by("user").aggregate({"user": ("days", ops.count)})

    def test_group_by_requires_columns(self, loans):
        with pytest.raises(SchemaError):
            loans.group_by([])

    def test_group_by_unknown_column(self, loans):
        from repro.errors import ColumnNotFoundError

        with pytest.raises(ColumnNotFoundError):
            loans.group_by("nope")

    def test_multi_key_grouping(self, loans):
        grouped = loans.group_by(["user", "book"])
        assert len(grouped) == 4
