"""Tests for the aggregation functions in repro.tables.ops."""

import numpy as np

from repro.tables import ops


class TestScalarAggregations:
    def test_count(self):
        assert ops.count(np.asarray([5, 5, 5])) == 3
        assert ops.count(np.asarray([])) == 0
