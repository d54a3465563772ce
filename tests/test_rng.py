"""Tests for the seeded RNG helpers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.rng import (
    DEFAULT_SEED,
    derive_rng,
    make_rng,
    task_seeds,
)


class TestMakeRng:
    def test_same_seed_same_stream(self):
        assert make_rng(5).integers(1000) == make_rng(5).integers(1000)

    def test_none_uses_default(self):
        assert (
            make_rng(None).integers(1000)
            == make_rng(DEFAULT_SEED).integers(1000)
        )

    def test_generator_passthrough(self):
        rng = np.random.default_rng(1)
        assert make_rng(rng) is rng


class TestDeriveRng:
    def test_deterministic(self):
        a = derive_rng(5, "bpr", "negatives").integers(10**6)
        b = derive_rng(5, "bpr", "negatives").integers(10**6)
        assert a == b

    def test_scopes_independent(self):
        a = derive_rng(5, "bpr").integers(10**6)
        b = derive_rng(5, "split").integers(10**6)
        assert a != b

    def test_seed_changes_stream(self):
        a = derive_rng(5, "x").integers(10**6)
        b = derive_rng(6, "x").integers(10**6)
        assert a != b


class TestTaskSeeds:
    def test_deterministic(self):
        assert task_seeds(7, "x", 5) == task_seeds(7, "x", 5)

    def test_scopes_independent(self):
        assert task_seeds(7, "a", 5) != task_seeds(7, "b", 5)

    def test_count_zero(self):
        assert task_seeds(7, "x", 0) == []

    def test_rejects_negative_count(self):
        with pytest.raises(ConfigurationError):
            task_seeds(7, "x", -1)

    def test_derivation_is_pinned(self):
        """The corpus chunks and grid tracers are seeded from these
        values: a changed derivation would silently regenerate every
        sharded corpus."""
        assert task_seeds(7, "corpus.loans", 4) == [
            309150924, 1133512300, 1218361763, 868884402,
        ]
        assert task_seeds(None, "grid.cells", 3) == [
            2023438086, 1170041197, 480446570,
        ]
