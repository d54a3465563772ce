"""Tests for the exception hierarchy."""

import pytest

from repro import ReproError
from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc_class",
        [
            errors.SchemaError,
            errors.TableIOError,
            errors.DatasetError,
            errors.PipelineError,
            errors.NotFittedError,
            errors.ConfigurationError,
            errors.EvaluationError,
            errors.PersistenceError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc_class):
        assert issubclass(exc_class, ReproError)

    def test_column_not_found_is_schema_error(self):
        assert issubclass(errors.ColumnNotFoundError, errors.SchemaError)

    def test_unknown_user_is_evaluation_error(self):
        assert issubclass(errors.UnknownUserError, errors.EvaluationError)


class TestMessages:
    def test_column_not_found_lists_available(self):
        error = errors.ColumnNotFoundError("x", ("a", "b"))
        assert "x" in str(error) and "a, b" in str(error)
        assert error.column == "x"

    def test_not_fitted_names_model(self):
        error = errors.NotFittedError("BPR")
        assert "BPR" in str(error) and "fit()" in str(error)

    def test_unknown_user_carries_id(self):
        error = errors.UnknownUserError("u42")
        assert error.user_id == "u42"

    def test_catch_all_boundary(self):
        """Applications can catch ReproError at their boundary."""
        try:
            raise errors.PipelineError("boom")
        except ReproError as caught:
            assert "boom" in str(caught)
