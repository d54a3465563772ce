"""Tests for repro.tables.schema."""

from datetime import date

import numpy as np
import pytest

from repro.errors import ColumnNotFoundError, SchemaError
from repro.tables.schema import Column, Schema, infer_schema


class TestColumn:
    def test_valid_dtypes(self):
        for dtype in ("int", "float", "str", "bool", "date"):
            assert Column("x", dtype).dtype == dtype

    def test_unknown_dtype_rejected(self):
        with pytest.raises(SchemaError, match="unknown dtype"):
            Column("x", "varchar")

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError, match="non-empty"):
            Column("", "int")

    def test_numpy_dtype_mapping(self):
        assert Column("x", "int").numpy_dtype == np.dtype(np.int64)
        assert Column("x", "date").numpy_dtype == np.dtype("datetime64[D]")


class TestSchema:
    def test_accepts_tuples(self):
        schema = Schema([("a", "int"), ("b", "str")])
        assert schema.names == ("a", "b")

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema([("a", "int"), ("a", "str")])

    def test_contains_and_getitem(self):
        schema = Schema([("a", "int")])
        assert "a" in schema
        assert "b" not in schema
        assert schema["a"].dtype == "int"

    def test_missing_column_error_lists_available(self):
        schema = Schema([("a", "int"), ("b", "str")])
        with pytest.raises(ColumnNotFoundError) as excinfo:
            schema["zzz"]
        assert "a" in str(excinfo.value)

    def test_equality_and_hash(self):
        left = Schema([("a", "int")])
        right = Schema([Column("a", "int")])
        assert left == right
        assert hash(left) == hash(right)
        assert left != Schema([("a", "float")])

    def test_iteration(self):
        schema = Schema([("a", "int"), ("b", "str")])
        assert [c.name for c in schema] == ["a", "b"]


class TestCoercion:
    def test_int_coercion(self):
        schema = Schema([("a", "int")])
        array = schema.coerce_column("a", [1, 2, 3])
        assert array.dtype == np.int64

    def test_int_rejects_strings(self):
        schema = Schema([("a", "int")])
        with pytest.raises(SchemaError, match="cannot coerce"):
            schema.coerce_column("a", ["x"])

    def test_str_rejects_numbers(self):
        schema = Schema([("a", "str")])
        # Bytes and tuples are rejected too; a tuple stays one element
        # rather than becoming a second axis.
        for value in (1, b"x", ("x", "y")):
            with pytest.raises(SchemaError, match=type(value).__name__):
                schema.coerce_column("a", ["ok", value])

    def test_str_keeps_the_given_objects(self):
        schema = Schema([("a", "str")])
        values = ["".join(("u", str(i))) for i in range(3)] + [None]
        for given in (values, np.asarray(values, dtype=object)):
            array = schema.coerce_column("a", given)
            assert all(kept is value for kept, value in zip(array, values))

    def test_str_allows_none(self):
        schema = Schema([("a", "str")])
        array = schema.coerce_column("a", ["x", None])
        assert array[1] is None

    def test_date_from_python_dates(self):
        schema = Schema([("d", "date")])
        array = schema.coerce_column("d", [date(2020, 1, 2)])
        assert array[0] == np.datetime64("2020-01-02")

    def test_date_from_iso_strings(self):
        schema = Schema([("d", "date")])
        array = schema.coerce_column("d", ["2019-12-31"])
        assert array.dtype == np.dtype("datetime64[D]")

    def test_date_rejects_int(self):
        schema = Schema([("d", "date")])
        with pytest.raises(SchemaError):
            schema.coerce_column("d", [7])


class TestInference:
    def test_infer_int(self):
        assert infer_schema({"a": [1, 2]})["a"].dtype == "int"

    def test_infer_bool_before_int(self):
        assert infer_schema({"a": [True, False]})["a"].dtype == "bool"

    def test_infer_float(self):
        assert infer_schema({"a": [1.5]})["a"].dtype == "float"

    def test_infer_str(self):
        assert infer_schema({"a": ["x"]})["a"].dtype == "str"

    def test_infer_date(self):
        assert infer_schema({"a": [date(2020, 1, 1)]})["a"].dtype == "date"

    def test_infer_empty_defaults_to_str(self):
        assert infer_schema({"a": []})["a"].dtype == "str"

    def test_infer_skips_leading_none(self):
        assert infer_schema({"a": [None, 3]})["a"].dtype == "int"

    def test_infer_from_numpy_arrays(self):
        assert infer_schema({"a": np.asarray([1, 2])})["a"].dtype == "int"
        assert (
            infer_schema({"a": np.asarray(["2020-01-01"], dtype="datetime64[D]")})[
                "a"
            ].dtype
            == "date"
        )
