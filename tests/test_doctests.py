"""Execute the runnable examples embedded in module docstrings."""

import doctest

import repro.tables


def test_tables_docstring_examples():
    results = doctest.testmod(repro.tables, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0

