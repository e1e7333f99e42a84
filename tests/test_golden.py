"""Equivalence gate: the pinned matrix must reproduce tests/data/golden_rows.csv
byte for byte (see tests/golden.py for the matrix and how to regenerate)."""

import golden


def test_golden_rows_byte_identical():
    expected = golden.GOLDEN.read_bytes().splitlines()
    actual = golden.golden_bytes().splitlines()
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        assert got == want
