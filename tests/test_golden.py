"""Equivalence gate: the pinned matrix must reproduce tests/data/golden_rows.csv
byte for byte, and the pinned trace matrix the sha256 digests in
tests/data/golden_trace_sha256.txt, and the saturated matrix both its rows and
its digests, and the `ara` cells their kernel-call digests (see
tests/golden.py for the matrices and how to regenerate)."""

import golden


def test_golden_rows_byte_identical():
    """Names every moved row as its (old, new) pair, not only the first."""
    expected = golden.GOLDEN.read_bytes().decode().splitlines()
    actual = golden.golden_bytes().decode().splitlines()
    assert len(actual) == len(expected)
    moved = [f"old {want}\nnew {got}"
             for want, got in zip(expected, actual) if got != want]
    assert not moved, f"{len(moved)} rows moved:\n" + "\n".join(moved)


def test_trace_digests_match():
    expected = golden.TRACE_DIGESTS.read_text().splitlines()
    assert golden.trace_digest_lines() == expected


def test_saturated_rows_and_digests_match():
    rows, lines = golden.traced_runs(golden.saturated_cells())
    assert rows.splitlines() == golden.SATURATED_ROWS.read_bytes().splitlines()
    assert lines == golden.SATURATED_DIGESTS.read_text().splitlines()


def test_kernel_call_digests_match():
    """Every retry, wake and completion entry the `ara` cells schedule or
    cancel, in order: a duplicated or needlessly cancelled entry moves no
    row and no trace record, but it moves this digest."""
    assert golden.kernel_call_lines() == \
        golden.KERNEL_DIGESTS.read_text().splitlines()
