"""Differential tests of `LabeledDataset.from_csv`, which parses rows with
numpy's C reader and hands the files that numpy (or its own line check)
rejects to a `csv.reader` loop, against that loop alone
(`oracles.reference_from_csv`). On every file, valid or mutated, both give
the same data bits and labels, or raise the same exception type with the
same message, except that where the loop meets bytes it cannot read (not
text, or a field over csv's size limit) `from_csv` raises a ConfigError
that names the file and gives the loop's message.

Needs hypothesis (the `test` extra); the module is skipped without it.
"""

import csv

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from structdr import ConfigError, LabeledDataset
from structdr.mixture import write_labeled_csv

from oracles import reference_from_csv

EDGE_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
DOUBLES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_VALUES)
# What a mutation puts into a field: number syntax, the csv delimiter and
# quote, words float() reads, a non-ASCII digit that float() and int()
# read but numpy does not, whitespace that float(), int() and numpy strip
# (\x0c, \xa0) or that numpy alone strips (\x1c), a lone \r (a line end
# to both readers), NUL, and a character on which numpy's integer parser
# crashes.
TOKENS = [*"0123456789+-.eE_,\"", "nan", "inf", "٣", "\x0c", "\x1c", "\xa0", "\r", "\x00",
          "\U00090000"]
# Whitespace that numpy strips from a field's ends: all of it but \x1c-\x1f
# float() and int() strip too.
PADDING = [" ", "\t", "\x0c", "\x1c", "\x1f", "\xa0", "\u2028"]
# Labels int() reads or rejects, and the two ends of int64.
LABELS = ["", "1.5", "1e0", "+1", " 2 ", "02", "-0", str(2**63 - 1), str(2**63)]


@st.composite
def tables(draw):
    """(values, labels): an n x d array of doubles and labels covering 1..k."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, 10))
    values = np.array(draw(st.lists(DOUBLES, min_size=n * d, max_size=n * d))).reshape(n, d)
    extra = draw(st.lists(st.integers(1, k), min_size=n - k, max_size=n - k))
    labels = np.array(draw(st.permutations(list(range(1, k + 1)) + extra)))
    return values, labels


def written_lines(path, values, labels):
    """The lines, without their ends, that `write_labeled_csv` writes."""
    write_labeled_csv(path, [f"x{j + 1}" for j in range(values.shape[1])], values, labels)
    return path.read_bytes().decode().split("\r\n")[:-1]


def join(draw, lines):
    """The lines joined with LF or CRLF ends, blank lines inserted, and
    the final line end kept or dropped."""
    end = draw(st.sampled_from(["\r\n", "\n"]))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    text = end.join(lines)
    return text + end if draw(st.booleans()) else text


def outcome(read, path):
    """What a reader gives for path: the dataset's arrays as bytes, shapes
    and dtypes, or the exception's type and message."""
    try:
        data = read(path)
    except Exception as exc:  # noqa: BLE001  any exception is compared
        return type(exc), str(exc)
    return (data.data.dtype, data.data.strides, data.data.shape, data.data.tobytes(),
            data.labels.dtype, data.labels.tobytes())


def assert_same_outcome(path):
    want = outcome(reference_from_csv, path)
    if want[0] in (UnicodeDecodeError, csv.Error):
        want = ConfigError, f"{path}: {want[1]}"
    assert outcome(LabeledDataset.from_csv, path) == want


@settings(max_examples=150, deadline=None)
@given(table=tables(), data=st.data())
def test_valid_files_read_to_the_bits_written(tmp_path_factory, table, data):
    values, labels = table
    path = tmp_path_factory.getbasetemp() / "valid.csv"
    text = join(data.draw, written_lines(path, values, labels))
    path.write_bytes(text.encode())
    read = LabeledDataset.from_csv(path)
    assert read.data.tobytes() == values.tobytes()
    assert read.labels.tolist() == labels.tolist()
    assert_same_outcome(path)


@st.composite
def mutated_rows(draw, rows):
    """The data rows, each a list of fields, after 1 to 4 mutations, or
    none at all (a header-only file)."""
    if draw(st.integers(0, 19)) == 0:
        return []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["insert", "pad", "replace", "extra", "missing", "label",
                                     "line"]))
        row = draw(st.sampled_from(rows))
        field = draw(st.integers(0, len(row) - 1))
        token = "".join(draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=3)))
        if kind == "insert":
            at = draw(st.integers(0, len(row[field])))
            row[field] = row[field][:at] + token + row[field][at:]
        elif kind == "pad":
            pad = draw(st.sampled_from(PADDING))
            row[field] = draw(st.sampled_from([pad + row[field], row[field] + pad]))
        elif kind == "replace":
            row[field] = token
        elif kind == "extra":
            row.append(draw(st.sampled_from(["", "1", token])))
        elif kind == "missing" and len(row) > 1:
            row.pop()
        elif kind == "label":
            row[-1] = draw(st.sampled_from(LABELS))
        elif kind == "line":
            line = draw(st.sampled_from([" ", "\xa0", token]))
            rows.insert(draw(st.integers(0, len(rows))), [line])
    return rows


@settings(max_examples=400, deadline=None)
@given(table=tables(), data=st.data())
def test_mutated_files_read_or_fail_as_the_csv_loop_does(tmp_path_factory, table, data):
    path = tmp_path_factory.getbasetemp() / "mutated.csv"
    header, *lines = written_lines(path, *table)
    rows = data.draw(mutated_rows([line.split(",") for line in lines]))
    text = join(data.draw, [header] + [",".join(row) for row in rows])
    path.write_bytes(text.encode())
    assert_same_outcome(path)


@pytest.mark.parametrize("field", [" " * 131072 + "1", "0" * 131072 + "1"])
def test_a_field_over_the_csv_field_limit_fails_as_the_csv_loop_does(tmp_path, field):
    # numpy has no such limit and would read the field as 1
    path = tmp_path / "long.csv"
    path.write_text(f"x1,label\n{field},1\n")
    assert_same_outcome(path)
