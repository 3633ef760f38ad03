"""Property test of the sweep CSV codec: writing records, reading them back
and writing again loses nothing and changes no byte.

Needs hypothesis (the `test` extra); the module is skipped without it.
"""

import string
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from structdr import ExperimentRecord, read_records_csv
from structdr.experiment import write_records_csv
from structdr.transform import SCHEMES

FINITE = st.floats(allow_nan=False, allow_infinity=False)
INTEGER = st.integers(min_value=-(2**63), max_value=2**64)
# d, k, n_per_cluster, alpha, separation, dispersion, scheme, replicate, seed
COORDINATES = [INTEGER] * 3 + [FINITE] * 3 + [st.sampled_from(SCHEMES)] + [INTEGER] * 2
FAILED = st.builds(
    ExperimentRecord, *COORDINATES, st.just("failed"), st.text(string.printable)
)
OK = st.builds(
    ExperimentRecord, *COORDINATES, st.just("ok"), st.text(string.printable),
    *[FINITE] * 4, st.booleans(), *[FINITE] * 3,
    elapsed_seconds=FINITE,
)


def without_elapsed(record):
    payload = asdict(record)
    payload.pop("elapsed_seconds")
    return payload


@settings(deadline=None)
@given(st.lists(st.one_of(FAILED, OK), max_size=4))
def test_write_read_write_round_trip(records):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.csv"), Path(tmp, "second.csv")
        with open(first, "w", newline="") as fh:
            write_records_csv(fh, records)
        parsed = read_records_csv(first)
        with open(second, "w", newline="") as fh:
            write_records_csv(fh, parsed)
        np.testing.assert_equal(
            [without_elapsed(r) for r in parsed], [without_elapsed(r) for r in records]
        )
        assert first.read_bytes() == second.read_bytes()
