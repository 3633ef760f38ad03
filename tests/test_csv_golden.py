"""Golden bytes of the dataset CSV format: header `x1,...,xd,label` (or
`weight,label`), CRLF line ends, floats as Python `repr`, integer labels.

`tests/data/gen_d4_k2_n30_s1.csv` is `structdr generate --d 4 --k 2
--n-per-cluster 30 --seed 1`, the three `gen_d4_k2_n30_s1_a0.5_*.csv`
files are `structdr transform --alpha 0.5` of it, `..._a0.5_analyze.txt`
and `..._a0.5_report.csv` are the stdout and the `--out` CSV of `structdr
analyze --alpha 0.5` of it, and `edge_values.csv` is `EDGE_VALUES`
written by `LabeledDataset.to_csv`. Today's output must match them byte
for byte, and reading a file back must give every value bit for bit.
"""

from pathlib import Path

import numpy as np
import pytest

from structdr import LabeledDataset
from structdr.cli import main

DATA = Path(__file__).resolve().parent / "data"
GENERATED = DATA / "gen_d4_k2_n30_s1.csv"
STAGES = ("isotropic", "weighted", "weights")
# values whose repr takes each of Python's forms: signed zero, the
# smallest subnormal, exponent notation below 1e-4 and from 1e16 on, and
# an integral value above 2^53
EDGE_VALUES = np.array([
    [-0.0, 5e-324],
    [1e-05, 0.1],
    [1e16, 1.5e16],
    [123456789012345678.0, -2.5],
])
EDGE_LABELS = [1, 2, 1, 2]


def assert_same_bytes(got: Path, want: Path):
    assert got.read_bytes() == want.read_bytes(), f"{got} differs from {want.name}"


def bits(values):
    # compare bit patterns, so that -0.0 and 0.0 count as different
    return values.view(np.int64).tolist()


def test_generate_matches_golden(tmp_path):
    out = tmp_path / "data.csv"
    assert main(["generate", "--d", "4", "--k", "2", "--n-per-cluster", "30",
                 "--seed", "1", "--out", str(out)]) == 0
    assert_same_bytes(out, GENERATED)


def test_transform_matches_golden(tmp_path):
    prefix = tmp_path / "stage"
    assert main(["transform", "--data", str(GENERATED), "--alpha", "0.5",
                 "--out", str(prefix)]) == 0
    for stage in STAGES:
        assert_same_bytes(tmp_path / f"stage_{stage}.csv",
                          DATA / f"gen_d4_k2_n30_s1_a0.5_{stage}.csv")


def test_analyze_matches_golden(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["analyze", "--data", str(GENERATED), "--alpha", "0.5",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.encode() == (DATA / "gen_d4_k2_n30_s1_a0.5_analyze.txt").read_bytes()
    assert_same_bytes(out, DATA / "gen_d4_k2_n30_s1_a0.5_report.csv")


def test_edge_values_match_golden_and_read_back_exactly(tmp_path):
    out = tmp_path / "edge.csv"
    LabeledDataset(data=EDGE_VALUES, labels=EDGE_LABELS).to_csv(out)
    assert_same_bytes(out, DATA / "edge_values.csv")
    clone = LabeledDataset.from_csv(out)
    assert bits(clone.data) == bits(EDGE_VALUES)
    assert clone.labels.tolist() == EDGE_LABELS


@pytest.mark.parametrize("name", [
    "gen_d4_k2_n30_s1.csv",
    "gen_d4_k2_n30_s1_a0.5_isotropic.csv",
    "gen_d4_k2_n30_s1_a0.5_weighted.csv",
])
def test_round_trip_is_bit_exact(tmp_path, name):
    data = LabeledDataset.from_csv(DATA / name)
    out = tmp_path / name
    data.to_csv(out)
    assert_same_bytes(out, DATA / name)
    clone = LabeledDataset.from_csv(out)
    assert bits(clone.data) == bits(data.data)
    assert clone.labels.tolist() == data.labels.tolist()
