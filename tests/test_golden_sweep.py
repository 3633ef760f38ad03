"""Golden sweep CSV: the `prop1` recipe at 3 replicates and seed 0 must
reproduce `tests/data/prop1_r3.csv` under the benchmark's reference rule
(`perfbench/gate.py::compare_reference`). Coordinates, seed, status,
reason and bound_satisfied must be identical, and float columns must agree
within its FLOAT_ATOL (1e-9).
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

from structdr import recipe, run_sweep

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "prop1_r3.csv"


def load_gate():
    spec = importlib.util.spec_from_file_location("perfbench_gate", ROOT / "perfbench" / "gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


def test_prop1_sweep_matches_golden_csv(tmp_path):
    out = tmp_path / "prop1.csv"
    run_sweep(replace(recipe("prop1"), replicates=3, seed=0), out_path=out)
    ok, detail = load_gate().compare_reference(out, GOLDEN)
    assert ok, detail
