"""Golden sweep CSVs, all at seed 0.

The `prop1` recipe at 3 replicates must reproduce `tests/data/prop1_r3.csv`
under the benchmark's reference rule (`perfbench/gate.py::compare_reference`).
Coordinates, seed, status, reason and bound_satisfied must be identical,
and float columns must agree within its FLOAT_ATOL (1e-9).

`fig3_d20_largen` at 1 replicate (up to 20000 x 20 rows, the large row
kernel), `fig3_d7` at 2 replicates, `prop1` at 3 and `fig2` at 1 (100
geometries of d = 2, k = 2, where the mixture build is most of a unit)
must reproduce their goldens byte for byte, on one, two and three
processes. `prop1` at 3
replicates with alphas 0.25 and 0.5, whose cells share one sample per
replicate, must reproduce `tests/data/prop1_two_alphas_r3.csv`, written
before the cells shared it, on one, two and three processes.

`prop1` at 3 replicates over clusters 3 and 5, n_per_cluster 100 and 300,
alphas 1e-5 and 0.5 and dispersions 1.0 and 1e-200, with exponential
weights, must reproduce `tests/data/prop1_failures_r3.csv` on one, two and
three processes. Of its 48 records, 24 fail in the mixture build (the
covariances underflow at dispersion 1e-200) and 12 in the row pass (a
weight underflows at alpha 1e-5), and the other 12 are ok records of units
that have failing records. It was written before a failing unit fell back
to running each of its records alone, and no reason in it prints a number
at roundoff level.

A process keeps its sweep helpers from one sweep to the next, so every
golden above is also written twice over by ten consecutive sweeps on two
and on three processes, all served by the helpers that the first forks.
Each test sees three CPUs, so that three processes run on a smaller host
too.
"""

import importlib.util
import os
from dataclasses import replace
from pathlib import Path

import pytest

from structdr import experiment, recipe, run_sweep

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "prop1_r3.csv"


@pytest.fixture(autouse=True)
def three_cpus(monkeypatch):
    """Let a sweep use three processes on a host with fewer CPUs: the
    helpers that the OS cannot move to a missing CPU stay where they are."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)


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


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("name,replicates",
                         [("fig3_d20_largen", 1), ("fig3_d7", 2), ("prop1", 3), ("fig2", 1)])
def test_sweep_writes_golden_bytes(tmp_path, name, replicates, threads):
    out = tmp_path / f"{name}.csv"
    run_sweep(replace(recipe(name), replicates=replicates, seed=0), out_path=out,
              threads=threads)
    assert out.read_bytes() == (DATA / f"{name}_r{replicates}.csv").read_bytes()


# Each golden that a sweep writes byte for byte, and its config.
GOLDENS = {
    **{f"{name}_r{replicates}.csv": replace(recipe(name), replicates=replicates, seed=0)
       for name, replicates in [("fig3_d20_largen", 1), ("fig3_d7", 2), ("prop1", 3),
                                ("fig2", 1)]},
    "prop1_two_alphas_r3.csv": replace(recipe("prop1"), replicates=3, seed=0, alphas=[0.25, 0.5]),
    "prop1_failures_r3.csv": replace(
        recipe("prop1"), replicates=3, seed=0, clusters=[3, 5], n_per_cluster=[100, 300],
        alphas=[1e-5, 0.5], dispersions=[1.0, 1e-200], scheme="exponential"),
}


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_two_alphas_sharing_a_sample_write_golden_bytes(tmp_path, threads):
    out = tmp_path / "prop1_two_alphas.csv"
    run_sweep(GOLDENS["prop1_two_alphas_r3.csv"], out_path=out, threads=threads)
    assert out.read_bytes() == (DATA / "prop1_two_alphas_r3.csv").read_bytes()


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_failing_units_write_golden_bytes(tmp_path, threads):
    out = tmp_path / "prop1_failures.csv"
    run_sweep(GOLDENS["prop1_failures_r3.csv"], out_path=out, threads=threads)
    assert out.read_bytes() == (DATA / "prop1_failures_r3.csv").read_bytes()


@pytest.mark.parametrize("threads", [2, 3])
def test_consecutive_sweeps_on_kept_helpers_write_golden_bytes(tmp_path, threads):
    # every golden twice over, all ten sweeps served by the helpers that
    # the first one forks
    pids = set()
    for name, config in [*GOLDENS.items()] * 2:
        out = tmp_path / name
        run_sweep(config, out_path=out, threads=threads)
        assert out.read_bytes() == (DATA / name).read_bytes()
        pids.add(tuple(helper.pid for _, helper in experiment._helpers))
    assert len(pids) == 1
