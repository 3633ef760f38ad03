"""The stacked row pass. A sweep draws the replicates of a cell into one
C-ordered (R, n, d) stack and row-passes it with one numpy call per step.
Each dataset of a stack must get, bit for bit, the row summary it gets as a
stack of one; a stack is cut so that it holds at most STACK_VALUES values
unless one replicate is larger; each stack is freed before the next is
weighted; and a failing replicate in the middle of a stack fails alone,
with its own error, while a failing unit of one runs once.
"""

import math
import weakref
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structdr import (
    Cell,
    ExperimentConfig,
    LabeledDataset,
    RankError,
    isotropize,
    recipe,
    run_cell,
    run_sweep,
)
from structdr import experiment, structure
from structdr.experiment import derive_seeds
from structdr.linalg import Clusters
from structdr.mixture import draw_rows, make_separation_families, sample, stratified_labels
from structdr.structure import analyze, row_pass


def summary_bytes(summary):
    """Every value of a RowSummary, arrays by their bytes and layout."""
    arrays = (summary.y_between, summary.z_pair.total, summary.z_pair.between,
              summary.spectrum.values, summary.spectrum.vectors)
    return ((summary.n, summary.k, summary.alpha, repr(summary.sd_norm)),
            [(a.shape, a.strides, a.tobytes()) for a in arrays])


def clusters_of(k, n_per_cluster):
    labels = stratified_labels(k, n_per_cluster)
    return Clusters.of(labels)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 9), k=st.integers(2, 4), n_per=st.integers(5, 60),
       replicates=st.integers(1, 4),
       alphas=st.lists(st.sampled_from([0.25, 0.5, 2.0]), min_size=1, max_size=3),
       scheme=st.sampled_from(["hyperbolic", "exponential"]), seed=st.integers(0, 2**32))
def test_each_slice_equals_its_stack_of_one(d, k, n_per, replicates, alphas, scheme, seed):
    k = min(k, d)
    n_per = max(n_per, -(-10 * d // k))  # the sample-size floor, n >= 10 d
    specs = make_separation_families(d, k, 6.0, 1.0, [seed + r for r in range(replicates)])
    seeds = [seed + 100 + r for r in range(replicates)]
    clusters = clusters_of(k, n_per)
    rows = draw_rows(specs, n_per, seeds)
    assert rows.flags.c_contiguous and rows.shape == (replicates, n_per * k, d)
    for j, (spec, data_seed) in enumerate(zip(specs, seeds)):
        alone = sample(spec, n_per, seed=data_seed)
        assert rows[j].tobytes() == alone.data.tobytes()
    stacked = row_pass(rows, clusters, alphas, scheme)
    assert len(stacked) == replicates * len(alphas)
    for j, (spec, data_seed) in enumerate(zip(specs, seeds)):
        alone = row_pass(draw_rows([spec], n_per, [data_seed]), clusters, alphas, scheme)
        got = stacked[j * len(alphas): (j + 1) * len(alphas)]
        assert [summary_bytes(s) for s in got] == [summary_bytes(s) for s in alone]


def test_analyze_and_isotropize_leave_their_data_unchanged():
    # the row kernels center their rows in place, so these hand them a copy
    x = sample(make_separation_families(4, 2, 6.0, 1.0, [1])[0], 30, seed=2)
    before = x.data.copy()
    analyze(x)
    isotropize(x)
    assert x.data.tobytes() == before.tobytes()


def test_two_alphas_share_one_draw_per_replicate(monkeypatch):
    # the data seed leaves alpha out, so both alphas' cells read one sample
    draws = []

    def counting(specs, n_per_cluster, seeds):
        draws.extend((spec.k, spec.d, n_per_cluster, seed) for spec, seed in zip(specs, seeds))
        return draw_rows(specs, n_per_cluster, seeds)

    monkeypatch.setattr(experiment, "draw_rows", counting)
    config = replace(recipe("prop1"), replicates=3, alphas=[0.25, 0.5],
                     n_per_cluster=[100, 300])
    records = run_sweep(config)
    # 1 geometry x 2 sample sizes x 3 replicates, each from its own data seed
    assert len(records) == 12 and len(draws) == len(set(draws)) == 6
    assert sorted(draw[:3] for draw in draws) == sorted(
        (3, 7, n) for n in (100, 300) for _ in range(3))
    assert {draw[3] for draw in draws} == {r.seed for r in records}


def test_each_drawn_stack_is_freed_before_the_next_is_weighted(monkeypatch):
    # row_pass drops the rows once Y is formed, which frees them only if the
    # sweep keeps no reference to the stack: one held in a local would stay
    # alive while the next sample size's stack is drawn and weighted
    drawn = []
    weighted_rows = structure.weighted_rows

    def tracked(specs, n_per_cluster, seeds):
        rows = draw_rows(specs, n_per_cluster, seeds)
        drawn.append(weakref.ref(rows))
        return rows

    def checked(iso, weights):
        assert drawn and all(ref() is None for ref in drawn)
        return weighted_rows(iso, weights)

    monkeypatch.setattr(experiment, "draw_rows", tracked)
    monkeypatch.setattr(structure, "weighted_rows", checked)
    records = run_sweep(replace(recipe("prop1"), replicates=2, n_per_cluster=[100, 300]))
    assert len(drawn) == 2 and all(r.status == "ok" for r in records)


def stack_shapes(monkeypatch):
    """The shape of every stack that the sweep draws."""
    shapes = []

    def recording(specs, n_per_cluster, seeds):
        rows = draw_rows(specs, n_per_cluster, seeds)
        shapes.append(rows.shape)
        return rows

    monkeypatch.setattr(experiment, "draw_rows", recording)
    return shapes


def test_stacks_hold_at_most_the_budget_unless_one_replicate_does(monkeypatch):
    shapes = stack_shapes(monkeypatch)
    # one replicate at k=3 holds 90,000 values (n_per=1500) or 120,000
    # (2000), so two fit in a stack; at k=10 one holds 300,000 or 400,000,
    # more than the budget, so each is alone
    config = ExperimentConfig(dims=[20], clusters=[3, 10], n_per_cluster=[1500, 2000],
                              alphas=[0.5], separations=[10.0], dispersions=[1.0],
                              replicates=3)
    records = run_sweep(config)
    assert all(r.status == "ok" for r in records)
    for shape in shapes:
        assert shape[0] == 1 or math.prod(shape) <= experiment.STACK_VALUES
    assert shapes == [(2, 4500, 20), (1, 4500, 20), (2, 6000, 20), (1, 6000, 20)] + [
        (1, 15000, 20)] * 3 + [(1, 20000, 20)] * 3


def test_sweep_d7_is_stacked_in_full(monkeypatch):
    shapes = stack_shapes(monkeypatch)
    config = replace(recipe("fig3_d7"), replicates=5)
    run_sweep(config)
    assert len(shapes) == len(config.cells())
    assert {shape[0] for shape in shapes} == {5}


def test_stacks_cut_by_the_budget_equal_each_replicate_alone(monkeypatch):
    config = ExperimentConfig(dims=[5], clusters=[3], n_per_cluster=[20, 40],
                              alphas=[0.5, 2.0], separations=[6.0], dispersions=[1.0],
                              replicates=5, seed=3)
    fresh = [asdict(run_cell(cell, rep, config.seed))
             for rep in range(config.replicates) for cell in config.cells()]
    shapes = stack_shapes(monkeypatch)
    # two replicates of the larger sample fit, so its 5 come as 2, 2 and 1;
    # the smaller sample's come as 4 and 1
    monkeypatch.setattr(experiment, "STACK_VALUES", 2 * 120 * 5)
    got = [asdict(r) for r in experiment._run_geometry(config.cells(),
                                                       list(range(config.replicates)),
                                                       config.seed)]
    assert [s[0] for s in shapes] == [4, 1, 2, 2, 1]
    for record in got + fresh:
        record.pop("elapsed_seconds")
    assert repr(got) == repr(fresh)


def test_a_failing_unit_of_one_runs_once(monkeypatch):
    # a unit of one (replicate, cell), such as run_cell's, records the error
    # of its one attempt, with no second run alone
    shapes = stack_shapes(monkeypatch)
    record = run_cell(Cell(7, 3, 100, 1e-5, 10.0, 1.0, "exponential"), 0, 0)
    assert record.status == "failed" and record.reason.startswith("ConfigError: alpha = 1e-05")
    assert shapes == [(1, 300, 7)]


def test_a_failing_unit_builds_each_mixture_once(monkeypatch):
    # the unit's row pass fails at alpha 1e-5, so each of its records runs
    # alone, with the mixture that the unit's stacked build made for its
    # replicate
    built = []

    def counting(d, k, separation, dispersion, seeds):
        built.extend(seeds)
        return make_separation_families(d, k, separation, dispersion, seeds)

    monkeypatch.setattr(experiment, "make_separation_families", counting)
    records = run_sweep(replace(recipe("prop1"), replicates=3, alphas=[1e-5, 0.5],
                                scheme="exponential"))
    assert [r.status for r in records] == ["failed"] * 3 + ["ok"] * 3
    assert len(built) == len(set(built)) == 3


def rank_deficient(rows):
    rows[:, -1] = 2.0 * rows[:, 0] + 1.0


@pytest.mark.parametrize("bad", [0, 2, 4], ids=["first", "middle", "last"])
def test_failing_replicate_in_a_stack_fails_alone(monkeypatch, bad):
    config = ExperimentConfig(dims=[7], clusters=[3], n_per_cluster=[100],
                              alphas=[0.5, 2.0], separations=[10.0], dispersions=[1.0],
                              replicates=5)
    cell = config.cells()[0]
    bad_seed = derive_seeds(config.seed, cell, bad)[1]
    shapes = []

    def degrading(specs, n_per_cluster, seeds):
        rows = draw_rows(specs, n_per_cluster, seeds)
        shapes.append(rows.shape)
        for slot, seed in zip(rows, seeds):
            if seed == bad_seed:
                rank_deficient(slot)
        return rows

    monkeypatch.setattr(experiment, "draw_rows", degrading)
    records = run_sweep(config)
    # the stack of 5 fails, then each (replicate, alpha) reruns alone
    assert shapes[0] == (5, 300, 7) and shapes[1:] == [(1, 300, 7)] * 10
    data = sample(make_separation_families(7, 3, 10.0, 1.0,
                                           [derive_seeds(config.seed, cell, bad)[0]])[0],
                  100, seed=bad_seed)
    rank_deficient(data.data)
    with pytest.raises(RankError) as caught:
        analyze(LabeledDataset(data=data.data, labels=data.labels))
    reason = f"RankError: {caught.value}"
    monkeypatch.undo()
    for record in records:
        if record.replicate == bad:
            assert (record.status, record.reason) == ("failed", reason)
        else:
            fresh = run_cell(cell._replace(alpha=record.alpha), record.replicate, config.seed)
            assert record.status == "ok"
            assert repr({**asdict(record), "elapsed_seconds": 0}) == repr(
                {**asdict(fresh), "elapsed_seconds": 0})

