"""The one-pass analysis kernel against the step-by-step composition it
replaces: `transform_pipeline`, the Fisher solve of each dataset, the
first-order predictions from the isotropic data's own scatter pair, and
`sss(pc_subspace, fisher_subspace)` before and after the transform.
`run_cell`, `analyze` and `distinctness_delta_check` must reproduce it,
including the exception a failing dataset raises.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from structdr import (
    Analysis,
    Cell,
    ConfigError,
    LabeledDataset,
    RankError,
    ShapeError,
    SubspaceBasis,
    analyze,
    apply_centering,
    distinctness_delta_check,
    fisher_solve,
    fisher_subspace,
    gen_eig,
    make_separation_family,
    pc_subspace,
    perturb_eigs_first_order,
    proposition1_bound,
    recipe,
    run_cell,
    sample,
    scatter_matrices,
    sss,
    transform_pipeline,
)
from structdr import experiment
from structdr.experiment import derive_seeds
from structdr.linalg import Clusters
from structdr.structure import analyze_stack, row_pass

# Reordered floating-point sums (indicator product against scattered adds,
# Y's scatter derived through the whitener against summed over its rows)
# move the reported values by ~1e-12 at these sizes.
ATOL = 1e-10
SHAPES = [(7, 3, 300), (20, 10, 300)]
SCHEMES = ["hyperbolic", "exponential"]
FIELDS = ("lambda_x", "lambda_z", "delta", "bound_rhs", "sss_x", "sss_z",
          "empirical_sd_norm")


def reference(data, alpha, scheme):
    """The record fields and top k-1 predictions, computed step by step."""
    k, m = data.k, data.k - 1
    # the Fisher solve on X comes first, as in `analyze`, so that a bad
    # cluster count fails with its message rather than pc_subspace's
    lambda_x = fisher_solve(scatter_matrices(data), k).distinctness
    sss_x = sss(pc_subspace(apply_centering(data.data), m), fisher_subspace(data))
    pipe = transform_pipeline(data, alpha=alpha, scheme=scheme)
    sss_z = sss(pc_subspace(pipe.weighted.data, m), fisher_subspace(pipe.weighted))
    lambda_z = fisher_solve(scatter_matrices(pipe.weighted), k).distinctness
    base_pair = scatter_matrices(LabeledDataset(pipe.isotropic.data, data.labels))
    z_pair = scatter_matrices(pipe.weighted)
    predicted = perturb_eigs_first_order(
        gen_eig(base_pair.between, base_pair.total),
        z_pair.between - base_pair.between,
        z_pair.total - base_pair.total,
    )
    sqnorms = np.einsum("ij,ij->i", pipe.isotropic.data, pipe.isotropic.data)
    delta = abs(lambda_z - lambda_x)
    bound = proposition1_bound(data.n, data.d, k, alpha, lambda_x)
    values = dict(lambda_x=lambda_x, lambda_z=lambda_z, delta=delta, bound_rhs=bound,
                  sss_x=sss_x, sss_z=sss_z, empirical_sd_norm=float(sqnorms.std()))
    return values, delta <= bound, predicted[:m]


def analysis_values(result):
    return dict(lambda_x=result.lambda_bar_x, lambda_z=result.lambda_bar_z,
                delta=result.observed_delta, bound_rhs=result.bound_rhs, sss_x=result.sss_x,
                sss_z=result.sss_z, empirical_sd_norm=result.empirical_sd_norm)


def assert_same_analysis(got, want):
    """Every field of two Analyses equal: floats and flags by repr, the
    predictions bit for bit."""
    for field in dataclasses.fields(Analysis):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b), field.name
        else:
            assert repr(a) == repr(b), (field.name, a, b)


def assert_close(got, want):
    for name in FIELDS:
        assert abs(got[name] - want[name]) <= ATOL, (name, got[name], want[name])


def cell_data(cell, replicate, master_seed):
    spec_seed, data_seed = derive_seeds(master_seed, cell, replicate)
    spec = make_separation_family(cell.d, cell.k, cell.separation, cell.dispersion,
                                  seed=spec_seed)
    return sample(spec, cell.n_per_cluster, seed=data_seed)


def summarize(x, alpha=0.5, scheme="hyperbolic"):
    """x's row summary: `row_pass` on a stack of one, which it centers in place."""
    return row_pass(x.data.copy()[None], Clusters.of(x.labels), [alpha], scheme)[0]


def shuffled(data, rng, relabel):
    """Nine tenths of the rows in random order, so clusters differ in size;
    with relabel, the labels are shuffled apart from the rows."""
    order = rng.permutation(data.n)[: data.n * 9 // 10]
    labels = data.labels[rng.permutation(order)] if relabel else data.labels[order]
    return LabeledDataset(data=data.data[order], labels=labels)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("d,k,n_per", SHAPES)
def test_run_cell_matches_reference(d, k, n_per, scheme):
    cell = Cell(d, k, n_per, 0.5, 10.0, 1.0, scheme)
    record = run_cell(cell, replicate=2, master_seed=5)
    want, satisfied, _ = reference(cell_data(cell, 2, 5), cell.alpha, scheme)
    assert record.status == "ok"
    assert record.bound_satisfied == satisfied
    assert_close({name: getattr(record, name) for name in FIELDS}, want)


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("d,k,n_per", SHAPES)
def test_analyze_matches_reference_on_shuffled_rows(d, k, n_per, scheme, relabel):
    rng = np.random.default_rng(d * 100 + k)
    spec = make_separation_family(d, k, 10.0, 1.0, seed=d + k)
    data = shuffled(sample(spec, n_per, seed=k), rng, relabel)
    want, satisfied, predicted = reference(data, 0.5, scheme)
    result = analyze(data, alpha=0.5, scheme=scheme)
    assert result.bound_satisfied == satisfied
    assert_close(analysis_values(result), want)
    # only the k-1 leading eigenvalues are simple; the zero eigenspace's
    # vectors, and so its predictions, depend on the solver's basis
    np.testing.assert_allclose(result.predicted_values[: k - 1], predicted,
                               rtol=0, atol=ATOL)

    pipe = transform_pipeline(data, alpha=0.5, scheme=scheme)
    check = distinctness_delta_check(data, pipe.weighted, 0.5, isotropic=pipe.isotropic)
    assert abs(check.lambda_bar_x - want["lambda_x"]) <= ATOL
    assert abs(check.lambda_bar_z - want["lambda_z"]) <= ATOL
    np.testing.assert_allclose(check.predicted_values[: k - 1], predicted, rtol=0, atol=ATOL)


def reference_error(data, alpha, scheme):
    with pytest.raises((ConfigError, RankError)) as caught:
        reference(data, alpha, scheme)
    return f"{type(caught.value).__name__}: {caught.value}"


def rank_deficient(data):
    x = data.data.copy()
    x[:, -1] = 2.0 * x[:, 0] + 1.0
    return LabeledDataset(data=x, labels=data.labels)


@pytest.mark.parametrize("cell,degrade,error", [
    # X's total scatter is singular: the Fisher solve on X fails first
    pytest.param(Cell(7, 3, 100, 0.5, 10.0, 1.0, "hyperbolic"), rank_deficient,
                 "RankError: total scatter is rank deficient", id="cell0-rank_deficient-RankError"),
    # exponential weights underflow, so Z0's total scatter is singular
    pytest.param(Cell(7, 3, 100, 1e-4, 10.0, 1.0, "exponential"), None,
                 "RankError: total scatter is rank deficient", id="cell1-None-RankError"),
    # one cluster leaves no discriminant subspace
    (Cell(7, 1, 100, 0.5, 10.0, 1.0, "hyperbolic"), None, "ConfigError: need 2 <= k <= d"),
])
def test_failures_keep_exception_class_and_message(monkeypatch, cell, degrade, error):
    data = cell_data(cell, 0, 0)
    if degrade is not None:
        data = degrade(data)
        monkeypatch.setattr(experiment, "draw_rows",
                            lambda specs, n, seeds: data.data.copy()[None])
    want = reference_error(data, cell.alpha, cell.scheme)
    assert want.startswith(error)
    # the sweep's unit of one cell and one replicate: run_cell would reject
    # the one-cluster cell before any work
    record = experiment._run_geometry([cell], [0], 0)[0]
    assert record.status == "failed"
    assert record.reason == want
    with pytest.raises((ConfigError, RankError)) as caught:
        analyze(data, alpha=cell.alpha, scheme=cell.scheme)
    assert f"{type(caught.value).__name__}: {caught.value}" == want



def recorded_warnings(run):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = run()
    return results, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("name,k", [("fig3_d7", 4), ("fig3_d20", 6)])
def test_stack_equals_each_dataset_alone(name, k):
    # one sweep unit: the cells of one geometry, which differ in n; at d=20
    # a slice in another memory layout than the matrix alone would get
    # another BLAS kernel and other last bits
    config = recipe(name)
    cells = [cell for cell in config.cells() if cell.k == k]
    assert len(cells) == 3
    datasets = [cell_data(cell, 1, config.seed) for cell in cells]
    stacked, stacked_warnings = recorded_warnings(lambda: analyze_stack(
        [summarize(x, cell.alpha, cell.scheme) for x, cell in zip(datasets, cells)]))
    alone, alone_warnings = recorded_warnings(lambda: [
        analyze(x, cell.alpha, cell.scheme) for x, cell in zip(datasets, cells)])
    assert stacked_warnings == alone_warnings
    assert len(stacked) == len(alone)
    for got, want in zip(stacked, alone):
        assert_same_analysis(got, want)


def test_delta_check_equals_analyze():
    # the two entry points run the same stack of one and report the same
    # Analysis, the subspace similarities included
    config = recipe("fig3_d7")
    cell = next(cell for cell in config.cells() if cell.k == 3)
    x = cell_data(cell, 0, config.seed)
    pipe = transform_pipeline(x, alpha=cell.alpha, scheme=cell.scheme)
    check = distinctness_delta_check(x, pipe.weighted, cell.alpha, isotropic=pipe.isotropic)
    assert_same_analysis(check, analyze(x, cell.alpha, cell.scheme))


@pytest.mark.parametrize("other", [Cell(8, 3, 100, 0.5, 10.0, 1.0, "hyperbolic"),
                                   Cell(7, 4, 100, 0.5, 10.0, 1.0, "hyperbolic")],
                         ids=["d", "k"])
def test_stack_rejects_summaries_of_another_shape(other):
    cell = Cell(7, 3, 100, 0.5, 10.0, 1.0, "hyperbolic")
    rows = [summarize(cell_data(c, 0, 0)) for c in (cell, other)]
    with pytest.raises(ShapeError, match="must share d and k"):
        analyze_stack(rows)


def test_empty_stack_gives_no_analyses():
    assert analyze_stack([]) == []


def test_stacked_pass_checks_no_basis(monkeypatch):
    # the pass builds every basis it compares from eigenvectors and
    # accepted whiteners, so it checks none of them: no SubspaceBasis, and
    # the only SVD is the one of sss's kernel over the stacked bases
    config = recipe("fig3_d7")
    cells = [cell for cell in config.cells() if cell.k == 3]
    assert len(cells) == 3
    rows = [summarize(cell_data(cell, 0, config.seed), cell.alpha, cell.scheme)
            for cell in cells]
    counts = {"basis": 0, "svd": 0}
    check, svd = SubspaceBasis.__post_init__, np.linalg.svd

    def counting_check(self):
        counts["basis"] += 1
        check(self)

    def counting_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(SubspaceBasis, "__post_init__", counting_check)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert len(analyze_stack(rows)) == 3
    assert counts == {"basis": 0, "svd": 1}


def test_no_identity_reaches_the_eigensolver(monkeypatch):
    # isotropization makes Y's total scatter I, so Y's Fisher problem is the
    # eigenproblem of its between scatter: no stack slice solved is an
    # identity, neither in analyze nor in a sweep unit
    config = recipe("fig3_d7")
    cells = [cell for cell in config.cells() if cell.k == 3]
    x = cell_data(cells[0], 0, config.seed)
    inputs, eigh = [], np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        inputs.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    analyze(x, cells[0].alpha, cells[0].scheme)
    records = experiment._run_geometry(cells, [0], config.seed)
    assert [record.status for record in records] == ["ok"] * len(cells)
    assert len(inputs) >= 2
    for a in inputs:
        d = a.shape[-1]
        assert not any(np.array_equal(m, np.eye(d)) for m in a.reshape(-1, d, d))
