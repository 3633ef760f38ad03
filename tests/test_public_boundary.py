"""The public boundary, fuzzed: each scalar argument of a public callable
passes one of the rules in `structdr.errors`, so a value of the wrong kind
raises a StructdrError (a ConfigError, for a value that no argument takes)
and never a bare TypeError, ValueError or OverflowError. The CLI twin checks each
verb's numeric flags the same way: exit 2, with one line on stderr.

No strategy draws a large valid count, so no call sizes a huge array, and
the sweep's grid has one unit, so no `threads` value forks a helper.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structdr
from structdr import ConfigError, StructdrError
from structdr.cli import main

DATA = Path(__file__).resolve().parent / "data"

# Each kind of awkward scalar, as a strategy.
KINDS = {
    "str": st.text(max_size=6),
    "bool": st.booleans(),
    "none": st.none(),
    "huge": st.integers(min_value=2**63, max_value=10**400),
    "nan": st.just(math.nan),
    "inf": st.sampled_from([math.inf, -math.inf]),
    "negative": st.integers(max_value=-1),
    "fraction": st.floats(allow_nan=False, allow_infinity=False).filter(
        lambda v: v != math.floor(v)),
    "complex": st.complex_numbers(),
    "numpy-int": st.integers(min_value=0, max_value=3).map(np.int64),
    "list": st.lists(st.integers(), max_size=2),
}
# Kinds that no scalar argument accepts.
NEVER_VALID = ("bool", "nan", "inf", "complex", "list")

# The scalar arguments of each public callable that has any.
SCALARS = {
    "ExperimentConfig": ("replicates", "seed", "scheme"),
    "analyze": ("alpha", "scheme"),
    "compute_weights": ("alpha", "scheme"),
    "distinctness_delta_check": ("alpha",),
    "fisher_solve": ("k",),
    "make_separation_family": ("d", "k", "separation", "dispersion", "seed"),
    "pc_subspace": ("m",),
    "proposition1_bound": ("n", "d", "k", "alpha", "lambda_bar_x"),
    "recipe": ("name",),
    "run_cell": ("replicate", "master_seed", "cell.d", "cell.k", "cell.n_per_cluster",
                 "cell.alpha", "cell.separation", "cell.dispersion", "cell.scheme"),
    "run_sweep": ("threads",),
    "sample": ("n_per_cluster", "seed"),
    "sdist_overlap": ("mc_samples", "seed"),
    "transform_pipeline": ("alpha", "scheme"),
}
# Public callables with no scalar argument: they take arrays, datasets,
# solutions or bases, or (read_records_csv) a path, which must be a str or
# an os.PathLike (see PATH_CALLS) and whose other errors are I/O errors.
# Records that hold what the library computed check nothing. A field of
# run_cell's cell is fuzzed as the argument "cell.<field>".
NO_SCALARS = {
    "LabeledDataset", "MixtureSpec", "SubspaceBasis", "apply_centering", "apply_weights",
    "fisher_subspace", "gen_eig", "isotropize", "perturb_eigs_first_order",
    "read_records_csv", "scatter_matrices", "sss", "sym_eig",
}
RECORDS = {
    "Analysis", "Cell", "EigenSolution", "ExperimentRecord", "FisherSolution",
    "IsotropicDataset", "PipelineResult", "ScatterPair", "SdistEstimate",
}


@pytest.fixture(scope="module")
def valid_calls():
    """A valid keyword call of each callable in SCALARS."""
    spec = structdr.make_separation_family(3, 2, 4.0, 1.0, seed=0)
    x = structdr.sample(spec, 20, seed=1)
    iso = structdr.isotropize(x)
    config = replace(structdr.recipe("prop1"), dims=[3], clusters=[2], n_per_cluster=[15],
                     replicates=1)
    grid = {name: getattr(config, name) for name in ("dims", "clusters", "n_per_cluster",
                                                      "alphas", "separations", "dispersions")}
    return {
        "ExperimentConfig": dict(grid, replicates=1, seed=0, scheme="hyperbolic"),
        "analyze": dict(x=x, alpha=0.5, scheme="hyperbolic"),
        "compute_weights": dict(y=iso, alpha=0.5, scheme="hyperbolic"),
        "distinctness_delta_check": dict(x=x, z0=structdr.transform_pipeline(x).weighted,
                                         alpha=0.5),
        "fisher_solve": dict(s=structdr.scatter_matrices(x), k=2),
        "make_separation_family": dict(d=3, k=2, separation=4.0, dispersion=1.0, seed=0),
        "pc_subspace": dict(data=iso.data, m=1),
        "proposition1_bound": dict(n=40, d=3, k=2, alpha=0.5, lambda_bar_x=0.5),
        "recipe": dict(name="prop1"),
        "run_cell": dict(cell=config.cells()[0], replicate=0, master_seed=0),
        "run_sweep": dict(config=config, threads=1),
        "sample": dict(spec=spec, n_per_cluster=20, seed=1),
        "sdist_overlap": dict(spec=spec, mc_samples=10_000, seed=0),
        "transform_pipeline": dict(x=x, alpha=0.5, scheme="hyperbolic"),
    }


def test_every_public_callable_is_classified():
    callables = {name for name in structdr.__all__ if callable(getattr(structdr, name))}
    errors = {name for name in callables
              if isinstance(getattr(structdr, name), type)
              and issubclass(getattr(structdr, name), Exception)}
    assert callables - errors == set(SCALARS) | NO_SCALARS | RECORDS


def test_valid_calls_succeed(valid_calls):
    for name, kwargs in valid_calls.items():
        getattr(structdr, name)(**kwargs)


@pytest.mark.parametrize("name,argument", [
    (name, argument) for name, arguments in SCALARS.items() for argument in arguments])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_only_structdr_errors_escape(valid_calls, name, argument, data):
    kind = data.draw(st.sampled_from(sorted(KINDS)), label="kind")
    value = data.draw(KINDS[kind], label="value")
    kwargs = dict(valid_calls[name])
    owner, _, field = argument.rpartition(".")
    if owner:
        kwargs[owner] = kwargs[owner]._replace(**{field: value})
    else:
        kwargs[argument] = value
    try:
        getattr(structdr, name)(**kwargs)
    except StructdrError as exc:
        failed = exc
    else:
        failed = None
    if kind in NEVER_VALID:
        assert isinstance(failed, ConfigError), (kind, value)


@pytest.mark.parametrize("field,value,message", [
    ("d", "x", "cell.d must be an integer, got 'x'"),
    ("k", 1, "cell.k must be >= 2, got 1"),
    ("n_per_cluster", 1.5, "cell.n_per_cluster must be an integer, got 1.5"),
    ("alpha", 0.0, "cell.alpha must be finite and > 0, got 0.0"),
    ("separation", "x", "cell.separation must be finite and >= 0, got 'x'"),
    ("dispersion", math.inf, "cell.dispersion must be finite and > 0, got inf"),
    ("scheme", "parabolic",
     "unknown weighting scheme 'parabolic'; expected one of ('hyperbolic', 'exponential')"),
    # the grid pair's rule, as a config states it
    ("k", 21, "grid pair (d=20, k=21) violates d > k - 1"),
    ("k", 12, "grid pair (d=20, k=12) violates k <= min(d, 10)"),
])
def test_run_cell_checks_its_cell_before_any_work(monkeypatch, field, value, message):
    def no_build(*args):
        raise AssertionError("a mixture was built")

    monkeypatch.setattr(structdr.experiment, "make_separation_families", no_build)
    cell = structdr.Cell(20, 2, 100, 0.5, 10.0, 1.0, "hyperbolic")._replace(**{field: value})
    with pytest.raises(ConfigError) as caught:
        structdr.run_cell(cell, 0, 0)
    assert str(caught.value) == message


def test_run_cell_takes_only_a_cell():
    with pytest.raises(ConfigError, match=r"^cell must be a Cell, got \(2, 2\)$"):
        structdr.run_cell((2, 2), 0, 0)


# Each public call that takes a file path, as (callable, the path's name).
PATH_CALLS = {
    "read_records_csv": (structdr.read_records_csv, "path"),
    "run_sweep": (lambda path: structdr.run_sweep(structdr.recipe("prop1"), out_path=path),
                  "out_path"),
    "LabeledDataset.from_csv": (structdr.LabeledDataset.from_csv, "path"),
    "LabeledDataset.to_csv": (lambda path: structdr.LabeledDataset(
        data=np.eye(2), labels=[1, 2]).to_csv(path), "path"),
}


@pytest.mark.parametrize("value", [True, False, 0, 1, 1.5, ["out.csv"]],
                         ids=["True", "False", "0", "1", "1.5", "list"])
@pytest.mark.parametrize("call", sorted(PATH_CALLS))
def test_a_path_that_is_no_path_is_rejected_before_open(monkeypatch, call, value):
    # an int or a bool would be opened as a file descriptor, and closed
    def no_open(*args, **kwargs):
        raise AssertionError("open was called")

    monkeypatch.setattr("builtins.open", no_open)
    run, name = PATH_CALLS[call]
    with pytest.raises(ConfigError) as caught:
        run(value)
    assert str(caught.value) == f"{name} must be a str or os.PathLike path, got {value!r}"


# A valid call of each verb, with its numeric flags at valid values.
VERBS = {
    "generate": {"--d": "3", "--k": "2", "--n-per-cluster": "15", "--separation": "4",
                 "--dispersion": "1", "--seed": "0"},
    "transform": {"--alpha": "0.5"},
    "analyze": {"--alpha": "0.5"},
    "sweep": {"--threads": "1", "--seed": "0"},
}
REAL_FLAGS = {"--separation", "--dispersion", "--alpha"}
SEED_FLAGS = {"--seed"}
# The kinds of awkward scalar as command-line text.
CLI_VALUES = ["str", "True", "None", str(10**400), "nan", "inf", "-1", "1.5", "1j", "[1]"]


def _valid_for(flag: str, text: str) -> bool:
    """True for the texts that the flag accepts: a real flag takes 1.5 and
    a seed takes an integer of any size."""
    return (flag in REAL_FLAGS and text == "1.5") or (flag in SEED_FLAGS and text == str(10**400))


@pytest.mark.parametrize("verb,flag,text", [
    (verb, flag, text) for verb, flags in VERBS.items() for flag in flags
    for text in CLI_VALUES if not _valid_for(flag, text)])
def test_cli_numeric_flags_exit_2_with_one_line(tmp_path, capsys, verb, flag, text):
    config = tmp_path / "config.json"
    config.write_text(replace(structdr.recipe("prop1"), dims=[3], clusters=[2],
                              n_per_cluster=[15], replicates=1).to_json())
    paths = {
        "generate": ["--out", str(tmp_path / "out.csv")],
        "transform": ["--data", str(DATA / "gen_d4_k2_n30_s1.csv"),
                      "--out", str(tmp_path / "out")],
        "analyze": ["--data", str(DATA / "gen_d4_k2_n30_s1.csv")],
        "sweep": ["--config", str(config), "--out", str(tmp_path / "out.csv")],
    }[verb]
    flags = dict(VERBS[verb], **{flag: text})
    argv = [verb, *paths, *[f"{name}={value}" for name, value in flags.items()]]
    try:
        code = main(argv)
    except SystemExit as exc:  # a value that argparse rejects
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.endswith("\n") and err.count("\n") == 1 and "Traceback" not in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
