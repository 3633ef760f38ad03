"""CLI verbs, file formats, and exit-code contract."""

import ast
import csv
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from structdr import LabeledDataset, cli, make_separation_family, read_records_csv, recipe, sample
from structdr.cli import main


DATA = Path(__file__).resolve().parent / "data"
ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return main(list(argv))


class TestGenerate:
    def test_family_parameters(self, tmp_path):
        out = tmp_path / "data.csv"
        code = run_cli(
            "generate", "--d", "3", "--k", "2", "--separation", "4", "--dispersion", "1",
            "--n-per-cluster", "25", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        data = LabeledDataset.from_csv(out)
        assert data.n == 50 and data.d == 3 and data.k == 2

    def test_spec_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "means": [[0.0, 0.0], [5.0, 0.0]],
                    "covariances": [np.eye(2).tolist(), np.eye(2).tolist()],
                }
            )
        )
        out = tmp_path / "data.csv"
        code = run_cli(
            "generate", "--spec", str(spec_path), "--n-per-cluster", "20",
            "--seed", "1", "--out", str(out),
        )
        assert code == 0
        assert LabeledDataset.from_csv(out).k == 2

    def test_deterministic_for_seed(self, tmp_path):
        paths = [tmp_path / f"d{i}.csv" for i in range(2)]
        for path in paths:
            run_cli(
                "generate", "--d", "3", "--k", "2", "--n-per-cluster", "20",
                "--seed", "9", "--out", str(path),
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_sample_does_not_reuse_the_family_draws(self, tmp_path, monkeypatch):
        # the family's first draw is the Gaussian d x d block whose QR gives
        # the means' frame; the sample's first d rows of cluster 1, mapped
        # back to standard normal, must not be that block again
        built = []

        def recording_family(*args, seed):
            built.append((seed, make_separation_family(*args, seed=seed)))
            return built[-1][1]

        monkeypatch.setattr(cli, "make_separation_family", recording_family)
        out = tmp_path / "data.csv"
        assert run_cli("generate", "--d", "4", "--k", "2", "--n-per-cluster", "30",
                       "--seed", "1", "--out", str(out)) == 0
        (spec_seed, spec), = built
        data = LabeledDataset.from_csv(out)
        assert np.array_equal(data.data, sample(spec, 30, seed=1).data)
        noise = np.linalg.solve(spec.factors[0], (data.data[:4] - spec.means[0]).T).T
        frame_draw = np.random.default_rng(spec_seed).standard_normal((4, 4))
        assert not np.allclose(noise, frame_draw, atol=1e-6)

    def test_missing_inputs_is_config_error(self, tmp_path):
        code = run_cli("generate", "--n-per-cluster", "20", "--out", str(tmp_path / "x.csv"))
        assert code == 2

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_cluster_count_below_one_is_config_error(self, tmp_path, capsys, k):
        code = run_cli("generate", "--d", "3", "--k", k, "--n-per-cluster", "20",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert f"k must be >= 1, got {k}" in capsys.readouterr().err

    def test_dispersion_whose_covariances_overflow_is_config_error(self, tmp_path, capsys):
        code = run_cli("generate", "--d", "3", "--k", "2", "--dispersion", "1e200",
                       "--n-per-cluster", "20", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "dispersion = 1e+200 is too large: the covariances overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("argument,value,message", [
        ("--separation", "nan", "separation must be finite and >= 0, got nan"),
        ("--separation", "inf", "separation must be finite and >= 0, got inf"),
        ("--dispersion", "nan", "dispersion must be finite and > 0, got nan"),
        ("--dispersion", "1e-200", "dispersion = 1e-200 is too small: the covariances underflow"),
    ], ids=["separation-nan", "separation-inf", "dispersion-nan", "dispersion-underflow"])
    def test_bad_family_parameter_exits_2_naming_it(self, tmp_path, capsys, argument, value,
                                                    message):
        code = run_cli("generate", "--d", "3", "--k", "2", argument, value,
                       "--n-per-cluster", "20", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["spec", "family"])
    def test_negative_seed_exits_2_before_any_output(self, tmp_path, capsys, source):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(make_separation_family(3, 2, 4.0, 1.0, seed=0).to_json())
        inputs = ["--spec", str(spec_path)] if source == "spec" else ["--d", "3", "--k", "2"]
        out = tmp_path / "x.csv"
        code = run_cli("generate", *inputs, "--n-per-cluster", "20", "--seed", "-1",
                       "--out", str(out))
        assert code == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_non_spd_spec_is_numerical_error(self, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(
            json.dumps(
                {
                    "means": [[0.0, 0.0], [5.0, 0.0]],
                    "covariances": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]]],
                }
            )
        )
        code = run_cli(
            "generate", "--spec", str(spec_path), "--n-per-cluster", "20",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3

    @pytest.mark.parametrize("means,message", [
        ([["a", 1.0], [5.0, 0.0]], "malformed mixture spec document"),
        ([[0.0, 0.0], [5.0]], "malformed mixture spec document"),
        ([[float("nan"), 0.0], [5.0, 0.0]], "means and covariances must be finite"),
    ], ids=["non-numeric", "ragged", "nan"])
    def test_bad_spec_means_exit_2(self, tmp_path, capsys, means, message):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"means": means, "covariances": [np.eye(2).tolist()] * 2}))
        code = run_cli(
            "generate", "--spec", str(spec_path), "--n-per-cluster", "20",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert message in capsys.readouterr().err

    def test_tiny_asymmetric_covariance_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({
            "means": [[0.0, 0.0], [5.0, 0.0]],
            "covariances": [np.eye(2).tolist(), (1e-13 * np.array([[1.0, 0.5], [0.4, 1.0]])).tolist()],
        }))
        code = run_cli(
            "generate", "--spec", str(spec_path), "--n-per-cluster", "20",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "covariance 1 is not symmetric" in capsys.readouterr().err

    def test_spec_that_is_not_utf_8_exits_2_naming_the_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_bytes(b'{"means": [\xff]}')
        code = run_cli("generate", "--spec", str(spec_path), "--n-per-cluster", "5",
                       "--out", str(tmp_path / "d.csv"))
        assert code == 2
        assert capsys.readouterr().err == (
            f"structdr: configuration error: {spec_path}: 'utf-8' codec can't decode "
            "byte 0xff in position 11: invalid start byte\n")
        assert not (tmp_path / "d.csv").exists()

    def test_missing_spec_file_is_io_error(self, tmp_path):
        code = run_cli(
            "generate", "--spec", str(tmp_path / "nope.json"), "--n-per-cluster", "20",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 4


class TestTransformVerb:
    @pytest.fixture()
    def dataset_csv(self, tmp_path):
        out = tmp_path / "data.csv"
        run_cli(
            "generate", "--d", "2", "--k", "2", "--separation", "6",
            "--n-per-cluster", "40", "--seed", "5", "--out", str(out),
        )
        return out

    def test_writes_three_stage_files(self, tmp_path, dataset_csv):
        prefix = tmp_path / "stage"
        code = run_cli("transform", "--data", str(dataset_csv), "--out", str(prefix))
        assert code == 0
        iso = LabeledDataset.from_csv(f"{prefix}_isotropic.csv")
        weighted = LabeledDataset.from_csv(f"{prefix}_weighted.csv")
        assert iso.n == weighted.n == 80
        assert np.linalg.norm(iso.data.T @ iso.data - np.eye(2)) < 1e-6
        weights_lines = (tmp_path / "stage_weights.csv").read_text().splitlines()
        assert weights_lines[0] == "weight,label"
        assert len(weights_lines) == 81

    def test_bad_alpha(self, dataset_csv, tmp_path):
        code = run_cli(
            "transform", "--data", str(dataset_csv), "--alpha", "-1",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2


@pytest.mark.parametrize("verb", ["transform", "analyze"])
def test_n_not_above_d_exits_2(tmp_path, capsys, verb):
    path = tmp_path / "square.csv"
    LabeledDataset(
        data=np.random.default_rng(0).standard_normal((6, 6)), labels=np.array([1, 1, 1, 2, 2, 2])
    ).to_csv(path)
    assert run_cli(verb, "--data", str(path), "--out", str(tmp_path / "out")) == 2
    assert "need n > d, got n = 6, d = 6" in capsys.readouterr().err


class TestAnalyze:
    def test_report_row(self, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        run_cli(
            "generate", "--d", "3", "--k", "2", "--separation", "5",
            "--n-per-cluster", "30", "--seed", "2", "--out", str(data_path),
        )
        report_path = tmp_path / "report.csv"
        code = run_cli("analyze", "--data", str(data_path), "--out", str(report_path))
        assert code == 0
        printed = capsys.readouterr().out
        assert "lambda_x=" in printed and "sss_z=" in printed
        header, row = report_path.read_text().splitlines()
        assert header.startswith("n,d,k,alpha,scheme")
        fields = row.split(",")
        assert fields[0] == "60"
        assert fields[9] in ("true", "false")


    @pytest.mark.parametrize("scale", [1e-6, 1e9, 1e12])
    def test_report_does_not_depend_on_units(self, tmp_path, capsys, scale):
        golden = LabeledDataset.from_csv(DATA / "gen_d4_k2_n30_s1.csv")
        scaled = tmp_path / "scaled.csv"
        LabeledDataset(data=scale * golden.data, labels=golden.labels).to_csv(scaled)
        assert run_cli("analyze", "--data", str(DATA / "gen_d4_k2_n30_s1.csv")) == 0
        want = capsys.readouterr().out
        assert run_cli("analyze", "--data", str(scaled)) == 0
        assert capsys.readouterr().out == want

    # at 1e153 times the golden data X0^T X0 overflows; with entries near
    # 1.5e308 the column means and the centering already do
    @pytest.mark.parametrize("largest", [None, 1.5e308])
    def test_overflowing_total_scatter_exits_3(self, tmp_path, capsys, largest):
        golden = LabeledDataset.from_csv(DATA / "gen_d4_k2_n30_s1.csv")
        scale = 1e153 if largest is None else largest / np.abs(golden.data).max()
        huge = tmp_path / "huge.csv"
        LabeledDataset(data=scale * golden.data, labels=golden.labels).to_csv(huge)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("analyze", "--data", str(huge)) == 3
        assert "numerical error: total scatter overflows" in capsys.readouterr().err


class TestMalformedDataset:
    @pytest.mark.parametrize("row,where", [
        ("nan,1.0,2", "row 2, column x1"),
        ("1.0,abc,2", "row 2, column x2"),
        ("1.0,3.0,1.5", "row 2, column label"),
        ("1.0,3.0,-1", "labels must lie in 1..1, got range [-1, 1]"),
        # a label above the row count leaves a cluster empty, and is rejected
        # before one counter per label is allocated
        ("1.0,3.0,10000000", "largest label 10000000 exceeds the 2 rows"),
        (f"1.0,3.0,{2**62}", f"largest label {2**62} exceeds the 2 rows"),
        (f"1.0,3.0,{10**30}", f"row 2, column label: {10**30} is outside the int64 range"),
        # 20000 rows, the last with a stray label 20000: 19998 empty clusters,
        # of which the message lists the first few
        pytest.param("1.0,2.0,1\n" * 19998 + "1.0,3.0,20000",
                     "19998 empty cluster(s) (k = 20000): 2, 3, 4, 5, 6, ...",
                     id="stray-label-20000"),
    ])
    def test_analyze_exits_2_naming_file_row_and_column(self, tmp_path, capsys, row, where):
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,x2,label\n1.0,2.0,1\n{row}\n")
        assert run_cli("analyze", "--data", str(path)) == 2
        err = capsys.readouterr().err
        assert f"{path}: {where}" in err
        assert len(err.encode()) < 1024

    @pytest.mark.parametrize("first,second,where", [
        (0, 0, "labels must be >= 1, got range [0, 0]"),
        (-2, -1, "labels must be >= 1, got range [-2, -1]"),
    ], ids=["all-zero", "all-negative"])
    def test_labels_below_one_name_the_floor(self, tmp_path, capsys, first, second, where):
        # no label is >= 1, so there is no range 1..k to name
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,x2,label\n1.0,2.0,{first}\n1.0,3.0,{second}\n")
        assert run_cli("analyze", "--data", str(path)) == 2
        err = capsys.readouterr().err
        assert f"{path}: {where}" in err
        assert "1.." not in err

    @pytest.mark.parametrize("verb", ["analyze", "transform"])
    @pytest.mark.parametrize("content,missing", [
        ("label\n1\n2\n1\n2\n", "data has no feature columns"),
        ("x1,x2,label\n", "data has no rows"),
    ], ids=["no-feature-column", "no-data-row"])
    def test_empty_dataset_exits_2_naming_what_is_missing(self, tmp_path, capsys, content,
                                                          missing, verb):
        path = tmp_path / "empty.csv"
        path.write_text(content)
        assert run_cli(verb, "--data", str(path), "--out", str(tmp_path / "out")) == 2
        assert f"{path}: {missing}" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["analyze", "transform"])
    @pytest.mark.parametrize("content,message", [
        (b"x1,label\n1.0,1\n\xff,2\n", "'utf-8' codec can't decode byte 0xff in position "),
        (b"x1,label\n" + b" " * 140_000 + b"1.0,1\n2.0,2\n",
         f"field larger than field limit ({csv.field_size_limit()})"),
    ], ids=["not-utf-8", "field-over-the-limit"])
    def test_unreadable_bytes_exit_2_naming_the_file(self, tmp_path, capsys, content, message,
                                                     verb):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        assert run_cli(verb, "--data", str(path), "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"structdr: configuration error: {path}: {message}")
        assert not list(tmp_path.glob("out*"))

    def test_transform_weights_file_is_not_a_dataset(self, tmp_path, capsys):
        data = Path(__file__).resolve().parent / "data" / "gen_d4_k2_n30_s1.csv"
        assert run_cli("transform", "--data", str(data), "--out", str(tmp_path / "stage")) == 0
        weights = tmp_path / "stage_weights.csv"
        capsys.readouterr()
        assert run_cli("analyze", "--data", str(weights)) == 2
        assert capsys.readouterr().err == (
            f"structdr: configuration error: {weights}: expected header "
            "x1,...,xd,label with d >= 1, found 'weight,label'\n"
        )


class TestSweepAndRecipe:
    def test_recipe_then_sweep(self, tmp_path):
        config_path = tmp_path / "config.json"
        assert run_cli("recipe", "prop1", "--out", str(config_path)) == 0
        config = json.loads(config_path.read_text())
        # shrink for test runtime
        config["replicates"] = 2
        config_path.write_text(json.dumps(config))
        out = tmp_path / "records.csv"
        assert run_cli("sweep", "--config", str(config_path), "--out", str(out)) == 0
        records = read_records_csv(out)
        assert len(records) == 2
        assert all(r.status == "ok" for r in records)

    def test_unknown_recipe_exit_code(self, tmp_path, capsys):
        code = run_cli("recipe", "fig99", "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "valid names" in capsys.readouterr().err

    def test_sweep_bad_output_dir_is_io_error(self, tmp_path):
        config_path = tmp_path / "config.json"
        run_cli("recipe", "prop1", "--out", str(config_path))
        code = run_cli(
            "sweep", "--config", str(config_path),
            "--out", str(tmp_path / "no_dir" / "records.csv"),
        )
        assert code == 4

    @pytest.mark.parametrize("overrides,message", [
        ({"replicates": "5"}, "replicates must be an integer, got '5'"),
        ({"replicates": 1.5}, "replicates must be an integer, got 1.5"),
        ({"replicates": True}, "replicates must be an integer, got True"),
        ({"seed": 2.0}, "seed must be an integer, got 2.0"),
        ({"dims": ["a"]}, "dims must be an integer, got 'a'"),
        ({"dims": 7}, "dims must be a list, got 7"),
        ({"alphas": [0.5, None]}, "alphas must be finite and > 0, got None"),
        ({"clusters": [1]}, "clusters must be >= 2, got 1"),
        ({"alphas": [0.5, 0.0]}, "alphas must be finite and > 0, got 0.0"),
        ({"dispersions": [-1.0]}, "dispersions must be finite and > 0, got -1.0"),
        ({"separations": [2.0, -0.5]}, "separations must be finite and >= 0, got -0.5"),
        ({"n_per_cluster": [0, 30]}, "n_per_cluster must be >= 1, got 0"),
    ])
    def test_bad_config_exits_2_naming_the_field(self, tmp_path, capsys, overrides, message):
        config_path = tmp_path / "config.json"
        run_cli("recipe", "prop1", "--out", str(config_path))
        config = json.loads(config_path.read_text())
        config.update(overrides)
        config_path.write_text(json.dumps(config))
        code = run_cli("sweep", "--config", str(config_path), "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ('{"dims": [3]', "malformed experiment config: "),
        ("[1, 2]", "experiment config must be a JSON object"),
    ], ids=["malformed", "not-an-object"])
    def test_config_that_is_not_a_json_object_exits_2(self, tmp_path, capsys, text, message):
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        code = run_cli("sweep", "--config", str(config_path), "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert message in capsys.readouterr().err

    def test_config_that_is_not_utf_8_exits_2_naming_the_file(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_bytes(b'{"dims": [\xff]}')
        code = run_cli("sweep", "--config", str(config_path), "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert capsys.readouterr().err == (
            f"structdr: configuration error: {config_path}: 'utf-8' codec can't decode "
            "byte 0xff in position 10: invalid start byte\n")
        assert not (tmp_path / "r.csv").exists()

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        run_cli("recipe", "prop1", "--out", str(config_path))
        code = run_cli("sweep", "--config", str(config_path), "--out", str(tmp_path / "r.csv"),
                       "--seed", "-1")
        assert code == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_seed_override_changes_rows(self, tmp_path):
        config_path = tmp_path / "config.json"
        run_cli("recipe", "prop1", "--out", str(config_path))
        config = json.loads(config_path.read_text())
        config["replicates"] = 1
        config_path.write_text(json.dumps(config))
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("sweep", "--config", str(config_path), "--out", str(out_a), "--seed", "1")
        run_cli("sweep", "--config", str(config_path), "--out", str(out_b), "--seed", "2")
        assert out_a.read_bytes() != out_b.read_bytes()


class TestCountsBeyondInt64:
    """A count that int64 cannot hold is a configuration error, raised before
    any array is sized by it or any output file is opened."""

    HUGE = str(10**400)

    @pytest.mark.parametrize("flag,name", [("--n-per-cluster", "n_per_cluster"), ("--d", "d")])
    def test_generate_exits_2_naming_the_count(self, tmp_path, capsys, flag, name):
        argv = {"--d": "3", "--k": "2", "--n-per-cluster": "15", flag: self.HUGE}
        out = tmp_path / "x.csv"
        code = run_cli("generate", *[t for item in argv.items() for t in item], "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"structdr: configuration error: {name} must be below 2**63, got {self.HUGE}\n"
        assert not out.exists()

    def test_generate_dimension_numpy_cannot_size_exits_2(self, tmp_path, capsys):
        # below 2**63, but the family's (k + 1, d, d) stack is not
        d = 2**40
        out = tmp_path / "x.csv"
        code = run_cli("generate", "--d", str(d), "--k", "2", "--n-per-cluster", "15",
                       "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err == (f"structdr: configuration error: d = {d} is too large: a 1 x 3 x {d} x "
                       f"{d} float64 array is more than numpy can size\n")
        assert not out.exists()

    def test_sweep_replicates_exit_2_before_the_file_opens(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        run_cli("recipe", "prop1", "--out", str(config_path))
        config = json.loads(config_path.read_text())
        config["replicates"] = 10**400
        config_path.write_text(json.dumps(config))
        out = tmp_path / "r.csv"
        capsys.readouterr()
        code = run_cli("sweep", "--config", str(config_path), "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"structdr: configuration error: replicates must be below 2**63, got {self.HUGE}\n"
        assert not out.exists()


def child_env(*paths):
    """This process's environment for a child that imports structdr from
    src, with `paths` before it on PYTHONPATH, and with stdout buffered as
    it is by default: PYTHONUNBUFFERED would write each print at once, and
    hide output that only a flush at exit writes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, [*paths, ROOT / "src"])))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def console_script():
    """What pip's `structdr` console script runs: the entry pyproject.toml names."""
    module, name = re.search(r'^structdr = "([\w.]+):(\w+)"$',
                             (ROOT / "pyproject.toml").read_text(), re.M).groups()
    return [sys.executable, "-c", f"import sys; from {module} import {name}; sys.exit({name}())"]


ENTRIES = {
    "module": [sys.executable, "-m", "structdr"],
    "cli-module": [sys.executable, "-m", "structdr.cli"],
    "console-script": console_script(),
}

# A sitecustomize that appends to entry.log in the working directory when
# the exit handlers run and when the interpreter's teardown frees its marker.
TEARDOWN_PROBE = textwrap.dedent("""
    import atexit
    import os


    def _note(word, fd=os.open("entry.log", os.O_WRONLY | os.O_CREAT | os.O_APPEND),
              write=os.write):
        write(fd, f"{word}\\n".encode())


    class _Teardown:
        def __del__(self, note=_note):
            note("teardown")


    atexit.register(_note, "exit handlers")
    _marker = _Teardown()
""")

# argv, exit code and the files written, run in a directory that holds
# golden.csv (a dataset), not_spd.json (a spec whose second covariance is not
# positive definite) and prop1.json (the prop1 recipe at 2 replicates)
STAGES = ["stage_isotropic.csv", "stage_weighted.csv", "stage_weights.csv"]
PARITY = {
    "generate-0": (["generate", "--d", "3", "--k", "2", "--n-per-cluster", "20", "--seed", "1",
                    "--out", "data.csv"], 0, ["data.csv"]),
    "generate-2": (["generate", "--d", "3", "--k", "0", "--n-per-cluster", "20",
                    "--out", "data.csv"], 2, []),
    "generate-3": (["generate", "--spec", "not_spd.json", "--n-per-cluster", "20",
                    "--out", "data.csv"], 3, []),
    "generate-4": (["generate", "--spec", "missing.json", "--n-per-cluster", "20",
                    "--out", "data.csv"], 4, []),
    "transform-0": (["transform", "--data", "golden.csv", "--out", "stage"], 0, STAGES),
    "transform-2": (["transform", "--data", "golden.csv", "--alpha", "-1", "--out", "stage"],
                    2, []),
    "transform-4": (["transform", "--data", "golden.csv", "--out", "missing/stage"], 4, []),
    "analyze-0": (["analyze", "--data", "golden.csv", "--out", "report.csv"], 0, ["report.csv"]),
    # the report is printed before the --out file fails to open
    "analyze-4": (["analyze", "--data", "golden.csv", "--out", "missing/report.csv"], 4, []),
    "sweep-0": (["sweep", "--config", "prop1.json", "--out", "r.csv"], 0, ["r.csv"]),
    "sweep-2": (["sweep", "--config", "prop1.json", "--out", "r.csv", "--seed", "-1"], 2, []),
    "sweep-4": (["sweep", "--config", "prop1.json", "--out", "missing/r.csv"], 4, []),
    "recipe-0": (["recipe", "fig1", "--out", "fig1.json"], 0, ["fig1.json"]),
    "recipe-2": (["recipe", "fig99", "--out", "fig99.json"], 2, []),
    "usage-error": (["bogus-verb"], 2, []),
    "missing-argument": (["analyze"], 2, []),
    "help": (["--help"], 0, []),
    "verb-help": (["sweep", "--help"], 0, []),
}


class TestEntryPoints:
    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus-verb"])
        assert exc.value.code == 2

    def test_import_leaves_scipy_stats_unloaded(self, tmp_path):
        # the runtime needs numpy only: with scipy blocked, structdr imports,
        # sdist_overlap runs and every verb succeeds
        script = textwrap.dedent("""
            import sys
            sys.modules["scipy"] = None
            import numpy as np
            from structdr import MixtureSpec, sdist_overlap
            from structdr.cli import main
            spec = MixtureSpec(means=np.array([[0.0, 0.0], [2.0, 0.0]]),
                               covariances=np.stack([np.eye(2)] * 2))
            assert 0.5 < sdist_overlap(spec, 20_000).value < 1.0
            codes = [
                main(["generate", "--d", "3", "--k", "2", "--n-per-cluster", "30",
                      "--out", "data.csv"]),
                main(["analyze", "--data", "data.csv", "--out", "report.csv"]),
                main(["transform", "--data", "data.csv", "--out", "stage"]),
                main(["recipe", "prop1", "--out", "prop1.json"]),
                main(["sweep", "--config", "prop1.json", "--out", "prop1.csv"]),
            ]
            assert codes == [0] * 5, codes
            print(sorted(name for name in sys.modules if name.startswith("scipy")))
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "['scipy']"

    def test_import_and_serial_sweep_leave_process_pool_unloaded(self):
        # the pool modules cost about 20 ms to import; neither the import
        # nor a one-thread sweep loads them
        script = textwrap.dedent("""
            import sys
            from dataclasses import replace
            import structdr.cli
            from structdr import recipe, run_sweep
            run_sweep(replace(recipe("fig3_d7"), clusters=[3, 4], replicates=2), threads=1)
            print([m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules])
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_function_level_imports_are_only_the_known_ones(self):
        # a new import cycle or lazy import shows up here: multiprocessing
        # is imported only when a sweep forks helpers, or when a child
        # forked from a process that has helpers forgets them; a helper
        # imports signal (loaded already by multiprocessing) to ignore
        # SIGINT; and fisher_subspace imports structure, which imports subspace, until
        # it moves there
        found = []
        for path in sorted((Path(__file__).resolve().parents[1] / "src" / "structdr").glob("*.py")):
            tree = ast.parse(path.read_text())
            for func in ast.walk(tree):
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for node in ast.walk(func):
                        if isinstance(node, ast.Import):
                            found += [(path.stem, func.name, a.name) for a in node.names]
                        elif isinstance(node, ast.ImportFrom):
                            module = "." * node.level + (node.module or "")
                            found.append((path.stem, func.name, module))
        assert sorted(found) == [
            ("experiment", "_forget_helpers", "multiprocessing"),
            ("experiment", "_fork_helpers", "multiprocessing"),
            ("experiment", "_serve", "signal"),
            ("subspace", "fisher_subspace", ".structure"),
        ]

    def test_module_invocation(self, tmp_path):
        # each way to start the command reaches cli.run: the exit handlers
        # run, and the interpreter's teardown, in which a marker object's
        # __del__ would note itself, does not
        site = tmp_path / "site"
        site.mkdir()
        (site / "sitecustomize.py").write_text(TEARDOWN_PROBE)
        for name, command in ENTRIES.items():
            cwd = tmp_path / name
            cwd.mkdir()
            proc = subprocess.run([*command, "recipe", "fig1", "--out", "cfg.json"],
                                  capture_output=True, text=True, cwd=cwd, env=child_env(site))
            assert proc.returncode == 0, (name, proc.stderr)
            assert (cwd / "cfg.json").read_text() == recipe("fig1").to_json() + "\n"
            assert (cwd / "entry.log").read_text() == "exit handlers\n", name

    @pytest.mark.parametrize("argv,code,writes", PARITY.values(), ids=PARITY.keys())
    def test_module_and_main_give_the_same_results(self, tmp_path, monkeypatch, capsys, argv,
                                                   code, writes):
        # stdout, stderr, exit code and output files, byte for byte: what
        # the command writes is all there before os._exit ends the process
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps at the same width
        results = []
        for side in ("module", "main"):
            cwd = tmp_path / side
            cwd.mkdir()
            shutil.copy(DATA / "gen_d4_k2_n30_s1.csv", cwd / "golden.csv")
            (cwd / "not_spd.json").write_text(json.dumps({
                "means": [[0.0, 0.0], [5.0, 0.0]],
                "covariances": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]]],
            }))
            prop1 = json.loads(recipe("prop1").to_json())
            (cwd / "prop1.json").write_text(json.dumps(dict(prop1, replicates=2)))
            inputs = {path.name for path in cwd.iterdir()}
            if side == "module":
                proc = subprocess.run([sys.executable, "-m", "structdr", *argv], cwd=cwd,
                                      env=child_env(), capture_output=True, text=True)
                got, out, err = proc.returncode, proc.stdout, proc.stderr
            else:
                monkeypatch.chdir(cwd)
                try:
                    got = main(list(argv))
                except SystemExit as exc:
                    got = exc.code
                out, err = capsys.readouterr()
            files = {path.name: path.read_bytes() for path in cwd.iterdir()
                     if path.name not in inputs}
            # the sweep prints its compute time
            out = re.sub(r"[0-9.]+s compute", "s compute", out)
            results.append((got, out, err, files))
        assert results[0] == results[1]
        assert results[0][0] == code
        assert sorted(results[0][3]) == sorted(writes)

    @pytest.mark.parametrize("sink", [
        pytest.param("full", marks=pytest.mark.skipif(not Path("/dev/full").exists(),
                                                      reason="needs /dev/full")),
        "closed-pipe", "closed",
    ])
    @pytest.mark.parametrize("entry", ["module", "main"])
    def test_a_report_that_cannot_be_written_exits_4(self, entry, sink):
        # stdout is buffered, so the report is written when main flushes it,
        # and a failure there is an I/O error, not a warning at exit with
        # status 120; with no stdout at all (>&-) there is nothing to write.
        # main called in process, without run, then points stdout at
        # os.devnull, so the flush at interpreter exit does not fail again
        command = {
            "module": ENTRIES["module"],
            "main": [sys.executable, "-c",
                     "import sys; from structdr.cli import main; sys.exit(main(sys.argv[1:]))"],
        }[entry] + ["analyze", "--data", str(DATA / "gen_d4_k2_n30_s1.csv")]
        env = child_env()
        if sink == "closed":
            proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *command],
                                  stderr=subprocess.PIPE, text=True, env=env)
            assert (proc.returncode, proc.stderr) == (0, "")
            return
        if sink == "full":
            with open("/dev/full", "w") as full:
                proc = subprocess.run(command, stdout=full, stderr=subprocess.PIPE, text=True,
                                      env=env)
            reason = "No space left on device"
        else:
            read, write = os.pipe()
            os.close(read)
            try:
                proc = subprocess.run(command, stdout=write, stderr=subprocess.PIPE, text=True,
                                      env=env)
            finally:
                os.close(write)
            reason = "Broken pipe"
        assert proc.returncode == 4
        assert re.fullmatch(rf"structdr: I/O error: \[Errno \d+\] {reason}\n", proc.stderr)

    @pytest.mark.skipif(len(os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
                            else range(os.cpu_count() or 1)) < 2,
                        reason="needs 2 CPUs for 2 processes")
    def test_a_two_process_sweep_leaves_no_helper(self, tmp_path):
        # an exit hook registered before the sweep imports multiprocessing
        # runs after multiprocessing's, which stops and joins the helper
        config = json.loads(recipe("prop1").to_json())
        (tmp_path / "prop1.json").write_text(json.dumps(dict(config, replicates=4)))
        script = textwrap.dedent("""
            import atexit, json, sys
            from structdr import cli, experiment

            def record():
                with open("helpers.json", "w") as fh:
                    json.dump([[h.pid, h.exitcode] for _, h in experiment._helpers], fh)

            atexit.register(record)
            sys.argv[1:] = ["sweep", "--config", "prop1.json", "--out", "r.csv", "--threads", "2"]
            cli.run()
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              cwd=tmp_path, env=child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        helpers = json.loads((tmp_path / "helpers.json").read_text())
        assert len(helpers) == 1
        for pid, exitcode in helpers:
            assert exitcode is not None  # joined before os._exit
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert len(read_records_csv(tmp_path / "r.csv")) == 4
