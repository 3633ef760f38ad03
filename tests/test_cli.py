"""CLI verbs, file formats, and exit-code contract."""

import ast
import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from structdr import LabeledDataset, cli, make_separation_family, read_records_csv, sample
from structdr.cli import main


DATA = Path(__file__).resolve().parent / "data"


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
        assert f"need k >= 1, got k = {k}" in capsys.readouterr().err

    def test_dispersion_whose_covariances_overflow_is_config_error(self, tmp_path, capsys):
        code = run_cli("generate", "--d", "3", "--k", "2", "--dispersion", "1e200",
                       "--n-per-cluster", "20", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "dispersion = 1e+200 is too large: the covariances overflow" in capsys.readouterr().err

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
        ({"dims": ["a"]}, "dims must be a list of integers, got ['a']"),
        ({"dims": 7}, "dims must be a list of integers, got 7"),
        ({"alphas": [0.5, None]}, "alphas must be a list of finite numbers"),
        ({"clusters": [1]}, "clusters must all be >= 2, got [1]"),
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
        # a new import cycle or lazy import shows up here: the pool modules
        # are imported only when a sweep forks workers, and fisher_subspace
        # imports structure, which imports subspace, until it moves there
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
            ("experiment", "run_sweep", "concurrent.futures"),
            ("experiment", "run_sweep", "multiprocessing"),
            ("subspace", "fisher_subspace", ".structure"),
        ]

    def test_module_invocation(self, tmp_path):
        out = tmp_path / "cfg.json"
        proc = subprocess.run(
            [sys.executable, "-m", "structdr", "recipe", "fig1", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()
