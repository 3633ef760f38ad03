"""Correctness checks for the benchmark's outputs.

Each check returns (ok, detail). The checks are:

* `compare_reference`: a sweep CSV against a committed reference CSV.
  Coordinate, seed, status, reason and bound_satisfied columns must be
  identical; float columns must agree within FLOAT_ATOL.
* `oracle_record`: one sweep record against an independent numpy/scipy
  implementation of the paper's quantities on the same generated data.
  It whitens with a Cholesky factor instead of the spectral one; every
  quantity checked is invariant to that choice.
* `check_analyze_output`: the numbers `structdr analyze` prints against an
  in-process `distinctness_delta_check` on the same dataset file.
* `check_transform_outputs`: the CSVs `structdr transform` writes satisfy
  Y^T Y = I, hold the hyperbolic weights of Y, and Z0 = center(w * Y).
"""

import csv
import math

import numpy as np
import scipy.linalg

# Absolute tolerance for float columns against the reference CSVs and for
# the independent oracle. Reordered floating-point sums move these values
# by ~1e-13; a real change to what is computed moves them far more.
FLOAT_ATOL = 1e-9
ORACLE_ATOL = 1e-8
FLOAT_COLUMNS = ("lambda_x", "lambda_z", "delta", "bound_rhs", "sss_x", "sss_z",
                 "empirical_sd_norm")


def _read_csv(path):
    with open(path, newline="") as fh:
        schema = fh.readline().rstrip("\n")
        rows = list(csv.reader(fh))
    return schema, rows[0], rows[1:]


def compare_reference(actual_path, reference_path):
    schema, header, rows = _read_csv(actual_path)
    ref_schema, ref_header, ref_rows = _read_csv(reference_path)
    if (schema, header) != (ref_schema, ref_header):
        return False, f"schema/header differ: {schema} {header} vs {ref_schema} {ref_header}"
    if len(rows) != len(ref_rows):
        return False, f"{len(rows)} rows, reference has {len(ref_rows)}"
    floats = {header.index(c) for c in FLOAT_COLUMNS}
    worst = 0.0
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for j, (a, b) in enumerate(zip(row, ref)):
            if j not in floats or a == "" or b == "":
                if a != b:
                    return False, f"row {i} column {header[j]}: {a!r} vs reference {b!r}"
                continue
            diff = abs(float(a) - float(b))
            if not diff <= FLOAT_ATOL:
                return False, (f"row {i} column {header[j]}: {a} vs reference {b} "
                               f"(|diff| {diff:.3e} > {FLOAT_ATOL:g})")
            worst = max(worst, diff)
    return True, f"{len(rows)} rows match, max |float diff| {worst:.3e} <= {FLOAT_ATOL:g}"


def _centered(x):
    return x - x.mean(axis=0)


def _fisher(x0, labels, k):
    """Top k-1 generalized eigenpairs of (between, total) scatter."""
    total = x0.T @ x0
    means = np.stack([x0[labels == c].mean(axis=0) for c in range(1, k + 1)])
    counts = np.bincount(labels)[1:]
    between = (means * counts[:, None]).T @ means
    values, vectors = scipy.linalg.eigh(between, total)
    return min(max(values[-(k - 1):].mean(), 0.0), 1.0), vectors[:, -(k - 1):]


def _pcs(x0, m):
    _, vectors = np.linalg.eigh(x0.T @ x0)
    return vectors[:, -m:]


def _sss(a, b):
    return float(np.mean(np.cos(scipy.linalg.subspace_angles(a, b)) ** 2))


def reference_quantities(data, labels, alpha):
    """The values a sweep record or `analyze` reports, computed here."""
    k = int(labels.max())
    n, d = data.shape
    x0 = _centered(data)
    lambda_x, fisher_x = _fisher(x0, labels, k)
    chol = np.linalg.cholesky(x0.T @ x0)
    y = scipy.linalg.solve_triangular(chol, x0.T, lower=True).T
    sqnorms = np.einsum("ij,ij->i", y, y)
    z0 = _centered(y / np.sqrt(1.0 + sqnorms / alpha)[:, None])
    lambda_z, fisher_z = _fisher(z0, labels, k)
    delta = abs(lambda_z - lambda_x)
    bound = (d / alpha) * (lambda_x + math.sqrt(k)) / math.sqrt(n)
    return {
        "lambda_x": lambda_x, "lambda_z": lambda_z, "delta": delta,
        "bound_rhs": bound, "bound_satisfied": delta <= bound,
        "sss_x": _sss(_pcs(x0, k - 1), fisher_x),
        "sss_z": _sss(_pcs(z0, k - 1), fisher_z),
        "empirical_sd_norm": float(sqnorms.std()),
    }


def oracle_record(record, master_seed):
    """Regenerate one record's dataset and compare its values."""
    from structdr import experiment, mixture

    cell = experiment.Cell(record.d, record.k, record.n_per_cluster, record.alpha,
                           record.separation, record.dispersion, record.scheme)
    spec_seed, data_seed = experiment.derive_seeds(master_seed, cell, record.replicate)
    spec = mixture.make_separation_family(cell.d, cell.k, cell.separation,
                                          cell.dispersion, seed=spec_seed)
    data = mixture.sample(spec, cell.n_per_cluster, seed=data_seed)
    want = reference_quantities(data.data, data.labels, cell.alpha)
    where = f"cell {tuple(cell)} replicate {record.replicate}"
    if record.status != "ok" or data_seed != record.seed:
        return False, f"{where}: status {record.status!r}, seed {record.seed} vs {data_seed}"
    if record.bound_satisfied != want["bound_satisfied"]:
        return False, f"{where}: bound_satisfied {record.bound_satisfied}"
    for name in FLOAT_COLUMNS:
        got = getattr(record, name)
        if not abs(got - want[name]) <= ORACLE_ATOL:
            return False, f"{where}: {name} {got!r} vs oracle {want[name]!r}"
    return True, f"{where} matches within {ORACLE_ATOL:g}"


def parse_analyze(stdout):
    """key=value pairs printed by `structdr analyze`."""
    values = {}
    for token in stdout.split():
        key, _, value = token.partition("=")
        if value:
            values[key] = value
    return values


def check_analyze_output(stdout, dataset_path, alpha):
    from structdr import linalg, mixture, structure, subspace, transform

    data = mixture.LabeledDataset.from_csv(dataset_path)
    pipe = transform.transform_pipeline(data, alpha=alpha)
    report = structure.distinctness_delta_check(data, pipe.weighted, alpha,
                                                isotropic=pipe.isotropic)
    m = data.k - 1
    want = {
        "lambda_x": report.lambda_bar_x, "lambda_z": report.lambda_bar_z,
        "delta": report.observed_delta, "bound": report.bound_rhs,
        "sss_x": subspace.sss(subspace.pc_subspace(linalg.apply_centering(data.data), m),
                              subspace.fisher_subspace(data)),
        "sss_z": subspace.sss(subspace.pc_subspace(pipe.weighted.data, m),
                              subspace.fisher_subspace(pipe.weighted)),
        "sd_norm_sq": report.empirical_sd_norm,
    }
    got = parse_analyze(stdout)
    if got.get("satisfied") != ("true" if report.bound_satisfied else "false"):
        return False, f"satisfied={got.get('satisfied')}, in-process {report.bound_satisfied}"
    for key, value in want.items():
        # analyze prints 6 decimals (sd_norm_sq: 6 significant digits)
        tol = 5.01e-7 * (abs(value) if key == "sd_norm_sq" else 1.0)
        if key not in got or not abs(float(got[key]) - value) <= tol:
            return False, f"{key}={got.get(key)} vs in-process {value!r}"
    return True, "analyze output matches in-process distinctness_delta_check"


def _load_matrix(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    values = np.array([[float(v) for v in row] for row in rows])
    return values[:, :-1], values[:, -1].astype(np.int64)


def check_transform_outputs(prefix, dataset_path, alpha):
    x, labels = _load_matrix(dataset_path)
    y, y_labels = _load_matrix(f"{prefix}_isotropic.csv")
    z0, z_labels = _load_matrix(f"{prefix}_weighted.csv")
    w, w_labels = _load_matrix(f"{prefix}_weights.csv")
    w = w[:, 0]
    if not (np.array_equal(labels, y_labels) and np.array_equal(labels, z_labels)
            and np.array_equal(labels, w_labels)):
        return False, "transform outputs carry different labels from the input"
    gram_err = float(np.abs(y.T @ y - np.eye(x.shape[1])).max())
    x0 = _centered(x)
    # Y = X0 W for some whitener W; recover it and check it whitens X0.
    whitener = np.linalg.lstsq(x0, y, rcond=None)[0]
    fit_err = float(np.abs(x0 @ whitener - y).max())
    weights = 1.0 / np.sqrt(1.0 + np.einsum("ij,ij->i", y, y) / alpha)
    weight_err = float(np.abs(w - weights).max())
    z_err = float(np.abs(_centered(weights[:, None] * y) - z0).max())
    worst = max(gram_err, fit_err, weight_err, z_err)
    if not worst <= ORACLE_ATOL:
        return False, (f"transform outputs off: |Y^T Y - I| {gram_err:.2e}, "
                       f"affine fit {fit_err:.2e}, weights {weight_err:.2e}, Z0 {z_err:.2e}")
    return True, f"Y^T Y = I, weights and Z0 agree within {worst:.2e}"
