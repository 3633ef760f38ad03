"""Acceptance suite: one test per verification criterion, each printing a
single PASS/FAIL line (run with `pytest tests/test_acceptance.py -s` to see
them). Tolerances are pinned here and nowhere else.
"""

import time
from collections import defaultdict

import numpy as np
import pytest
from scipy.stats import norm

from structdr import (
    MixtureSpec,
    SubspaceBasis,
    compute_weights,
    fisher_solve,
    gen_eig,
    isotropize,
    make_separation_family,
    perturb_eigs_first_order,
    proposition1_bound,
    recipe,
    run_sweep,
    sample,
    scatter_matrices,
    sdist_overlap,
    sss,
    transform_pipeline,
)
from structdr.cli import main as cli_main
from structdr.linalg import sym_eig, symmetrize
from structdr.mixture import LabeledDataset
from structdr.transform import IsotropicDataset

from oracles import centering_matrix, hat_matrix


def report(number, passed, detail):
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def random_labeled(rng, d=None, k=None):
    d = d if d is not None else int(rng.integers(2, 21))
    k = k if k is not None else int(rng.integers(2, min(d + 1, 6)))
    n_per = int(np.ceil(10 * d / k)) + int(rng.integers(5, 40))
    spec = make_separation_family(d, k, float(rng.uniform(0.0, 5.0)), 1.0,
                                  seed=int(rng.integers(2**32)))
    return sample(spec, n_per, seed=int(rng.integers(2**32)))


@pytest.fixture(scope="module")
def fig3_sweep():
    start = time.perf_counter()
    records = run_sweep(recipe("fig3_d7"), threads=4)
    elapsed = time.perf_counter() - start
    return records, elapsed


def test_criterion_01_isotropization_exactness():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_gram, worst_mean, worst_mass = 0.0, 0.0, 0.0
    for _ in range(100):
        data = random_labeled(rng)
        iso = isotropize(data)
        worst_gram = max(worst_gram, np.linalg.norm(iso.data.T @ iso.data - np.eye(data.d)))
        worst_mean = max(worst_mean, float(np.abs(iso.data.mean(axis=0)).max()))
        worst_mass = max(worst_mass, abs(float((iso.data**2).sum()) - data.d))
    elapsed = time.perf_counter() - start
    ok = worst_gram < 1e-8 and worst_mean < 1e-10 and worst_mass < 1e-8 and elapsed < 10.0
    report(1, ok, f"gram {worst_gram:.2e}, means {worst_mean:.2e}, "
                  f"mass {worst_mass:.2e}, {elapsed:.1f}s")


def test_criterion_02_isotropy_invariance():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        data = random_labeled(rng)
        pair_x = scatter_matrices(data)
        pair_y = scatter_matrices(LabeledDataset(isotropize(data).data, data.labels))
        ex = gen_eig(pair_x.between, pair_x.total).values
        ey = gen_eig(pair_y.between, pair_y.total).values
        worst = max(worst, float(np.abs(ex - ey).max()))
    report(2, worst < 1e-8, f"max Fisher-eigenvalue disagreement {worst:.2e}")


def test_criterion_03_scale_invariance():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(20):
        data = random_labeled(rng, d=6, k=3)
        base = fisher_solve(scatter_matrices(data), 3).eigen.values
        for c in (1e-3, 1.0, 1e3):
            scaled = LabeledDataset(data=c * data.data, labels=data.labels)
            vals = fisher_solve(scatter_matrices(scaled), 3).eigen.values
            worst = max(worst, float(np.abs(vals - base).max()))
    report(3, worst < 1e-9, f"max eigenvalue change under scaling {worst:.2e}")


def test_criterion_04_operator_identities():
    f = centering_matrix(40)
    f_ok = np.abs(f - f.T).max() < 1e-10 and np.abs(f @ f - f).max() < 1e-10

    labels = np.repeat([1, 2, 3], [12, 17, 11])
    h = hat_matrix(labels)
    h_ok = (
        np.abs(h @ h - h).max() < 1e-10
        and abs(np.trace(h) - 3.0) < 1e-10
        and abs(np.linalg.norm(h, "fro") - np.sqrt(3.0)) < 1e-10
    )

    # weighted scatter forms (via F and H products) against the
    # cluster-mean computation
    spec = make_separation_family(5, 3, 3.0, 1.0, seed=8)
    data = sample(spec, 1700, seed=9)
    pipe = transform_pipeline(data, alpha=0.5)
    y, w = pipe.isotropic.data, pipe.weights
    fw = centering_matrix(y.shape[0])
    hw = hat_matrix(data.labels)
    t_form = (y * w[:, None]).T @ fw @ (y * w[:, None])
    b_form = (y * w[:, None]).T @ hw @ (y * w[:, None])
    pair = scatter_matrices(pipe.weighted)
    t_err = np.linalg.norm(pair.total - t_form)
    b_err = np.linalg.norm(pair.between - b_form)
    forms_ok = t_err < 1e-8 and b_err < 1e-8

    report(4, f_ok and h_ok and forms_ok,
           f"F/H identities {'ok' if f_ok and h_ok else 'BAD'}, "
           f"scatter forms T {t_err:.2e} B {b_err:.2e}")


def test_criterion_05_weight_formulas():
    alpha = 0.5
    rows = np.array([[0.0, 0.0], [np.sqrt(alpha), 0.0]])
    iso = IsotropicDataset(
        data=rows, center=np.zeros(2), whitener=np.eye(2), spectrum=sym_eig(np.eye(2)),
    )
    hyp = compute_weights(iso, alpha=alpha, scheme="hyperbolic")
    exp = compute_weights(iso, alpha=alpha, scheme="exponential")
    errs = [
        abs(hyp[0] - 1.0),
        abs(exp[0] - 1.0),
        abs(hyp[1] - 1.0 / np.sqrt(2.0)),
        abs(exp[1] - np.exp(-1.0)),
    ]
    report(5, max(errs) < 1e-12, f"spot-value errors {max(errs):.2e}")


def test_criterion_06_sdist_oracle():
    start = time.perf_counter()
    # unit-variance components two apart; the shared second coordinate
    # cancels, so the 1-D crossing-point oracle 1 - Phi(-1) applies exactly
    means = np.array([[0.0, 0.0], [2.0, 0.0]])
    spec = MixtureSpec(means=means, covariances=np.stack([np.eye(2)] * 2))
    est = sdist_overlap(spec, 200_000, seed=606)
    target = 1.0 - norm.cdf(-1.0)
    close_ok = abs(est.value - target) <= 3.0 * est.std_error

    same = MixtureSpec(means=np.zeros((2, 2)), covariances=np.stack([np.eye(2)] * 2))
    est_same = sdist_overlap(same, 200_000, seed=607)
    same_ok = abs(est_same.value - 0.5) <= 3.0 * est_same.std_error + 1e-12
    elapsed = time.perf_counter() - start
    report(6, close_ok and same_ok and elapsed < 5.0,
           f"|{est.value:.5f} - {target:.5f}| vs 3se={3 * est.std_error:.5f}, "
           f"identical {est_same.value:.6f}, {elapsed:.1f}s")


def test_criterion_07_perturbation_quadratic_convergence():
    rng = np.random.default_rng(2024)
    worst_spread = 0.0
    for _ in range(20):
        a = rng.standard_normal((5, 5))
        k0 = symmetrize(a @ a.T + np.diag([5.0, 4.0, 3.0, 2.0, 1.0]))
        b = rng.standard_normal((5, 5))
        m0 = symmetrize(b @ b.T + 5.0 * np.eye(5))
        base = gen_eig(k0, m0)
        s1 = symmetrize(rng.standard_normal((5, 5)))
        s1 /= np.linalg.norm(s1, "fro")
        s2 = symmetrize(rng.standard_normal((5, 5)))
        s2 /= np.linalg.norm(s2, "fro")
        ratios = []
        for eps in (1e-2, 1e-3, 1e-4):
            pred = perturb_eigs_first_order(base, eps * s1, eps * s2)
            resolved = gen_eig(symmetrize(k0 + eps * s1), symmetrize(m0 + eps * s2)).values
            ratios.append(float(np.abs(np.sort(pred)[::-1] - resolved).max()) / eps**2)
        worst_spread = max(worst_spread, max(ratios) / min(ratios))
    report(7, worst_spread < 3.0, f"worst error/eps^2 spread {worst_spread:.3f} (< 3)")


def test_criterion_08_proposition_bound(fig3_sweep):
    plug_in = proposition1_bound(1000, 5, 3, 0.5, 0.5)
    plug_ok = abs(plug_in - 0.7058) <= 1e-4

    records, elapsed = fig3_sweep
    ok_records = [r for r in records if r.status == "ok"]
    satisfied = sum(1 for r in ok_records if r.bound_satisfied)
    rate_ok = len(records) == 750 and satisfied >= int(np.ceil(0.95 * len(ok_records)))
    violations_ok = all(
        r.empirical_sd_norm > r.d / (r.k * r.n_per_cluster)
        for r in ok_records
        if not r.bound_satisfied
    )
    report(8, plug_ok and rate_ok and violations_ok and elapsed < 300.0,
           f"plug-in {plug_in:.5f}, bound satisfied {satisfied}/{len(ok_records)}, "
           f"sweep {elapsed:.1f}s")


def test_criterion_09_distinctness_monotonicity():
    def averaged_lambda(sep, disp):
        values = []
        for r in range(20):
            spec = make_separation_family(2, 2, sep, disp, seed=900 + r)
            data = sample(spec, 100, seed=950 + r)
            values.append(fisher_solve(scatter_matrices(data), 2).distinctness)
        return float(np.mean(values))

    sep_curve = [averaged_lambda(s, 1.0) for s in np.linspace(0.0, 6.0, 10)]
    disp_curve = [averaged_lambda(4.0, w) for w in np.linspace(1.0, 4.0, 10)]
    sep_ok = all(a <= b for a, b in zip(sep_curve, sep_curve[1:]))
    disp_ok = all(a >= b for a, b in zip(disp_curve, disp_curve[1:]))
    report(9, sep_ok and disp_ok,
           f"separation curve {'non-decreasing' if sep_ok else 'BAD'} "
           f"[{sep_curve[0]:.3f}..{sep_curve[-1]:.3f}], dispersion curve "
           f"{'non-increasing' if disp_ok else 'BAD'} [{disp_curve[0]:.3f}..{disp_curve[-1]:.3f}]")


def test_criterion_10_similarity_reproduction(fig3_sweep):
    records, elapsed = fig3_sweep
    groups = defaultdict(list)
    for r in records:
        assert r.status == "ok"
        groups[(r.k, r.n_per_cluster)].append(r)

    details, ok = [], True
    for k in (3, 4, 5):
        mean_z = np.mean([r.sss_z for r in groups[(k, 300)]])
        mean_x = np.mean([r.sss_x for r in groups[(k, 300)]])
        level_ok = mean_z >= 0.9
        gap_ok = mean_z > mean_x
        ok = ok and level_ok and gap_ok
        details.append(f"k={k}: z300={mean_z:.3f} x300={mean_x:.3f}")
    for k in (3, 4, 5, 6, 7):
        curve = [np.mean([r.sss_z for r in groups[(k, n)]]) for n in (100, 300, 500)]
        mono_ok = curve[0] <= curve[1] <= curve[2]
        ok = ok and mono_ok
        details.append(f"k={k} mono={'y' if mono_ok else 'N'}")
    report(10, ok and elapsed < 600.0, "; ".join(details) + f"; sweep {elapsed:.1f}s")


def test_criterion_11_sss_contract():
    rng = np.random.default_rng(1111)
    basis = SubspaceBasis(columns=rng.standard_normal((5, 2)))
    e1 = SubspaceBasis(columns=np.eye(3)[:, :1])
    e2 = SubspaceBasis(columns=np.eye(3)[:, 1:2])
    theta = np.pi / 6
    tilted = SubspaceBasis(columns=np.array([[np.cos(theta)], [np.sin(theta)]]))
    axis = SubspaceBasis(columns=np.eye(2)[:, :1])
    spot_errs = [
        abs(sss(basis, basis) - 1.0),
        abs(sss(e1, e2)),
        abs(sss(axis, tilted) - 0.75),
    ]

    worst_route = 0.0
    for _ in range(100):
        v = SubspaceBasis(columns=rng.standard_normal((8, 3)))
        a = SubspaceBasis(columns=rng.standard_normal((8, 3)))
        cross = v.columns.T @ a.columns
        k_mat = symmetrize(cross @ np.linalg.solve(a.columns.T @ a.columns, cross.T))
        m_mat = symmetrize(v.columns.T @ v.columns)
        eig_route = float(gen_eig(k_mat, m_mat).values.mean())
        worst_route = max(worst_route, abs(sss(v, a) - eig_route))
    report(11, max(spot_errs) < 1e-8 and worst_route < 1e-8,
           f"spot errors {max(spot_errs):.2e}, route disagreement {worst_route:.2e}")


def test_criterion_12_sweep_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    config = recipe("prop1")
    config.replicates = 6
    config.clusters = [3, 4]
    config_path.write_text(config.to_json())

    outputs = []
    for name, threads in (("a", 1), ("b", 1), ("c", 3)):
        out = tmp_path / f"{name}.csv"
        code = cli_main(
            ["sweep", "--config", str(config_path), "--out", str(out),
             "--threads", str(threads)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    report(12, identical, f"3 sweep runs (threads 1/1/3) byte-identical: {identical}")
