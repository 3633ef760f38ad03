"""Scatter construction, the Fisher eigenproblem and distinctness summary,
the Monte-Carlo overlap estimate against closed-form normal-CDF oracles,
and the perturbation predictor with its re-solve convergence check.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm, spearmanr

from structdr import (
    ConfigError,
    LabeledDataset,
    MixtureSpec,
    NumericalError,
    RankError,
    ScatterPair,
    ShapeError,
    SymmetryError,
    distinctness_delta_check,
    fisher_solve,
    fisher_subspace,
    gen_eig,
    make_separation_family,
    perturb_eigs_first_order,
    proposition1_bound,
    sample,
    scatter_matrices,
    sdist_overlap,
    transform_pipeline,
)
from structdr import structure, transform
from structdr.linalg import Clusters, cluster_counts, symmetrize, total_scatter
from structdr.structure import row_pass

from oracles import hat_matrix

DATA = Path(__file__).resolve().parent / "data"


def random_spd(rng, d, shift=1.0):
    a = rng.standard_normal((d, d))
    return symmetrize(a @ a.T + shift * np.eye(d))


class TestScatterMatrices:
    def test_single_cluster_one_dim(self):
        data = LabeledDataset(data=np.array([[-1.0], [1.0]]), labels=np.array([1, 1]))
        pair = scatter_matrices(data)
        np.testing.assert_allclose(pair.total, [[2.0]])
        np.testing.assert_allclose(pair.between, [[0.0]], atol=1e-15)

    def test_two_point_clusters_zero_within(self):
        data = LabeledDataset(
            data=np.array([[-1.0], [-1.0], [1.0], [1.0]]), labels=np.array([1, 1, 2, 2])
        )
        pair = scatter_matrices(data)
        np.testing.assert_allclose(pair.total, [[4.0]])
        np.testing.assert_allclose(pair.between, [[4.0]])
        np.testing.assert_allclose(pair.total - pair.between, [[0.0]], atol=1e-12)

    def test_between_matches_hat_matrix_oracle(self):
        spec = make_separation_family(4, 3, 2.0, 1.0, seed=1)
        data = sample(spec, 30, seed=2)
        # unsorted labels and unequal cluster sizes
        keep = np.random.default_rng(3).permutation(data.n)[:70]
        data = LabeledDataset(data=data.data[keep], labels=data.labels[keep])
        assert len(set(cluster_counts(data.labels))) > 1
        pair = scatter_matrices(data)
        centered = data.data - data.data.mean(axis=0)
        oracle = centered.T @ hat_matrix(data.labels) @ centered
        assert np.linalg.norm(pair.between - oracle) < 1e-8

    def test_within_is_psd_and_between_low_rank(self):
        for seed in range(5):
            spec = make_separation_family(6, 3, 2.5, 1.0, seed=seed)
            data = sample(spec, 25, seed=seed + 50)
            pair = scatter_matrices(data)
            assert np.linalg.eigvalsh(pair.total - pair.between).min() > -1e-8
            between_vals = np.linalg.eigvalsh(pair.between)
            cutoff = 1e-8 * max(between_vals.max(), 1.0)
            assert int((between_vals > cutoff).sum()) <= 2

    def test_needs_more_rows_than_columns(self):
        data = LabeledDataset(data=np.zeros((3, 3)) + np.eye(3), labels=np.array([1, 1, 2]))
        with pytest.raises(ConfigError, match="n > d"):
            scatter_matrices(data)


    def test_overflowing_total_scatter_is_numerical_error(self):
        # x 1e153 takes the total scatter past the largest double; the
        # overflow is reported by name, with no numpy warning on the way
        golden = LabeledDataset.from_csv(DATA / "gen_d4_k2_n30_s1.csv")
        huge = LabeledDataset(data=1e153 * golden.data, labels=golden.labels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="total scatter overflows: max"):
                fisher_subspace(huge)


class TestFisherSolve:
    def test_tight_clusters_reach_full_distinctness(self):
        rng = np.random.default_rng(3)
        offsets = np.repeat([[-1.0, 0.0], [1.0, 0.0]], 30, axis=0)
        data = LabeledDataset(
            data=offsets + 1e-3 * rng.standard_normal((60, 2)),
            labels=np.repeat([1, 2], 30),
        )
        sol = fisher_solve(scatter_matrices(data), 2)
        assert sol.eigen.values[0] > 1.0 - 1e-4
        assert sol.distinctness > 1.0 - 1e-4

    def test_coincident_cluster_means_give_zero(self):
        # mirror-symmetric clusters share the exact same (zero) mean
        base = np.array([[1.0, 2.0], [-1.0, -2.0], [0.5, -0.25], [-0.5, 0.25]])
        other = np.array([[2.0, -1.0], [-2.0, 1.0], [0.25, 0.5], [-0.25, -0.5]])
        data = LabeledDataset(
            data=np.vstack([base, other]), labels=np.repeat([1, 2], 4)
        )
        sol = fisher_solve(scatter_matrices(data), 2)
        assert np.abs(sol.eigen.values).max() < 1e-12
        assert sol.distinctness == 0.0

    def test_against_direct_inverse_oracle(self):
        spec = make_separation_family(5, 3, 2.0, 1.0, seed=4)
        data = sample(spec, 40, seed=5)
        pair = scatter_matrices(data)
        sol = fisher_solve(pair, 3)
        oracle = np.sort(np.linalg.eigvals(np.linalg.inv(pair.total) @ pair.between).real)[::-1]
        assert abs(sol.distinctness - oracle[:2].mean()) < 1e-8
        assert np.abs(sol.eigen.values - oracle).max() < 1e-8

    def test_values_in_unit_interval(self):
        spec = make_separation_family(6, 4, 3.0, 1.0, seed=6)
        data = sample(spec, 30, seed=7)
        sol = fisher_solve(scatter_matrices(data), 4)
        assert sol.eigen.values.min() > -1e-10
        assert sol.eigen.values.max() < 1.0 + 1e-10
        assert 0.0 <= sol.distinctness <= 1.0

    def test_scale_invariance(self):
        spec = make_separation_family(6, 3, 3.0, 1.0, seed=4)
        data = sample(spec, 60, seed=5)
        base = fisher_solve(scatter_matrices(data), 3).eigen.values
        for c in (1e-3, 1.0, 1e3):
            scaled = LabeledDataset(data=c * data.data, labels=data.labels)
            vals = fisher_solve(scatter_matrices(scaled), 3).eigen.values
            assert np.abs(vals - base).max() < 1e-9

    def test_basis_spans_k_minus_1(self):
        spec = make_separation_family(5, 3, 2.0, 1.0, seed=8)
        data = sample(spec, 40, seed=9)
        leading = fisher_solve(scatter_matrices(data), 3).eigen.vectors[:, :2]
        assert leading.shape == (5, 2)
        assert np.array_equal(fisher_subspace(data).columns, leading)

    def test_whitener_spectrum_and_reduced_solution(self):
        rng = np.random.default_rng(14)
        total = random_spd(rng, 6)
        root = np.linalg.cholesky(total)
        between = symmetrize(root @ np.diag([0.9, 0.5, 0.2, 0, 0, 0]) @ root.T)
        sol = fisher_solve(ScatterPair(total=total, between=between), 3)
        spectrum = sol.spectrum
        np.testing.assert_allclose(
            (spectrum.vectors * spectrum.values) @ spectrum.vectors.T, total, atol=1e-10
        )
        reference = gen_eig(between, total)
        np.testing.assert_allclose(sol.eigen.values, reference.values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sol.eigen.vectors, reference.vectors, rtol=0, atol=1e-12)

    def test_singular_total_scatter_is_rank_error(self):
        total = np.diag([3.0, 2.0, 1.0, 0.0])
        pair = ScatterPair(total=total, between=np.diag([1.0, 0.5, 0.0, 0.0]))
        with pytest.raises(RankError, match=r"total scatter is rank deficient: eigenvalue\[3\]"):
            fisher_solve(pair, 2)

    def test_cluster_count_must_fit_dimension(self):
        spec = make_separation_family(4, 3, 2.0, 1.0, seed=12)
        data = sample(spec, 20, seed=13)
        pair = scatter_matrices(data)
        with pytest.raises(ConfigError):
            fisher_solve(pair, 5)

    def test_asymmetric_between_scatter_is_named(self):
        pair = ScatterPair(total=np.eye(3), between=np.triu(np.ones((3, 3))))
        with pytest.raises(SymmetryError, match="^between scatter not symmetric: "):
            fisher_solve(pair, 2)


class TestSdistOverlap:
    def test_identical_components(self):
        covs = np.stack([np.eye(2), np.eye(2)])
        spec = MixtureSpec(means=np.zeros((2, 2)), covariances=covs)
        est = sdist_overlap(spec, 20_000, seed=0)
        assert abs(est.value - 0.5) <= 3.0 * est.std_error + 1e-12

    def test_far_apart_components(self):
        means = np.array([[0.0, 0.0], [100.0, 0.0]])
        spec = MixtureSpec(means=means, covariances=np.stack([np.eye(2)] * 2))
        est = sdist_overlap(spec, 20_000, seed=1)
        assert 0.999 <= est.value <= 1.0 + 1e-12

    def test_closed_form_normal_cdf_oracle(self):
        # unit-variance components two apart along the first axis; the
        # second axis is shared so it cancels in the overlap integral and
        # the 1-D crossing-point formula applies: sdist = 1 - Phi(-1)
        means = np.array([[0.0, 0.0], [2.0, 0.0]])
        spec = MixtureSpec(means=means, covariances=np.stack([np.eye(2)] * 2))
        est = sdist_overlap(spec, 200_000, seed=2)
        target = 1.0 - norm.cdf(-1.0)
        assert abs(est.value - target) <= 3.0 * est.std_error

    def test_only_two_components_supported(self):
        spec = make_separation_family(4, 3, 2.0, 1.0, seed=3)
        with pytest.raises(ConfigError, match="k = 2"):
            sdist_overlap(spec, 20_000, seed=0)

    def test_sample_floor(self):
        spec = MixtureSpec(means=np.zeros((2, 2)), covariances=np.stack([np.eye(2)] * 2))
        with pytest.raises(ConfigError):
            sdist_overlap(spec, 5_000, seed=0)

    def test_sample_floor_grows_with_dimension(self):
        # the estimator's rows are a sample, with n >= 10 d: at d = 1001 the
        # least mc_samples, 10 000, is too few, and no row is drawn
        d = 1001
        spec = MixtureSpec(means=np.zeros((2, d)),
                           covariances=np.broadcast_to(np.eye(d), (2, d, d)))
        with pytest.raises(ConfigError,
                           match=r"^sample too small: n = 10000 but need n >= 10\*d = 10010 "):
            sdist_overlap(spec, 10_000, seed=0)

    def test_non_integer_sample_count_rejected(self):
        spec = MixtureSpec(means=np.zeros((2, 2)), covariances=np.stack([np.eye(2)] * 2))
        with pytest.raises(ConfigError, match="mc_samples must be an int"):
            sdist_overlap(spec, 10000.5, seed=0)

    @pytest.mark.parametrize("d,separation,dispersion,seed", [
        (2, 2.0, 1.0, 40), (5, 3.5, 0.7, 41), (20, 4.0, 1.5, 42),
    ])
    def test_matches_scipy_logpdf_on_the_same_points(self, d, separation, dispersion, seed):
        # redraw the estimator's points (mc_samples // 2 per component, in
        # order, from one PCG64 stream) and average the ratio from scipy's
        # log densities
        spec = make_separation_family(d, 2, separation, dispersion, seed=seed)
        mc_samples = 20_001
        rng = np.random.default_rng(seed)
        points = np.vstack([
            mean + rng.standard_normal((m, d)) @ np.linalg.cholesky(cov).T
            for mean, cov, m in zip(spec.means, spec.covariances,
                                    (mc_samples // 2, mc_samples // 2))
        ])
        log_f1, log_f2 = (multivariate_normal(mean, cov).logpdf(points)
                          for mean, cov in zip(spec.means, spec.covariances))
        ratio = np.exp(np.minimum(log_f1, log_f2) - np.logaddexp(log_f1, log_f2))
        est = sdist_overlap(spec, mc_samples, seed=seed)
        assert abs(est.value - (1.0 - ratio.mean())) <= 1e-12
        assert abs(est.std_error - ratio.std(ddof=1) / np.sqrt(len(points))) <= 1e-12

    def test_comonotone_with_distinctness_over_separation_grid(self):
        # both coefficients rank the same 10 separation levels identically
        seps = np.linspace(0.0, 6.0, 10)
        lam_means, sdist_means = [], []
        for s in seps:
            lams, sds = [], []
            for r in range(10):
                spec = make_separation_family(2, 2, s, 1.0, seed=300 + r)
                data = sample(spec, 100, seed=700 + r)
                lams.append(fisher_solve(scatter_matrices(data), 2).distinctness)
                sds.append(sdist_overlap(spec, 20_000, seed=r).value)
            lam_means.append(np.mean(lams))
            sdist_means.append(np.mean(sds))
        assert spearmanr(lam_means, sdist_means).statistic == pytest.approx(1.0)


class TestPerturbation:
    def test_zero_deltas_reproduce_base(self):
        rng = np.random.default_rng(20)
        base = gen_eig(random_spd(rng, 4), random_spd(rng, 4))
        pred = perturb_eigs_first_order(base, np.zeros((4, 4)), np.zeros((4, 4)))
        np.testing.assert_allclose(pred, base.values, atol=1e-15)

    def test_diagonal_case_exact(self):
        base = gen_eig(np.diag([2.0, 1.0]), np.eye(2))
        eps = 1e-3
        pred = perturb_eigs_first_order(base, np.diag([eps, 0.0]), np.zeros((2, 2)))
        assert pred[0] == pytest.approx(2.0 + eps, abs=1e-15)
        assert pred[1] == pytest.approx(1.0, abs=1e-15)

    def test_quadratic_convergence_against_resolve(self):
        # prediction error must shrink like eps^2: the error/eps^2 ratio
        # stays flat (within a factor of 3) across three decades
        rng = np.random.default_rng(2024)
        for _ in range(20):
            a = rng.standard_normal((5, 5))
            k0 = symmetrize(a @ a.T + np.diag([5.0, 4.0, 3.0, 2.0, 1.0]))
            m0 = random_spd(rng, 5, shift=5.0)
            base = gen_eig(k0, m0)
            s1 = symmetrize(rng.standard_normal((5, 5)))
            s1 /= np.linalg.norm(s1, "fro")
            s2 = symmetrize(rng.standard_normal((5, 5)))
            s2 /= np.linalg.norm(s2, "fro")
            ratios = []
            for eps in (1e-2, 1e-3, 1e-4):
                pred = perturb_eigs_first_order(base, eps * s1, eps * s2)
                resolved = gen_eig(symmetrize(k0 + eps * s1), symmetrize(m0 + eps * s2)).values
                err = np.abs(np.sort(pred)[::-1] - resolved).max()
                ratios.append(err / eps**2)
            assert max(ratios) / min(ratios) < 3.0

    def test_asymmetric_delta_rejected(self):
        rng = np.random.default_rng(21)
        base = gen_eig(random_spd(rng, 3), random_spd(rng, 3))
        with pytest.raises(Exception):
            perturb_eigs_first_order(base, np.triu(np.ones((3, 3))), np.zeros((3, 3)))


class TestPropositionBound:
    def test_plug_in_value(self):
        value = proposition1_bound(1000, 5, 3, 0.5, 0.5)
        assert value == pytest.approx((1 / np.sqrt(1000)) * 10 * (0.5 + np.sqrt(3)), abs=1e-12)
        assert value == pytest.approx(0.7058, abs=1e-4)

    def test_root_n_decay(self):
        assert proposition1_bound(4000, 5, 3, 0.5, 0.5) == pytest.approx(
            proposition1_bound(1000, 5, 3, 0.5, 0.5) / 2.0
        )

    def test_degenerate_lambda_zero_k_one(self):
        n, d, alpha = 400, 6, 0.5
        assert proposition1_bound(n, d, 1, alpha, 0.0) == pytest.approx(
            d / (alpha * np.sqrt(n)), abs=1e-14
        )

    def test_argument_validation(self):
        with pytest.raises(ConfigError):
            proposition1_bound(0, 5, 3, 0.5, 0.5)
        with pytest.raises(ConfigError):
            proposition1_bound(100, 5, 3, -0.5, 0.5)
        with pytest.raises(ConfigError):
            proposition1_bound(100, 5, 3, 0.5, 1.5)
        for alpha in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="alpha must be finite and > 0"):
                proposition1_bound(100, 5, 3, alpha, 0.5)

    @pytest.mark.parametrize("args,message", [
        (("100", 5, 3, 0.5, 0.5), "n must be an integer, got '100'"),
        ((100.5, 5, 3, 0.5, 0.5), "n must be an integer, got 100.5"),
        ((True, 5, 3, 0.5, 0.5), "n must be an integer, got True"),
        ((100, 5, 10**400, 0.5, 0.5), f"k must be below 2**63, got {10**400}"),
        ((100, 5, 3, 0.5, "0.5"), "lambda_bar_x must be finite and >= 0, got '0.5'"),
        ((100, 5, 3, 0.5, np.nan), "lambda_bar_x must be finite and >= 0, got nan"),
    ], ids=["n-str", "n-float", "n-bool", "k-huge", "lambda-str", "lambda-nan"])
    def test_non_numbers_rejected_naming_them(self, args, message):
        with pytest.raises(ConfigError) as caught:
            proposition1_bound(*args)
        assert str(caught.value) == message

    def test_numpy_integers_give_a_float(self):
        bound = proposition1_bound(np.int64(100), np.int32(5), np.int64(3), 0.5, 0.5)
        assert type(bound) is float and bound == proposition1_bound(100, 5, 3, 0.5, 0.5)


class TestDistinctnessDeltaCheck:
    def test_identity_weights_limit(self):
        spec = make_separation_family(5, 3, 3.0, 1.0, seed=30)
        data = sample(spec, 60, seed=31)
        pipe = transform_pipeline(data, alpha=1e9)
        report = distinctness_delta_check(data, pipe.weighted, 1e9, isotropic=pipe.isotropic)
        assert report.observed_delta < 1e-6

    def test_replicated_runs_satisfy_bound(self):
        # 50 seeded replicates at d=7, k=3, 300 rows per cluster: the shift
        # stays below the bound except possibly when the measured spread of
        # squared norms exceeds d/n
        hits, violations = 0, []
        for r in range(50):
            spec = make_separation_family(7, 3, 10.0, 1.0, seed=1000 + r)
            data = sample(spec, 300, seed=2000 + r)
            pipe = transform_pipeline(data, alpha=0.5)
            report = distinctness_delta_check(data, pipe.weighted, 0.5, isotropic=pipe.isotropic)
            if report.bound_satisfied:
                hits += 1
            else:
                violations.append((report, data.d / data.n))
        assert hits >= int(0.95 * 50)
        for report, d_over_n in violations:
            assert report.empirical_sd_norm > d_over_n

    def test_degenerate_coincident_means(self):
        # separation zero: distinctness starts near zero and stays within
        # the bound after weighting
        spec = make_separation_family(5, 3, 0.0, 1.0, seed=32)
        data = sample(spec, 80, seed=33)
        pipe = transform_pipeline(data, alpha=0.5)
        report = distinctness_delta_check(data, pipe.weighted, 0.5, isotropic=pipe.isotropic)
        assert report.lambda_bar_z <= report.bound_rhs

    def test_first_order_prediction_close_to_observed(self):
        spec = make_separation_family(5, 3, 3.0, 1.0, seed=34)
        data = sample(spec, 400, seed=35)
        pipe = transform_pipeline(data, alpha=0.5)
        report = distinctness_delta_check(data, pipe.weighted, 0.5, isotropic=pipe.isotropic)
        pair_z = scatter_matrices(pipe.weighted)
        observed = gen_eig(pair_z.between, pair_z.total).values
        predicted = np.sort(report.predicted_values)[::-1]
        assert np.abs(predicted - observed).max() < 5e-3

    def test_label_mismatch_rejected(self):
        spec = make_separation_family(4, 2, 2.0, 1.0, seed=36)
        data = sample(spec, 30, seed=37)
        pipe = transform_pipeline(data)
        other = LabeledDataset(
            data=pipe.weighted.data, labels=pipe.weighted.labels[::-1].copy()
        )
        with pytest.raises(ShapeError):
            distinctness_delta_check(data, other, 0.5)

    def test_width_mismatch_rejected(self):
        spec = make_separation_family(5, 2, 2.0, 1.0, seed=36)
        data = sample(spec, 30, seed=37)
        wider = LabeledDataset(
            data=np.hstack([data.data, data.data[:, :1]]), labels=data.labels
        )
        with pytest.raises(ShapeError, match="same columns, got d = 5 and 6"):
            distinctness_delta_check(data, wider, 0.5)


class TestRowPass:
    def test_forms_the_total_scatter_of_x_and_of_z0_only(self, monkeypatch):
        # isotropization makes Y^T Y = I, so Y's total scatter is taken as
        # I and never formed from Y's rows
        data = sample(make_separation_family(7, 3, 10.0, 1.0, seed=38), 300, seed=39)
        shapes = []

        def counting(centered):
            shapes.append(centered.shape)
            return total_scatter(centered)

        monkeypatch.setattr(structure, "total_scatter", counting)
        monkeypatch.setattr(transform, "total_scatter", counting)
        row_pass(data.data.copy()[None], Clusters.of(data.labels), [0.5])
        assert shapes == [(1, *data.data.shape)] * 2
