"""Isotropization and weighting, including exact spot values of the two
weighting formulas, the operator identities behind the weighted scatters
(checked by explicit materialized products), and the invariance of the
Fisher eigenvalues under isotropization.
"""

import warnings

import numpy as np
import pytest

from structdr import (
    ConfigError,
    IsotropicDataset,
    LabeledDataset,
    RankError,
    ShapeError,
    analyze,
    apply_weights,
    compute_weights,
    gen_eig,
    isotropize,
    make_separation_family,
    pc_subspace,
    proposition1_bound,
    sample,
    scatter_matrices,
    sym_eig,
    transform_pipeline,
)

from oracles import centering_matrix, hat_matrix


def random_dataset(seed=0, d=4, k=2, n_per=40, separation=3.0):
    spec = make_separation_family(d, k, separation, 1.0, seed=seed)
    return sample(spec, n_per, seed=seed + 1000)


def synthetic_isotropic(rows):
    rows = np.asarray(rows, dtype=float)
    return IsotropicDataset(
        data=rows,
        labels=np.ones(rows.shape[0], dtype=np.int64),
        center=np.zeros(rows.shape[1]),
        whitener=np.eye(rows.shape[1]),
        spectrum=sym_eig(np.eye(rows.shape[1])),
    )


class TestIsotropize:
    def test_isotropic_position(self):
        for seed in range(5):
            data = random_dataset(seed=seed)
            iso = isotropize(data)
            d = data.d
            assert np.abs(iso.data.mean(axis=0)).max() < 1e-10
            assert np.linalg.norm(iso.data.T @ iso.data - np.eye(d)) < 1e-8
            assert abs((iso.data**2).sum() - d) < 1e-8

    def test_mean_squared_norm_is_d_over_n(self):
        data = random_dataset(seed=3)
        iso = isotropize(data)
        sqnorms = (iso.data**2).sum(axis=1)
        assert sqnorms.mean() == pytest.approx(data.d / data.n, abs=1e-12)

    def test_labels_pass_through(self):
        data = random_dataset(seed=4)
        iso = isotropize(data)
        assert np.array_equal(iso.labels, data.labels)

    def test_provenance_reproduces_output(self):
        data = random_dataset(seed=5)
        iso = isotropize(data)
        assert np.abs((data.data - iso.center) @ iso.whitener - iso.data).max() < 1e-10

    def test_spectrum_rebuilds_total_scatter(self):
        # the spectrum holds X's principal axes, and the whitener is A L^{-1/2}
        data = random_dataset(seed=7, d=5, k=3)
        iso = isotropize(data)
        centered = data.data - data.data.mean(axis=0)
        spectrum = iso.spectrum
        rebuilt = (spectrum.vectors * spectrum.values) @ spectrum.vectors.T
        np.testing.assert_allclose(rebuilt, centered.T @ centered, rtol=0, atol=1e-10)
        assert np.array_equal(iso.whitener, spectrum.vectors / np.sqrt(spectrum.values))

    def test_duplicated_column_rejected(self):
        data = random_dataset(seed=6)
        doubled = np.column_stack([data.data, data.data[:, 0]])
        bad = LabeledDataset(data=doubled, labels=data.labels)
        with pytest.raises(RankError, match="eigenvalue"):
            isotropize(bad)

    def test_fisher_eigenvalues_unchanged(self):
        # isotropization is a full-rank linear map, so the generalized
        # Fisher spectrum must be identical
        for seed in range(5):
            data = random_dataset(seed=seed, d=5, k=3)
            pair_x = scatter_matrices(data)
            ex = gen_eig(pair_x.between, pair_x.total).values
            pair_y = scatter_matrices(isotropize(data).as_labeled())
            ey = gen_eig(pair_y.between, pair_y.total).values
            assert np.abs(ex - ey).max() < 1e-8


class TestComputeWeights:
    def test_zero_norm_row_gets_unit_weight(self):
        iso = synthetic_isotropic([[0.0, 0.0], [1.0, 0.0]])
        for scheme in ("hyperbolic", "exponential"):
            w = compute_weights(iso, alpha=0.5, scheme=scheme)
            assert w[0] == pytest.approx(1.0, abs=1e-15)

    def test_hyperbolic_at_alpha_norm(self):
        alpha = 0.7
        iso = synthetic_isotropic([[np.sqrt(alpha), 0.0], [0.0, 0.0]])
        w = compute_weights(iso, alpha=alpha, scheme="hyperbolic")
        assert w[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_exponential_at_alpha_norm(self):
        alpha = 0.7
        iso = synthetic_isotropic([[np.sqrt(alpha), 0.0], [0.0, 0.0]])
        w = compute_weights(iso, alpha=alpha, scheme="exponential")
        assert w[0] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_weights_in_unit_interval(self):
        iso = isotropize(random_dataset(seed=8))
        for scheme in ("hyperbolic", "exponential"):
            w = compute_weights(iso, scheme=scheme)
            assert np.all(w > 0) and np.all(w <= 1.0)

    def test_hyperbolic_strictly_decreasing_in_norm(self):
        norms = np.linspace(0.0, 5.0, 50)
        iso = synthetic_isotropic(np.column_stack([norms, np.zeros(50)]))
        w = compute_weights(iso, alpha=0.5, scheme="hyperbolic")
        assert np.all(np.diff(w) < 0)

    def test_hyperbolic_dominates_exponential_on_grid(self):
        alpha = 0.5
        sqnorms = np.linspace(0.0, 100.0 * alpha, 200)
        iso = synthetic_isotropic(np.column_stack([np.sqrt(sqnorms), np.zeros(200)]))
        hyp = compute_weights(iso, alpha=alpha, scheme="hyperbolic")
        exp = compute_weights(iso, alpha=alpha, scheme="exponential")
        assert np.all(hyp >= exp - 1e-15)

    def test_bad_parameters(self):
        iso = synthetic_isotropic([[1.0, 0.0]])
        for alpha in (0.0, np.nan, np.inf):
            with pytest.raises(ConfigError, match="alpha must be finite and > 0"):
                compute_weights(iso, alpha=alpha)
        with pytest.raises(ConfigError):
            compute_weights(iso, alpha=0.5, scheme="gaussian")

    @pytest.mark.parametrize("alpha", ["0.5", 10**400, True], ids=["str", "huge-int", "bool"])
    def test_non_number_alpha_rejected_by_one_rule(self, alpha):
        # the weights, the bound and analyze share one alpha check, which
        # names the value instead of failing inside numpy
        message = f"weighting parameter alpha must be finite and > 0, got {alpha!r}"
        for run in (lambda: compute_weights(synthetic_isotropic([[1.0, 0.0]]), alpha=alpha),
                    lambda: proposition1_bound(100, 5, 3, alpha, 0.5),
                    lambda: analyze(random_dataset(seed=9), alpha=alpha)):
            with pytest.raises(ConfigError) as caught:
                run()
            assert str(caught.value) == message

    @pytest.mark.parametrize("scheme", ["hyperbolic", "exponential"])
    def test_overflowing_ratio_is_named_without_numpy_warnings(self, scheme):
        # |y|^2 / alpha overflows at alpha = 1e-320; the weight-0 check,
        # not a RuntimeWarning, must report it
        x = random_dataset(seed=9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=f"too small for {scheme} weights"):
                analyze(x, alpha=1e-320, scheme=scheme)


class TestApplyWeights:
    def test_unit_weights_recover_isotropic_data(self):
        iso = isotropize(random_dataset(seed=9))
        out = apply_weights(iso, np.ones(iso.n))
        np.testing.assert_allclose(out.data, iso.data, atol=1e-12)

    def test_constant_weights_preserve_fisher_spectrum(self):
        data = random_dataset(seed=10, d=4, k=3)
        iso = isotropize(data)
        z0 = apply_weights(iso, np.full(iso.n, 0.37))
        pair_y = scatter_matrices(iso.as_labeled())
        pair_z = scatter_matrices(z0)
        ey = gen_eig(pair_y.between, pair_y.total).values
        ez = gen_eig(pair_z.between, pair_z.total).values
        assert np.abs(ey - ez).max() < 1e-9

    def test_total_scatter_identity_by_explicit_products(self):
        # T of the weighted, centered data equals Y^T diag(w) F diag(w) Y
        data = random_dataset(seed=11, d=3, k=2, n_per=60)
        iso = isotropize(data)
        w = compute_weights(iso, alpha=0.5)
        z0 = apply_weights(iso, w)
        diag_w = np.diag(w)
        oracle = iso.data.T @ diag_w @ centering_matrix(iso.n) @ diag_w @ iso.data
        total = scatter_matrices(z0).total
        assert np.linalg.norm(total - oracle) < 1e-10

    def test_between_scatter_identity_via_hat_matrix(self):
        # B of the weighted data equals Y^T diag(w) H diag(w) Y up to a
        # rank-one term that shrinks like 1/n^3; at this size it is < 1e-8
        spec = make_separation_family(5, 3, 3.0, 1.0, seed=8)
        data = sample(spec, 1700, seed=9)
        pipe = transform_pipeline(data, alpha=0.5)
        y, w = pipe.isotropic.data, pipe.weights
        oracle = (y * w[:, None]).T @ hat_matrix(data.labels) @ (y * w[:, None])
        between = scatter_matrices(pipe.weighted).between
        assert np.linalg.norm(between - oracle) < 1e-8

    def test_length_mismatch(self):
        iso = isotropize(random_dataset(seed=12))
        with pytest.raises(ShapeError):
            apply_weights(iso, np.ones(iso.n - 1))


class TestPipeline:
    def test_leading_pc_tracks_intermean_direction(self):
        # two well-separated plane clusters: the first principal component
        # of the weighted data lines up with the cluster-mean difference
        spec = make_separation_family(2, 2, 8.0, 1.0, seed=5)
        data = sample(spec, 250, seed=6)
        pipe = transform_pipeline(data)
        z = pipe.weighted
        pc1 = pc_subspace(z.data, 1).columns[:, 0]
        inter = z.data[z.labels == 1].mean(axis=0) - z.data[z.labels == 2].mean(axis=0)
        inter /= np.linalg.norm(inter)
        assert abs(pc1 @ inter) > 0.95

    def test_deterministic(self):
        data = random_dataset(seed=13)
        a = transform_pipeline(data)
        b = transform_pipeline(data)
        assert np.array_equal(a.weighted.data, b.weighted.data)
        assert np.array_equal(a.weights, b.weights)

    def test_huge_alpha_reduces_to_isotropic(self):
        data = random_dataset(seed=14)
        pipe = transform_pipeline(data, alpha=1e9)
        assert np.abs(pipe.weighted.data - pipe.isotropic.data).max() < 1e-6

    def test_intermediates_consistent(self):
        data = random_dataset(seed=15)
        pipe = transform_pipeline(data, alpha=0.8, scheme="exponential")
        rebuilt = apply_weights(pipe.isotropic, pipe.weights)
        np.testing.assert_allclose(pipe.weighted.data, rebuilt.data, atol=1e-15)
        sqnorms = np.einsum("ij,ij->i", pipe.isotropic.data, pipe.isotropic.data)
        assert np.array_equal(pipe.weights, np.exp(-sqnorms / 0.8))
