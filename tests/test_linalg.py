"""Spectral decomposition, generalized eigenproblems, and the
centering / hat operators, checked against closed forms and independent
dense oracles (explicit inverses, materialized products).
"""

import numpy as np
import pytest

from structdr import (
    EigenSolution,
    MissingClusterError,
    RankError,
    SymmetryError,
    apply_centering,
    gen_eig,
    recipe,
    sym_eig,
)
from structdr.errors import DefinitenessError
from structdr.linalg import check_symmetric, column_means, symmetrize, total_whitener

from oracles import centering_matrix, hat_matrix


def random_spd(rng, d, shift=1.0):
    a = rng.standard_normal((d, d))
    return symmetrize(a @ a.T + shift * np.eye(d))


class TestSymEig:
    def test_diagonal(self):
        sol = sym_eig(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(sol.values, [2.0, 1.0])
        # eigenvectors are the standard basis up to order
        np.testing.assert_allclose(np.abs(sol.vectors), np.eye(2), atol=1e-14)

    def test_identity(self):
        sol = sym_eig(np.eye(3))
        np.testing.assert_allclose(sol.values, [1.0, 1.0, 1.0])

    def test_exchange_matrix_closed_form(self):
        sol = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(sol.values, [1.0, -1.0], atol=1e-14)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(sol.vectors[:, 0], [s, s], atol=1e-14)
        np.testing.assert_allclose(np.abs(sol.vectors[:, 1]), [s, s], atol=1e-14)

    def test_values_non_increasing_and_orthonormal(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = symmetrize(rng.standard_normal((6, 6)))
            sol = sym_eig(m)
            assert np.all(np.diff(sol.values) <= 1e-12)
            gram = sol.vectors.T @ sol.vectors
            assert np.linalg.norm(gram - np.eye(6)) < 1e-8

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = symmetrize(rng.standard_normal((5, 5)))
            sol = sym_eig(m)
            rebuilt = (sol.vectors * sol.values) @ sol.vectors.T
            assert np.linalg.norm(rebuilt - m) < 1e-7 * np.linalg.norm(m)

    def test_residual(self):
        rng = np.random.default_rng(2)
        m = symmetrize(rng.standard_normal((7, 7)))
        sol = sym_eig(m)
        for j in range(7):
            res = m @ sol.vectors[:, j] - sol.values[j] * sol.vectors[:, j]
            assert np.linalg.norm(res) < 1e-8 * (1.0 + abs(sol.values[j]))

    def test_sign_convention(self):
        rng = np.random.default_rng(3)
        m = random_spd(rng, 5)
        sol = sym_eig(m)
        for j in range(5):
            col = sol.vectors[:, j]
            assert col[np.abs(col).argmax()] > 0

    def test_asymmetric_rejected(self):
        with pytest.raises(SymmetryError):
            sym_eig(np.array([[0.0, 1.0], [2.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        # nan > tol is False, so a NaN asymmetry would pass a plain comparison
        m = np.eye(3)
        m[0, 0] = bad
        with pytest.raises(SymmetryError, match="non-finite"):
            check_symmetric(m, name="t")
        m[0, 0], m[1, 2] = 1.0, bad
        with pytest.raises(SymmetryError, match="non-finite"):
            check_symmetric(m, name="t")


    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
    def test_symmetry_verdict_does_not_depend_on_units(self, scale):
        with pytest.raises(SymmetryError, match="not symmetric"):
            check_symmetric(scale * np.array([[0.0, 1.0], [0.0, 0.0]]))
        m = random_spd(np.random.default_rng(3), 4)
        m[0, 1] *= 1.0 + 1e-14
        assert np.array_equal(check_symmetric(scale * m), scale * m)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (), (4, 3, 2)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(SymmetryError) as caught:
            check_symmetric(np.zeros(shape), name="t")
        assert str(caught.value) == f"t must be square, got shape {shape}"

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(4)
        stack = np.array([[symmetrize(rng.standard_normal((5, 5))) for _ in range(2)]
                          for _ in range(3)])
        sol = sym_eig(stack)
        for index in np.ndindex(stack.shape[:-2]):
            alone = sym_eig(stack[index])
            assert np.array_equal(sol.values[index], alone.values)
            assert np.array_equal(sol.vectors[index], alone.vectors)
            # every result is C-ordered, single or stacked: BLAS picks its
            # kernels by layout, so one layout keeps products bit-identical
            assert sol.vectors[index].strides == alone.vectors.strides

    @pytest.mark.parametrize("m", [
        np.diag([2.0, 1.0, 1.0]),
        np.eye(3),
        np.diag([1.0, 3.0, 1.0, 3.0]),
        np.array([np.diag([2.0, 1.0, 1.0]), np.eye(3)]),
    ], ids=["one-tie", "identity", "two-ties", "stack"])
    def test_reverses_eigh_among_exact_ties(self, m):
        # values and vectors alike come in eigh's order reversed, ties too;
        # each vector's largest-magnitude entry is then made positive
        values, vectors = np.linalg.eigh(m)
        vectors = vectors[..., ::-1]
        largest = np.take_along_axis(vectors, np.abs(vectors).argmax(axis=-2)[..., None, :], -2)
        sol = sym_eig(m)
        assert np.array_equal(sol.values, values[..., ::-1])
        assert np.array_equal(sol.vectors, vectors * np.where(largest < 0, -1.0, 1.0))

    def test_stack_fails_as_its_first_failing_matrix(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(SymmetryError) as alone:
            check_symmetric(bad)
        with pytest.raises(SymmetryError) as stacked:
            check_symmetric(np.array([np.eye(2), bad, 3.0 * bad]))
        assert str(stacked.value) == str(alone.value)


class TestTotalWhitener:
    @pytest.mark.parametrize("values", [[np.nan, np.nan], [2.0, np.nan], [np.nan, 1.0]])
    def test_nan_spectrum_rejected(self, values):
        spectrum = EigenSolution(values=np.array(values), vectors=np.eye(2))
        with pytest.raises(RankError, match="total scatter is rank deficient"):
            total_whitener(spectrum)


class TestGenEig:
    def test_identity_metric_reduces_to_standard(self):
        sol = gen_eig(np.diag([1.0, 0.0]), np.eye(2))
        np.testing.assert_allclose(sol.values, [1.0, 0.0], atol=1e-14)

    def test_equal_matrices_give_unit_eigenvalues(self):
        rng = np.random.default_rng(4)
        m = random_spd(rng, 4)
        sol = gen_eig(m, m)
        np.testing.assert_allclose(sol.values, np.ones(4), atol=1e-12)

    def test_against_direct_inverse_oracle(self):
        # independent route: dense eigenvalues of inv(M) @ K
        rng = np.random.default_rng(5)
        for _ in range(20):
            k_mat = random_spd(rng, 4)
            m_mat = random_spd(rng, 4)
            sol = gen_eig(k_mat, m_mat)
            oracle = np.sort(np.linalg.eigvals(np.linalg.inv(m_mat) @ k_mat).real)[::-1]
            assert np.abs(sol.values - oracle).max() < 1e-8

    def test_metric_orthonormal_vectors(self):
        rng = np.random.default_rng(6)
        k_mat, m_mat = random_spd(rng, 5), random_spd(rng, 5)
        sol = gen_eig(k_mat, m_mat)
        gram = sol.vectors.T @ m_mat @ sol.vectors
        assert np.linalg.norm(gram - np.eye(5)) < 1e-8

    def test_residual(self):
        rng = np.random.default_rng(7)
        k_mat, m_mat = random_spd(rng, 5), random_spd(rng, 5)
        sol = gen_eig(k_mat, m_mat)
        for j in range(5):
            res = k_mat @ sol.vectors[:, j] - sol.values[j] * (m_mat @ sol.vectors[:, j])
            assert np.linalg.norm(res) < 1e-8 * (1.0 + abs(sol.values[j]))

    def test_singular_metric_rejected_naming_eigenvalue(self):
        singular = np.diag([1.0, 0.0])
        with pytest.raises(DefinitenessError, match="eigenvalue"):
            gen_eig(np.eye(2), singular)


class TestScatterPairEigenvalues:
    """Eigenvalues of (between, total) built by hand stay in [0, 1] and at
    most k-1 exceed zero."""

    @staticmethod
    def _scatters(rng, n_per, d, k):
        data = np.vstack(
            [rng.standard_normal((n_per, d)) + 3.0 * rng.standard_normal(d) for _ in range(k)]
        )
        labels = np.repeat(np.arange(1, k + 1), n_per)
        centered = data - data.mean(axis=0)
        total = symmetrize(centered.T @ centered)
        between = np.zeros((d, d))
        for cluster in range(1, k + 1):
            mu = centered[labels == cluster].mean(axis=0)
            between += n_per * np.outer(mu, mu)
        return symmetrize(between), total

    def test_range_and_rank(self):
        rng = np.random.default_rng(9)
        for k in (2, 3, 4):
            between, total = self._scatters(rng, 40, 6, k)
            values = gen_eig(between, total).values
            assert values.min() > -1e-10
            assert values.max() < 1.0 + 1e-10
            assert int((values > 1e-8).sum()) <= k - 1


class TestNorms:
    def test_hat_matrix_frobenius_is_sqrt_k(self):
        labels = np.repeat([1, 2, 3], [4, 7, 5])
        assert np.linalg.norm(hat_matrix(labels), "fro") == pytest.approx(np.sqrt(3), abs=1e-10)


class TestCentering:
    def test_two_rows(self):
        out = apply_centering(np.array([[1.0, 1.0], [3.0, 3.0]]))
        np.testing.assert_allclose(out, [[-1.0, -1.0], [1.0, 1.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((30, 4))
        once = apply_centering(data)
        np.testing.assert_allclose(apply_centering(once), once, atol=1e-12)

    def test_constant_column_zeroed(self):
        data = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        out = apply_centering(data)
        np.testing.assert_allclose(out[:, 0], 0.0, atol=1e-12)

    def test_column_means_vanish(self):
        rng = np.random.default_rng(12)
        out = apply_centering(rng.standard_normal((50, 6)) + 100.0)
        assert np.abs(out.mean(axis=0)).max() < 1e-12

    def test_materialized_matches_matrix_free(self):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((20, 3))
        np.testing.assert_allclose(centering_matrix(20) @ data, apply_centering(data), atol=1e-12)

    def test_materialized_operator_identities(self):
        f = centering_matrix(9)
        np.testing.assert_allclose(f, f.T)
        np.testing.assert_allclose(f @ f, f, atol=1e-12)
        np.testing.assert_allclose(np.diag(f), np.full(9, 1 - 1 / 9))


class TestColumnMeans:
    # at every (rows, columns) shape of the two benchmarked sweeps, the
    # einsum rule gives the bits of numpy's axis-0 mean, which the goldens
    # were written with; d = 1 and Fortran-ordered rows are not covered
    SHAPES = sorted({(cell.k * cell.n_per_cluster, cell.d)
                     for name in ("fig3_d7", "fig3_d20_largen")
                     for cell in recipe(name).cells()})

    @pytest.mark.parametrize("n,d", SHAPES)
    def test_equals_numpy_mean_bit_for_bit(self, n, d):
        rng = np.random.default_rng(n * d)
        for scale, shift in ((1.0, 0.0), (1e-3, 5.0), (1e6, -3e6)):
            data = scale * rng.standard_normal((n, d)) + shift
            assert column_means(data).tobytes() == data.mean(axis=0).tobytes()


class TestHatMatrix:
    def test_two_pair_blocks(self):
        h = hat_matrix(np.array([1, 1, 2, 2]))
        expected = np.zeros((4, 4))
        expected[:2, :2] = 0.5
        expected[2:, 2:] = 0.5
        np.testing.assert_allclose(h, expected)
        assert np.trace(h) == pytest.approx(2.0)

    def test_projector_properties(self):
        rng = np.random.default_rng(14)
        labels = rng.permutation(np.repeat([1, 2, 3], 12))
        h = hat_matrix(labels)
        assert np.linalg.norm(h @ h - h) < 1e-10
        np.testing.assert_allclose(h, h.T)
        assert np.trace(h) == pytest.approx(3.0, abs=1e-10)

    def test_eigenvalues_are_zero_or_one(self):
        labels = np.repeat([1, 2], [5, 9])
        values = np.linalg.eigvalsh(hat_matrix(labels))
        ones = np.abs(values - 1.0) < 1e-10
        zeros = np.abs(values) < 1e-10
        assert int(ones.sum()) == 2
        assert np.all(ones | zeros)

    def test_missing_cluster_rejected(self):
        with pytest.raises(MissingClusterError):
            hat_matrix(np.array([1, 1, 3, 3]))
