"""Subspace bases, principal-component and Fisher extraction, and the
similarity coefficient, cross-checked between its SVD form and the direct
eigenproblem formulation.
"""

import numpy as np
import pytest

from structdr import (
    ConfigError,
    LabeledDataset,
    NumericalError,
    RankError,
    ShapeError,
    SubspaceBasis,
    fisher_subspace,
    gen_eig,
    isotropize,
    make_separation_family,
    pc_subspace,
    sample,
    sss,
)
from structdr.linalg import symmetrize


def sss_eigenproblem_oracle(v: SubspaceBasis, a: SubspaceBasis) -> float:
    """Direct route: mean eigenvalue of the canonical-correlation problem
    (V^T A)(A^T A)^{-1}(A^T V) u = rho (V^T V) u."""
    cols_v, cols_a = v.columns, a.columns
    cross = cols_v.T @ cols_a
    k_mat = symmetrize(cross @ np.linalg.solve(cols_a.T @ cols_a, cross.T))
    m_mat = symmetrize(cols_v.T @ cols_v)
    return float(gen_eig(k_mat, m_mat).values.mean())


def axis_basis(d, cols):
    return SubspaceBasis(columns=np.eye(d)[:, list(cols)])


class TestSubspaceBasis:
    def test_dependent_columns_rejected(self):
        col = np.arange(1.0, 5.0)[:, None]
        with pytest.raises(RankError):
            SubspaceBasis(columns=np.column_stack([col, 2.0 * col]))

    def test_conditioning_warning(self):
        col = np.eye(4)[:, :1]
        wobble = col + 1e-8 * np.eye(4)[:, 1:2]
        basis = SubspaceBasis(columns=np.column_stack([col, wobble]))
        assert any("near-dependent" in w for w in basis.warnings)

    def test_dimension_bounds(self):
        with pytest.raises(ConfigError):
            SubspaceBasis(columns=np.eye(3))  # m == d

    @pytest.mark.parametrize("columns", [np.ones(3), np.float64(1.0), np.ones((2, 4, 2))],
                             ids=["1-D", "0-D", "3-D"])
    def test_columns_must_be_a_matrix(self, columns):
        # one basis: a stack of them is rejected too
        with pytest.raises(ConfigError, match=r"^basis columns must form a \(d, m\) array"):
            SubspaceBasis(columns=columns)

    def test_orthonormal_helper(self):
        rng = np.random.default_rng(0)
        basis = SubspaceBasis(columns=rng.standard_normal((6, 2)))
        q = basis.orthonormal()
        np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-12)


class TestPcSubspace:
    def test_known_covariance_sampling_oracle(self):
        rng = np.random.default_rng(123)
        x = rng.standard_normal((100_000, 3)) * np.sqrt([3.0, 2.0, 1.0])
        x -= x.mean(axis=0)
        basis = pc_subspace(x, 2)
        assert sss(basis, axis_basis(3, (0, 1))) > 0.999

    def test_requires_centered_input(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ConfigError, match="centered"):
            pc_subspace(rng.standard_normal((50, 3)) + 5.0, 1)

    @pytest.mark.parametrize("shape,m,message", [
        ((12,), 1, r"data must be 2-D, got shape \(12,\)"),
        ((2, 3, 4), 1, r"data must be 2-D, got shape \(2, 3, 4\)"),
        ((10, 3), 0, "need 1 <= m < d, got m = 0, d = 3"),
        ((10, 3), 3, "need 1 <= m < d, got m = 3, d = 3"),
        ((10, 3), 1.5, r"m must be an integer, got 1\.5"),
        ((10, 3), True, "m must be an integer, got True"),
    ], ids=["1-D", "3-D", "m=0", "m=d", "m-float", "m-bool"])
    def test_bad_shape_or_dimension_rejected(self, shape, m, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            pc_subspace(np.zeros(shape), m)

    def test_overflowing_scatter_raises_numerical_error(self):
        # X^T X overflows although every entry is finite: reported by name,
        # as isotropize reports it
        rng = np.random.default_rng(6)
        x = rng.standard_normal((50, 4))
        x -= x.mean(axis=0)
        with pytest.raises(NumericalError, match="^total scatter overflows"):
            pc_subspace(1e160 * x, 1)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, value):
        x = np.zeros((10, 3))
        x[3, 1] = value
        with pytest.raises(ConfigError, match="^data must be finite for PC extraction$"):
            pc_subspace(x, 1)

    def test_isotropic_data_flagged_ambiguous(self):
        spec = make_separation_family(4, 2, 3.0, 1.0, seed=2)
        iso = isotropize(sample(spec, 40, seed=3))
        basis = pc_subspace(iso.data, 1)
        assert any("ambiguous" in w for w in basis.warnings)

    def test_clear_spectrum_not_flagged(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5000, 3)) * np.sqrt([3.0, 2.0, 1.0])
        x -= x.mean(axis=0)
        assert pc_subspace(x, 2).warnings == ()

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2000, 4)) * np.sqrt([4.0, 3.0, 2.0, 1.0])
        x -= x.mean(axis=0)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        rotated = x @ q.T
        rotated -= rotated.mean(axis=0)
        basis_rot = pc_subspace(rotated, 2)
        expected = SubspaceBasis(columns=q @ pc_subspace(x, 2).columns)
        assert sss(basis_rot, expected) == pytest.approx(1.0, abs=1e-8)


class TestFisherSubspace:
    def test_tight_clusters_along_first_axis(self):
        # cross-shaped clusters at +-e1 have exactly isotropic within
        # scatter, so the discriminant is exactly the intermean axis
        delta = 1e-3
        cross = np.vstack([delta * np.eye(3), -delta * np.eye(3)])
        data = LabeledDataset(
            data=np.vstack([cross + [1.0, 0, 0], cross - [1.0, 0, 0]]),
            labels=np.repeat([1, 2], 6),
        )
        assert sss(fisher_subspace(data), axis_basis(3, (0,))) == pytest.approx(1.0, abs=1e-8)

    def test_isotropic_fisher_equals_intermean_span(self):
        # in isotropic position the discriminant subspace is spanned by the
        # centered cluster means
        spec = make_separation_family(6, 3, 3.0, 1.0, seed=7)
        data = sample(spec, 60, seed=8)
        iso = isotropize(data)
        fisher = fisher_subspace(LabeledDataset(iso.data, data.labels))
        means = np.stack(
            [iso.data[data.labels == c].mean(axis=0) for c in (1, 2)], axis=1
        )
        assert sss(fisher, SubspaceBasis(columns=means)) > 1.0 - 1e-6

    def test_label_order_invariance(self):
        spec = make_separation_family(5, 3, 3.0, 1.0, seed=9)
        data = sample(spec, 30, seed=10)
        rng = np.random.default_rng(11)
        perm = rng.permutation(data.n)
        shuffled = LabeledDataset(data=data.data[perm], labels=data.labels[perm])
        np.testing.assert_allclose(
            fisher_subspace(shuffled).columns, fisher_subspace(data).columns, atol=1e-9
        )


def warning_kinds(basis):
    """A basis's warnings without their numbers, which scale with the input."""
    return [w.split(":")[0] for w in basis.warnings]


class TestScale:
    # every degeneracy test is relative to the size of what it tests, so
    # scaling the input changes no basis, no verdict and no warning

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e9, 1e12])
    def test_basis_verdicts(self, scale):
        col = np.arange(1.0, 5.0)[:, None]
        with pytest.raises(RankError, match=r"largest = .*, required > 1e-10 \* largest"):
            SubspaceBasis(columns=scale * np.column_stack([col, 2.0 * col]))
        e = np.eye(4)
        near = SubspaceBasis(columns=scale * np.column_stack([e[:, 0], e[:, 0] + 1e-8 * e[:, 1]]))
        assert warning_kinds(near) == ["near-dependent basis"]
        assert SubspaceBasis(columns=scale * e[:, :2]).warnings == ()

    def test_pc_subspace(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((500, 4)) * np.sqrt([4.0, 3.0, 2.0, 1.0])
        x -= x.mean(axis=0)
        base, scaled = pc_subspace(x, 2), pc_subspace(1e9 * x, 2)
        np.testing.assert_allclose(scaled.columns, base.columns, rtol=0, atol=1e-12)
        assert base.warnings == scaled.warnings == ()
        # isotropic rows: every eigenvalue ties, at any scale
        iso = isotropize(sample(make_separation_family(4, 2, 3.0, 1.0, seed=2), 40, seed=3))
        kinds = [warning_kinds(pc_subspace(c * iso.data, 1)) for c in (1.0, 1e9)]
        assert kinds == [["leading 1-dimensional subspace is ambiguous"]] * 2
        with pytest.raises(ConfigError, match="centered"):
            pc_subspace(1e9 * (x + 1e-6), 2)

    def test_fisher_subspace(self):
        data = sample(make_separation_family(6, 3, 3.0, 1.0, seed=7), 60, seed=8)
        base = fisher_subspace(data)
        scaled = fisher_subspace(LabeledDataset(data=1e9 * data.data, labels=data.labels))
        # Fisher vectors are total-scatter orthonormal, so they shrink by the scale
        np.testing.assert_allclose(1e9 * scaled.columns, base.columns,
                                   rtol=0, atol=1e-9 * np.abs(base.columns).max())
        assert base.warnings == scaled.warnings == ()


class TestSss:
    def test_identical_subspaces(self):
        rng = np.random.default_rng(12)
        basis = SubspaceBasis(columns=rng.standard_normal((5, 2)))
        assert sss(basis, basis) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_axes(self):
        assert sss(axis_basis(3, (0,)), axis_basis(3, (1,))) == pytest.approx(0.0, abs=1e-14)

    def test_plane_angle_closed_form(self):
        theta = np.pi / 6
        tilted = SubspaceBasis(columns=np.array([[np.cos(theta)], [np.sin(theta)]]))
        assert sss(axis_basis(2, (0,)), tilted) == pytest.approx(0.75, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            v = SubspaceBasis(columns=rng.standard_normal((6, 2)))
            a = SubspaceBasis(columns=rng.standard_normal((6, 2)))
            assert abs(sss(v, a) - sss(a, v)) < 1e-10

    def test_basis_change_invariance(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            v = SubspaceBasis(columns=rng.standard_normal((7, 3)))
            a = SubspaceBasis(columns=rng.standard_normal((7, 3)))
            t = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
            assert abs(sss(SubspaceBasis(columns=v.columns @ t), a) - sss(v, a)) < 1e-10

    def test_range_on_random_pairs(self):
        rng = np.random.default_rng(15)
        for _ in range(1000):
            v = SubspaceBasis(columns=rng.standard_normal((5, 2)))
            a = SubspaceBasis(columns=rng.standard_normal((5, 2)))
            value = sss(v, a)
            assert -1e-12 <= value <= 1.0 + 1e-12

    def test_matches_eigenproblem_route(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            v = SubspaceBasis(columns=rng.standard_normal((8, 3)))
            a = SubspaceBasis(columns=rng.standard_normal((8, 3)))
            assert abs(sss(v, a) - sss_eigenproblem_oracle(v, a)) < 1e-8

    def test_dimension_mismatches(self):
        rng = np.random.default_rng(17)
        v = SubspaceBasis(columns=rng.standard_normal((5, 2)))
        with pytest.raises(ShapeError):
            sss(v, SubspaceBasis(columns=rng.standard_normal((6, 2))))
        with pytest.raises(ShapeError):
            sss(v, SubspaceBasis(columns=rng.standard_normal((5, 3))))
