"""Subspace extraction (principal-component and Fisher discriminant bases)
and the similarity coefficient between two subspaces: the mean squared
cosine of their principal angles, a value in [0, 1] that is invariant to
the choice of basis within each subspace. Every degeneracy test here is
relative to the size of what it tests, as `linalg`'s rank rule is, so
scaling the data changes no basis, verdict or warning.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, RankError, ShapeError, check_int
from .linalg import RANK_RTOL, column_means, raise_first, sym_eig, total_scatter
from .mixture import LabeledDataset

CONDITIONING_WARN_TOL = 1e-6
CENTERED_TOL = 1e-8


@dataclass(frozen=True)
class SubspaceBasis:
    """d x m matrix whose linearly independent columns span a subspace, or
    a stack (..., d, m) of them.

    Columns need not be orthonormal (Fisher bases are orthonormal in the
    total-scatter metric instead). Construction rejects numerically
    dependent columns, whose smallest singular value is <= RANK_RTOL times
    the largest, and attaches a conditioning warning when it is merely
    below CONDITIONING_WARN_TOL times the largest. A stack of bases
    carries the warnings of all of them.
    """

    columns: np.ndarray
    warnings: tuple = field(default=())

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim < 2:
            raise ConfigError(f"basis columns must form a (..., d, m) array, got {cols.shape}")
        d, m = cols.shape[-2:]
        if not 1 <= m < d:
            raise ConfigError(f"need 1 <= m < d for a proper subspace, got m = {m}, d = {d}")
        singular = np.linalg.svd(cols, compute_uv=False)
        largest, smallest = singular[..., 0], singular[..., -1]
        raise_first(smallest > RANK_RTOL * largest, lambda i: RankError(
            f"basis columns numerically dependent: smallest singular value "
            f"{smallest.flat[i]:.3e} (largest = {largest.flat[i]:.3e}, "
            f"required > {RANK_RTOL:g} * largest)"))
        warnings = tuple(self.warnings) + tuple(
            f"near-dependent basis: smallest singular value {low:.3e} (largest = {high:.3e})"
            for low, high in zip(smallest.flat, largest.flat)
            if low < CONDITIONING_WARN_TOL * high
        )
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "warnings", warnings)

    @property
    def ambient_dim(self) -> int:
        return self.columns.shape[-2]

    @property
    def dim(self) -> int:
        return self.columns.shape[-1]

    def orthonormal(self) -> np.ndarray:
        q, _ = np.linalg.qr(self.columns)
        return q


def pc_subspace(data, m: int) -> SubspaceBasis:
    """Span of the m leading principal components of centered data.

    The caller centers; non-finite data and a column mean above
    CENTERED_TOL times the largest |entry| are rejected, and an X^T X that
    overflows raises NumericalError, as in `isotropize`. When the m-th and
    (m+1)-th covariance eigenvalues coincide the leading subspace is not
    unique, so an ambiguity warning is attached to the (still returned)
    result.
    """
    m = check_int("m", m)
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ConfigError(f"data must be 2-D, got shape {data.shape}")
    n, d = data.shape
    if not 1 <= m < d:
        raise ConfigError(f"need 1 <= m < d, got m = {m}, d = {d}")
    if not np.isfinite(data).all():
        raise ConfigError("data must be finite for PC extraction")
    max_mean = float(np.abs(column_means(data)).max())
    if max_mean > CENTERED_TOL * float(np.abs(data).max()):
        raise ConfigError(
            f"data must be centered before PC extraction (max |column mean| = {max_mean:.3e})"
        )
    cov = total_scatter(data) / n
    sol = sym_eig(cov)
    return leading_basis(sol.values, sol.vectors, m)


def leading_basis(values, vectors, m: int) -> SubspaceBasis:
    """Span of the m leading eigenvectors of a covariance or scatter matrix,
    or of each of a stack, given its eigenvalues (non-increasing) and
    eigenvectors. When the m-th and (m+1)-th eigenvalues coincide (gap <=
    RANK_RTOL times the largest) the subspace is not unique, and an
    ambiguity warning is attached."""
    gaps = values[..., m - 1] - values[..., m]
    ambiguous = gaps <= RANK_RTOL * values[..., 0]
    warnings = tuple(
        f"leading {m}-dimensional subspace is ambiguous: eigenvalue {m} and "
        f"{m + 1} differ by {gap:.3e}"
        for gap, flag in zip(gaps.flat, ambiguous.flat) if flag
    )
    return SubspaceBasis(columns=vectors[..., :m], warnings=warnings)


def fisher_subspace(data: LabeledDataset) -> SubspaceBasis:
    """Span of the k-1 leading generalized eigenvectors of the
    (between, total) scatter pair."""
    # structure builds its Fisher bases from this module, so it is imported
    # here until this function moves into structure (ROADMAP items A and I)
    from .structure import fisher_solve, scatter_matrices

    vectors = fisher_solve(scatter_matrices(data), data.k).eigen.vectors
    return SubspaceBasis(columns=vectors[:, : data.k - 1])


def sss(v: SubspaceBasis, a: SubspaceBasis) -> float:
    """Subspace similarity: mean squared cosine of the principal angles;
    an array of them for stacks of bases.

    Both bases are orthonormalized, the singular values of the crossed
    product are the cosines of the principal angles, and their squared
    mean is returned. Equals 1 for identical subspaces and 0 for
    orthogonal ones; invariant to right-multiplying either basis by any
    invertible matrix.
    """
    if v.ambient_dim != a.ambient_dim:
        raise ShapeError(
            f"ambient dimensions differ: {v.ambient_dim} vs {a.ambient_dim}"
        )
    if v.dim != a.dim:
        raise ShapeError(f"subspace dimensions differ: {v.dim} vs {a.dim}")
    crossed = np.swapaxes(v.orthonormal(), -1, -2) @ a.orthonormal()
    cosines = np.clip(np.linalg.svd(crossed, compute_uv=False), 0.0, 1.0)
    similarity = np.mean(cosines**2, axis=-1)
    return float(similarity) if similarity.ndim == 0 else similarity
