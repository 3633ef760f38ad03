"""Dense symmetric linear algebra: spectral and generalized-symmetric
eigenproblems, column centering, per-cluster counts and the cluster
indicator matrix.

Eigenvectors follow a deterministic sign convention (largest-magnitude
entry positive) so downstream subspace comparisons are reproducible.
The checks and eigensolvers also take stacks (..., d, d) of matrices and
treat each matrix as they treat a single one. All functions are pure;
none mutate their inputs.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DefinitenessError, MissingClusterError, NumericalError, RankError, SymmetryError

SYM_ATOL = 1e-12
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class EigenSolution:
    """Eigenvalues in non-increasing order with paired column eigenvectors:
    orthonormal for a standard problem (`sym_eig`), orthonormal in the
    metric of the defining problem for a generalized one (`unwhiten`)."""

    values: np.ndarray
    vectors: np.ndarray


def raise_first(ok, error):
    """Raise error(i) for the first matrix i, counted flat, of a stack that
    fails a check (ok is False there). Each message formats the failing
    matrix's own values, so a stack of one fails as a single matrix does."""
    flags = ok.ravel().tolist()
    if False in flags:
        raise error(flags.index(False))


def check_symmetric(m, name="matrix"):
    """Validate m, a square matrix or a stack (..., d, d) of them, as
    symmetric to tolerance; return it as float64.

    The tolerance is relative to each matrix's largest entry magnitude, so
    rounding asymmetry in large cross-products passes and the verdict does
    not depend on the data's units. A NaN or infinite entry is rejected.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise SymmetryError(f"{name} must be square, got shape {m.shape}")
    largest = np.abs(m).max(axis=(-2, -1), initial=0.0)
    raise_first(np.isfinite(largest), lambda i: SymmetryError(
        f"{name} has a non-finite entry (max |entry| = {float(largest.flat[i])})"))
    dev = np.abs(m - np.swapaxes(m, -1, -2)).max(axis=(-2, -1), initial=0.0)
    raise_first(dev <= SYM_ATOL * largest, lambda i: SymmetryError(
        f"{name} not symmetric: max |m - m^T| = {dev.flat[i]:.3e} "
        f"exceeds {SYM_ATOL * largest.flat[i]:.3e}"))
    return m


def symmetrize(m) -> np.ndarray:
    """(m + m^T) / 2, for products that are symmetric in exact arithmetic."""
    m = np.asarray(m, dtype=float)
    return (m + np.swapaxes(m, -1, -2)) / 2.0


def total_scatter(centered: np.ndarray) -> np.ndarray:
    """Total scatter X0^T X0 of centered rows (n, d), or of each matrix of a
    stack (..., n, d), symmetrized. Raises NumericalError when it, or its
    symmetrization, overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, by name
        total = np.swapaxes(centered, -1, -2) @ centered
    largest = np.abs(total).max(axis=(-2, -1))
    limit = np.finfo(float).max / 2  # larger entries overflow when symmetrized
    raise_first(largest <= limit, lambda i: NumericalError(
        f"total scatter overflows: max |entry| = {largest.flat[i]:.3e} (limit {limit:.3e})"))
    return symmetrize(total)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    idx = np.abs(vectors).argmax(axis=-2)
    signs = np.sign(np.take_along_axis(vectors, idx[..., None, :], axis=-2))
    signs[signs == 0] = 1.0
    return vectors * signs


def sym_eig(m) -> EigenSolution:
    """Spectral decomposition of a symmetric matrix, or of each matrix of a
    stack (..., d, d).

    Returns eigenvalues non-increasing with orthonormal column eigenvectors:
    `eigh`'s solution reversed, values and vectors alike, so exact ties come
    in `eigh`'s order reversed. Raises SymmetryError for asymmetric input.
    """
    m = check_symmetric(m)
    vals, vecs = np.linalg.eigh(m)
    return EigenSolution(values=vals[..., ::-1].copy(), vectors=_fix_signs(vecs[..., ::-1]))


def definite_whitener(m_sol: EigenSolution, error=DefinitenessError,
                      what="metric matrix not positive definite") -> np.ndarray:
    """Whitener A L^{-1/2} of a symmetric matrix M = A L A^T, so that
    W^T M W = I; a stack of them for a stack of decompositions.

    Raises `error` (message prefixed by `what`) when M is not numerically
    positive definite: its smallest eigenvalue is not > RANK_RTOL times its
    largest, which a NaN eigenvalue never is.
    """
    largest, smallest = m_sol.values[..., 0], m_sol.values[..., -1]
    raise_first((largest > 0.0) & (smallest > RANK_RTOL * largest), lambda i: error(
        f"{what}: eigenvalue[{m_sol.values.shape[-1] - 1}] = {smallest.flat[i]:.6e} "
        f"(largest = {largest.flat[i]:.6e}, required > {RANK_RTOL:g} * largest)"))
    return m_sol.vectors / np.sqrt(m_sol.values)[..., None, :]


def total_whitener(total: EigenSolution) -> np.ndarray:
    """`definite_whitener` of a total scatter: RankError when it is singular."""
    return definite_whitener(total, error=RankError, what="total scatter is rank deficient")


def unwhiten(whitener: np.ndarray, k_mat) -> EigenSolution:
    """Generalized solution of K v = lambda M v, where W is M's whitener:
    the standard solution of the reduced matrix W^T K W, mapped back
    through W. Stacks map matrix by matrix."""
    reduced = sym_eig(symmetrize(np.swapaxes(whitener, -1, -2) @ k_mat @ whitener))
    vectors = _fix_signs(whitener @ reduced.vectors)
    return EigenSolution(values=reduced.values, vectors=vectors)


def gen_eig(k_mat, m_mat) -> EigenSolution:
    """Solve the symmetric-definite generalized eigenproblem K v = lambda M v.

    M is reduced by its own spectral decomposition: with M = A L A^T the
    problem whitens to the standard one for (L^{-1/2} A^T) K (A L^{-1/2}),
    and eigenvectors are mapped back through A L^{-1/2}, which makes them
    M-orthonormal (V^T M V = I).

    Parameters
    ----------
    k_mat : symmetric positive semidefinite (d, d)
    m_mat : symmetric positive definite (d, d)

    Raises
    ------
    DefinitenessError
        If M has an eigenvalue <= RANK_RTOL times its largest.
    """
    k_mat = check_symmetric(k_mat, name="k_mat")
    return unwhiten(definite_whitener(sym_eig(m_mat)), k_mat)


def column_means(a: np.ndarray) -> np.ndarray:
    """Column means of (n, d) rows, or of each matrix of a stack (..., n, d):
    on C-ordered rows with d >= 2, numpy's `mean` over axis -2 bit for bit,
    without its slow strided reduction."""
    return np.einsum("...ij->...j", a) / a.shape[-2]


def apply_centering(data) -> np.ndarray:
    """Subtract column means (matrix-free application of the centering
    operator). Idempotent."""
    data = np.asarray(data, dtype=float)
    return data - column_means(data)


def cluster_counts(labels) -> np.ndarray:
    """Counts per cluster for labels in {1..k}, where k is the largest
    label; every label must occur, so k > n is rejected before counting."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise MissingClusterError("labels must be a non-empty 1-D array")
    k = int(labels.max())
    if labels.min() < 1:
        allowed = f"lie in 1..{k}" if k >= 1 else "be >= 1"
        raise MissingClusterError(
            f"labels must {allowed}, got range [{labels.min()}, {labels.max()}]"
        )
    if k > labels.size:
        raise MissingClusterError(
            f"largest label {k} exceeds the {labels.size} rows, so some cluster is empty"
        )
    counts = np.bincount(labels, minlength=k + 1)[1:]
    missing = np.nonzero(counts == 0)[0] + 1
    if missing.size:
        # the count and the first few labels: a stray label may leave
        # thousands of clusters empty
        listed = ", ".join(map(str, missing[:5].tolist())) + (", ..." if missing.size > 5 else "")
        raise MissingClusterError(f"{missing.size} empty cluster(s) (k = {k}): {listed}")
    return counts


def cluster_indicator(labels, k: int) -> np.ndarray:
    """(n, k) indicator matrix E of labels in {1..k}: E[i, l-1] = 1 when
    row i is in cluster l, else 0. E^T x sums the rows of x per cluster."""
    indicator = np.zeros((labels.size, k))
    indicator[np.arange(labels.size), labels - 1] = 1.0
    return indicator


class Clusters(NamedTuple):
    """What datasets with the same labels in {1..k} share: the count of
    each cluster and the (n, k) cluster indicator."""

    counts: np.ndarray
    indicator: np.ndarray

    @classmethod
    def of(cls, labels):
        """The clusters of labels in {1..k}, each of which must occur."""
        counts = cluster_counts(labels)
        return cls(counts, cluster_indicator(labels, counts.size))
