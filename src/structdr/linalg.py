"""Dense symmetric linear algebra: spectral and generalized-symmetric
eigenproblems, column centering, per-cluster counts and the cluster
indicator matrix.

Eigenvectors follow a deterministic sign convention (largest-magnitude
entry positive) so downstream subspace comparisons are reproducible.
All functions are pure; none mutate their inputs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DefinitenessError, MissingClusterError, RankError, SymmetryError

SYM_ATOL = 1e-12
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class EigenSolution:
    """Eigenvalues in non-increasing order with paired column eigenvectors.

    kind is "standard" (orthonormal vectors) or "generalized" (vectors
    orthonormal in the metric of the defining problem).
    """

    values: np.ndarray
    vectors: np.ndarray
    kind: str


def check_symmetric(m, name="matrix"):
    """Validate m is square and symmetric to tolerance; return it as float64.

    Tolerance scales with the largest entry magnitude so matrices built from
    large cross-products are not rejected for harmless rounding asymmetry.
    A NaN or infinite entry is rejected.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SymmetryError(f"{name} must be square, got shape {m.shape}")
    largest = float(np.abs(m).max()) if m.size else 0.0
    if not np.isfinite(largest):
        raise SymmetryError(f"{name} has a non-finite entry (max |entry| = {largest})")
    scale = max(1.0, largest)
    dev = float(np.abs(m - m.T).max()) if m.size else 0.0
    if dev > SYM_ATOL * scale:
        raise SymmetryError(
            f"{name} not symmetric: max |m - m^T| = {dev:.3e} exceeds {SYM_ATOL * scale:.3e}"
        )
    return m


def symmetrize(m) -> np.ndarray:
    """(m + m^T) / 2, for products that are symmetric in exact arithmetic."""
    m = np.asarray(m, dtype=float)
    return (m + m.T) / 2.0


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    idx = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def sym_eig(m) -> EigenSolution:
    """Spectral decomposition of a symmetric matrix.

    Returns eigenvalues sorted non-increasing with orthonormal column
    eigenvectors. Raises SymmetryError for inputs asymmetric beyond
    tolerance.
    """
    m = check_symmetric(m)
    vals, vecs = np.linalg.eigh(m)
    # stable sort on -values keeps the solver's order among exact ties
    order = np.argsort(-vals, kind="stable")
    return EigenSolution(values=vals[order], vectors=_fix_signs(vecs[:, order]), kind="standard")


def definite_whitener(m_sol: EigenSolution, error=DefinitenessError,
                      what="metric matrix not positive definite") -> np.ndarray:
    """Whitener A L^{-1/2} of a symmetric matrix M = A L A^T, so that
    W^T M W = I.

    Raises `error` (message prefixed by `what`) when M is not numerically
    positive definite: its smallest eigenvalue is not > RANK_RTOL times its
    largest, which a NaN eigenvalue never is.
    """
    largest = float(m_sol.values[0])
    smallest = float(m_sol.values[-1])
    if not (largest > 0.0 and smallest > RANK_RTOL * largest):
        raise error(
            f"{what}: eigenvalue[{m_sol.values.size - 1}] = {smallest:.6e} "
            f"(largest = {largest:.6e}, required > {RANK_RTOL:g} * largest)"
        )
    return m_sol.vectors / np.sqrt(m_sol.values)


def total_whitener(total: EigenSolution) -> np.ndarray:
    """`definite_whitener` of a total scatter: RankError when it is singular."""
    return definite_whitener(total, error=RankError, what="total scatter is rank deficient")


def unwhiten(whitener: np.ndarray, reduced: EigenSolution) -> EigenSolution:
    """Generalized solution of K v = lambda M v from the standard solution
    of the reduced matrix W^T K W, where W is M's whitener."""
    vectors = _fix_signs(whitener @ reduced.vectors)
    return EigenSolution(values=reduced.values, vectors=vectors, kind="generalized")


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
    whitener = definite_whitener(sym_eig(m_mat))
    return unwhiten(whitener, sym_eig(symmetrize(whitener.T @ k_mat @ whitener)))


def apply_centering(data) -> np.ndarray:
    """Subtract column means (matrix-free application of the centering
    operator). Idempotent."""
    data = np.asarray(data, dtype=float)
    return data - data.mean(axis=0, keepdims=True)


def cluster_counts(labels) -> np.ndarray:
    """Counts per cluster for labels in {1..k}, where k is the largest
    label; every label must occur."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise MissingClusterError("labels must be a non-empty 1-D array")
    k = int(labels.max())
    if labels.min() < 1:
        raise MissingClusterError(
            f"labels must lie in 1..{k}, got range [{labels.min()}, {labels.max()}]"
        )
    counts = np.bincount(labels, minlength=k + 1)[1:]
    missing = np.nonzero(counts == 0)[0] + 1
    if missing.size:
        raise MissingClusterError(f"empty cluster(s): {missing.tolist()} (k = {k})")
    return counts


def cluster_indicator(labels, k: int) -> np.ndarray:
    """(n, k) indicator matrix E of labels in {1..k}: E[i, l-1] = 1 when
    row i is in cluster l, else 0. E^T x sums the rows of x per cluster."""
    indicator = np.zeros((labels.size, k))
    indicator[np.arange(labels.size), labels - 1] = 1.0
    return indicator
