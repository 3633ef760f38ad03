"""Clustering-structure analysis: scatter matrices, the Fisher eigenproblem
and its distinctness coefficient, a Monte-Carlo overlap measure for
two-component mixtures, first-order perturbation tooling with the
closed-form bound on how much weighting can move the distinctness, and
`analyze`, the one-pass analysis of a dataset before and after the
transform that sweeps and the CLI share.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .linalg import (
    EigenSolution,
    apply_centering,
    check_symmetric,
    cluster_counts,
    cluster_indicator,
    sym_eig,
    symmetrize,
    total_whitener,
    unwhiten,
)
from .mixture import LabeledDataset, MixtureSpec
from .subspace import SubspaceBasis, leading_basis, sss
from .transform import DEFAULT_ALPHA, IsotropicDataset, check_rows, isotropize, transform_pipeline

MIN_MC_SAMPLES = 10_000
DEFAULT_MC_SAMPLES = 200_000


@dataclass(frozen=True)
class ScatterPair:
    """Total scatter T = X0^T X0 and between-cluster scatter
    B = sum_l n_l (mu_l - mu)(mu_l - mu)^T. Both PSD with B <= T."""

    total: np.ndarray
    between: np.ndarray

    @property
    def within(self) -> np.ndarray:
        return self.total - self.between


@dataclass(frozen=True)
class FisherSolution:
    """Solution of B v = lambda T v with the derived summary quantities.

    `spectrum` is T's spectral decomposition (its principal axes).
    distinctness is the mean of the k-1 largest eigenvalues (zeros
    included when fewer are numerically nonzero); fisher_basis spans the
    discriminant subspace.
    """

    eigen: EigenSolution
    distinctness: float
    fisher_basis: SubspaceBasis
    spectrum: EigenSolution


@dataclass(frozen=True)
class SdistEstimate:
    """Monte-Carlo estimate of the integral distinctness with its
    standard error."""

    value: float
    std_error: float
    n_samples: int


@dataclass(frozen=True)
class PerturbationReport:
    """Observed distinctness shift between original and weighted data,
    the first-order eigenvalue predictions, and the a-priori bound."""

    n: int
    d: int
    k: int
    alpha: float
    lambda_bar_x: float
    lambda_bar_z: float
    observed_delta: float
    bound_rhs: float
    bound_satisfied: bool
    predicted_values: np.ndarray
    empirical_sd_norm: float


def _scatter_pair(centered: np.ndarray, indicator: np.ndarray, counts: np.ndarray) -> ScatterPair:
    """Scatter pair of already-centered rows: one pass over the rows for T
    and one product with the (n, k) cluster indicator for the cluster sums."""
    total = symmetrize(centered.T @ centered)
    offsets = (indicator.T @ centered) / counts[:, None]  # cluster means of the centered data
    between = symmetrize((offsets * counts[:, None]).T @ offsets)
    return ScatterPair(total=total, between=between)


def scatter_matrices(data: LabeledDataset) -> ScatterPair:
    """Total and between-cluster scatter of a labeled dataset with n > d."""
    check_rows(data)
    counts = cluster_counts(data.labels)
    indicator = cluster_indicator(data.labels, counts.size)
    return _scatter_pair(apply_centering(data.data), indicator, counts)


def _check_cluster_count(k: int, d: int):
    """Reject a cluster count with no proper Fisher subspace: k - 1 must
    lie in [1, d)."""
    if not 2 <= k <= d:
        raise ConfigError(f"need 2 <= k <= d, got k = {k} with d = {d}")


def fisher_solve(s: ScatterPair, k: int) -> FisherSolution:
    """Solve the generalized Fisher eigenproblem for a k-cluster scatter
    pair and summarize distinctness.

    The eigenvalues lie in [0, 1] up to roundoff; the distinctness
    coefficient averages the k-1 largest and is clipped into [0, 1].
    Raises RankError when the total scatter is numerically singular.
    """
    _check_cluster_count(k, s.total.shape[0])
    between = check_symmetric(s.between, name="k_mat")
    spectrum = sym_eig(s.total)
    whitener = total_whitener(spectrum)
    eigen = unwhiten(whitener, sym_eig(symmetrize(whitener.T @ between @ whitener)))
    distinctness = float(min(max(eigen.values[: k - 1].mean(), 0.0), 1.0))
    basis = SubspaceBasis(columns=eigen.vectors[:, : k - 1])
    return FisherSolution(eigen, distinctness, basis, spectrum)


def sdist_overlap(spec: MixtureSpec, mc_samples: int = DEFAULT_MC_SAMPLES,
                  seed=0) -> SdistEstimate:
    """Monte-Carlo estimate of 1 - integral of min(f1, f2)/2 for a
    two-component equal-weight mixture.

    Samples are drawn from the mixture itself and the bounded ratio
    min(f1, f2) / (f1 + f2) is averaged, which gives an unbiased estimate
    of the overlap integral with per-sample values in (0, 1/2].
    """
    if spec.k != 2:
        raise ConfigError(
            f"integral distinctness is defined here for k = 2 only, got k = {spec.k}"
        )
    if not isinstance(mc_samples, (int, np.integer)) or mc_samples < MIN_MC_SAMPLES:
        raise ConfigError(f"mc_samples must be an int >= {MIN_MC_SAMPLES}, got {mc_samples!r}")
    half = mc_samples // 2
    points = spec.draw((half, mc_samples - half), np.random.default_rng(seed))
    # log f_l(x) = -log det L_l - |L_l^{-1}(x - mu_l)|^2 / 2 - (d/2) log(2 pi),
    # where L_l L_l^T = Sigma_l; the shared constant cancels in the ratio
    log_f = [-np.log(np.diag(factor)).sum()
             - 0.5 * np.square(np.linalg.solve(factor, (points - mean).T)).sum(axis=0)
             for mean, factor in zip(spec.means, spec.factors)]
    # min(f1, f2) / (f1 + f2) = 1 / (1 + exp|log f1 - log f2|), in a form exp cannot overflow
    tail = np.exp(-np.abs(log_f[0] - log_f[1]))
    ratio = tail / (1.0 + tail)
    overlap = float(ratio.mean())
    se = float(ratio.std(ddof=1) / math.sqrt(mc_samples))
    return SdistEstimate(value=1.0 - overlap, std_error=se, n_samples=mc_samples)


def perturb_eigs_first_order(solution: EigenSolution, delta_k, delta_m) -> np.ndarray:
    """First-order eigenvalue predictions for a perturbed generalized
    symmetric eigenproblem.

    Given the base solution of K0 a = lambda M0 a with M0-orthonormal
    eigenvectors, the perturbed eigenvalues are approximated by
    lambda_j + a_j^T (dK - lambda_j dM) a_j. Eigenvectors are not updated.
    """
    delta_k = check_symmetric(delta_k, name="delta_k")
    delta_m = check_symmetric(delta_m, name="delta_m")
    a = solution.vectors
    quad_k = np.einsum("ij,ij->j", a, delta_k @ a)
    quad_m = np.einsum("ij,ij->j", a, delta_m @ a)
    return solution.values + quad_k - solution.values * quad_m


def proposition1_bound(n: int, d: int, k: int, alpha: float, lambda_bar_x: float) -> float:
    """Closed-form ceiling on |distinctness(Z) - distinctness(X)|:
    (1/sqrt(n)) * (d/alpha) * (lambda_bar + sqrt(k))."""
    if min(n, d, k) <= 0:
        raise ConfigError(f"n, d, k must all be positive, got n={n}, d={d}, k={k}")
    if not (np.isfinite(alpha) and alpha > 0):
        raise ConfigError(f"weighting parameter alpha must be finite and > 0, got {alpha}")
    if not 0.0 <= lambda_bar_x <= 1.0:
        raise ConfigError(f"lambda_bar_x must be in [0, 1], got {lambda_bar_x}")
    return (d / alpha) * (lambda_bar_x + math.sqrt(k)) / math.sqrt(n)


def _compare(x: LabeledDataset, iso: IsotropicDataset, z0: np.ndarray, alpha: float):
    """Distinctness shift from the isotropic rows Y = iso.data to the
    centered weighted rows z0, with Y's and Z0's Fisher solutions. Fisher
    eigenvalues are affine invariant, so Y's distinctness is X's. The
    first-order predictions start from Y's Fisher problem and perturb it
    by the scatter differences; the spread of the squared norms of Y's
    rows is reported."""
    counts = cluster_counts(x.labels)
    indicator = cluster_indicator(x.labels, counts.size)
    y_pair = _scatter_pair(iso.data, indicator, counts)
    y_fisher = fisher_solve(y_pair, x.k)
    z_pair = _scatter_pair(z0, indicator, counts)
    z_fisher = fisher_solve(z_pair, x.k)
    predicted = perturb_eigs_first_order(
        y_fisher.eigen, z_pair.between - y_pair.between, z_pair.total - y_pair.total
    )
    lambda_x = y_fisher.distinctness
    lambda_z = z_fisher.distinctness
    bound = proposition1_bound(x.n, x.d, x.k, alpha, lambda_x)
    delta = abs(lambda_z - lambda_x)
    report = PerturbationReport(
        n=x.n,
        d=x.d,
        k=x.k,
        alpha=float(alpha),
        lambda_bar_x=lambda_x,
        lambda_bar_z=lambda_z,
        observed_delta=delta,
        bound_rhs=bound,
        bound_satisfied=bool(delta <= bound),
        predicted_values=predicted,
        empirical_sd_norm=float(iso.sqnorms.std(ddof=0)),
    )
    return report, y_fisher, z_fisher


def distinctness_delta_check(x: LabeledDataset, z0: LabeledDataset, alpha: float,
                             isotropic=None) -> PerturbationReport:
    """Compare distinctness before and after the weighting transform.

    Solves the Fisher problem on both datasets, evaluates the first-order
    eigenvalue predictions from the scatter perturbations, and checks the
    observed shift against the closed-form bound. A violated bound is
    recorded, never raised: the bound rests on an unproven assumption
    about the spread of squared row norms, so the empirical standard
    deviation of |y_i|^2 is measured and reported with every run.
    `isotropic`, when given, is `isotropize(x)`, which then is not rerun.
    """
    if x.labels.shape != z0.labels.shape or np.any(x.labels != z0.labels):
        raise ShapeError("x and z0 must carry identical labels")
    if x.d != z0.d:
        raise ShapeError(f"x and z0 must have the same columns, got d = {x.d} and {z0.d}")
    return _compare(x, isotropic or isotropize(x), apply_centering(z0.data), alpha)[0]


@dataclass(frozen=True)
class Analysis:
    """What one dataset's analysis reports: the distinctness check of the
    weighting transform, and the similarity of the principal-component
    subspace to the Fisher subspace before (sss_x) and after (sss_z)."""

    report: PerturbationReport
    sss_x: float
    sss_z: float


def analyze(x: LabeledDataset, alpha: float = DEFAULT_ALPHA,
            scheme: str = "hyperbolic") -> Analysis:
    """Analyze a dataset before and after isotropization and weighting.

    The same numbers as `transform_pipeline` followed by
    `distinctness_delta_check` and `sss(pc_subspace, fisher_subspace)` on
    X and Z0, computed with one pass over X's rows and one `fisher_solve`
    per transformed dataset: X's principal axes come from the spectrum
    that isotropizes it, and X's Fisher basis is the whitener times Y's.

    Raises
    ------
    ConfigError
        For k < 2, k > d, n <= d, alpha not finite and > 0, an unknown
        scheme or a weight that underflows to 0.
    RankError
        If X's (or Z0's) total scatter is numerically singular.
    """
    m = x.k - 1
    _check_cluster_count(x.k, x.d)
    pipe = transform_pipeline(x, alpha=alpha, scheme=scheme)
    iso = pipe.isotropic
    report, y_fisher, z_fisher = _compare(x, iso, pipe.weighted.data, alpha)
    x_basis = SubspaceBasis(columns=iso.whitener @ y_fisher.fisher_basis.columns)
    sss_x = sss(leading_basis(iso.spectrum.values, iso.spectrum.vectors, m), x_basis)
    sss_z = sss(leading_basis(z_fisher.spectrum.values, z_fisher.spectrum.vectors, m),
                z_fisher.fisher_basis)
    return Analysis(report=report, sss_x=sss_x, sss_z=sss_z)
