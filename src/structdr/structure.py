"""Clustering-structure analysis: scatter matrices, the Fisher eigenproblem
and its distinctness coefficient, a Monte-Carlo overlap measure for
two-component mixtures, first-order perturbation tooling with the
closed-form bound on how much weighting can move the distinctness, and
`analyze`, the analysis of a dataset before and after the transform that
sweeps and the CLI share. It runs in two phases, each on a stack with one
numpy call per step: `row_pass` reduces the rows of a stack (R, n, d) of
datasets with the same labels to the d x d results of a `RowSummary` per
(dataset, alpha), where Y's total scatter is I by construction, and
`analyze_stack` runs the d x d steps on a stack of summaries. `analyze`
runs both on a stack of one, and `distinctness_delta_check` the second.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, check_int, check_real, check_seed, check_size
from .linalg import (
    Clusters,
    EigenSolution,
    apply_centering,
    check_symmetric,
    sym_eig,
    symmetrize,
    total_scatter,
    total_whitener,
    unwhiten,
)
from .mixture import LabeledDataset, MixtureSpec, check_dataset, draw_rows
from .subspace import _similarity
from .transform import (
    DEFAULT_ALPHA,
    apply_weights,
    check_rows,
    check_weighting,
    compute_weights,
    isotropic,
    isotropize,
)

MIN_MC_SAMPLES = 10_000
DEFAULT_MC_SAMPLES = 200_000


@dataclass(frozen=True)
class ScatterPair:
    """Total scatter T = X0^T X0 and between-cluster scatter
    B = sum_l n_l (mu_l - mu)(mu_l - mu)^T. Both PSD with B <= T."""

    total: np.ndarray
    between: np.ndarray


@dataclass(frozen=True)
class FisherSolution:
    """Solution of B v = lambda T v with the derived summary quantities.

    `spectrum` is T's spectral decomposition (its principal axes).
    distinctness is the mean of the k-1 largest eigenvalues (zeros
    included when fewer are numerically nonzero); the first k-1 columns of
    eigen.vectors span the discriminant subspace.
    """

    eigen: EigenSolution
    distinctness: float
    spectrum: EigenSolution


@dataclass(frozen=True)
class SdistEstimate:
    """Monte-Carlo estimate of the integral distinctness with its
    standard error."""

    value: float
    std_error: float


def _between(centered: np.ndarray, clusters: Clusters) -> np.ndarray:
    """Between-cluster scatter of already-centered rows (n, d), or of each
    dataset of a stack (..., n, d): one product with the (n, k) cluster
    indicator for the cluster sums."""
    counts = clusters.counts[:, None]
    offsets = (clusters.indicator.T @ centered) / counts  # cluster means of the centered data
    return symmetrize(np.swapaxes(offsets * counts, -1, -2) @ offsets)


def _scatter_pair(centered: np.ndarray, clusters: Clusters) -> ScatterPair:
    """The scatter pair of centered rows, or of each dataset of a stack; the
    total first, so that an overflow is reported by name."""
    return ScatterPair(total=total_scatter(centered), between=_between(centered, clusters))


def scatter_matrices(data: LabeledDataset) -> ScatterPair:
    """Total and between-cluster scatter of a labeled dataset with n > d."""
    check_rows(check_dataset("data", data).data)
    return _scatter_pair(apply_centering(data.data), Clusters.of(data.labels))


def _check_cluster_count(k: int, d: int):
    """Reject a cluster count with no proper Fisher subspace: k - 1 in [1, d)."""
    if not 2 <= check_int("k", k) <= d:
        raise ConfigError(f"need 2 <= k <= d, got k = {k} with d = {d}")


def _distinctness(values: np.ndarray, k: int) -> np.ndarray:
    """The mean of the k-1 largest Fisher eigenvalues, clipped into [0, 1]."""
    return np.clip(values[..., : k - 1].mean(axis=-1), 0.0, 1.0)


def fisher_solve(s: ScatterPair, k: int) -> FisherSolution:
    """Solve the generalized Fisher eigenproblem for a k-cluster scatter
    pair, or for each pair of a stack (..., d, d), and summarize
    distinctness.

    The eigenvalues lie in [0, 1] up to roundoff; the distinctness
    coefficient averages the k-1 largest and is clipped into [0, 1].
    Raises RankError when the total scatter is numerically singular.
    """
    _check_cluster_count(k, s.total.shape[-1])
    between = check_symmetric(s.between, name="between scatter")
    spectrum = sym_eig(s.total)
    eigen = unwhiten(total_whitener(spectrum), between)
    return FisherSolution(eigen, _distinctness(eigen.values, k), spectrum)


def sdist_overlap(spec: MixtureSpec, mc_samples: int = DEFAULT_MC_SAMPLES,
                  seed=0) -> SdistEstimate:
    """Monte-Carlo estimate of 1 - integral of min(f1, f2)/2 for a
    two-component equal-weight mixture.

    The ratio min(f1, f2) / (f1 + f2) is averaged over `sample`'s rows,
    mc_samples // 2 per component (an odd count drops one row from the
    mean and its standard error): an unbiased estimate of the overlap
    integral with per-sample values in (0, 1/2]. As for any sample,
    mc_samples must be at least max(10 000, 10 d).
    """
    if not isinstance(spec, MixtureSpec):
        raise ConfigError(f"spec must be a MixtureSpec, got {spec!r}")
    if spec.k != 2:
        raise ConfigError(
            f"integral distinctness is defined here for k = 2 only, got k = {spec.k}"
        )
    mc_samples = check_int("mc_samples", mc_samples, MIN_MC_SAMPLES)
    check_size("mc_samples", mc_samples, mc_samples, spec.d)
    points = draw_rows([spec], mc_samples // 2, [check_seed("seed", seed)])[0]
    # log f_l(x) = -log det L_l - |L_l^{-1}(x - mu_l)|^2 / 2 - (d/2) log(2 pi),
    # where L_l L_l^T = Sigma_l; the shared constant cancels in the ratio
    log_f = [-np.log(np.diag(factor)).sum()
             - 0.5 * np.square(np.linalg.solve(factor, (points - mean).T)).sum(axis=0)
             for mean, factor in zip(spec.means, spec.factors)]
    # min(f1, f2) / (f1 + f2) = 1 / (1 + exp|log f1 - log f2|), in a form exp cannot overflow
    tail = np.exp(-np.abs(log_f[0] - log_f[1]))
    ratio = tail / (1.0 + tail)
    se = float(ratio.std(ddof=1) / math.sqrt(ratio.size))
    return SdistEstimate(value=1.0 - float(ratio.mean()), std_error=se)


def perturb_eigs_first_order(solution: EigenSolution, delta_k, delta_m) -> np.ndarray:
    """First-order eigenvalue predictions for a perturbed generalized
    symmetric eigenproblem.

    Given the base solution of K0 a = lambda M0 a with M0-orthonormal
    eigenvectors, the perturbed eigenvalues are approximated by
    lambda_j + a_j^T (dK - lambda_j dM) a_j. Eigenvectors are not updated.
    Stacked solutions and perturbations give stacked predictions.
    """
    delta_k = check_symmetric(delta_k, name="delta_k")
    delta_m = check_symmetric(delta_m, name="delta_m")
    a = solution.vectors
    quad_k = np.einsum("...ij,...ij->...j", a, delta_k @ a)
    quad_m = np.einsum("...ij,...ij->...j", a, delta_m @ a)
    return solution.values + quad_k - solution.values * quad_m


def proposition1_bound(n: int, d: int, k: int, alpha: float, lambda_bar_x: float) -> float:
    """Closed-form ceiling on |distinctness(Z) - distinctness(X)|:
    (1/sqrt(n)) * (d/alpha) * (lambda_bar + sqrt(k))."""
    n, d, k = (check_int(name, value, 1) for name, value in (("n", n), ("d", d), ("k", k)))
    alpha = check_weighting(alpha)
    if check_real("lambda_bar_x", lambda_bar_x, 0, strict=False) > 1.0:
        raise ConfigError(f"lambda_bar_x must be in [0, 1], got {lambda_bar_x}")
    return _bound(n, d, k, alpha, lambda_bar_x)


def _bound(n: int, d: int, k: int, alpha: float, lambda_bar_x: float) -> float:
    """`proposition1_bound` of arguments that are checked already."""
    return (d / alpha) * (lambda_bar_x + math.sqrt(k)) / math.sqrt(n)


@dataclass(frozen=True)
class RowSummary:
    """All that the d x d pass needs of one dataset's rows: Y's between
    scatter (its total is I by construction), Z0's scatter pair, X's
    spectrum, and the spread of the squared norms of Y's rows."""

    n: int
    k: int
    alpha: float
    y_between: np.ndarray
    z_pair: ScatterPair
    sd_norm: float
    spectrum: EigenSolution


def _summarize(y: np.ndarray, sqnorms: np.ndarray, spectrum: EigenSolution,
               clusters: Clusters, alphas: list, weighted) -> list:
    """The row summaries of a stack (R, n, d) of isotropic rows y, given
    their squared norms (R, n) and the spectra (R, d) and (R, d, d) that
    isotropized them: one per (dataset, alpha), dataset-major.
    weighted(alpha) gives the stack of Z0's rows, which is dropped once its
    scatter pair is formed."""
    z_pairs = [_scatter_pair(weighted(alpha), clusters) for alpha in alphas]
    y_between = _between(y, clusters)
    sd_norms = sqnorms.std(axis=-1).tolist()
    n, k = y.shape[-2], clusters.counts.size
    return [RowSummary(n, k, alpha, y_between[i],
                       ScatterPair(total=z.total[i], between=z.between[i]), sd_norms[i],
                       EigenSolution(spectrum.values[i], spectrum.vectors[i]))
            for i in range(len(y_between)) for alpha, z in zip(alphas, z_pairs)]


def row_pass(rows: np.ndarray, clusters: Clusters, alphas: list,
             scheme: str = "hyperbolic") -> list:
    """The pass over the rows that `analyze` starts with, for a stack
    (R, n, d) of datasets with the same labels: the steps of
    `transform_pipeline`, with Z0 kept as arrays, one numpy call per step
    for the whole stack. Y and X's spectrum are shared by the alphas. One
    RowSummary per (dataset, alpha), dataset-major; each dataset of a
    C-ordered stack gets the summary it gets as a stack of one. The rows
    are centered in place and dropped once Y is formed, so a caller that
    keeps no other reference to them holds two stacks of rows at most."""
    alphas = [check_weighting(alpha, scheme) for alpha in alphas]
    _check_cluster_count(clusters.counts.size, rows.shape[-1])
    check_rows(rows)
    iso = isotropic(rows)
    del rows
    return _summarize(iso.data, iso.sqnorms, iso.spectrum, clusters, alphas,
                      lambda alpha: apply_weights(iso, compute_weights(iso, alpha, scheme)))


@dataclass(frozen=True)
class Analysis:
    """What one dataset's analysis reports: the distinctness check of the
    weighting transform, and the similarity of the principal-component
    subspace to the Fisher subspace before (sss_x) and after (sss_z)."""

    lambda_bar_x: float
    lambda_bar_z: float
    observed_delta: float
    bound_rhs: float
    bound_satisfied: bool
    predicted_values: np.ndarray
    empirical_sd_norm: float
    sss_x: float
    sss_z: float


def distinctness_delta_check(x: LabeledDataset, z0: LabeledDataset, alpha: float,
                             isotropic=None) -> Analysis:
    """Compare distinctness before and after the weighting transform.

    Solves the Fisher problem on both datasets, evaluates the first-order
    eigenvalue predictions from the scatter perturbations, and checks the
    observed shift against the closed-form bound. A violated bound is
    recorded, never raised: the bound rests on an unproven assumption
    about the spread of squared row norms, so the empirical standard
    deviation of |y_i|^2 is measured and reported with every run.
    `z0` is `transform_pipeline(x).weighted`, whose rows are centered
    already, and `isotropic`, when given, is `isotropize(x)`, which then
    is not rerun: the result is `analyze(x, alpha)` bit for bit.
    """
    check_weighting(alpha)
    check_dataset("x", x)
    check_dataset("z0", z0)
    if x.labels.shape != z0.labels.shape or np.any(x.labels != z0.labels):
        raise ShapeError("x and z0 must carry identical labels")
    if x.d != z0.d:
        raise ShapeError(f"x and z0 must have the same columns, got d = {x.d} and {z0.d}")
    iso = isotropic or isotropize(x)
    spectrum = EigenSolution(iso.spectrum.values[None], iso.spectrum.vectors[None])
    summaries = _summarize(iso.data[None], iso.sqnorms[None], spectrum, Clusters.of(x.labels),
                           [alpha], lambda _: z0.data[None])
    return analyze_stack(summaries)[0]


def analyze_stack(rows: list) -> list:
    """The d x d pass of `analyze` over row summaries with one d and k, one
    numpy call per step: their Analyses, each equal to the one its dataset
    gets alone. Isotropization makes Y^T Y = I, so Y's Fisher problems are
    the eigenproblems of B_y, one `sym_eig` of a stack (len(rows), d, d);
    Z0's are one `fisher_solve`. Fisher eigenvalues are affine invariant,
    so Y's distinctness is X's. The first-order predictions perturb (B_y, I)
    by (B_z - B_y, T_z - I). X's principal axes come from the spectrum that
    isotropized it, and X's Fisher basis is that spectrum's whitener times
    Y's. The four bases of X and Z0 are compared as one stack (len(rows),
    2, d, k - 1) by `sss`'s kernel, unchecked, because none can fail
    `SubspaceBasis`'s check: the principal bases are orthonormal
    eigenvectors, and each Fisher basis is W U with U's columns orthonormal
    and W a whitener that `total_whitener` accepted, so cond(W) < 1e5 and
    the basis's singular values, which lie in [smin(W), smax(W)], have a
    ratio above 1e-5, over both RANK_RTOL and CONDITIONING_WARN_TOL."""
    if not rows:
        return []
    k, d = rows[0].k, rows[0].y_between.shape[-1]
    if any((r.k, r.y_between.shape[-1]) != (k, d) for r in rows):
        raise ShapeError("row summaries of one stack must share d and k")
    y_between = np.array([r.y_between for r in rows])
    z = ScatterPair(total=np.array([r.z_pair.total for r in rows]),
                    between=np.array([r.z_pair.between for r in rows]))
    y_eigen = sym_eig(y_between)
    z_fisher = fisher_solve(z, k)
    predicted = perturb_eigs_first_order(y_eigen, z.between - y_between, z.total - np.eye(d))
    vectors = np.stack([[r.spectrum.vectors for r in rows], z_fisher.spectrum.vectors], axis=1)
    whiteners = total_whitener(EigenSolution(np.array([r.spectrum.values for r in rows]),
                                             vectors[:, 0]))
    fisher = [whiteners @ y_eigen.vectors[..., : k - 1], z_fisher.eigen.vectors[..., : k - 1]]
    similarity = _similarity(vectors[..., : k - 1], np.stack(fisher, axis=1)).tolist()
    analyses = []
    for r, lambda_x, lambda_z, predictions, (sss_x, sss_z) in zip(
            rows, _distinctness(y_eigen.values, k).tolist(), z_fisher.distinctness.tolist(),
            predicted, similarity):
        bound = _bound(r.n, d, k, r.alpha, lambda_x)
        delta = abs(lambda_z - lambda_x)
        analyses.append(Analysis(
            lambda_bar_x=lambda_x,
            lambda_bar_z=lambda_z,
            observed_delta=delta,
            bound_rhs=bound,
            bound_satisfied=bool(delta <= bound),
            predicted_values=predictions,
            empirical_sd_norm=r.sd_norm,
            sss_x=sss_x,
            sss_z=sss_z,
        ))
    return analyses


def analyze(x: LabeledDataset, alpha: float = DEFAULT_ALPHA,
            scheme: str = "hyperbolic") -> Analysis:
    """Analyze a dataset before and after isotropization and weighting.

    The same numbers as `transform_pipeline` followed by
    `distinctness_delta_check` and `sss(pc_subspace, fisher_subspace)` on
    X and Z0, computed with one pass over X's rows (`row_pass`) and then
    the d x d pass (`analyze_stack`), each on a stack of one.

    Raises
    ------
    ConfigError
        For x not a LabeledDataset, k < 2, k > d, n <= d, alpha not
        finite and > 0, an unknown scheme or a weight that underflows to 0.
    RankError
        If X's (or Z0's) total scatter is numerically singular.
    """
    check_dataset("x", x)
    summaries = row_pass(x.data.copy(order="K")[None], Clusters.of(x.labels), [alpha], scheme)
    return analyze_stack(summaries)[0]
