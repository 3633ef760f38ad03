"""Dense reference implementations that the tests compare the library
against: the materialized centering and hat operators, the exact
population moments of an equal-weight Gaussian mixture, mixture draws
made one component at a time, and the separation family built one matrix
at a time.

None of them runs on a production path; they are kept here, next to the
tests, as independent oracles.
"""

from dataclasses import dataclass

import math

import numpy as np

from structdr import LabeledDataset, MissingClusterError, MixtureSpec
from structdr.linalg import cluster_counts, symmetrize
from structdr.mixture import COVARIANCE_CONDITION_CAP, _simplex_vertices


def centering_matrix(n: int) -> np.ndarray:
    """Materialized n x n centering operator: 1 - 1/n on the diagonal,
    -1/n off it. Symmetric and idempotent."""
    if n < 1:
        raise MissingClusterError(f"centering operator needs n >= 1, got {n}")
    return np.eye(n) - np.full((n, n), 1.0 / n)


def hat_matrix(labels) -> np.ndarray:
    """Materialized hat matrix H = E (E^T E)^{-1} E^T for the cluster
    indicator matrix E.

    H is the orthogonal projector onto the indicator column space: it is
    symmetric, idempotent, has trace k, and H x replaces every coordinate
    of x by the mean of its cluster.
    """
    labels = np.asarray(labels)
    counts = cluster_counts(labels)
    n = labels.size
    h = np.zeros((n, n))
    for cluster, count in enumerate(counts, start=1):
        members = labels == cluster
        h[np.ix_(members, members)] = 1.0 / count
    return h


@dataclass(frozen=True)
class MixtureMoments:
    """Population grand mean and the within/between covariance split."""

    grand_mean: np.ndarray
    within: np.ndarray
    between: np.ndarray

    @property
    def grand_cov(self) -> np.ndarray:
        return self.within + self.between


def population_moments(spec: MixtureSpec) -> MixtureMoments:
    """Exact mixture moments: grand mean is the average of component means;
    the covariance splits into the average component covariance (within)
    plus the scatter of the means (between)."""
    grand_mean = spec.means.mean(axis=0)
    within = spec.covariances.mean(axis=0)
    offsets = spec.means - grand_mean
    between = (offsets.T @ offsets) / spec.k
    return MixtureMoments(
        grand_mean=grand_mean,
        within=symmetrize(within),
        between=symmetrize(between),
    )


def blockwise_draw(spec: MixtureSpec, counts, rng) -> np.ndarray:
    """counts[l] rows from component l: one standard-normal draw and one
    fresh Cholesky factor per component, the blocks stacked at the end."""
    blocks = []
    for mean, cov, count in zip(spec.means, spec.covariances, counts):
        factor = np.linalg.cholesky(cov)
        z = rng.standard_normal((count, spec.d))
        blocks.append(mean + z @ factor.T)
    return np.vstack(blocks)


def blockwise_sample(spec: MixtureSpec, n_per_cluster: int, seed) -> LabeledDataset:
    """`sample` drawn one component at a time."""
    rows = blockwise_draw(spec, (n_per_cluster,) * spec.k, np.random.default_rng(seed))
    return LabeledDataset(data=rows, labels=np.repeat(np.arange(1, spec.k + 1), n_per_cluster))


def blockwise_sdist_overlap(spec: MixtureSpec, mc_samples: int, seed) -> tuple:
    """(value, std_error) of `sdist_overlap`, from a blockwise draw and
    Cholesky factors computed afresh."""
    half = mc_samples // 2
    points = blockwise_draw(spec, (half, mc_samples - half), np.random.default_rng(seed))
    factors = [np.linalg.cholesky(cov) for cov in spec.covariances]
    log_f = [-np.log(np.diag(factor)).sum()
             - 0.5 * np.square(np.linalg.solve(factor, (points - mean).T)).sum(axis=0)
             for mean, factor in zip(spec.means, factors)]
    tail = np.exp(-np.abs(log_f[0] - log_f[1]))
    ratio = tail / (1.0 + tail)
    return 1.0 - float(ratio.mean()), float(ratio.std(ddof=1) / math.sqrt(mc_samples))


def matrixwise_separation_family(d: int, k: int, separation: float, dispersion: float,
                                 seed) -> MixtureSpec:
    """`make_separation_family` with one QR per Gaussian block and one
    product per covariance, validated by `MixtureSpec`."""
    rng = np.random.default_rng(seed)

    def random_orthogonal():
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        return q * np.sign(np.diag(r))

    half = np.log(COVARIANCE_CONDITION_CAP) / 2.0
    frame = random_orthogonal()[:, : k - 1]
    means = separation * (_simplex_vertices(k) @ frame.T)
    covariances = []
    for _ in range(k):
        spectrum = np.exp(rng.uniform(-half, half, size=d))
        q = random_orthogonal()
        covariances.append(dispersion**2 * symmetrize((q * spectrum) @ q.T))
    return MixtureSpec(means=means, covariances=np.stack(covariances))
