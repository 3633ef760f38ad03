"""Dense reference implementations that the tests compare the library
against: the materialized centering and hat operators, and the exact
population moments of an equal-weight Gaussian mixture.

None of them runs on a production path; they are kept here, next to the
tests, as independent oracles.
"""

from dataclasses import dataclass

import numpy as np

from structdr import MissingClusterError, MixtureSpec
from structdr.linalg import cluster_counts, symmetrize


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
