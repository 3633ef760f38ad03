"""Two-step data transformation: isotropization (center + whiten so the
total scatter becomes the identity) followed by per-observation weighting
that shrinks distant rows toward the center.

The weighting comes in two flavors: the hyperbolic scheme
w_i = sqrt(1 / (1 + |y_i|^2 / alpha)) and, for comparison, the exponential
scheme w_i = exp(-|y_i|^2 / alpha). Both leave central observations nearly
untouched; the hyperbolic one decays slower near zero and keeps more
variation among peripheral rows.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ShapeError, check_real
from .linalg import EigenSolution, column_means, sym_eig, total_scatter, total_whitener
from .mixture import LabeledDataset, check_dataset

DEFAULT_ALPHA = 0.5
SCHEMES = ("hyperbolic", "exponential")


@dataclass(frozen=True)
class IsotropicDataset:
    """Data in isotropic position (zero column means, Y^T Y = I) plus the
    affine map that produced it: y = (x - center) @ whitener. `spectrum`
    is X0^T X0 = A L A^T, which holds X's principal axes, and
    whitener = A L^{-1/2}. A stack of datasets has a leading axis on every
    array. No labels: the transform reads none."""

    data: np.ndarray
    center: np.ndarray
    whitener: np.ndarray
    spectrum: EigenSolution

    @property
    def n(self) -> int:
        return self.data.shape[-2]

    @cached_property
    def sqnorms(self) -> np.ndarray:
        """Squared row norms |y_i|^2, computed on first use: the weights
        and the analysis's norm spread read the same array."""
        return np.einsum("...ij,...ij->...i", self.data, self.data)


@dataclass(frozen=True)
class PipelineResult:
    isotropic: IsotropicDataset
    weights: np.ndarray
    weighted: LabeledDataset


def check_rows(rows: np.ndarray):
    """Reject rows (..., n, d) with n <= d, whose total scatter cannot be
    full rank."""
    n, d = rows.shape[-2:]
    if n <= d:
        raise ConfigError(f"need n > d, got n = {n}, d = {d}")


def check_scheme(scheme) -> str:
    """scheme, once it is one of SCHEMES."""
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown weighting scheme {scheme!r}; expected one of {SCHEMES}")
    return scheme


def check_weighting(alpha, scheme="hyperbolic") -> float:
    """alpha as a float, once it is a finite real > 0 and scheme is in SCHEMES."""
    alpha = check_real("weighting parameter alpha", alpha, 0)
    check_scheme(scheme)
    return alpha


def isotropize(x: LabeledDataset) -> IsotropicDataset:
    """Map a dataset to isotropic position.

    Centers the rows, then whitens with the spectral factor A L^{-1/2} of
    the total scatter T = X0^T X0, so the output satisfies Y^T Y = I and
    consequently sum_i |y_i|^2 = d.

    Raises
    ------
    ConfigError
        If x is not a LabeledDataset, or n <= d.
    NumericalError
        If the total scatter, or its symmetrization, overflows.
    RankError
        If the total scatter is numerically rank deficient (no silent
        regularization is attempted).
    """
    check_rows(check_dataset("x", x).data)
    return isotropic(x.data.copy(order="K"))


def isotropic(rows: np.ndarray) -> IsotropicDataset:
    """`isotropize` of rows (n, d), or of each dataset of a stack
    (..., n, d), one numpy call per step; each dataset of a C-ordered
    stack gets the bits it gets alone. The rows are centered in place, so
    that no copy of them is made."""
    with np.errstate(over="ignore", invalid="ignore"):  # total_scatter reports it
        center = column_means(rows)
        rows -= center[..., None, :]
    spectrum = sym_eig(total_scatter(rows))
    whitener = total_whitener(spectrum)
    return IsotropicDataset(
        data=rows @ whitener,
        center=center,
        whitener=whitener,
        spectrum=spectrum,
    )


def compute_weights(y: IsotropicDataset, alpha: float = DEFAULT_ALPHA,
                    scheme: str = "hyperbolic") -> np.ndarray:
    """Row weights in (0, 1], an (n,) array (a stack (..., n) for a stack),
    from the squared norms of the isotropic data.

    Raises ConfigError when a weight underflows to 0, which takes
    |y|^2 / alpha above about 745 (exponential) or beyond the largest
    double (hyperbolic): a zero-weight row would vanish from Z0 and
    distort its scatter without a word."""
    alpha = check_weighting(alpha, scheme)
    with np.errstate(over="ignore"):  # an overflow gives weight 0, reported below
        ratio = y.sqnorms / alpha
    if scheme == "hyperbolic":
        weights = np.sqrt(1.0 / (1.0 + ratio))
    else:
        weights = np.exp(-ratio)
    if not weights.all():
        first = int(np.flatnonzero(weights == 0.0)[0])
        raise ConfigError(
            f"alpha = {alpha} is too small for {scheme} weights: row {first % y.n + 1} "
            f"(|y|^2 = {y.sqnorms.flat[first]:.6g}) gets weight 0"
        )
    return weights


def apply_weights(y: IsotropicDataset, weights: np.ndarray) -> np.ndarray:
    """The rows of Z0 = F diag(w) Y: each row scaled by its weight, then
    re-centered; a stack of them for a stack, with weights (..., n)."""
    if weights.shape != y.data.shape[:-1]:
        raise ShapeError(f"weights have shape {weights.shape}, expected {y.data.shape[:-1]}")
    weighted = weights[..., None] * y.data
    weighted -= column_means(weighted)[..., None, :]
    return weighted


def transform_pipeline(x: LabeledDataset, alpha: float = DEFAULT_ALPHA,
                       scheme: str = "hyperbolic") -> PipelineResult:
    """Isotropize, weight, and center in one call, returning every
    intermediate for diagnostics, Z0 with x's labels."""
    check_weighting(alpha, scheme)
    iso = isotropize(x)
    weights = compute_weights(iso, alpha=alpha, scheme=scheme)
    weighted = LabeledDataset(apply_weights(iso, weights), x.labels)
    return PipelineResult(isotropic=iso, weights=weights, weighted=weighted)
