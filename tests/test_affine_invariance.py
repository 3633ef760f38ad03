"""Property tests of the invariance the analysis rests on: the Fisher
eigenvalues of x A + b equal x's for every invertible A and shift b, so
the isotropic rows Y carry X's Fisher problem and `analyze` may report
Y's distinctness as X's. The isotropic rows of (x A + b) c are Y rotated,
for any overall scale c, so everything `analyze` reports from Y and the
weighted rows is the same at any scale; the raw-data similarity sss_x is
kept by the scale c, and by x A + b only for A orthogonal.

Needs hypothesis (the `test` extra); the module is skipped without it.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from structdr import (
    LabeledDataset,
    analyze,
    fisher_solve,
    make_separation_family,
    sample,
    scatter_matrices,
)

# criterion 02's tolerance for Fisher eigenvalues under an invertible map
ATOL = 1e-8
# singular values of A lie in [10^-1.5, 10^1.5], so cond(A) <= 1e3
LOG10_SPREAD = 1.5
# the overall scale c is 10^U(-8, 12)
LOG10_SCALES = (-8.0, 12.0)


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def random_invertible(rng, d):
    singular = 10.0 ** rng.uniform(-LOG10_SPREAD, LOG10_SPREAD, size=d)
    return (random_orthogonal(rng, d) * singular) @ random_orthogonal(rng, d).T


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from([(2, 2), (3, 2), (4, 3), (6, 3), (6, 4)]),
    separation=st.floats(min_value=0.5, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fisher_eigenvalues_are_affine_invariant(shape, separation, seed):
    d, k = shape
    rng = np.random.default_rng(seed)
    data = sample(make_separation_family(d, k, separation, 1.0, seed=seed), 10 * d, seed=seed)
    a = random_invertible(rng, d)
    b = rng.normal(scale=10.0, size=d)
    mapped = LabeledDataset(data=data.data @ a + b, labels=data.labels)

    want = fisher_solve(scatter_matrices(data), k)
    got = fisher_solve(scatter_matrices(mapped), k)
    np.testing.assert_allclose(got.eigen.values, want.eigen.values, rtol=0, atol=ATOL)
    assert abs(analyze(mapped).lambda_bar_x - want.distinctness) <= ATOL


REPORTED = ("lambda_bar_x", "lambda_bar_z", "observed_delta", "empirical_sd_norm")


def values(result):
    """Everything `analyze` reports, by name."""
    return {name: getattr(result, name) for name in (*REPORTED, "sss_x", "sss_z")}


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from([(2, 2), (3, 2), (4, 3), (6, 3), (6, 4)]),
    separation=st.floats(min_value=0.5, max_value=10.0),
    log10_scale=st.floats(min_value=LOG10_SCALES[0], max_value=LOG10_SCALES[1]),
    orthogonal=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_analysis_is_invariant_under_affine_maps_of_any_scale(
        shape, separation, log10_scale, orthogonal, seed):
    d, k = shape
    rng = np.random.default_rng(seed)
    data = sample(make_separation_family(d, k, separation, 1.0, seed=seed), 10 * d, seed=seed)
    a = random_orthogonal(rng, d) if orthogonal else random_invertible(rng, d)
    b = rng.normal(scale=10.0, size=d)
    mapped = data.data @ a + b

    want = values(analyze(data))
    unscaled = values(analyze(LabeledDataset(data=mapped, labels=data.labels)))
    got = values(analyze(LabeledDataset(data=mapped * 10.0 ** log10_scale, labels=data.labels)))
    # sss_z is compared under orthogonal maps only: a general A multiplies
    # the rounding in the isotropic rows by up to cond(A) = 1e3, and over
    # 10^4 draws sss_z moved by up to 2.5e-8 between x A + b and (x A + b) c,
    # and by as much between x and x A + b, at any c. That is A's
    # conditioning, not the scale's.
    sss_z = ("sss_z",) if orthogonal else ()
    # the scale c changes nothing, raw-data PCA included
    for name in (*REPORTED, "sss_x", *sss_z):
        assert abs(got[name] - unscaled[name]) <= ATOL, name
    # the map x A + b changes no Fisher quantity; PCA is kept by orthogonal A only
    for name in (*REPORTED, *(("sss_x", *sss_z) if orthogonal else ())):
        assert abs(got[name] - want[name]) <= ATOL, name
