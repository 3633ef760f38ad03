"""Property tests of the two invariants the weighting rests on: isotropic
rows satisfy Y^T Y = I, and every row weight lies in (0, 1]. Where a
weight would underflow to 0, `compute_weights` raises instead.

Needs hypothesis (the `test` extra); the module is skipped without it.
"""

import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from structdr import (
    ConfigError,
    LabeledDataset,
    compute_weights,
    isotropize,
    make_separation_family,
    sample,
)
from structdr.transform import SCHEMES

# Entrywise tolerance on Y^T Y - I. The error grows like eps cond(X0)^2:
# over 1000 draws with cond(A) <= 100 (cond(X0) up to about 250) the worst
# was 3.5e-11, and with cond(A) <= 1e3 (cond(X0) about 1900) 6.5e-10.
ATOL = 1e-9
# singular values of the map lie in [10^-1, 10^1], so its cond <= 100
LOG10_SPREAD = 1.0
# Largest |y|^2 / alpha whose weight is a positive double. exp(-t) rounds
# to 0 once it is at most half the smallest subnormal, 2^-1075, that is
# from t = 1075 ln 2 (745.13...) on; sqrt(1 / (1 + t)) is 0 only once t
# overflows.
REPRESENTABLE = {
    "exponential": np.nextafter(1075 * np.log(2.0), 0.0),
    "hyperbolic": np.finfo(float).max,
}


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


@st.composite
def labelled_data(draw):
    """A mixture sample mapped by x A + b with cond(A) <= 100."""
    d, k = draw(st.sampled_from([(2, 2), (3, 2), (4, 3), (7, 3), (10, 5)]))
    n_per_cluster = draw(st.integers(min_value=10 * d, max_value=50 * d))
    separation = draw(st.floats(min_value=0.5, max_value=10.0))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    data = sample(make_separation_family(d, k, separation, 1.0, seed=seed), n_per_cluster,
                  seed=seed)
    singular = 10.0 ** rng.uniform(-LOG10_SPREAD, LOG10_SPREAD, size=d)
    a = (random_orthogonal(rng, d) * singular) @ random_orthogonal(rng, d).T
    b = rng.normal(scale=10.0, size=d)
    return LabeledDataset(data=data.data @ a + b, labels=data.labels)


@settings(max_examples=40, deadline=None)
@given(x=labelled_data())
def test_isotropic_rows_are_orthonormal(x):
    y = isotropize(x).data
    np.testing.assert_allclose(y.T @ y, np.eye(x.d), rtol=0, atol=ATOL)


@settings(max_examples=60, deadline=None)
@given(
    x=labelled_data(),
    alpha=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    scheme=st.sampled_from(SCHEMES),
)
def test_weights_lie_in_unit_interval(x, alpha, scheme):
    iso = isotropize(x)
    # |y|^2 / alpha overflows for subnormal alpha; compute_weights itself
    # must not warn about it
    with np.errstate(over="ignore"):
        ratio = np.einsum("ij,ij->i", iso.data, iso.data) / alpha
    underflows = np.flatnonzero(ratio > REPRESENTABLE[scheme])
    if underflows.size:
        # the exact weight of that row lies below the smallest subnormal
        message = f"alpha = {alpha} is too small for {scheme} weights: row {underflows[0] + 1} "
        with pytest.raises(ConfigError, match=re.escape(message)):
            compute_weights(iso, alpha=alpha, scheme=scheme)
        return
    weights = compute_weights(iso, alpha=alpha, scheme=scheme)
    assert np.all(weights > 0.0)
    assert np.all(weights <= 1.0)
