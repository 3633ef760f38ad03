"""Property test of the invariance the analysis rests on: the Fisher
eigenvalues of x A + b equal x's for every invertible A and shift b, so
the isotropic rows Y carry X's Fisher problem and `analyze` may report
Y's distinctness as X's.

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


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


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
    singular = 10.0 ** rng.uniform(-LOG10_SPREAD, LOG10_SPREAD, size=d)
    a = (random_orthogonal(rng, d) * singular) @ random_orthogonal(rng, d).T
    b = rng.normal(scale=10.0, size=d)
    mapped = LabeledDataset(data=data.data @ a + b, labels=data.labels)

    want = fisher_solve(scatter_matrices(data), k)
    got = fisher_solve(scatter_matrices(mapped), k)
    np.testing.assert_allclose(got.eigen.values, want.eigen.values, rtol=0, atol=ATOL)
    assert abs(analyze(mapped).report.lambda_bar_x - want.distinctness) <= ATOL
