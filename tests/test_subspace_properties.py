"""Property test of the invariance `sss` promises: the similarity of two
subspaces does not depend on the bases chosen for them, so
sss(V R1, A R2) == sss(V, A) for every invertible R1 and R2.

Needs hypothesis (the `test` extra); the module is skipped without it.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from structdr import SubspaceBasis, sss

# Tolerance on sss. V, A, R1 and R2 have cond <= 100, so V R1 and A R2
# have cond <= 1e4; over 5000 draws of this strategy the worst |difference|
# was 1.1e-13.
ATOL = 1e-11
# singular values lie in [10^-1, 10^1], so each factor's cond <= 100
LOG10_SPREAD = 1.0


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def with_span(rng, frame):
    """A basis of span(frame) with cond <= 100, for orthonormal columns `frame`."""
    m = frame.shape[1]
    singular = 10.0 ** rng.uniform(-LOG10_SPREAD, LOG10_SPREAD, size=m)
    return (frame * singular) @ random_orthogonal(rng, m).T


@settings(max_examples=100, deadline=None)
@given(
    shape=st.sampled_from([(2, 1), (3, 1), (3, 2), (5, 2), (7, 2), (7, 6), (20, 9)]),
    # A's subspace tilts away from V's by `spread`: 0 gives sss = 1
    spread=st.floats(min_value=0.0, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sss_is_basis_invariant(shape, spread, seed):
    d, m = shape
    rng = np.random.default_rng(seed)
    v_frame = random_orthogonal(rng, d)[:, :m]
    a_frame, _ = np.linalg.qr(v_frame + spread * rng.standard_normal((d, m)))
    v, a = with_span(rng, v_frame), with_span(rng, a_frame)
    r1, r2 = (with_span(rng, random_orthogonal(rng, m)) for _ in range(2))

    want = sss(SubspaceBasis(columns=v), SubspaceBasis(columns=a))
    got = sss(SubspaceBasis(columns=v @ r1), SubspaceBasis(columns=a @ r2))
    assert abs(got - want) <= ATOL
    assert 0.0 <= got <= 1.0
