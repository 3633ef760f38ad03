"""What the transform computes at the shipped settings: the principal
subspace of the weighted data Z0 is the fourth-moment (FOBI) basis of the
isotropic data Y, the span of the k-1 smallest eigenvectors of
Q = sum_i |y_i|^2 y_i y_i^T.

Isotropic rows have mean |y|^2 = d/N, far below alpha = 0.5, so both
schemes weight by w = 1 - c |y|^2 / alpha to first order (c = 1/2
hyperbolic, 1 exponential), and Z0's scatter is I - (2c / alpha) Q up to
terms of order (d / (N alpha))^2. The limit fails once alpha nears the
|y|^2 scale. The draws are the sweep's own, from the recipe cells and
`derive_seeds` at master seed 0.
"""

import pytest

from oracles import fobi_basis
from structdr import make_separation_family, recipe, sample, transform_pipeline
from structdr.experiment import derive_seeds
from structdr.subspace import pc_subspace, sss
from structdr.transform import SCHEMES

# Bound on 1 - sss(PC(Z0), FOBI basis) at alpha 0.5. Over replicates 0..59
# of each geometry below, both schemes, the largest was 4.8e-4, at
# (d, k, n) = (20, 6, 500); the medians were 1e-6 to 1e-5.
EPS = 1e-3
GEOMETRIES = [("fig3_d7", 3, 300), ("fig3_d7", 5, 300),
              ("fig3_d20", 6, 500), ("fig3_d20", 10, 500)]
REPLICATES = range(10)


def recipe_cell(name, k, n):
    (cell,) = [c for c in recipe(name).cells() if (c.k, c.n_per_cluster) == (k, n)]
    return cell


def sweep_draw(cell, replicate):
    spec_seed, data_seed = derive_seeds(0, cell, replicate)
    spec = make_separation_family(cell.d, cell.k, cell.separation, cell.dispersion, spec_seed)
    return sample(spec, cell.n_per_cluster, data_seed)


def fobi_agreement(data, alpha, scheme):
    pipe = transform_pipeline(data, alpha=alpha, scheme=scheme)
    return sss(pc_subspace(pipe.weighted.data, data.k - 1),
               fobi_basis(pipe.isotropic.data, data.k - 1))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name,k,n", GEOMETRIES)
def test_weighted_principal_subspace_is_the_fobi_basis(name, k, n, scheme):
    cell = recipe_cell(name, k, n)
    for replicate in REPLICATES:
        assert fobi_agreement(sweep_draw(cell, replicate), 0.5, scheme) >= 1 - EPS


@pytest.mark.parametrize("scheme", SCHEMES)
def test_agreement_falls_as_alpha_nears_d_over_n(scheme):
    # at (20, 6, 500), N = 3000: |y|^2 averages d/N = 1/150. Over
    # replicates 0..19 the hyperbolic agreement at alpha 1/N was 0.84 to
    # 0.99 and the exponential one 0.33 to 0.51, falling at every step.
    cell = recipe_cell("fig3_d20", 6, 500)
    n = cell.k * cell.n_per_cluster
    for replicate in REPLICATES:
        data = sweep_draw(cell, replicate)
        agreement = [fobi_agreement(data, alpha, scheme) for alpha in (0.5, 0.05, 10 / n, 1 / n)]
        assert all(high > low for high, low in zip(agreement, agreement[1:]))
        assert agreement[0] >= 1 - EPS and agreement[-1] <= 1 - 10 * EPS
