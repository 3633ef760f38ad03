"""structdr: structure-preserving dimension reduction for Gaussian-mixture
data.

The pipeline centers and whitens a dataset into isotropic position, then
shrinks distant observations with a hyperbolic weighting so that the
leading principal components of the transformed data approximate the
Fisher discriminant subspace, while the distinctness of the (unknown)
clustering structure is provably almost unchanged. The package also ships
the verification machinery: distinctness coefficients, a Monte-Carlo
overlap measure, first-order eigenvalue perturbation checks, a
subspace-similarity coefficient, and a seeded experiment harness.
"""

from .errors import (
    ConfigError,
    DefinitenessError,
    MissingClusterError,
    NumericalError,
    RankError,
    ShapeError,
    StructdrError,
    SymmetryError,
)
from .experiment import (
    Cell,
    ExperimentConfig,
    ExperimentRecord,
    read_records_csv,
    recipe,
    run_cell,
    run_sweep,
)
from .linalg import (
    EigenSolution,
    apply_centering,
    gen_eig,
    sym_eig,
)
from .mixture import (
    LabeledDataset,
    MixtureSpec,
    make_separation_family,
    sample,
)
from .structure import (
    Analysis,
    FisherSolution,
    ScatterPair,
    SdistEstimate,
    analyze,
    distinctness_delta_check,
    fisher_solve,
    perturb_eigs_first_order,
    proposition1_bound,
    scatter_matrices,
    sdist_overlap,
)
from .subspace import SubspaceBasis, fisher_subspace, pc_subspace, sss
from .transform import (
    IsotropicDataset,
    PipelineResult,
    apply_weights,
    compute_weights,
    isotropize,
    transform_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "Cell",
    "ConfigError",
    "DefinitenessError",
    "EigenSolution",
    "ExperimentConfig",
    "ExperimentRecord",
    "FisherSolution",
    "IsotropicDataset",
    "LabeledDataset",
    "MissingClusterError",
    "MixtureSpec",
    "NumericalError",
    "PipelineResult",
    "RankError",
    "ScatterPair",
    "SdistEstimate",
    "ShapeError",
    "StructdrError",
    "SubspaceBasis",
    "SymmetryError",
    "analyze",
    "apply_centering",
    "apply_weights",
    "compute_weights",
    "distinctness_delta_check",
    "fisher_solve",
    "fisher_subspace",
    "gen_eig",
    "isotropize",
    "make_separation_family",
    "pc_subspace",
    "perturb_eigs_first_order",
    "proposition1_bound",
    "read_records_csv",
    "recipe",
    "run_cell",
    "run_sweep",
    "sample",
    "scatter_matrices",
    "sdist_overlap",
    "sss",
    "sym_eig",
    "transform_pipeline",
]
