"""Exception hierarchy.

Two root categories mirror the CLI exit codes: ConfigError (bad parameters,
shapes, grids -> exit 2) and NumericalError (matrix-analytic failures ->
exit 3). I/O problems use the builtin OSError (-> exit 4).
"""


class StructdrError(Exception):
    """Base class for all structdr errors."""


class ConfigError(StructdrError, ValueError):
    """Invalid parameter, grid, scheme name, or precondition violation."""


class ShapeError(ConfigError):
    """Mismatched array dimensions between coupled inputs."""


class MissingClusterError(ConfigError):
    """A cluster label in 1..k has no member rows."""


class NumericalError(StructdrError, ArithmeticError):
    """Numerical failure: asymmetry, indefiniteness, rank deficiency,
    overflow."""


class SymmetryError(NumericalError):
    """Matrix expected symmetric deviates beyond tolerance."""


class DefinitenessError(NumericalError):
    """Matrix required (semi)definite has an offending eigenvalue."""


class RankError(NumericalError):
    """Matrix required full-rank is numerically rank deficient."""
