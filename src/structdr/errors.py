"""Exception hierarchy.

Two root categories mirror the CLI exit codes: ConfigError (bad parameters,
shapes, grids -> exit 2) and NumericalError (matrix-analytic failures ->
exit 3). I/O problems use the builtin OSError (-> exit 4). The scalar
rules of the public boundary, below, raise ConfigError naming the argument.
"""

import contextlib
import csv
import math
import numbers
import os
import sys


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


def is_int(value) -> bool:
    """True for an integer, a numpy one included; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_int(name: str, value, low=None, count=True) -> int:
    """value as an int: an integer >= low when low is given and, for a
    count, below 2**63, so that it fits the int64 that numpy sizes by."""
    if not is_int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    if count and value >= 2**63:
        raise ConfigError(f"{name} must be below 2**63, got {value}")
    return value


def check_seed(name: str, value):
    """A seed as numpy takes it: None, or an int >= 0 of any size."""
    return None if value is None else check_int(name, value, 0, count=False)


def check_real(name: str, value, low=0, strict=True) -> float:
    """value as a float: a finite real (an int beyond the float range is
    not one) above low, or at least low when not strict."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    with contextlib.suppress(OverflowError):  # raised for an int beyond the float range
        if real and math.isfinite(value) and (value > low if strict else value >= low):
            return float(value)
    raise ConfigError(f"{name} must be finite and {'>' if strict else '>='} {low}, got {value!r}")


def check_size(name: str, value, *shape):
    """value, once numpy can size the float64 array of `shape` that value
    sizes: the array's bytes must fit in a signed machine word."""
    if math.prod(shape) * 8 > sys.maxsize:
        raise ConfigError(f"{name} = {value} is too large: a {' x '.join(map(str, shape))} "
                          "float64 array is more than numpy can size")
    return value


def check_path(name: str, value):
    """A file path: a str or an os.PathLike. Anything else is rejected before
    `open`, which would take an int (or a bool) as a file descriptor."""
    if not isinstance(value, (str, os.PathLike)):
        raise ConfigError(f"{name} must be a str or os.PathLike path, got {value!r}")
    return value


@contextlib.contextmanager
def reading(path):
    """Read file `path` within: bytes that do not decode, or a csv field
    longer than csv.field_size_limit(), raise ConfigError naming it."""
    try:
        yield
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from None
