"""Gaussian mixtures with equal mixing factors: specification, stratified
sampling, and a seeded separation/dispersion family for simulation sweeps.
"""

import csv
import json
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DefinitenessError,
    check_int,
    check_path,
    check_real,
    check_seed,
    check_size,
    is_int,
    reading,
)
from .linalg import Clusters, cluster_counts, raise_first, symmetrize

MIN_ROWS_PER_DIM = 10
COVARIANCE_CONDITION_CAP = 10.0


@dataclass(frozen=True)
class MixtureSpec:
    """k-component Gaussian mixture with mixing factors fixed at 1/k.

    means: (k, d) component means; covariances: (k, d, d) SPD matrices.
    Requires d > k - 1 so there is room to reduce dimension. factors holds
    the lower Cholesky factor L_l of each covariance, computed as one stack
    when the covariances are validated (the first bad one in order is
    named) and used by every draw.
    """

    means: np.ndarray
    covariances: np.ndarray
    factors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        covs = np.asarray(self.covariances, dtype=float)
        if means.ndim != 2 or means.shape[0] == 0:
            raise ConfigError(f"means must be (k, d) with k >= 1, got shape {means.shape}")
        k, d = means.shape
        if covs.shape != (k, d, d):
            raise ConfigError(
                f"covariances must be ({k}, {d}, {d}), got shape {covs.shape}"
            )
        if d <= k - 1:
            raise ConfigError(f"need dimension d > k - 1, got d = {d}, k = {k}")
        factors = _factors(means, covs)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariances", covs)
        object.__setattr__(self, "factors", factors)

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]

    def to_json(self) -> str:
        return json.dumps(
            {
                "means": self.means.tolist(),
                "covariances": self.covariances.tolist(),
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "MixtureSpec":
        try:
            obj = json.loads(text)
            means = np.asarray(obj["means"], float)
            covariances = np.asarray(obj["covariances"], float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed mixture spec document: {exc}") from exc
        return cls(means=means, covariances=covariances)


def _factors(means: np.ndarray, covariances: np.ndarray) -> np.ndarray:
    """The one validity rule of mixtures, (k, d, d) covariances or a stack of
    them: every value finite, each covariance symmetric to 1e-10 of its
    largest entry and positive definite. Returns the stacked Cholesky factors;
    the first bad covariance in order is named by its index in its mixture."""
    if not (np.isfinite(means).all() and np.isfinite(covariances).all()):
        raise ConfigError("means and covariances must be finite")
    k, d = covariances.shape[-3:-1]
    dev = np.abs(covariances - np.swapaxes(covariances, -1, -2)).max(axis=(-2, -1))
    symmetric = dev <= 1e-10 * np.abs(covariances).max(axis=(-2, -1))
    try:  # Cholesky reads the lower triangles only, so asymmetry cannot fail it
        factors = np.linalg.cholesky(covariances)
    except np.linalg.LinAlgError:  # in turn, so that the first bad covariance is named
        for i, cov in enumerate(covariances.reshape(-1, d, d)):
            if not symmetric.flat[i]:
                break
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise DefinitenessError(
                    f"covariance {i % k} is not positive definite (Cholesky failed)") from None
    raise_first(symmetric, lambda i: ConfigError(f"covariance {i % k} is not symmetric"))
    return factors


@dataclass(frozen=True)
class MixtureStack:
    """R mixtures of one k and d, means (R, k, d), covariances (R, k, d, d)
    and factors as `_factors` checked and made them. Item i is mixture i as
    a MixtureSpec, by its constructor; a slice is a stack of its mixtures."""

    means: np.ndarray
    covariances: np.ndarray
    factors: np.ndarray

    def __len__(self) -> int:
        return len(self.means)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return MixtureStack(self.means[i], self.covariances[i], self.factors[i])
        return MixtureSpec(means=self.means[i], covariances=self.covariances[i])


@dataclass
class LabeledDataset:
    """n x d observations with per-row cluster labels in 1..k.

    Every value must be finite and every label an integer; error messages
    count rows from 1. counts holds the rows of each cluster, counted once
    when the labels are validated.
    """

    data: np.ndarray
    labels: np.ndarray
    counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.dtype.kind not in "iuf":
            raise ConfigError(f"data must be real numbers, got dtype {data.dtype}")
        self.data = data.astype(float, copy=False)
        labels = np.asarray(self.labels)
        if self.data.ndim != 2:
            raise ConfigError(f"data must be 2-D, got shape {self.data.shape}")
        if self.data.shape[1] == 0:
            raise ConfigError("data has no feature columns")
        if self.data.shape[0] == 0:
            raise ConfigError("data has no rows")
        if labels.shape != (self.data.shape[0],):
            raise ConfigError(
                f"labels shape {labels.shape} does not match {self.data.shape[0]} rows"
            )
        if not np.isfinite(self.data).all():
            row, col = np.argwhere(~np.isfinite(self.data))[0]
            raise ConfigError(
                f"row {row + 1}, column x{col + 1}: non-finite value {self.data[row, col]}"
            )
        bad = []
        if labels.dtype.kind == "f":
            bad = np.flatnonzero(~np.isfinite(labels) | (labels != np.round(labels)))
        elif labels.dtype.kind not in "iu":  # a bool, a string or None is not an integer
            bad = [i for i, label in enumerate(labels.tolist()) if not is_int(label)]
        if len(bad):
            raise ConfigError(
                f"row {bad[0] + 1}, column label: {labels[bad[0]]} is not an integer"
            )
        if labels.dtype.kind in "fOu":  # floats, Python ints and uint64 may not fit in int64
            bad = np.flatnonzero((labels < -2**63) | (labels >= 2**63))
            if bad.size:
                raise ConfigError(
                    f"row {bad[0] + 1}, column label: {labels[bad[0]]} is outside the int64 range"
                )
        self.labels = labels.astype(np.int64)
        self.counts = cluster_counts(self.labels)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    @property
    def k(self) -> int:
        return self.counts.size

    def to_csv(self, path):
        write_labeled_csv(path, [f"x{j + 1}" for j in range(self.d)], self.data, self.labels)

    @classmethod
    def from_csv(cls, path) -> "LabeledDataset":
        """Read a CSV with header exactly x1,...,xd,label, d >= 1. Another
        header raises ConfigError naming the file and quoting the header;
        malformed content raises ConfigError naming the file, the data row
        (from 1, blank lines skipped) and the column. numpy's C reader parses
        the rows; a file that it or `_numpy_safe` rejects, or that numpy
        warns about, is read by the csv loop."""
        with open(check_path("path", path), newline="") as fh, reading(path):
            reader = csv.reader(fh)
            header = next(reader, None) or []
            d = len(header) - 1
            if d < 1 or header != [f"x{j + 1}" for j in range(d)] + ["label"]:
                empty = "data has no feature columns: " if header == ["label"] else ""
                raise ConfigError(
                    f"{path}: {empty}expected header x1,...,xd,label with d >= 1, "
                    f"found {','.join(header)!r}"
                )
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # numpy < 2 only warns on a label 1.5
                    table = np.loadtxt(
                        map(_numpy_safe, fh), dtype=[("x", float, (d,)), ("label", np.int64)],
                        delimiter=",", comments=None, quotechar=None, ndmin=1,
                    )
                data, labels = table["x"].copy(), table["label"]
            except (ValueError, Warning):
                fh.seek(0)  # from the top, so a decoding error is met where it always was
                next(reader)
                data, labels = [], []
            for row in reader:  # none left after numpy's read
                if not row:
                    continue
                if len(row) != d + 1:
                    raise ConfigError(
                        f"{path}: row {len(data) + 1} has {len(row)} fields, expected {d + 1}"
                    )
                try:
                    values = list(map(float, row[:d]))
                    label = int(row[d])
                except ValueError:
                    raise _field_error(f"{path}: row {len(data) + 1}", header, row) from None
                data.append(values)
                labels.append(label)
        try:
            return cls(data=np.reshape(data, (len(data), d)), labels=labels)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def check_dataset(name: str, value) -> LabeledDataset:
    """value, once it is a LabeledDataset."""
    if not isinstance(value, LabeledDataset):
        raise ConfigError(f"{name} must be a LabeledDataset, got {type(value).__name__}")
    return value


def _numpy_safe(line: str) -> str:
    """line, or ValueError if numpy might read it unlike the csv loop: numpy
    strips \\x1c-\\x1f from a field's ends, its integer parser can crash
    beyond ASCII (numpy 2.4 on U+90000), and it has no field size limit."""
    if (len(line) > csv.field_size_limit() or not line.isascii()
            or "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line):
        raise ValueError("a line for the csv loop")
    return line


def _field_error(where: str, header, row) -> ConfigError:
    """The error for a row with a field that `float` or `int` rejects:
    the first bad value column, else the label."""
    d = len(header) - 1
    for name, text in zip(header, row[:d]):
        try:
            float(text)
        except ValueError:
            return ConfigError(f"{where}, column {name}: {text!r} is not a number")
    return ConfigError(f"{where}, column label: {row[d]!r} is not an integer")


def write_labeled_csv(path, names, values, labels):
    """Write a header `names...,label`, then one line per row of the 2-D
    float array `values`: each value as Python `repr`, then the row's
    integer label. Lines end in CRLF, so the bytes are those that
    `csv.writer` writes. Rows are converted one at a time, so memory does
    not grow with the file."""
    with open(check_path("path", path), "w", newline="") as fh:
        fh.write(",".join(names) + ",label\r\n")
        fh.writelines(
            ",".join(map(repr, row.tolist())) + f",{label}\r\n"
            for row, label in zip(values, labels.tolist())
        )


def sample(spec: MixtureSpec, n_per_cluster: int, seed) -> LabeledDataset:
    """Draw exactly n_per_cluster rows from each component.

    Stratified (exact-count) sampling keeps cluster sizes balanced in every
    finite sample. Rows for component l are mu_l + z @ chol(Sigma_l)^T with
    z i.i.d. standard normal from a PCG64 stream, so output is bit
    reproducible for a fixed seed. This is `draw_rows` for one spec and
    seed.
    """
    if not isinstance(spec, MixtureSpec):
        raise ConfigError(f"spec must be a MixtureSpec, got {spec!r}")
    n_per_cluster = check_int("n_per_cluster", n_per_cluster, 1)
    rows = draw_rows([spec], n_per_cluster, [check_seed("seed", seed)])[0]
    return LabeledDataset(data=rows, labels=stratified_labels(spec.k, n_per_cluster))


def draw_rows(specs, n_per_cluster: int, seeds: list) -> np.ndarray:
    """The rows that `sample` draws for each mixture of `specs` (a
    MixtureStack, or MixtureSpecs of one k and d) with its seed, as one
    C-ordered stack (len(specs), n, d): each seed's PCG64 stream fills its
    slot of one (len(specs), k, n_per_cluster, d) block of normals, then one
    stacked product by the Cholesky factors and one broadcast add of the
    means make the rows, each slice with the bits of one draw per
    component. The size is checked before the block is allocated."""
    means, factors = ((specs.means, specs.factors) if isinstance(specs, MixtureStack) else
                      (np.array([s.means for s in specs]), np.array([s.factors for s in specs])))
    _, k, d = means.shape
    n = n_per_cluster * k
    if n < MIN_ROWS_PER_DIM * d:
        raise ConfigError(
            f"sample too small: n = {n} but need n >= {MIN_ROWS_PER_DIM}*d = "
            f"{MIN_ROWS_PER_DIM * d} for d = {d}"
        )
    check_size("n_per_cluster", n_per_cluster, len(means), n, d)
    z = np.empty((len(means), k, n_per_cluster, d))
    for seed, slot in zip(seeds, z):
        np.random.default_rng(seed).standard_normal(out=slot)
    rows = z @ np.swapaxes(factors, -1, -2)
    rows += means[:, :, None, :]
    return rows.reshape(len(means), n, d)


def stratified_labels(k: int, n_per_cluster: int) -> np.ndarray:
    """The labels of a stratified sample: n_per_cluster each of 1..k, in order."""
    return np.repeat(np.arange(1, k + 1), n_per_cluster)


def stratified_clusters(k: int, n_per_cluster: int) -> Clusters:
    """`Clusters.of(stratified_labels(k, n_per_cluster))`, with no count."""
    return Clusters(np.full(k, n_per_cluster), np.repeat(np.eye(k), n_per_cluster, axis=0))


def _simplex_vertices(k: int) -> np.ndarray:
    """k points in R^{k-1} with unit pairwise distances, centered at 0.

    Rows of an orthonormal basis of the sum-zero subspace (Helmert
    construction) have pairwise distance sqrt(2) and zero column sums.
    """
    basis = np.zeros((k, k - 1))
    for j in range(1, k):
        basis[:j, j - 1] = 1.0
        basis[j, j - 1] = -j
        basis[:, j - 1] /= np.sqrt(j * (j + 1))
    return basis / np.sqrt(2.0)


def make_separation_family(d: int, k: int, separation: float, dispersion: float, seed) -> MixtureSpec:
    """Seeded mixture family with tunable cluster geometry.

    Means sit at the vertices of a regular simplex with pairwise distance
    exactly `separation`, embedded in a random (k-1)-dimensional frame;
    covariances are dispersion^2 times random SPD matrices Q diag(D) Q^T
    whose log-uniform spectrum D has condition number <= 10. For a fixed
    seed the frame and covariances do not depend on `separation`, so the
    family is monotone: doubling `separation` doubles every pairwise mean
    distance. This is `make_separation_families` for one seed, checked and
    factored by the `MixtureSpec` constructor, as a spec read from JSON is.
    """
    means, covariances = _separation_stack(d, k, separation, dispersion,
                                           [check_seed("seed", seed)])
    return MixtureSpec(means=means[0], covariances=covariances[0])


def make_separation_families(d: int, k: int, separation: float, dispersion: float,
                             seeds) -> MixtureStack:
    """The `make_separation_family` mixture of each seed, as one MixtureStack
    checked and factored once by `MixtureSpec`'s rule."""
    means, covariances = _separation_stack(d, k, separation, dispersion, seeds)
    return MixtureStack(means, covariances, _factors(means, covariances))


def _separation_stack(d, k, separation, dispersion, seeds) -> tuple:
    """The means and covariances of each seed's family mixture, unchecked.

    Each seed's generator draws, in turn, the Gaussian d x d block whose QR
    gives the means' frame, then per cluster the log-spectrum and the
    Gaussian block of the covariance's axes Q. Then the QRs of all blocks
    and the covariance products are one numpy call each over the stack,
    and every mixture is the one its seed gets alone, bit for bit. Every
    parameter, then every seed, is checked before any draw; the dispersion
    must lie in [sqrt(tiny * 10), sqrt(max / 10)].
    """
    d = check_int("d", d)
    k = check_int("k", k, 1)
    if d <= k - 1:
        raise ConfigError(f"need d > k - 1, got d = {d}, k = {k}")
    separation = check_real("separation", separation, 0, strict=False)
    dispersion = check_real("dispersion", dispersion, 0)
    if dispersion > np.sqrt(np.finfo(float).max / COVARIANCE_CONDITION_CAP):
        raise ConfigError(f"dispersion = {dispersion} is too large: the covariances overflow")
    if dispersion < np.sqrt(np.finfo(float).tiny * COVARIANCE_CONDITION_CAP):
        raise ConfigError(f"dispersion = {dispersion} is too small: the covariances underflow")
    if not isinstance(seeds, Iterable):
        raise ConfigError(f"seeds must be a list of seeds, got {seeds!r}")
    seeds = [check_seed(f"seeds[{i}]", seed) for i, seed in enumerate(seeds)]
    check_size("d", d, len(seeds), k + 1, d, d)
    half = np.log(COVARIANCE_CONDITION_CAP) / 2.0
    blocks = np.empty((len(seeds), k + 1, d, d))
    log_spectra = np.empty((len(seeds), k, d))
    for seed, block, log_spectrum in zip(seeds, blocks, log_spectra):
        rng = np.random.default_rng(seed)
        block[0] = rng.standard_normal((d, d))
        for l in range(k):
            log_spectrum[l] = rng.uniform(-half, half, size=d)
            block[l + 1] = rng.standard_normal((d, d))
    q, r = np.linalg.qr(blocks)
    q *= np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]  # so each Q is Haar
    frames, axes = q[:, 0, :, : k - 1], q[:, 1:]
    means = separation * (_simplex_vertices(k) @ np.swapaxes(frames, -1, -2))
    covariances = dispersion**2 * symmetrize(
        (axes * np.exp(log_spectra)[..., None, :]) @ np.swapaxes(axes, -1, -2))
    return means, covariances
