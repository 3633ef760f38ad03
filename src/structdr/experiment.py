"""Seeded experiment sweeps over mixture and transform parameters.

A sweep is the cross product of the configured grid axes; every grid cell
is repeated for a number of replicates, each with a seed derived
deterministically from the master seed and the cell coordinates. The
mixture configuration seed deliberately excludes the per-cluster sample
size, so cells that differ only in n share the same 50 mixture draws and
sample-size effects are paired rather than confounded.

A sweep's unit of work is a block of replicates of the cells that share
a geometry (d, k, separation, dispersion), run in three steps. One
stacked build makes the block's mixtures, one per replicate. Each
(replicate, n_per_cluster, alpha) cell in turn is then sampled and
reduced to its d x d row summary, so a unit holds one cell's rows at a
time, and one stacked d x d pass analyzes every summary of the block.
Serially a block holds all of a geometry's replicates; on a pool of
forked worker processes, each geometry's replicates are split into the
fewest near-equal blocks that give every worker at least four units.
Records are put back in canonical order (grid-major, replicate-minor)
either way, so repeated runs and any worker count produce byte-identical
CSV bodies. Wall-clock timings are kept on the in-memory records only,
never serialized.
"""

import copy
import csv
import itertools
import json
import math
import numbers
import os
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, StructdrError
from .mixture import make_separation_families, sample
from .structure import analyze_stack, row_pass
from .transform import SCHEMES

CSV_SCHEMA_LINE = "# schema=1"
MAX_CLUSTER_CAP = 10

# Pilot-calibrated at d=7, 300 rows per cluster, unit dispersion: smallest
# mean separation for which the weighted-data principal subspace tracks the
# discriminant subspace (mean similarity >= 0.9 with a positive margin over
# the raw data) for every k in 3..5. Baseline mean distinctness there is
# about 0.93 for k=3.
DEFAULT_SEPARATION = 10.0
# The errors that mark a record failed.
FAILURES = (StructdrError, np.linalg.LinAlgError)


def _is_number(value, kind=int) -> bool:
    """True for an integer (kind=int) or a finite real (kind=float); bools
    are neither."""
    if isinstance(value, bool):
        return False
    if kind is int:
        return isinstance(value, numbers.Integral)
    return isinstance(value, numbers.Real) and math.isfinite(value)


def _axis(name: str, values, kind) -> list:
    """A grid axis as a list of `kind` values; anything else is a ConfigError."""
    if not isinstance(values, (list, tuple)) or not all(_is_number(v, kind) for v in values):
        expected = "integers" if kind is int else "finite numbers"
        raise ConfigError(f"{name} must be a list of {expected}, got {values!r}")
    return [kind(v) for v in values]


# Each grid axis of the config and the Cell coordinate it spans, in
# canonical (grid-major) order. An axis takes values of its coordinate's type.
GRID_AXES = {
    "dims": "d",
    "clusters": "k",
    "n_per_cluster": "n_per_cluster",
    "alphas": "alpha",
    "separations": "separation",
    "dispersions": "dispersion",
}


@dataclass
class ExperimentConfig:
    """Sweep grid plus execution parameters. Grid axes may be empty, in
    which case the sweep produces a header-only CSV."""

    dims: list
    clusters: list
    n_per_cluster: list
    alphas: list
    separations: list
    dispersions: list
    replicates: int = 50
    seed: int = 0
    scheme: str = "hyperbolic"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, coordinate in GRID_AXES.items():
            kind = Cell.__annotations__[coordinate]
            setattr(self, name, _axis(name, getattr(self, name), kind))
        for name in ("replicates", "seed"):
            if not _is_number(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if any(k < 2 for k in self.clusters):
            raise ConfigError(f"clusters must all be >= 2, got {self.clusters}")
        for d, k in itertools.product(self.dims, self.clusters):
            if d <= k - 1:
                raise ConfigError(f"grid pair (d={d}, k={k}) violates d > k - 1")
            if k > min(d, MAX_CLUSTER_CAP):
                raise ConfigError(
                    f"grid pair (d={d}, k={k}) violates k <= min(d, {MAX_CLUSTER_CAP})"
                )
        for name in ("alphas", "dispersions"):
            if any(v <= 0.0 for v in getattr(self, name)):
                raise ConfigError(f"{name} must all be > 0.0, got {getattr(self, name)}")
        if any(v < 0 for v in self.separations):
            raise ConfigError(f"separations must all be >= 0, got {self.separations}")
        if any(v < 1 for v in self.n_per_cluster):
            raise ConfigError(f"n_per_cluster must all be >= 1, got {self.n_per_cluster}")

    def cells(self) -> list:
        """Grid cells in canonical (grid-major) order."""
        axes = (getattr(self, name) for name in GRID_AXES)
        return [
            Cell(**dict(zip(GRID_AXES.values(), coords)), scheme=self.scheme)
            for coords in itertools.product(*axes)
        ]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed experiment config: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError("experiment config must be a JSON object")
        unknown = set(obj) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        missing = set(GRID_AXES) - set(obj)
        if missing:
            raise ConfigError(f"config missing grid fields: {sorted(missing)}")
        return cls(**obj)


@dataclass
class ExperimentRecord:
    """One (cell, replicate) outcome row. The sweep CSV columns are these
    fields in declaration order, without elapsed_seconds; a failed row
    leaves the outcome columns, lambda_x onwards, empty."""

    d: int
    k: int
    n_per_cluster: int
    alpha: float
    separation: float
    dispersion: float
    scheme: str
    replicate: int
    seed: int
    status: str = "ok"
    reason: str = ""
    lambda_x: float = float("nan")
    lambda_z: float = float("nan")
    delta: float = float("nan")
    bound_rhs: float = float("nan")
    bound_satisfied: bool = False
    sss_x: float = float("nan")
    sss_z: float = float("nan")
    empirical_sd_norm: float = float("nan")
    elapsed_seconds: float = 0.0  # in-memory only, not serialized

    def to_csv_row(self) -> list:
        ok = self.status == "ok"
        return [
            format_value(getattr(self, name)) if ok or i < _OUTCOME_START else ""
            for i, name in enumerate(self.CSV_FIELDS)
        ]


_COLUMNS = tuple(f for f in fields(ExperimentRecord) if f.name != "elapsed_seconds")
ExperimentRecord.CSV_FIELDS = tuple(f.name for f in _COLUMNS)
_OUTCOME_START = ExperimentRecord.CSV_FIELDS.index("lambda_x")
# The record's leading columns, d through scheme, so that
# ExperimentRecord(*cell, replicate=..., seed=...) lines them up.
_CELL_END = ExperimentRecord.CSV_FIELDS.index("replicate")
Cell = NamedTuple("Cell", [(f.name, f.type) for f in _COLUMNS[:_CELL_END]])
Cell.__doc__ = "One grid point of a sweep."
# Per column type: the parser of its CSV text and what that text must be
# (str cannot fail, so it has no such text).
_PARSERS = {
    int: (int, "an integer"),
    float: (float, "a number"),
    str: (str, None),
    bool: ({"true": True, "false": False}.__getitem__, "true or false"),
}


def format_value(value) -> str:
    """CSV text of one value: repr for floats, true/false for bools, str otherwise."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return repr(float(value)) if isinstance(value, float) else str(value)


def _float_bits(value: float) -> int:
    return int(np.float64(value).view(np.uint64))


def _geometry(cell: Cell) -> tuple:
    """The coordinates that fix a cell's mixture, floats by their bits."""
    return (cell.d, cell.k, _float_bits(cell.separation), _float_bits(cell.dispersion))


def _seed(master_seed: int, cell: Cell, replicate: int, *stream) -> int:
    """The seed of one stream of a replicate of the cell's geometry."""
    base = (int(master_seed), *_geometry(cell), int(replicate), *stream)
    return int(np.random.SeedSequence(base).generate_state(1, np.uint64)[0])


def derive_seeds(master_seed: int, cell: Cell, replicate: int) -> tuple:
    """Deterministic (mixture_seed, data_seed) for one replicate.

    The mixture seed (stream 1) depends on the cell's geometry coordinates
    and the replicate but not on n_per_cluster or alpha, so the same
    mixture configurations recur across sample sizes and weighting
    strengths; the data seed is stream (2, n_per_cluster).
    """
    return (_seed(master_seed, cell, replicate, 1),
            _seed(master_seed, cell, replicate, 2, cell.n_per_cluster))


def _fail(record: ExperimentRecord, exc: Exception):
    record.status = "failed"
    record.reason = f"{type(exc).__name__}: {exc}"


def _each(stacked, items: list) -> list:
    """One result per item from one stacked call, stacked(items). When that
    fails, each item is rerun as a stack of one, so that a failing item gets
    its own error in place of a result."""
    try:
        return stacked(items)
    except FAILURES as exc:
        if len(items) == 1:
            return [exc]
        return [result for item in items for result in _each(stacked, [item])]


def _run_geometry(cells: list, replicates: list, master_seed: int) -> list:
    """A block of replicates of cells that share a geometry, in three
    steps: one stacked build of the replicates' mixtures; each (replicate,
    cell) row pass in turn, so that no two cells' rows are held at once;
    then one stacked d x d pass over every summary. Records come replicate
    by replicate, in cell order. Module errors mark a record failed instead
    of aborting the sweep; each record's elapsed_seconds is an equal share
    of the block's time."""
    start = time.perf_counter()
    first = cells[0]
    build = partial(make_separation_families, first.d, first.k, first.separation, first.dispersion)
    specs = _each(build, [_seed(master_seed, first, rep, 1) for rep in replicates])
    records, pending = [], []
    for replicate, spec in zip(replicates, specs):
        for cell in cells:
            record = ExperimentRecord(*cell, replicate=replicate, seed=_seed(
                master_seed, cell, replicate, 2, cell.n_per_cluster))
            records.append(record)
            try:
                if isinstance(spec, Exception):
                    raise spec
                summary = row_pass(sample(spec, cell.n_per_cluster, seed=record.seed),
                                   alpha=cell.alpha, scheme=cell.scheme)
                pending.append((record, summary))
            except FAILURES as exc:
                _fail(record, exc)
    analyses = _each(analyze_stack, [summary for _, summary in pending])
    for (record, _), result in zip(pending, analyses):
        if isinstance(result, Exception):
            _fail(record, result)
            continue
        record.sss_x = result.sss_x
        record.sss_z = result.sss_z
        record.lambda_x = result.lambda_bar_x
        record.lambda_z = result.lambda_bar_z
        record.delta = result.observed_delta
        record.bound_rhs = result.bound_rhs
        record.bound_satisfied = result.bound_satisfied
        record.empirical_sd_norm = result.empirical_sd_norm
    elapsed = (time.perf_counter() - start) / len(records)
    for record in records:
        record.elapsed_seconds = elapsed
    return records


def run_cell(cell: Cell, replicate: int, master_seed: int) -> ExperimentRecord:
    """Execute one replicate of one grid cell as a sweep unit of one cell
    and one replicate: draw a mixture and a sample, then analyze them as a
    stack of one, giving the subspace similarity on the raw and weighted
    data and the distinctness shift against the closed-form bound."""
    return _run_geometry([cell], [replicate], master_seed)[0]


def run_sweep(config: ExperimentConfig, out_path=None, threads: int = 1) -> list:
    """Run every (cell, replicate) pair and write the CSV to out_path if
    one is given.

    threads is the number of worker processes, capped at the number of
    (geometry, replicate) pairs and of CPUs this process may use; with one
    worker the units run in the calling thread. A unit is a block of
    replicates of one geometry (see the module docstring). Records and CSV
    are the same for any threads. The output file is opened before any
    computation so an unwritable path fails fast, and only the calling
    process writes it.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    cells = config.cells()
    groups = {}
    for i, cell in enumerate(cells):
        groups.setdefault(_geometry(cell), []).append(i)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, len(groups) * config.replicates, cpus or 1)
    # Each geometry's replicates are split into the fewest near-equal blocks
    # that give every worker at least four units, which evens out units of
    # unequal cost; serially a block is all of a geometry's replicates.
    per_geometry = 1 if workers < 2 else min(config.replicates,
                                             math.ceil(4 * workers / len(groups)))
    blocks = [block.tolist() for block in np.array_split(range(config.replicates), per_geometry)]
    units = [(indices, block) for indices in groups.values() for block in blocks]
    tasks = [([cells[i] for i in indices], block) for indices, block in units]
    with open(out_path, "w", newline="") if out_path else nullcontext() as fh:
        if workers > 1:
            # Forked workers start with numpy and structdr imported; a
            # fresh import in each would cost more than a short sweep.
            # map returns results in unit order.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            fork = "fork" in multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context("fork" if fork else None)
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                results = list(pool.map(_run_geometry, *zip(*tasks),
                                        itertools.repeat(config.seed)))
        else:
            results = [_run_geometry(group, block, config.seed) for group, block in tasks]
        order = [i * config.replicates + rep
                 for indices, block in units for rep in block for i in indices]
        records = [record for _, record in sorted(zip(order, itertools.chain(*results)))]
        if fh is not None:
            write_records_csv(fh, records)
    return records


def write_records_csv(fh, records):
    fh.write(CSV_SCHEMA_LINE + "\n")
    writer = csv.writer(fh)
    writer.writerow(ExperimentRecord.CSV_FIELDS)
    for record in records:
        writer.writerow(record.to_csv_row())


def _parse_row(where: str, row: list) -> ExperimentRecord:
    """One data row as a record. A failed row's outcome columns are not read."""
    if len(row) < len(_COLUMNS):
        raise ConfigError(f"{where}, column {_COLUMNS[len(row)].name}: missing")
    if len(row) > len(_COLUMNS):
        raise ConfigError(f"{where} has {len(row)} fields, expected {len(_COLUMNS)}")
    values = {}
    for i, (column, text) in enumerate(zip(_COLUMNS, row)):
        if i == _OUTCOME_START and values["status"] != "ok":
            break
        parse, expected = _PARSERS[column.type]
        try:
            values[column.name] = parse(text)
        except (ValueError, KeyError):
            raise ConfigError(
                f"{where}, column {column.name}: {text!r} is not {expected}"
            ) from None
    return ExperimentRecord(**values)


def read_records_csv(path) -> list:
    """Parse a sweep CSV back into ExperimentRecord objects. Malformed
    content raises ConfigError naming the file, the data row (from 1,
    blank lines skipped) and the column."""
    records = []
    with open(path, newline="") as fh:
        schema = fh.readline().strip()
        if schema != CSV_SCHEMA_LINE:
            raise ConfigError(f"{path}: unexpected schema line {schema!r}")
        reader = csv.reader(fh)
        header = next(reader, None)
        if tuple(header or ()) != ExperimentRecord.CSV_FIELDS:
            raise ConfigError(f"{path}: unexpected header {header}")
        for row in reader:
            if row:
                records.append(_parse_row(f"{path}: row {len(records) + 1}", row))
    return records


# The canned sweeps for the reference experiments, each declared as its
# changes to the fig3_d7 grid, which keeps ExperimentConfig's defaults (50
# replicates, seed 0, hyperbolic). Grids the source material leaves
# unspecified are reconstructions, flagged in each config's metadata.
_FIG3_D7 = {
    "dims": [7],
    "clusters": [3, 4, 5, 6, 7],
    "n_per_cluster": [100, 300, 500],
    "alphas": [0.5],
    "separations": [DEFAULT_SEPARATION],
    "dispersions": [1.0],
    "metadata": {
        "separation_note": (
            f"default separation {DEFAULT_SEPARATION} is a reconstruction calibrated "
            "by pilot run: the smallest value where the weighted-data similarity "
            "stays above 0.9 with a positive margin over raw data for k=3..5 at "
            "d=7, 300 rows per cluster (baseline distinctness about 0.93 at k=3)"
        ),
        "pc_note": (
            "principal components are extracted from the centered weighted data "
            "(Z0), not the uncentered weighted data"
        ),
    },
}
_RECIPES = {
    "fig1": {
        "dims": [2],
        "clusters": [2],
        "n_per_cluster": [250],
        "separations": [4.0],
        "replicates": 1,
        "metadata": {
            "grid_note": "two well-separated plane clusters for the three-panel "
            "original/isotropic/weighted illustration",
        },
    },
    "fig2": {
        "dims": [2],
        "clusters": [2],
        "n_per_cluster": [100],
        "separations": [round(v, 10) for v in np.linspace(0.0, 6.0, 10)],
        "dispersions": [round(v, 10) for v in np.linspace(1.0, 4.0, 10)],
        "replicates": 20,
        "metadata": {
            "grid_note": (
                "separation and dispersion grids are reconstructions; the "
                "distinctness-vs-separation sweep is the dispersion=1.0 slice and "
                "the dispersion sweep is the separation=4.0 slice"
            ),
        },
    },
    "fig3_d7": {},
    "fig3_d20": {"dims": [20], "clusters": list(range(3, 11))},
    "fig3_d20_largen": {
        "dims": [20],
        "clusters": list(range(3, 11)),
        "n_per_cluster": [1500, 2000],
        "metadata": {
            **_FIG3_D7["metadata"],
            "grid_note": "large-sample variant at per-cluster sizes where the similarity drop "
            "at moderate k is reported to disappear; in this reconstruction it does not",
        },
    },
    "prop1": {"clusters": [3], "n_per_cluster": [300]},
}
RECIPE_NAMES = tuple(_RECIPES)


def recipe(name: str) -> ExperimentConfig:
    """The canned sweep configuration `name`, one of RECIPE_NAMES: the
    fig3_d7 grid with the recipe's changes, copied, so that no two configs
    share a list or dict."""
    if name not in _RECIPES:
        raise ConfigError(
            f"unknown recipe {name!r}; valid names: {', '.join(RECIPE_NAMES)}"
        )
    return ExperimentConfig(**copy.deepcopy({**_FIG3_D7, **_RECIPES[name]}))
