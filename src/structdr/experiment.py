"""Seeded experiment sweeps over mixture and transform parameters.

A sweep is the cross product of the configured grid axes; every grid cell
is repeated for a number of replicates, each with a seed derived
deterministically from the master seed and the cell coordinates. The
mixture configuration seed deliberately excludes the per-cluster sample
size, so cells that differ only in n share the same 50 mixture draws and
sample-size effects are paired rather than confounded.

A sweep's unit of work is a block of replicates of the cells that share
a geometry (d, k, separation, dispersion), run as one stack: one build of
its mixtures, per n_per_cluster C-ordered (R, n, d) row stacks of at most
STACK_VALUES values (shared by the cells that differ only in alpha, and
held one at a time), and one d x d pass. If any step raises a module
error, each record of the block is computed alone, as run_cell computes
it; each slice of a stack has the bits it has alone, so either way a
record is the same. Serially a block is all of a geometry's replicates.
On N processes each geometry's replicates are split into the fewest
near-equal blocks that give every process at least two units, and the
calling process deals them out before the sweep starts (_deal,
run_sweep). Records are put back in canonical order (grid-major, replicate-minor)
either way, so repeated runs and any process count produce
byte-identical CSV bodies. Wall-clock timings are kept on the in-memory
records only, never serialized.
"""

import copy
import csv
import ctypes
import itertools
import json
import math
import os
import platform
import threading
import time
from contextlib import nullcontext, suppress
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, StructdrError, check_int, check_path, check_real, reading
from .linalg import Clusters
from .mixture import draw_rows, make_separation_families, stratified_labels
from .structure import analyze_stack, row_pass
from .transform import check_scheme

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
# The most values in one (R, n, d) stack of a row pass, 2 MiB of float64:
# stacking replicates saves per-call overhead on small cells but slows the
# row kernels on large ones, so a replicate larger than this is a stack of one.
STACK_VALUES = 2**18


# Each grid axis in canonical (grid-major) order: its Cell coordinate and its values' rule.
GRID_AXES = {
    "dims": ("d", partial(check_int, low=1)),
    "clusters": ("k", partial(check_int, low=2)),
    "n_per_cluster": ("n_per_cluster", partial(check_int, low=1)),
    "alphas": ("alpha", check_real),
    "separations": ("separation", partial(check_real, strict=False)),
    "dispersions": ("dispersion", check_real),
}


def _check_grid_pair(d: int, k: int):
    """The rule for a grid pair (d, k), of a config's grid or of run_cell's cell."""
    if d <= k - 1:
        raise ConfigError(f"grid pair (d={d}, k={k}) violates d > k - 1")
    if k > min(d, MAX_CLUSTER_CAP):
        raise ConfigError(f"grid pair (d={d}, k={k}) violates k <= min(d, {MAX_CLUSTER_CAP})")


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
        for name, (_, rule) in GRID_AXES.items():
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ConfigError(f"{name} must be a list, got {values!r}")
            setattr(self, name, [rule(name, value) for value in values])
        self.replicates = check_int("replicates", self.replicates, 1)
        self.seed = check_int("seed", self.seed, 0, count=False)
        check_scheme(self.scheme)
        for d, k in itertools.product(self.dims, self.clusters):
            _check_grid_pair(d, k)

    def cells(self) -> list:
        """Grid cells in canonical (grid-major) order."""
        axes = (getattr(self, name) for name in GRID_AXES)
        return [
            Cell(**{c: v for (c, _), v in zip(GRID_AXES.values(), coords)}, scheme=self.scheme)
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
# The Analysis field of each outcome column that is named otherwise.
_ANALYSIS_FIELDS = {"lambda_x": "lambda_bar_x", "lambda_z": "lambda_bar_z",
                    "delta": "observed_delta"}
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


def _words(*values) -> list:
    """The uint32 words that SeedSequence reads from ints >= 0: each one's,
    low word first, 0 as one word."""
    return [value >> shift & 0xFFFFFFFF
            for value in values for shift in range(0, max(value.bit_length(), 1), 32)]


def _seed(prefix: list, replicate: int, *stream) -> int:
    """The seed of one stream of a replicate of a geometry: that of
    SeedSequence((master seed, *geometry, replicate, *stream)), given the
    _words of (master seed, *geometry) as `prefix`."""
    words = np.array(prefix + _words(replicate, *stream), np.uint32)
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0])


def derive_seeds(master_seed: int, cell: Cell, replicate: int) -> tuple:
    """Deterministic (mixture_seed, data_seed) for one replicate.

    The mixture seed (stream 1) depends on the cell's geometry coordinates
    and the replicate but not on n_per_cluster or alpha, so the same
    mixture configurations recur across sample sizes and weighting
    strengths; the data seed is stream (2, n_per_cluster).
    """
    prefix = _words(master_seed, *_geometry(cell))
    return _seed(prefix, replicate, 1), _seed(prefix, replicate, 2, cell.n_per_cluster)


def _analyze_block(cells: list, replicates: list, prefix: list, seeds: dict, specs: dict) -> list:
    """The Analysis of each (replicate, cell) of a block of cells that share
    a geometry, replicate-major, as one stack; the first error is raised.
    One stacked build adds the mixtures that `specs` (replicate -> mixture)
    lacks. Cells that differ only in alpha share their rows (the data seed
    leaves alpha out), drawn into stacks of at most STACK_VALUES values, each
    row-passed with one numpy call per step and freed before the next is
    drawn; then one stacked d x d pass analyzes every summary."""
    first = cells[0]
    new = [rep for rep in replicates if rep not in specs]
    if new:
        specs.update(zip(new, make_separation_families(
            first.d, first.k, first.separation, first.dispersion,
            [_seed(prefix, rep, 1) for rep in new])))
    summaries = {}  # (replicate, cell index) -> its row summary
    for n in dict.fromkeys(cell.n_per_cluster for cell in cells):
        indices = [i for i, cell in enumerate(cells) if cell.n_per_cluster == n]
        clusters = Clusters.of(stratified_labels(first.k, n))
        alphas = [cells[i].alpha for i in indices]
        per_stack = max(1, STACK_VALUES // (n * first.k * first.d))
        for lo in range(0, len(replicates), per_stack):
            stack = replicates[lo:lo + per_stack]
            # row_pass frees the rows only if no other reference holds them
            passed = row_pass(draw_rows([specs[rep] for rep in stack], n,
                                        [seeds[rep, n] for rep in stack]),
                              clusters, alphas, first.scheme)
            summaries.update(zip(itertools.product(stack, indices), passed))
    return analyze_stack([summaries[rep, i] for rep in replicates for i in range(len(cells))])


def _run_geometry(cells: list, replicates: list, master_seed: int, specs=None) -> list:
    """A block of replicates of cells that share a geometry, as one stack
    (_analyze_block); records come replicate by replicate, in cell order.
    If the stack raises a module error, each (replicate, cell) of a larger
    block runs alone as run_cell runs it, reusing its replicate's mixture
    once the unit has built it (`specs`), and a block of one is recorded as
    failed with that error. Each elapsed_seconds is an equal share of the
    block's time."""
    start = time.perf_counter()
    specs = {} if specs is None else specs
    prefix = _words(master_seed, *_geometry(cells[0]))
    # the data seed is stream (2, n_per_cluster) of the geometry's replicate
    seeds = {(rep, n): _seed(prefix, rep, 2, n)
             for rep in replicates for n in {cell.n_per_cluster for cell in cells}}
    records = [ExperimentRecord(*cell, replicate=rep, seed=seeds[rep, cell.n_per_cluster])
               for rep in replicates for cell in cells]
    try:
        analyses = _analyze_block(cells, replicates, prefix, seeds, specs)
    except FAILURES as exc:
        if len(records) > 1:
            records = [_run_geometry([cell], [rep], master_seed, specs)[0]
                       for rep in replicates for cell in cells]
        else:
            records[0].status = "failed"
            records[0].reason = f"{type(exc).__name__}: {exc}"
    else:
        for record, result in zip(records, analyses):
            for name in ExperimentRecord.CSV_FIELDS[_OUTCOME_START:]:
                setattr(record, name, getattr(result, _ANALYSIS_FIELDS.get(name, name)))
    elapsed = (time.perf_counter() - start) / len(records)
    for record in records:
        record.elapsed_seconds = elapsed
    return records


def run_cell(cell: Cell, replicate: int, master_seed: int) -> ExperimentRecord:
    """Execute one replicate of one grid cell as a sweep unit of one cell
    and one replicate: draw a mixture and a sample, then analyze them as a
    stack of one, giving the subspace similarity on the raw and weighted
    data and the distinctness shift against the closed-form bound. The
    cell passes a config's rules before any work: each field its grid
    axis's, (d, k) the grid pair's and the scheme check_scheme."""
    if not isinstance(cell, Cell):
        raise ConfigError(f"cell must be a Cell, got {cell!r}")
    cell = cell._replace(**{coord: rule(f"cell.{coord}", getattr(cell, coord))
                            for coord, rule in GRID_AXES.values()})
    _check_grid_pair(cell.d, cell.k)
    check_scheme(cell.scheme)
    replicate = check_int("replicate", replicate, 0)
    master_seed = check_int("master_seed", master_seed, 0, count=False)
    return _run_geometry([cell], [replicate], master_seed)[0]


def _keep_heap():
    """Keep up to 64 MiB of freed heap in this process for its lifetime;
    on a C library other than glibc, do nothing.

    glibc's dynamic rule leaves its trim threshold at twice the largest
    block freed so far, which is below one record's rows, so each record
    would hand the heap top back to the OS and fault it in again. A 32 MiB
    mmap threshold (that rule's ceiling on 64-bit) puts the rows on the
    heap, and a trim threshold of twice that keeps them there. Only a
    sweep's calling process calls this, before it forks any helper, so
    every process that runs units keeps its heap."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _rows(unit) -> int:
    """The rows that a unit (cells, replicates) draws: replicates x k x d x
    the sum of its cells' distinct n_per_cluster."""
    cells, replicates = unit
    return (len(replicates) * cells[0].k * cells[0].d
            * sum({cell.n_per_cluster for cell in cells}))


def _deal(units: list, processes: int) -> list:
    """Each process's share of the units, {unit index: unit} in the order it
    runs them; the calling process's is last. One process runs them in
    index order. On more, Graham's list scheduling: largest first by _rows,
    ties in index order, each unit goes to the share with the fewest rows
    so far, on a tie the first, so a helper before the calling process,
    which also collects the records and writes the CSV."""
    if processes == 1:
        return [dict(enumerate(units))]
    shares = [{} for _ in range(processes)]
    loads = [0] * processes
    for i in sorted(range(len(units)), key=lambda i: _rows(units[i]), reverse=True):
        share = loads.index(min(loads))
        shares[share][i] = units[i]
        loads[share] += _rows(units[i])
    return shares


def _cpu():
    """The CPU this process last ran on, field 39 of /proc/self/stat, or
    None where that cannot be read."""
    with suppress(OSError, IndexError, ValueError), open("/proc/self/stat", "rb") as fh:
        return int(fh.read().rpartition(b")")[2].split()[36])


def _run_helper(conn, share: dict, master_seed: int, cpu, mask):
    """One sweep in a helper process: move to CPU `cpu` (if not None;
    skipped if the OS refuses), then take the caller's current CPU mask
    `mask`, so that it runs off the caller's CPU but is not left pinned.
    Then run its share of the units in order, and send the caller their
    records by unit index, or the exception that stopped them."""
    if cpu is not None:
        with suppress(OSError):
            os.sched_setaffinity(0, {cpu})
            os.sched_setaffinity(0, mask)
    try:
        result = {i: _run_geometry(*unit, master_seed) for i, unit in share.items()}
    except Exception as exc:  # re-raised by the calling process
        result = exc
    conn.send(result)


def _serve(conn):
    """A helper process: run each sweep that the calling process sends over
    `conn`, as (share, master seed, CPU, mask), with _run_helper, until the
    caller's end of the pipe closes. It ignores SIGINT, which a terminal's
    Ctrl-C sends to every idle helper too; a sweep that the caller stops
    on an exception stops its helpers."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            sweep = conn.recv()
        except EOFError:
            return
        _run_helper(conn, *sweep)


# This process's sweep helpers, each (connection, process) in fork order
# and idle between sweeps, and the lock that a sweep on more than one
# process holds while it uses them.
_helpers = []
_helpers_lock = threading.Lock()


def _fork_helpers(count: int) -> list:
    """The first `count` of this process's helpers, forking those it lacks
    (all of them again if one has died). They are kept, idle, for its
    later sweeps, which take turns on them (_helpers_lock), and exit with
    it; a child forked from it forks its own (_forget_helpers)."""
    import multiprocessing

    if not all(helper.is_alive() for _, helper in _helpers):
        _stop_helpers()
    # Forked helpers start with numpy and structdr imported; a fresh import
    # in each would cost more than a short sweep.
    fork = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if fork else None)
    while len(_helpers) < count:
        conn, end = context.Pipe()
        helper = context.Process(target=_serve, args=(end,), daemon=True)
        # listed before the fork, so that _forget_helpers closes the helper's
        # copy of conn: its recv sees EOF once the caller's end closes
        _helpers.append((conn, helper))
        with end:
            helper.start()
    return _helpers[:count]


def _stop_helpers():
    """Stop and join every helper of this process, even one in the middle
    of a unit, and close its pipe; the next sweep on more than one process
    forks new helpers."""
    while _helpers:
        conn, helper = _helpers.pop()
        if helper.pid is not None:  # None if its fork failed
            helper.terminate()
            helper.join()
        conn.close()


def _forget_helpers():
    """In a child forked from this process, a helper included: forget the
    caller's helpers and lock (which a thread of the caller may hold).
    The child's copies of the caller's pipe ends are closed, so that each
    helper still sees EOF when the caller's end closes, and multiprocessing
    forgets the helpers too, or it would stop them when the child exits."""
    global _helpers_lock
    if _helpers:
        from multiprocessing import process

        for conn, helper in _helpers:
            conn.close()
            process._children.discard(helper)
        _helpers.clear()
    _helpers_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def run_sweep(config: ExperimentConfig, out_path=None, threads: int = 1) -> list:
    """Run every (cell, replicate) pair and write the CSV to out_path if
    one is given.

    threads is the number of processes that run units, the calling one
    included, capped at the number of (geometry, replicate) pairs and of
    CPUs this process may use; with one, every unit runs in the calling
    thread. With more, the calling process deals the units (_deal) and
    sends each of threads - 1 helpers (_fork_helpers) its share, a CPU
    other than the caller's and the caller's current mask (_run_helper),
    then runs its own share. Records and CSV are the same for any threads.
    The output file is opened before any computation so an unwritable
    path fails fast, and only the calling process writes it. The
    exception that stops a helper is raised here, and a helper that dies
    before sending gives a StructdrError. On any exception in a sweep with
    helpers, every helper is stopped and joined before it propagates.
    """
    threads = check_int("threads", threads, 1)
    if out_path is not None:
        check_path("out_path", out_path)
    cells = config.cells()
    groups = {}
    for i, cell in enumerate(cells):
        groups.setdefault(_geometry(cell), []).append(i)
    cpus = (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
            else range(os.cpu_count() or 1))
    # one process, the caller, even for an empty grid
    processes = max(1, min(threads, len(groups) * config.replicates, len(cpus)))
    # Serially a block is all of a geometry's replicates. On more processes
    # each geometry is split into the fewest near-equal blocks that give
    # every process at least two units.
    per_geometry = 1 if processes < 2 else min(config.replicates,
                                               math.ceil(2 * processes / len(groups)))
    blocks = [block.tolist() for block in np.array_split(range(config.replicates), per_geometry)]
    units = [(indices, block) for indices in groups.values() for block in blocks]
    *shares, own = _deal([([cells[i] for i in indices], block) for indices, block in units],
                         processes)
    with (open(out_path, "w", newline="") if out_path else nullcontext() as fh,
          _helpers_lock if processes > 1 else nullcontext()):
        _keep_heap()
        helpers = []
        try:
            if processes > 1:
                helpers = _fork_helpers(processes - 1)
                here = _cpu() if hasattr(os, "sched_setaffinity") else None
                targets = [None] * processes if here is None else sorted(set(cpus) - {here})
                for (conn, _), share, cpu in zip(helpers, shares, targets):
                    conn.send((share, config.seed, cpu, cpus))
            done = {i: _run_geometry(*unit, config.seed) for i, unit in own.items()}
            for conn, helper in helpers:
                try:
                    result = conn.recv()
                except EOFError:  # the helper died without sending
                    helper.join()
                    raise StructdrError(f"a sweep helper process exited with code "
                                        f"{helper.exitcode} before sending its records") from None
                if isinstance(result, Exception):
                    raise result
                done.update(result)
        except BaseException:
            if processes > 1:  # a helper may still be running units of this sweep
                _stop_helpers()
            raise
        order = [i * config.replicates + rep
                 for indices, block in units for rep in block for i in indices]
        results = itertools.chain.from_iterable(done[i] for i in range(len(units)))
        records = [record for _, record in sorted(zip(order, results))]
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
    with open(check_path("path", path), newline="") as fh, reading(path):
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
    if name not in RECIPE_NAMES:
        raise ConfigError(
            f"unknown recipe {name!r}; valid names: {', '.join(RECIPE_NAMES)}"
        )
    return ExperimentConfig(**copy.deepcopy({**_FIG3_D7, **_RECIPES[name]}))
