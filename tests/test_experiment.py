"""Sweep configuration, seeded replicate execution, canonical CSV output,
and the canned experiment recipes.
"""

import csv
import ctypes
import functools
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import textwrap
import threading
import time
import types
import warnings
from dataclasses import asdict, astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from structdr import (
    Cell,
    ConfigError,
    ExperimentConfig,
    ExperimentRecord,
    read_records_csv,
    recipe,
    run_cell,
    run_sweep,
)
from structdr import experiment, linalg, mixture, structure, transform
from structdr.errors import DefinitenessError, StructdrError
from structdr.experiment import derive_seeds, write_records_csv
from structdr.mixture import make_separation_families


def small_config(**overrides):
    base = dict(
        dims=[3],
        clusters=[2],
        n_per_cluster=[30],
        alphas=[0.5],
        separations=[3.0],
        dispersions=[1.0],
        replicates=3,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def record_key(record):
    payload = asdict(record)
    payload.pop("elapsed_seconds")
    return payload


def assert_same_records(got, want):
    """Field by field, apart from elapsed_seconds, with types compared too
    and a failed row's NaN outcomes equal to each other (repr does both)."""
    assert [repr(record_key(r)) for r in got] == [repr(record_key(r)) for r in want]


def available_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The sweep's unit function, which the tests below wrap as a per-record hook.
run_geometry = experiment._run_geometry


def pid_logging_run_geometry(log, cells, replicates, master_seed):
    """The unit function, appending its process id to `log` once per record
    first."""
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()}\n" * (len(cells) * len(replicates)))
    return run_geometry(cells, replicates, master_seed)


def wait_for(predicate, seconds=10.0):
    """Poll predicate() until it is true or `seconds` have passed."""
    deadline = time.monotonic() + seconds
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)


def caller_first_run_geometry(log, caller, cells, replicates, master_seed):
    """pid_logging_run_geometry, except that a process other than `caller`
    first waits (up to 10 s) until `caller` has logged a record, so that
    the calling process runs a unit however the processes are scheduled."""
    if os.getpid() != caller:
        wait_for(lambda: log.exists() and str(caller) in log.read_text().split())
    return pid_logging_run_geometry(log, cells, replicates, master_seed)


def pid_logging_keep_heap(log):
    """In place of the heap policy: append this process id to `log`."""
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()}\n")


# The body of a sweep's helper process, which the tests below wrap.
run_helper = experiment._run_helper


def pid_logging_help(log, *args):
    """The helper process body, appending its process id to `log` first."""
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()}\n")
    return run_helper(*args)


def helper_failing_run_geometry(marker, caller, fail, cells, replicates, master_seed):
    """The unit function, except that in a process other than `caller` it
    touches `marker` and calls fail(), and that `caller` first waits (up
    to 10 s) for the marker, so that a helper's unit fails before the
    calling process runs out of units."""
    if os.getpid() != caller:
        marker.touch()
        fail()
    wait_for(marker.exists)
    return run_geometry(cells, replicates, master_seed)


# The CPU a process last ran on, as the sweep reads it.
read_cpu = experiment._cpu


def placement_logging_run_geometry(log_dir, caller, cells, replicates, master_seed):
    """The unit function, appending [process id, CPU, affinity mask] first
    to the log of its sweep, `log_dir` / units<master seed>; `caller` then
    waits (up to 10 s) until another process has logged there, so that a
    helper runs a unit of each sweep however the processes are scheduled."""
    log = log_dir / f"units{master_seed}"
    with open(log, "a") as fh:
        fh.write(json.dumps([os.getpid(), read_cpu(), sorted(os.sched_getaffinity(0))]) + "\n")
    if os.getpid() == caller:
        wait_for(lambda: any(json.loads(line)[0] != caller
                             for line in log.read_text().splitlines()))
    return run_geometry(cells, replicates, master_seed)


def assert_helpers_idle(count):
    """After a sweep that returned: the process keeps `count` helpers for
    its next sweep, alive, idle (nothing unread on their pipes) and its only
    child processes, and none is left once they are stopped."""
    helpers = experiment._helpers
    assert len(helpers) == count
    assert all(helper.is_alive() and not conn.poll() for conn, helper in helpers)
    assert set(multiprocessing.active_children()) == {helper for _, helper in helpers}
    experiment._stop_helpers()
    assert experiment._helpers == []
    assert multiprocessing.active_children() == []


def helper_pids():
    return [helper.pid for _, helper in experiment._helpers]


def running(pid):
    """Whether process `pid` exists and is not a zombie (Linux)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            return fh.read().rpartition(b")")[2].split()[0] not in (b"Z", b"X")
    except FileNotFoundError:
        return False


# The body of a helper process, which the tests below wrap.
serve = experiment._serve


def fork_logging_serve(log, *args):
    """The helper process body, appending its process id to `log` once,
    when the helper starts."""
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()}\n")
    return serve(*args)


def run_script(code, *args, timeout=120):
    """Run `code` in a fresh interpreter that imports this structdr, with
    BLAS on one thread; returns the CompletedProcess, or raises
    subprocess.TimeoutExpired after `timeout` seconds."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(experiment.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


# The affinity call, which the test of helper placement wraps.
set_affinity = getattr(os, "sched_setaffinity", None)


def move_logging_set_affinity(log, pid, mask):
    """os.sched_setaffinity, appending [process id, sorted mask] to `log`
    first."""
    with open(log, "a") as fh:
        fh.write(json.dumps([os.getpid(), sorted(mask)]) + "\n")
    return set_affinity(pid, mask)


def raise_runtime_error():
    raise RuntimeError("a helper's unit failed")


def caller_failing_run_geometry(marker, caller, cells, replicates, master_seed):
    """The unit function, except that a process other than `caller` touches
    `marker` and sleeps for a minute, and that `caller` waits (up to 10 s)
    for the marker and raises RuntimeError."""
    if os.getpid() != caller:
        marker.touch()
        time.sleep(60)
        return run_geometry(cells, replicates, master_seed)
    wait_for(marker.exists)
    raise RuntimeError("the caller's unit failed")


def block_logging_run_geometry(log, cells, replicates, master_seed):
    """The unit function, appending its geometry and block of replicates to
    `log` first."""
    with open(log, "a") as fh:
        fh.write(json.dumps([cells[0].d, replicates]) + "\n")
    return run_geometry(cells, replicates, master_seed)


def share_logging_run_geometry(log, cells, replicates, master_seed):
    """The unit function, appending [process id, d, k, block of replicates]
    to `log` first."""
    with open(log, "a") as fh:
        fh.write(json.dumps([os.getpid(), cells[0].d, cells[0].k, replicates]) + "\n")
    return run_geometry(cells, replicates, master_seed)


def logged_shares(log):
    """The units that each process ran, by process id, in the order it ran
    them, as [d, k, block] from share_logging_run_geometry's log; the log
    is removed."""
    shares = {}
    for pid, *unit in map(json.loads, log.read_text().splitlines()):
        shares.setdefault(pid, []).append(unit)
    log.unlink()
    return shares


def logged_builds(monkeypatch, log):
    """Make experiment's make_separation_families append its process id and
    arguments to `log` once per spec seed, in this process and in the
    helpers it forks; returns a function that reads the log as (pid,
    arguments with one seed) pairs."""

    def logging_build(*args):
        with open(log, "a") as fh:
            fh.writelines(json.dumps([os.getpid(), [*args[:4], seed]]) + "\n"
                          for seed in args[4])
        return make_separation_families(*args)

    monkeypatch.setattr(experiment, "make_separation_families", logging_build)
    return lambda: [(pid, tuple(args))
                    for pid, args in map(json.loads, log.read_text().splitlines())]


def reuse_config(**overrides):
    """Several sample sizes and alphas per mixture, over two (d, k) pairs."""
    base = dict(dims=[3, 4], clusters=[2, 3], n_per_cluster=[30, 45], alphas=[0.5, 2.0],
                separations=[2.0, 3.0])
    return small_config(**{**base, **overrides})


@pytest.fixture
def builds(monkeypatch):
    """Every make_separation_families call that experiment makes, as the
    tuple (d, k, separation, dispersion, seeds)."""
    calls = []
    build = experiment.make_separation_families

    def counting_build(d, k, separation, dispersion, seeds):
        calls.append((d, k, separation, dispersion, tuple(seeds)))
        return build(d, k, separation, dispersion, seeds)

    monkeypatch.setattr(experiment, "make_separation_families", counting_build)
    return calls


class TestExperimentConfig:
    def test_grid_pair_validation(self):
        with pytest.raises(ConfigError, match="d > k - 1"):
            small_config(dims=[2], clusters=[3])
        with pytest.raises(ConfigError, match="k <= min"):
            small_config(dims=[20], clusters=[11])
        with pytest.raises(ConfigError, match=r"^clusters must be >= 2, got 1$"):
            small_config(dims=[7], clusters=[1])

    @pytest.mark.parametrize("field", ["alphas", "separations", "dispersions"])
    def test_int_beyond_float_range_rejected_naming_the_field(self, field):
        with pytest.raises(ConfigError, match=f"^{field} must be finite and >=? 0, got {10**400}$"):
            small_config(**{field: [10**400]})

    def test_replicates_floor(self):
        with pytest.raises(ConfigError):
            small_config(replicates=0)

    def test_scheme_checked(self):
        with pytest.raises(ConfigError):
            small_config(scheme="linear")

    def test_cells_canonical_order(self):
        config = small_config(dims=[3, 4], n_per_cluster=[30, 50])
        cells = config.cells()
        assert [(c.d, c.n_per_cluster) for c in cells] == [
            (3, 30), (3, 50), (4, 30), (4, 50),
        ]

    def test_cells_label_axes_by_name(self, monkeypatch):
        # the axis table sets the grid order only; it cannot swap coordinates
        reordered = dict(reversed(list(experiment.GRID_AXES.items())))
        monkeypatch.setattr(experiment, "GRID_AXES", reordered)
        config = small_config(alphas=[0.25], separations=[4.0], dispersions=[2.0])
        assert config.cells() == [Cell(3, 2, 30, 0.25, 4.0, 2.0, "hyperbolic")]

    @pytest.mark.parametrize("name", ["mc_samples", "output_path"])
    def test_removed_fields_are_unknown(self, name):
        payload = json.loads(small_config().to_json())
        payload[name] = 1
        with pytest.raises(ConfigError, match=rf"unknown config fields: \['{name}'\]"):
            ExperimentConfig.from_json(json.dumps(payload))

    def test_json_round_trip(self):
        config = small_config(metadata={"note": "x"})
        clone = ExperimentConfig.from_json(config.to_json())
        assert asdict(clone) == asdict(config)

    def test_json_field_validation(self):
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_json('{"dims": [3], "bogus": 1}')
        with pytest.raises(ConfigError, match="missing"):
            ExperimentConfig.from_json('{"dims": [3]}')

    def test_empty_grid_allowed(self):
        assert small_config(dims=[]).cells() == []


class TestSeeds:
    def test_deterministic(self):
        cell = Cell(3, 2, 30, 0.5, 3.0, 1.0, "hyperbolic")
        assert derive_seeds(7, cell, 0) == derive_seeds(7, cell, 0)
        assert derive_seeds(7, cell, 0) != derive_seeds(7, cell, 1)
        assert derive_seeds(7, cell, 0) != derive_seeds(8, cell, 0)

    def test_mixture_seed_shared_across_sample_sizes(self):
        small = Cell(3, 2, 30, 0.5, 3.0, 1.0, "hyperbolic")
        large = small._replace(n_per_cluster=90)
        spec_a, data_a = derive_seeds(7, small, 2)
        spec_b, data_b = derive_seeds(7, large, 2)
        assert spec_a == spec_b
        assert data_a != data_b

    @settings(max_examples=200, deadline=None)
    @given(master=st.integers(0, 2**64 - 1), geometry=st.lists(st.integers(0, 2**64 - 1),
                                                               min_size=4, max_size=4),
           replicate=st.integers(0, 2**64 - 1),
           stream=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=2))
    @example(master=0, geometry=[2**32 - 1, 2**32, 0, 2**64 - 1], replicate=0, stream=[2, 0])
    def test_seed_is_the_seed_sequence_of_the_whole_tuple(self, master, geometry, replicate,
                                                          stream):
        # the words of (master seed, *geometry) are computed once per unit
        want = np.random.SeedSequence((master, *geometry, replicate, *stream))
        got = experiment._seed(experiment._words(master, *geometry), replicate, *stream)
        assert got == int(want.generate_state(1, np.uint64)[0])


class TestRunCell:
    def test_deterministic_record(self):
        cell = Cell(3, 2, 30, 0.5, 3.0, 1.0, "hyperbolic")
        a = run_cell(cell, replicate=1, master_seed=7)
        b = run_cell(cell, replicate=1, master_seed=7)
        assert record_key(a) == record_key(b)
        assert a.status == "ok"
        assert np.isfinite([a.lambda_x, a.lambda_z, a.sss_x, a.sss_z]).all()

    def test_near_point_mass_clusters_align_everything(self):
        # one informative direction: the transformed-data subspaces line up
        # almost exactly; the raw-data value is capped below 1 because the
        # random within-cluster anisotropy tilts the discriminant away from
        # the intermean line no matter how small the dispersion
        cell = Cell(2, 2, 20, 0.5, 10.0, 1e-3, "hyperbolic")
        record = run_cell(cell, replicate=0, master_seed=1)
        assert record.status == "ok"
        assert record.sss_x > 0.9
        assert record.sss_z > 0.999
        assert record.lambda_x > 1.0 - 1e-4

    def test_failure_recorded_not_raised(self):
        cell = Cell(5, 2, 10, 0.5, 3.0, 1.0, "hyperbolic")  # n = 20 < 10 * d
        record = run_cell(cell, replicate=0, master_seed=1)
        assert record.status == "failed"
        assert "too small" in record.reason

    def test_overflowing_total_scatter_named_without_numpy_warnings(self):
        # the data is finite, but X0^T X0 exceeds half the largest double, so
        # symmetrizing it would overflow
        cell = Cell(3, 2, 30, 0.5, 2.0, 1e153, "hyperbolic")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = run_cell(cell, replicate=0, master_seed=0)
        assert record.status == "failed"
        assert record.reason.startswith("NumericalError: total scatter overflows: max |entry| = ")

    def test_bound_violations_only_with_large_norm_spread(self):
        for rep in range(5):
            record = run_cell(Cell(4, 2, 50, 0.5, 4.0, 1.0, "hyperbolic"), rep, 3)
            assert record.status == "ok"
            if not record.bound_satisfied:
                assert record.empirical_sd_norm > record.d / (record.k * record.n_per_cluster)


class Dealt(Exception):
    """Raised in place of the deal, with the units and process count it got."""


def units_of_sweep(config, threads):
    """The units that run_sweep(config, threads=threads) deals and to how
    many processes, on a host with 5 CPUs; nothing is run."""

    def stop(units, processes):
        raise Dealt(units, processes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(5)), raising=False)
        patch.setattr(experiment, "_deal", stop)
        with pytest.raises(Dealt) as info:
            run_sweep(config, threads=threads)
    return info.value.args


class TestDeal:
    @settings(max_examples=150, deadline=None)
    @given(dims=st.lists(st.integers(3, 6), max_size=3, unique=True),
           clusters=st.lists(st.integers(2, 3), min_size=1, max_size=2, unique=True),
           n_per_cluster=st.lists(st.integers(1, 60), min_size=1, max_size=3),
           alphas=st.lists(st.sampled_from([0.5, 2.0]), min_size=1, max_size=2),
           replicates=st.integers(1, 6), threads=st.integers(1, 5))
    def test_each_unit_in_one_share_the_same_on_repeat_and_loads_within_one_unit(
            self, dims, clusters, n_per_cluster, alphas, replicates, threads):
        config = small_config(dims=dims, clusters=clusters, n_per_cluster=n_per_cluster,
                              alphas=alphas, replicates=replicates)
        units, processes = units_of_sweep(config, threads)
        assert processes == max(1, min(threads, len(dims) * len(clusters) * replicates))
        shares = experiment._deal(units, processes)
        assert len(shares) == processes
        assert sorted(i for share in shares for i in share) == list(range(len(units)))
        assert all(unit is units[i] for share in shares for i, unit in share.items())
        assert experiment._deal(units, processes) == shares
        rows = [[experiment._rows(unit) for unit in share.values()] for share in shares]
        # each process runs its share largest first; one runs them in grid order
        assert all(share == sorted(share, reverse=True) for share in rows) or processes == 1
        if units:  # every process runs at least one unit
            loads = [sum(share) for share in rows]
            assert min(loads) > 0
            assert max(loads) - min(loads) <= max(map(experiment._rows, units))


class TestRunSweep:
    def test_empty_grid_writes_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        records = run_sweep(small_config(dims=[]), out_path=out)
        assert records == []
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema=1"
        assert lines[1] == (
            "d,k,n_per_cluster,alpha,separation,dispersion,scheme,replicate,seed,"
            "status,reason,lambda_x,lambda_z,delta,bound_rhs,bound_satisfied,"
            "sss_x,sss_z,empirical_sd_norm"
        )
        assert len(lines) == 2

    def test_row_count_and_canonical_order(self, tmp_path):
        out = tmp_path / "sweep.csv"
        config = small_config(dims=[3, 4], replicates=3)
        records = run_sweep(config, out_path=out)
        assert len(records) == 6
        assert [(r.d, r.replicate) for r in records] == [
            (3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2),
        ]
        parsed = read_records_csv(out)
        assert [record_key(r) for r in parsed] == [record_key(r) for r in records]

    def test_elapsed_seconds_share_the_wall_time(self, monkeypatch):
        # stacks of one replicate, so that the row pass loops over stacks
        monkeypatch.setattr(experiment, "STACK_VALUES", 1)
        start = time.perf_counter()
        records = run_sweep(small_config(dims=[3, 4], replicates=3))
        wall = time.perf_counter() - start
        assert all(r.elapsed_seconds > 0 for r in records)
        assert sum(r.elapsed_seconds for r in records) <= wall

    def test_repeat_runs_byte_identical(self, tmp_path):
        config = small_config()
        paths = [tmp_path / f"run{i}.csv" for i in range(2)]
        for path in paths:
            run_sweep(config, out_path=path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_threads_do_not_change_output(self, tmp_path):
        config = small_config(dims=[3, 4], replicates=4)
        serial = tmp_path / "serial.csv"
        threaded = tmp_path / "threaded.csv"
        run_sweep(config, out_path=serial, threads=1)
        run_sweep(config, out_path=threaded, threads=4)
        assert serial.read_bytes() == threaded.read_bytes()

    def test_one_thread_computes_every_record_in_calling_thread(self, monkeypatch):
        idents, blocks = [], []

        def recording_run_geometry(cells, replicates, master_seed):
            idents.extend([threading.get_ident()] * (len(cells) * len(replicates)))
            blocks.append(replicates)
            return run_geometry(cells, replicates, master_seed)

        monkeypatch.setattr(experiment, "_run_geometry", recording_run_geometry)
        records = run_sweep(small_config(dims=[3, 4], replicates=4), threads=1)
        assert len(records) == len(idents) == 8
        assert set(idents) == {threading.get_ident()}
        # serially, a unit is all of a geometry's replicates
        assert blocks == [[0, 1, 2, 3]] * 2

    @pytest.mark.parametrize("threads, blocks", [
        (1, [[0, 1, 2, 3, 4, 5, 6]]),
        # 2 geometries: at least 2 units per process means 2 blocks of each
        # geometry on 2 processes and 3 on 3
        (2, [[0, 1, 2, 3], [4, 5, 6]]),
        (3, [[0, 1, 2], [3, 4], [5, 6]]),
    ])
    def test_uneven_blocks_match_serial(self, monkeypatch, tmp_path, threads, blocks):
        config = small_config(dims=[3, 4], n_per_cluster=[30, 45], replicates=7)
        fresh = [run_cell(cell, rep, config.seed)
                 for cell in config.cells() for rep in range(config.replicates)]
        log = tmp_path / "blocks"
        monkeypatch.setattr(experiment, "_run_geometry",
                            functools.partial(block_logging_run_geometry, log))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert_same_records(run_sweep(config, threads=threads), fresh)
        units = sorted(map(json.loads, log.read_text().splitlines()))
        assert units == sorted([d, block] for d in (3, 4) for block in blocks)

    def test_every_unit_runs_once_on_more_processes_than_cpus(self, monkeypatch, tmp_path):
        # 5 processes, more than a small host has CPUs, each run the share
        # that the caller dealt it, and nothing else
        config = small_config(dims=[3, 4], clusters=[2, 3], replicates=10)
        serial = run_sweep(config)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(5)), raising=False)
        # 4 geometries, so ceil(2 * 5 / 4) = 3 blocks, of 4, 3 and 3 replicates
        b0, b1, b2 = [0, 1, 2, 3], [4, 5, 6], [7, 8, 9]
        # dealt largest first by rows drawn, block size x k x d x 30, ties in
        # grid order: 1440, 1080 (x3), 960, 810 (x2), 720 (x3), 540 (x2); each
        # to the process with the fewest rows, a helper before the caller
        shares = [[[4, 3, b0], [4, 2, b2]],  # 2160 rows
                  [[3, 3, b0], [3, 3, b2]],  # 1890
                  [[4, 3, b1], [3, 2, b0], [3, 2, b2]],  # 2340
                  [[4, 3, b2], [4, 2, b1]],  # 1800
                  [[4, 2, b0], [3, 3, b1], [3, 2, b1]]]  # 2310, the caller's
        log = tmp_path / "units"
        monkeypatch.setattr(experiment, "_run_geometry",
                            functools.partial(share_logging_run_geometry, log))
        pids = []
        for _ in range(3):  # the same 4 helpers serve each sweep
            assert_same_records(run_sweep(config, threads=5), serial)
            pids.append(helper_pids())
            assert logged_shares(log) == dict(zip([*pids[-1], os.getpid()], shares))
        assert pids == [pids[0]] * 3
        assert_helpers_idle(4)

    @pytest.mark.parametrize("processes, shares", [
        # one unit per geometry: 35, 30, 25, 20 and 15 x 6300 rows
        (2, [[[7, 7, [0, 1, 2, 3, 4]], [7, 4, [0, 1, 2, 3, 4]], [7, 3, [0, 1, 2, 3, 4]]],
             [[7, 6, [0, 1, 2, 3, 4]], [7, 5, [0, 1, 2, 3, 4]]]]),
        # blocks of 3 and 2: 21, 18, 15, 14, 12 (k=4 before k=6), 12, 10, 9,
        # 8 and 6 x 6300 rows, dealt into loads of 41, 45 and 39
        (3, [[[7, 7, [0, 1, 2]], [7, 6, [3, 4]], [7, 4, [3, 4]]],
             [[7, 6, [0, 1, 2]], [7, 4, [0, 1, 2]], [7, 3, [0, 1, 2]], [7, 3, [3, 4]]],
             [[7, 5, [0, 1, 2]], [7, 7, [3, 4]], [7, 5, [3, 4]]]]),
    ])
    def test_the_benchmark_grid_deals_fixed_shares(self, monkeypatch, tmp_path, processes,
                                                   shares):
        # fig3_d7 at 5 replicates, as the benchmark's sweep-d7-threads2 runs
        # it; the last share is the caller's
        config = replace(recipe("fig3_d7"), replicates=5)
        serial = run_sweep(config)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(processes)),
                            raising=False)
        log = tmp_path / "units"
        monkeypatch.setattr(experiment, "_run_geometry",
                            functools.partial(share_logging_run_geometry, log))
        assert_same_records(run_sweep(config, threads=processes), serial)
        assert logged_shares(log) == dict(zip([*helper_pids(), os.getpid()], shares))
        assert_helpers_idle(processes - 1)

    @pytest.mark.skipif(available_cpus() < 2, reason="needs 2 CPUs for 2 processes")
    def test_two_threads_compute_records_in_worker_processes(self, monkeypatch, tmp_path):
        # the calling process runs units, and one forked helper runs the rest
        log = tmp_path / "pids"
        monkeypatch.setattr(experiment, "_run_geometry",
                            functools.partial(caller_first_run_geometry, log, os.getpid()))
        records = run_sweep(small_config(dims=[3, 4], replicates=4), threads=2)
        pids = [int(line) for line in log.read_text().split()]
        assert len(records) == len(pids) == 8
        assert os.getpid() in pids
        assert len(set(pids)) <= 2
        assert_helpers_idle(1)

    @pytest.mark.parametrize("cpus, helpers", [
        ({0}, 0), ({0, 1}, 1), ({0, 1, 2}, 2), ({1022, 1023}, 1),
    ], ids=["one-cpu", "two-cpus", "three-cpus", "absent-cpus"])
    def test_workers_capped_at_available_cpus(self, monkeypatch, tmp_path, cpus, helpers):
        # 8 tasks, so that even a broken cap starts at most 7 helpers; the
        # calling process is one of the processes that run units. A helper
        # moved to a CPU the host lacks stays where it is and runs its units
        # (the OS refuses the move).
        log = tmp_path / "helpers"
        monkeypatch.setattr(experiment, "_run_helper", functools.partial(pid_logging_help, log))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        config = small_config(dims=[3, 4], replicates=4)
        records = run_sweep(config, threads=64)
        started = log.read_text().split() if log.exists() else []
        assert len(started) == len(set(started)) == helpers
        assert str(os.getpid()) not in started
        assert_helpers_idle(helpers)
        assert_same_records(records, run_sweep(config))

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("overrides", [
        dict(replicates=8),
        # n = 60 rows fail the size floor for d=7, so reasons cross processes
        dict(dims=[3, 7], replicates=3),
        dict(replicates=2),
    ], ids=["chunks-split-one-cell", "failed-rows", "fewer-tasks-than-threads"])
    def test_worker_processes_match_serial(self, tmp_path, overrides, threads):
        config = small_config(**overrides)
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        want = run_sweep(config, out_path=serial, threads=1)
        got = run_sweep(config, out_path=pooled, threads=threads)
        assert_helpers_idle(min(threads, available_cpus(), len(config.dims) * config.replicates)
                            - 1)
        assert pooled.read_bytes() == serial.read_bytes()
        assert_same_records(got, want)
        assert any(r.status == "failed" for r in want) == (7 in config.dims)

    @pytest.mark.skipif(not sys.platform.startswith("linux") or available_cpus() < 2,
                        reason="needs Linux's affinity calls and 2 CPUs for 2 processes")
    def test_helper_leaves_the_callers_cpu_at_every_sweep_with_the_callers_mask(
            self, monkeypatch, tmp_path):
        # the kernel would leave a forked helper on the caller's CPU, and may
        # wake a kept helper there for a later sweep; at every sweep the
        # helper moves to another, then takes the mask that the caller has
        # at that sweep, not the one it had when the helper was forked
        configs = [small_config(dims=[3, 4], replicates=4, seed=seed) for seed in (7, 8, 9)]
        serial = [run_sweep(config) for config in configs]
        at_sweep, moves = [], tmp_path / "moves"
        monkeypatch.setattr(experiment, "_cpu", lambda: at_sweep.append(read_cpu()) or at_sweep[-1])
        monkeypatch.setattr(os, "sched_setaffinity",
                            functools.partial(move_logging_set_affinity, moves))
        monkeypatch.setattr(experiment, "_run_geometry", functools.partial(
            placement_logging_run_geometry, tmp_path, os.getpid()))
        full = sorted(os.sched_getaffinity(0))
        # the caller's mask at each sweep; the second adds CPU 1023, which
        # the host lacks and the kernel leaves out of the helper's mask
        sent = [full, sorted({*full, 1023}), full]
        for sweep, config in enumerate(configs):
            if sweep:  # after the fork, so that the helper reads its real mask
                monkeypatch.setattr(os, "sched_getaffinity",
                                    lambda pid, mask=set(sent[sweep]): mask)
            assert_same_records(run_sweep(config, threads=2), serial[sweep])
            assert len(at_sweep) == sweep + 1 and at_sweep[sweep] is not None
            [pid] = helper_pids()
            # this sweep's moves: to the first CPU not the caller's, then to
            # the caller's mask
            target = min(set(full) - {at_sweep[sweep]})
            logged = [json.loads(line) for line in moves.read_text().splitlines()]
            assert logged[2 * sweep:] == [[pid, [target]], [pid, sent[sweep]]]
            units = [json.loads(line)
                     for line in (tmp_path / f"units{config.seed}").read_text().splitlines()]
            helper = [cpu for unit_pid, cpu, _ in units if unit_pid != os.getpid()]
            assert helper and helper[0] != at_sweep[sweep]
            assert all(mask == (sent[sweep] if unit_pid == os.getpid() else full)
                       for unit_pid, _, mask in units)
            assert {unit_pid for unit_pid, _, _ in units} <= {os.getpid(), pid}
        assert_helpers_idle(1)

    @pytest.mark.parametrize("fail, error, message", [
        (raise_runtime_error, RuntimeError, "a helper's unit failed"),
        (functools.partial(os._exit, 3), StructdrError,
         "a sweep helper process exited with code 3 before sending its records"),
    ], ids=["helper-raises", "helper-dies"])
    def test_helper_failure_is_raised_in_the_caller(self, monkeypatch, tmp_path, fail, error,
                                                    message):
        # on 2 processes even where fewer CPUs are available
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(experiment, "_run_geometry", functools.partial(
            helper_failing_run_geometry, tmp_path / "failed", os.getpid(), fail))
        start = time.monotonic()
        with pytest.raises(error) as info:
            run_sweep(small_config(dims=[3, 4], replicates=4), out_path=tmp_path / "out.csv",
                      threads=2)
        assert time.monotonic() - start < 5
        assert (type(info.value), str(info.value)) == (error, message)
        assert multiprocessing.active_children() == []

    def test_caller_failure_stops_the_helpers(self, monkeypatch, tmp_path):
        # the helper's unit would sleep for a minute: it is stopped, not
        # waited for
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(experiment, "_run_geometry", functools.partial(
            caller_failing_run_geometry, tmp_path / "started", os.getpid()))
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="^the caller's unit failed$"):
            run_sweep(small_config(dims=[3, 4], replicates=4), threads=2)
        assert time.monotonic() - start < 10
        assert (tmp_path / "started").exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(available_cpus() < 2, reason="needs 2 CPUs for 2 processes")
    def test_consecutive_sweeps_fork_one_helper_and_keep_it(self, monkeypatch, tmp_path):
        log = tmp_path / "forks"
        monkeypatch.setattr(experiment, "_serve", functools.partial(fork_logging_serve, log))
        config = small_config(dims=[3, 4], replicates=4)
        serial = tmp_path / "serial.csv"
        run_sweep(config, out_path=serial)
        pids = []
        for sweep in range(3):
            out = tmp_path / f"pooled{sweep}.csv"
            run_sweep(config, out_path=out, threads=2)
            assert out.read_bytes() == serial.read_bytes()
            pids.append(helper_pids())
        assert pids == [pids[0]] * 3 and len(pids[0]) == 1
        assert log.read_text().split() == [str(pids[0][0])]
        assert_helpers_idle(1)

    @pytest.mark.skipif(available_cpus() < 2, reason="needs 2 CPUs for 2 processes")
    def test_a_helper_that_died_idle_is_replaced(self):
        config = small_config(dims=[3, 4], replicates=4)
        serial = run_sweep(config)
        run_sweep(config, threads=2)
        [(_, helper)] = experiment._helpers
        helper.kill()
        helper.join(10)
        assert helper.exitcode == -9
        assert_same_records(run_sweep(config, threads=2), serial)
        assert helper_pids() != [helper.pid]
        assert_helpers_idle(1)

    @pytest.mark.skipif(available_cpus() < 2, reason="needs 2 CPUs for 2 processes")
    def test_sweeps_from_two_threads_take_turns_on_the_helpers(self):
        # the helper is forked before the threads start; each thread's
        # sweeps must get their own records, never the other thread's
        configs = [small_config(dims=[3, 4], replicates=4, seed=seed) for seed in (7, 8)]
        serial = [run_sweep(config) for config in configs]
        run_sweep(configs[0], threads=2)
        got = [[], []]

        def sweep(i):
            for _ in range(10):
                got[i].append(run_sweep(configs[i], threads=2))

        workers = [threading.Thread(target=sweep, args=(i,)) for i in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
            assert not worker.is_alive()
        for records, want in zip(got, serial):
            assert len(records) == 10
            for one in records:
                assert_same_records(one, want)
        assert_helpers_idle(1)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    @pytest.mark.parametrize("end", ["exit", "sigterm"])
    def test_no_helper_outlives_its_process(self, end):
        # two helpers (3 processes, on CPUs the OS may lack), so that each
        # holds a copy of the pipes forked before it; a helper still sees
        # EOF once the caller dies without running its exit handlers
        proc = run_script("""
            import os, signal, sys, time
            from dataclasses import replace
            from structdr import experiment, recipe, run_sweep

            os.sched_getaffinity = lambda pid: {0, 1, 2}
            for _ in range(2):
                run_sweep(replace(recipe("prop1"), replicates=4), threads=3)
            print(*[helper.pid for _, helper in experiment._helpers], flush=True)
            if sys.argv[1] == "sigterm":
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(60)
        """, end)
        assert (proc.returncode, proc.stderr) == (0 if end == "exit" else -15, "")
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(pids) == 2
        wait_for(lambda: not any(map(running, pids)))
        assert not any(map(running, pids))

    def test_a_helper_stopped_mid_unit_cannot_hang_the_next_sweep(self, tmp_path):
        # the helper's unit sleeps for a minute; the caller's unit then
        # fails, so run_sweep stops the helper in the middle of its unit. The
        # next sweep must fork a new helper and get every record from it.
        proc = run_script("""
            import os, sys, time
            from dataclasses import replace
            from structdr import experiment, recipe, run_sweep

            os.sched_getaffinity = lambda pid: {0, 1}
            config = replace(recipe("prop1"), replicates=4)
            serial = [r.lambda_z for r in run_sweep(config)]
            run_geometry, caller, started = experiment._run_geometry, os.getpid(), sys.argv[1]

            def stall_in_the_helper(cells, replicates, master_seed):
                if os.getpid() != caller:
                    open(started, "w").close()
                    time.sleep(60)
                while not os.path.exists(started):
                    time.sleep(0.001)
                raise RuntimeError("the caller's unit failed")

            experiment._run_geometry = stall_in_the_helper
            try:
                run_sweep(config, threads=2)
            except RuntimeError as exc:
                print(exc, flush=True)
            experiment._run_geometry = run_geometry
            stopped = experiment._helpers == []
            records = run_sweep(config, threads=2)
            print(stopped, len(experiment._helpers), [r.lambda_z for r in records] == serial)
        """, str(tmp_path / "started"), timeout=60)
        assert (proc.returncode, proc.stderr, proc.stdout.splitlines()) == (
            0, "", ["the caller's unit failed", "True 1 True"])

    def test_a_sweep_on_two_processes_needs_no_semaphore(self):
        # where the OS has no POSIX semaphores (multiprocessing's SemLock
        # fails with ENOSYS), processes that share only their pipes still
        # run a sweep
        proc = run_script("""
            import errno, os
            import multiprocessing.synchronize
            from dataclasses import replace
            from structdr import experiment, recipe, run_sweep

            def no_semaphores(self, *args, **kwargs):
                raise OSError(errno.ENOSYS, "Function not implemented")

            multiprocessing.synchronize.SemLock.__init__ = no_semaphores
            os.sched_getaffinity = lambda pid: {0, 1}
            config = replace(recipe("prop1"), replicates=4)
            serial = [r.to_csv_row() for r in run_sweep(config)]
            records = run_sweep(config, threads=2)
            print(len(records), len(experiment._helpers), [r.to_csv_row() for r in records] == serial)
        """)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "4 1 True\n")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_an_idle_helper_ignores_sigint(self):
        # a terminal's Ctrl-C reaches every process of its group, the idle
        # helpers included: they stay alive, print nothing, and serve the
        # next sweep
        proc = run_script("""
            import os, signal, time
            from dataclasses import replace
            from structdr import experiment, recipe, run_sweep

            os.sched_getaffinity = lambda pid: {0, 1}
            config = replace(recipe("prop1"), replicates=4)
            serial = [r.lambda_z for r in run_sweep(config)]
            run_sweep(config, threads=2)
            [(_, helper)] = experiment._helpers
            os.kill(helper.pid, signal.SIGINT)
            time.sleep(0.5)
            records = run_sweep(config, threads=2)
            print(helper.is_alive(), [h.pid for _, h in experiment._helpers] == [helper.pid],
                  [r.lambda_z for r in records] == serial)
        """)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "True True True\n")

    @pytest.mark.skipif(not hasattr(os, "fork") or available_cpus() < 2,
                        reason="needs os.fork and 2 CPUs for 2 processes")
    def test_a_forked_child_forks_its_own_helpers(self):
        # the child exits through the interpreter's exit handlers, which
        # stop the child's helper and leave the parent's alone
        proc = run_script("""
            import json, os, sys
            from dataclasses import replace
            from structdr import experiment, recipe, run_sweep

            def sweep():
                records = run_sweep(replace(recipe("prop1"), replicates=4), threads=2)
                return [helper.pid for _, helper in experiment._helpers], [r.lambda_z for r in records]

            before = sweep()
            pid = os.fork()
            if pid == 0:
                print(json.dumps(sweep()), flush=True)
                sys.exit()
            _, status = os.waitpid(pid, 0)
            print(json.dumps([status, before, sweep()]))
        """)
        assert (proc.returncode, proc.stderr) == (0, "")
        child, (status, before, after) = map(json.loads, proc.stdout.splitlines())
        assert status == 0
        assert len(before[0]) == len(child[0]) == 1 and child[0] != before[0]
        assert after == before and child[1] == before[1]
        assert not running(child[0][0])

    def test_threads_below_one_rejected(self):
        with pytest.raises(ConfigError, match="threads must be >= 1, got 0"):
            run_sweep(small_config(), threads=0)

    @pytest.mark.parametrize("threads", [2.0, True, "2", None])
    def test_non_integer_threads_rejected_before_the_file_opens(self, tmp_path, threads):
        out = tmp_path / "out.csv"
        out.write_text("kept")
        with pytest.raises(ConfigError) as info:
            run_sweep(small_config(), out_path=out, threads=threads)
        assert str(info.value) == f"threads must be an integer, got {threads!r}"
        assert out.read_text() == "kept"

    def test_unwritable_path_fails_before_compute(self, tmp_path):
        config = small_config()
        with pytest.raises(OSError):
            run_sweep(config, out_path=tmp_path / "missing" / "out.csv")

    def test_failed_cells_do_not_abort(self, tmp_path):
        # n = 60 clears the size floor for d=3 but not for d=7
        config = small_config(dims=[3, 7], n_per_cluster=[30], replicates=1)
        records = run_sweep(config, out_path=tmp_path / "mixed.csv")
        statuses = {(r.d, r.status) for r in records}
        assert (3, "ok") in statuses
        assert (7, "failed") in statuses
        parsed = read_records_csv(tmp_path / "mixed.csv")
        assert [r.status for r in parsed] == [r.status for r in records]

    @pytest.mark.parametrize("dispersion, reason", [
        (1e200, "ConfigError: dispersion = 1e+200 is too large: the covariances overflow"),
        (1e-200, "ConfigError: dispersion = 1e-200 is too small: the covariances underflow"),
    ], ids=["covariances-overflow", "covariances-underflow"])
    def test_failed_mixture_builds_give_failed_rows(self, tmp_path, dispersion, reason):
        config = small_config(n_per_cluster=[30, 45], dispersions=[dispersion, 1.0],
                              replicates=2)
        outs = []
        for threads in (1, 2, 3):
            outs.append(tmp_path / f"threads{threads}.csv")
            records = run_sweep(config, out_path=outs[-1], threads=threads)
            assert len(records) == 8
            assert {(r.dispersion, r.status, r.reason) for r in records} == {
                (dispersion, "failed", reason), (1.0, "ok", "")}
        assert outs[1].read_bytes() == outs[0].read_bytes() == outs[2].read_bytes()

    @pytest.mark.parametrize("overrides", [
        dict(alphas=[0.5, 0.5]),
        dict(n_per_cluster=[30, 30], dims=[3, 3]),
        # equal as numbers, but the mixture seed reads the sign bit
        dict(separations=[0.0, -0.0]),
    ], ids=["alphas", "n-and-dims", "signed-zero-separations"])
    def test_duplicate_axis_values_keep_every_row(self, tmp_path, overrides):
        config = small_config(replicates=2, **overrides)
        fresh = [run_cell(cell, rep, config.seed)
                 for cell in config.cells() for rep in range(config.replicates)]
        outs = [tmp_path / "threads1.csv", tmp_path / "threads2.csv"]
        for threads, out in zip((1, 2), outs):
            assert_same_records(run_sweep(config, out_path=out, threads=threads), fresh)
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_units_with_failing_cells_match_fresh_run_cell(self):
        # exponential weights: at alpha 1e-5 a weight underflows in a cell's
        # row pass; at 1e-3 some Z0 scatters are singular, so the stacked
        # pass fails and its cells are rerun one at a time
        config = ExperimentConfig(dims=[7, 20], clusters=[3, 5], n_per_cluster=[100, 300],
                                  alphas=[1e-5, 1e-3, 0.5], separations=[10.0],
                                  dispersions=[1.0], replicates=2, scheme="exponential")
        fresh = [run_cell(cell, rep, config.seed)
                 for cell in config.cells() for rep in range(config.replicates)]
        failed = [r for r in fresh if r.status == "failed"]
        assert len(fresh) == 48 and len(failed) == 18
        assert {r.reason.split(":")[0] for r in failed} == {"ConfigError", "RankError"}
        units = {}
        for r in fresh:
            units.setdefault((r.d, r.k, r.replicate), set()).add(r.status)
        assert all(units[r.d, r.k, r.replicate] == {"ok", "failed"} for r in failed)
        for threads in (1, 2):
            assert_same_records(run_sweep(config, threads=threads), fresh)


class TestSpecReuse:
    def test_sweep_records_equal_fresh_run_cell(self):
        config = reuse_config()
        fresh = [run_cell(cell, rep, config.seed)
                 for cell in config.cells() for rep in range(config.replicates)]
        assert_same_records(run_sweep(config), fresh)

    def test_one_build_per_mixture(self, builds, monkeypatch):
        units = []

        def kept_logging_run_geometry(cells, replicates, master_seed):
            before = len(builds)
            records = run_geometry(cells, replicates, master_seed)
            units.append((cells[0], replicates, builds[before:]))
            return records

        monkeypatch.setattr(experiment, "_run_geometry", kept_logging_run_geometry)
        config = reuse_config()
        run_sweep(config, threads=1)
        specs = [call[:4] + (seed,) for call in builds for seed in call[4]]
        # (d, k) pairs x separations x dispersions x replicates; n and alpha
        # share the spec
        assert len(specs) == len(set(specs)) == 4 * 2 * 1 * config.replicates
        assert {s[:4] for s in specs} == {
            (c.d, c.k, c.separation, c.dispersion) for c in config.cells()}
        # each unit makes one stacked build: its geometry's mixture for each
        # of its replicates, from the spec seed of derive_seeds
        assert len(units) == 4 * 2
        for cell, replicates, made in units:
            seeds = tuple(derive_seeds(config.seed, cell, rep)[0] for rep in replicates)
            assert made == [(cell.d, cell.k, cell.separation, cell.dispersion, seeds)]

    def test_failed_build_fails_only_its_replicate(self, monkeypatch):
        # one mixture of a block fails to build: the stacked build falls
        # back to one build per replicate, and only that replicate's rows
        # fail, with its own reason
        config = reuse_config(dims=[3], clusters=[2], separations=[2.0], replicates=4)
        cell = config.cells()[0]
        bad_seed = derive_seeds(config.seed, cell, 2)[0]

        def build(d, k, separation, dispersion, seeds):
            if bad_seed in seeds:
                raise DefinitenessError(f"seed {bad_seed} fails")
            return make_separation_families(d, k, separation, dispersion, seeds)

        monkeypatch.setattr(experiment, "make_separation_families", build)
        records = run_sweep(config)
        assert len(records) == 16
        for record in records:
            if record.replicate == 2:
                assert (record.status, record.reason) == (
                    "failed", f"DefinitenessError: seed {bad_seed} fails")
            else:
                assert_same_records([record], [run_cell(Cell(*astuple(record)[:7]),
                                                        record.replicate, config.seed)])

    def test_mixture_the_rule_rejects_fails_only_its_replicate(self, monkeypatch):
        # the stacked build checks the unit's mixtures with the one rule, so
        # a mixture whose covariances the rule rejects fails the stacked
        # build, and the per-replicate rerun isolates it with the rule's reason
        config = reuse_config(dims=[3], clusters=[2], separations=[2.0], replicates=4)
        cell = config.cells()[0]
        bad = make_separation_families(3, 2, 2.0, 1.0, [derive_seeds(config.seed, cell, 2)[0]])
        reason = "covariance 1 is not positive definite (Cholesky failed)"
        rule = mixture._factors

        def rejecting_rule(means, covariances):
            if any(np.array_equal(covs, bad.covariances[0])
                   for covs in covariances.reshape((-1,) + bad.covariances.shape[1:])):
                raise DefinitenessError(reason)
            return rule(means, covariances)

        monkeypatch.setattr(mixture, "_factors", rejecting_rule)
        records = run_sweep(config)
        assert len(records) == 16
        for record in records:
            if record.replicate == 2:
                assert (record.status, record.reason) == ("failed", f"DefinitenessError: {reason}")
            else:
                assert_same_records([record], [run_cell(Cell(*astuple(record)[:7]),
                                                        record.replicate, config.seed)])

    def test_clusters_built_and_spec_seeds_derived_once(self, monkeypatch):
        built, counted, streams = [], [], []
        clusters, count = experiment.stratified_clusters, linalg.cluster_counts
        seed = experiment._seed

        def counting(k, n_per_cluster):
            built.append((k, n_per_cluster))
            return clusters(k, n_per_cluster)

        def counting_labels(labels):
            counted.append(labels.size)
            return count(labels)

        def recording_seed(prefix, replicate, *stream):
            streams.append(stream)
            return seed(prefix, replicate, *stream)

        for module in (linalg, mixture, transform, structure, experiment):
            if getattr(module, "cluster_counts", None) is count:
                monkeypatch.setattr(module, "cluster_counts", counting_labels)
        monkeypatch.setattr(experiment, "stratified_clusters", counting)
        monkeypatch.setattr(experiment, "_seed", recording_seed)
        config = reuse_config()
        records = run_sweep(config)
        assert len(records) == 32 * config.replicates
        # one cluster build per sample size of each unit (8 geometries, 2
        # sizes) and no count of its labels, one spec seed per mixture and
        # one data seed per drawn sample, which the sample's 2 alphas share
        assert counted == []
        assert sorted(built) == sorted((k, n) for _, k in ((3, 2), (3, 3), (4, 2), (4, 3))
                                       for n in (30, 45) for _ in (2.0, 3.0))
        assert streams.count((1,)) == 8 * config.replicates
        assert sum(stream[0] == 2 for stream in streams) == 8 * 2 * config.replicates

    def test_sweep_makes_no_spec(self, monkeypatch):
        # a unit draws from its family's stacked arrays: no replicate's
        # mixture goes through the MixtureSpec constructor
        def no_spec(spec):
            raise AssertionError("a MixtureSpec was made")

        monkeypatch.setattr(mixture.MixtureSpec, "__post_init__", no_spec)
        records = run_sweep(reuse_config())
        assert records and all(r.status == "ok" for r in records)

    def test_every_sweep_builds_its_own(self, builds):
        config = reuse_config()
        run_sweep(config)
        first = list(builds)
        run_sweep(config)
        assert builds == first + first

    def test_bare_run_cell_builds_fresh(self, builds):
        cell = Cell(3, 2, 30, 0.5, 3.0, 1.0, "hyperbolic")
        run_cell(cell, 0, 7)
        run_cell(cell._replace(n_per_cluster=45), 0, 7)
        assert len(builds) == 2 and builds[0] == builds[1]

    def test_no_specs_left_after_return_or_raise(self, builds, monkeypatch, tmp_path):
        config = reuse_config()
        run_sweep(config, out_path=tmp_path / "out.csv")
        first = list(builds)
        with pytest.raises(OSError):
            run_sweep(config, out_path=tmp_path / "missing" / "out.csv")
        assert builds == first

        def failing_run_geometry(cells, replicate, master_seed):
            if cells[0].k == 3:
                raise RuntimeError("interrupted")
            return run_geometry(cells, replicate, master_seed)

        monkeypatch.setattr(experiment, "_run_geometry", failing_run_geometry)
        with pytest.raises(RuntimeError, match="interrupted"):
            run_sweep(config)
        monkeypatch.setattr(experiment, "_run_geometry", run_geometry)
        # the sweeps after a return and after a raise build every spec again
        del builds[:]
        run_sweep(config)
        assert builds == first

    @pytest.mark.skipif(available_cpus() < 2, reason="needs 2 CPUs for 2 processes")
    def test_workers_start_with_no_specs(self, monkeypatch, tmp_path):
        config = reuse_config()
        serial = run_sweep(config)
        builds = logged_builds(monkeypatch, tmp_path / "builds")
        assert_same_records(run_sweep(config, threads=2), serial)
        first = sorted(args for _, args in builds())
        # the calling process and its helper build every spec once, though
        # the calling process built them all just before
        assert first == sorted(set(first))
        assert set(first) == {(c.d, c.k, c.separation, c.dispersion,
                               derive_seeds(config.seed, c, rep)[0])
                              for c in config.cells() for rep in range(config.replicates)}
        assert len(first) == 4 * 2 * config.replicates
        # and a second two-process sweep builds them all again
        assert_same_records(run_sweep(config, threads=2), serial)
        assert sorted(args for _, args in builds()) == sorted(first + first)

    @pytest.mark.skipif(available_cpus() < 2, reason="needs 2 CPUs for 2 processes")
    def test_one_build_per_mixture_across_workers(self, monkeypatch, tmp_path):
        config = replace(recipe("fig3_d7"), replicates=5)
        builds = logged_builds(monkeypatch, tmp_path / "builds")
        run_sweep(config, threads=2)
        args = [args for _, args in builds()]
        # one build per (d, k, separation, dispersion, replicate): 5 k x 5
        assert len(args) == len(set(args)) == 25
        assert {a[:4] for a in args} == {
            (c.d, c.k, c.separation, c.dispersion) for c in config.cells()}


GLIBC = platform.libc_ver()[0] == "glibc"
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


class TestKeepHeap:
    def test_sets_mmap_then_trim_threshold_on_glibc(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(platform, "libc_ver", lambda: ("glibc", "2.36"))
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        experiment._keep_heap()
        # M_MMAP_THRESHOLD = -3 at 32 MiB, M_TRIM_THRESHOLD = -1 at twice that
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    def test_one_thread_sets_it_in_the_calling_process(self, monkeypatch, tmp_path):
        log = tmp_path / "pids"
        monkeypatch.setattr(experiment, "_keep_heap", functools.partial(pid_logging_keep_heap, log))
        run_sweep(small_config(dims=[3, 4], replicates=4), threads=1)
        assert log.read_text().split() == [str(os.getpid())]

    @pytest.mark.skipif(available_cpus() < 2, reason="needs 2 CPUs for 2 processes")
    def test_two_threads_set_it_once_in_the_caller_before_forking(self, monkeypatch, tmp_path):
        calls, helpers, units = [], tmp_path / "helpers", tmp_path / "units"

        def inheriting_help(*args):
            # a forked helper holds a copy of the calls made before its fork
            with open(helpers, "a") as fh:
                fh.write(json.dumps([os.getpid(), calls]) + "\n")
            return run_helper(*args)

        monkeypatch.setattr(experiment, "_keep_heap", lambda: calls.append(os.getpid()))
        monkeypatch.setattr(experiment, "_run_helper", inheriting_help)
        monkeypatch.setattr(experiment, "_run_geometry",
                            functools.partial(pid_logging_run_geometry, units))
        run_sweep(small_config(dims=[3, 4], replicates=4), threads=2)
        assert calls == [os.getpid()]
        started = [json.loads(line) for line in helpers.read_text().splitlines()]
        assert len(started) == 1 and started[0][0] != os.getpid()
        assert started[0][1] == [os.getpid()]
        assert set(map(int, units.read_text().split())) <= {os.getpid(), started[0][0]}

    def test_run_cell_leaves_it_alone(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiment, "_keep_heap", lambda: calls.append(os.getpid()))
        config = small_config()
        run_cell(config.cells()[0], 0, config.seed)
        assert calls == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_without_glibc_nothing_is_loaded(self, monkeypatch, tmp_path, threads):
        # nor can a helper be moved to a CPU of its own: the OS refuses the
        # move, or has no call for it, and the helper skips the move
        def no_library(*args, **kwargs):
            raise OSError("no C library here")

        def no_move(pid, mask):
            raise OSError("no affinity here")

        monkeypatch.setattr(platform, "libc_ver", lambda: ("", ""))
        monkeypatch.setattr(ctypes, "CDLL", no_library)
        monkeypatch.setattr(os, "sched_setaffinity", no_move, raising=False)
        for affinity in ("refused", "missing"):
            if affinity == "missing":
                monkeypatch.delattr(os, "sched_setaffinity")
            out = tmp_path / f"fig3_d7_{affinity}.csv"
            run_sweep(replace(recipe("fig3_d7"), replicates=2, seed=0), out_path=out,
                      threads=threads)
            with open(os.path.join(DATA, "fig3_d7_r2.csv"), "rb") as fh:
                assert out.read_bytes() == fh.read()

    @pytest.mark.skipif(not GLIBC, reason="the heap policy applies on glibc only")
    def test_second_sweep_faults_no_rows_back_in(self):
        # A fresh process, so that no earlier test has set the policy. The
        # second sweep of 2 records (up to 20000 x 20 rows each) took about
        # 5,120 minor page faults without the policy and about 30 with it.
        result = run_script("""
            import resource
            from dataclasses import replace
            from structdr import recipe, run_sweep

            config = replace(recipe("fig3_d20_largen"), clusters=[10], replicates=1)
            run_sweep(config)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            run_sweep(config)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) < 500


class TestRecipes:
    def test_fig3_d7_grid(self):
        config = recipe("fig3_d7")
        assert config.dims == [7]
        assert config.n_per_cluster == [100, 300, 500]
        assert config.clusters == [3, 4, 5, 6, 7]
        assert config.replicates == 50
        assert config.alphas == [0.5]

    def test_fig3_d20_cluster_cap(self):
        config = recipe("fig3_d20")
        assert config.dims == [20]
        assert config.clusters == list(range(3, 11))

    def test_fig1_plane(self):
        config = recipe("fig1")
        assert config.dims == [2]
        assert config.clusters == [2]

    def test_fig2_grids(self):
        config = recipe("fig2")
        assert len(config.separations) == 10
        assert len(config.dispersions) == 10
        assert config.replicates == 20

    def test_metadata_flags_reconstructions(self):
        for name in ("fig2", "fig3_d7"):
            assert any("reconstruct" in v for v in recipe(name).metadata.values())

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(ConfigError, match="fig3_d7") as exc:
            recipe("fig9")
        assert str(exc.value) == (
            "unknown recipe 'fig9'; valid names: "
            "fig1, fig2, fig3_d7, fig3_d20, fig3_d20_largen, prop1")

    def test_recipes_share_no_list_or_dict(self):
        configs = [recipe(name) for name in experiment.RECIPE_NAMES * 2]
        values = [v for c in configs for v in vars(c).values() if isinstance(v, (list, dict))]
        assert len({id(v) for v in values}) == len(values)
        largen = recipe("fig3_d20_largen")
        largen.metadata["grid_note"] = "changed"
        largen.dims.append(30)
        assert "grid_note" not in recipe("fig3_d7").metadata
        assert recipe("fig3_d20_largen").dims == [20]

    def test_prop1_and_largen_grids(self):
        prop1 = recipe("prop1")
        assert (prop1.dims, prop1.clusters, prop1.n_per_cluster) == ([7], [3], [300])
        largen = recipe("fig3_d20_largen")
        assert largen.n_per_cluster == [1500, 2000]
        assert list(largen.metadata) == ["separation_note", "pc_note", "grid_note"]

    def test_recipes_validate(self):
        for name in ("fig1", "fig2", "fig3_d7", "fig3_d20", "fig3_d20_largen", "prop1"):
            config = recipe(name)
            assert config.cells()


OK_RECORD = ExperimentRecord(
    d=3, k=2, n_per_cluster=10, alpha=0.5, separation=1.0, dispersion=1.0,
    scheme="hyperbolic", replicate=0, seed=42, lambda_x=0.9, lambda_z=0.8, delta=0.1,
    bound_rhs=2.0, bound_satisfied=True, sss_x=0.5, sss_z=0.7, empirical_sd_norm=0.01,
)


class TestRecordCsv:
    def test_failed_record_round_trip(self, tmp_path):
        record = ExperimentRecord(
            d=3, k=2, n_per_cluster=10, alpha=0.5, separation=1.0, dispersion=1.0,
            scheme="hyperbolic", replicate=0, seed=42, status="failed", reason="x: y",
        )
        out = tmp_path / "one.csv"
        with open(out, "w", newline="") as fh:
            write_records_csv(fh, [record])
        assert out.read_text().splitlines()[2].endswith(",failed,x: y" + "," * 8)
        parsed = read_records_csv(out)[0]
        assert parsed.status == "failed"
        assert parsed.reason == "x: y"
        assert np.isnan(parsed.lambda_x)

    @pytest.mark.parametrize("edit,where", [
        (lambda row: row[:5], "row 2, column dispersion: missing"),
        (lambda row: ["x"] + row[1:], "row 2, column d: 'x' is not an integer"),
        (lambda row: row[:11] + [""] + row[12:], "row 2, column lambda_x: '' is not a number"),
        (lambda row: row + ["x"], "row 2 has 20 fields, expected 19"),
    ], ids=["short_row", "text_in_int_column", "ok_row_without_outcome", "extra_field"])
    def test_malformed_row_names_file_row_and_column(self, tmp_path, edit, where):
        row = OK_RECORD.to_csv_row()
        path = tmp_path / "bad.csv"
        path.write_text(
            "# schema=1\n" + ",".join(ExperimentRecord.CSV_FIELDS) + "\n"
            + ",".join(row) + "\n\n" + ",".join(edit(row)) + "\n"
        )
        with pytest.raises(ConfigError) as info:
            read_records_csv(path)
        assert str(info.value) == f"{path}: {where}"

    @pytest.mark.parametrize("bad,message", [
        (b"\xff", "'utf-8' codec can't decode byte 0xff in position "),
        (b" " * 140_000, f"field larger than field limit ({csv.field_size_limit()})"),
    ], ids=["not-utf-8", "field-over-the-limit"])
    def test_unreadable_bytes_raise_config_error_naming_the_file(self, tmp_path, bad, message):
        row = ",".join(OK_RECORD.to_csv_row()).encode()
        path = tmp_path / "bad.csv"
        path.write_bytes(b"# schema=1\n" + ",".join(ExperimentRecord.CSV_FIELDS).encode()
                         + b"\n" + row + b"\n" + bad + row + b"\n")
        with pytest.raises(ConfigError) as info:
            read_records_csv(path)
        assert str(info.value).startswith(f"{path}: {message}")

    @pytest.mark.parametrize("text,message", [
        ("# schema=2\n" + ",".join(ExperimentRecord.CSV_FIELDS) + "\n",
         "unexpected schema line '# schema=2'"),
        ("", "unexpected schema line ''"),
        ("# schema=1\nd,k\n", "unexpected header ['d', 'k']"),
        ("# schema=1\n", "unexpected header None"),
    ], ids=["other_schema", "no_schema", "other_header", "no_header"])
    def test_schema_line_and_header_checked(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            read_records_csv(path)
        assert str(info.value) == f"{path}: {message}"
