"""One workload in one fresh interpreter: set up, measure, verify, report.

run.py starts this file with BLAS threads pinned and PYTHONPATH set to the
checkout's ``src``, and passes the monotonic time at which it started the
process, so set-up time covers interpreter start and ``import structdr``.
The result is written as JSON to ``--result``; nothing goes to stdout.

Calls go through module attributes (``experiment.run_sweep``), never names
imported into this file, so that traced runs see the wrapped functions.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

REFERENCE_SEED = 0
ORACLE_RECORDS = 6
ALPHA = 0.5
CLI_TIMEOUT_S = 60

# workload -> (recipe, overrides, threads). Each keeps its recipe's grid
# but cuts the replicates per cell (fig3_d7: 50 -> 5, fig3_d20_largen:
# 50 -> 1), so that one sweep takes a fraction of a second and a run times
# a few dozen of them.
SWEEPS = {
    "sweep-d7": ("fig3_d7", {"replicates": 5}, 1),
    "sweep-d20-largen": ("fig3_d20_largen", {"replicates": 1}, 1),
    "sweep-d7-threads2": ("fig3_d7", {"replicates": 5}, 2),
}
# Self-test grids: same code paths, a fraction of a second each.
TINY_SWEEPS = {
    "fig3_d7": {"dims": [5], "clusters": [3, 4], "n_per_cluster": [40], "replicates": 3},
    "fig3_d20_largen": {"dims": [8], "clusters": [3], "n_per_cluster": [200],
                        "replicates": 2},
}
# cli-roundtrip dataset: (d, k, n_per_cluster).
CLI_SHAPE = (20, 10, 300)
TINY_CLI_SHAPE = (5, 3, 40)


def timed(fn, *args, **kwargs):
    """(result, wall seconds) of one call."""
    t = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t


# ops_per_calib averages the costs of a part after dropping this share of
# them at each end: over five to ten seeds per workload it spread less than
# the median did (IQR over median 0.017-0.084 against 0.031-0.094) and,
# unlike the plain mean, one call hit by a burst of load cannot move it far.
TRIM = 0.1


def trimmed_mean(values):
    ordered = sorted(values)
    cut = int(TRIM * len(ordered))
    return statistics.mean(ordered[cut:len(ordered) - cut])


class Meter:
    """Times measured calls, each between two runs of the calibration loop
    (calibration.py). A call's cost is its wall time over the mean of the
    calibrations before and after it, kept per part of an op (a sweep, or
    one CLI verb)."""

    def __init__(self):
        calibration.calibrate()  # warm-up
        self.walls = []
        self.calibrations = [timed(calibration.calibrate)[1]]
        self.costs = {}

    def call(self, part, fn, *args, **kwargs):
        result, wall = timed(fn, *args, **kwargs)
        after = timed(calibration.calibrate)[1]
        self.costs.setdefault(part, []).append(wall / ((self.calibrations[-1] + after) / 2))
        self.walls.append(wall)
        self.calibrations.append(after)
        return result, wall

    def ops_per_calib(self, ops_per_round):
        """ops_per_round over the summed (trimmed mean) cost of its parts."""
        return ops_per_round / sum(trimmed_mean(c) for c in self.costs.values())


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                           "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Sweep:
    """A recipe sweep run in process by `run_sweep`; one op is one
    replicate."""

    def __init__(self, args):
        self.args = args
        self.recipe, overrides, self.threads = SWEEPS[args.workload]
        if args.tiny:
            overrides = TINY_SWEEPS[self.recipe]
        self.reference = os.path.join(
            args.reference_dir, self.recipe + ("-tiny" if args.tiny else "") + ".csv")
        self.csv_path = os.path.join(args.out_dir, "sweep.csv")
        self.overrides = overrides

    def setup(self):
        from structdr import experiment

        self.config = replace(experiment.recipe(self.recipe), seed=self.args.seed,
                              **self.overrides)
        experiment.run_cell(self.config.cells()[0], 0, self.config.seed)

    def measure(self, seconds, traced):
        from structdr import experiment

        self.meter, self.latencies, self.failed, digests = Meter(), [], 0, set()
        start = time.perf_counter()
        while not self.latencies or time.perf_counter() - start < seconds:
            records, _ = self.meter.call("sweep", experiment.run_sweep, self.config,
                                         out_path=self.csv_path, threads=self.threads)
            self.latencies += [r.elapsed_seconds for r in records]
            self.failed += sum(r.status != "ok" for r in records)
            digests.add(_digest(self.csv_path))
        self.records = records
        self.checks = [("csv-repeatable", len(digests) == 1,
                        f"{len(self.meter.walls)} sweeps wrote {len(digests)} distinct CSV(s)")]
        return len(self.latencies)

    def ops_per_calib(self):
        return self.meter.ops_per_calib(len(self.records))

    def verify(self):
        from structdr import experiment

        args, checks = self.args, self.checks
        checks.append(("all-records-ok", self.failed == 0, f"{self.failed} failed records"))
        for record in random.Random(args.seed).sample(
                self.records, min(ORACLE_RECORDS, len(self.records))):
            checks.append(("oracle", *gate.oracle_record(record, args.seed)))
        if args.write_reference:
            shutil.copyfile(self.csv_path, self.reference)
        if args.seed == REFERENCE_SEED:
            if os.path.exists(self.reference):
                checks.append(("reference-csv",
                               *gate.compare_reference(self.csv_path, self.reference)))
            else:
                checks.append(("reference-csv", False, f"missing {self.reference}"))
        if self.threads > 1:
            serial = os.path.join(args.out_dir, "serial.csv")
            experiment.run_sweep(self.config, out_path=serial, threads=1)
            same = _digest(serial) == _digest(self.csv_path)
            checks.append(("threads-byte-identical", same,
                           f"threads={self.threads} CSV {'equals' if same else 'differs from'}"
                           " the threads=1 CSV"))
        return checks


class CliRoundTrip:
    """One client in a closed loop: each op runs `structdr analyze` and
    then `structdr transform` as subprocesses on the same dataset CSV."""

    def __init__(self, args):
        self.args = args
        self.shape = TINY_CLI_SHAPE if args.tiny else CLI_SHAPE
        self.dataset = os.path.join(args.out_dir, "dataset.csv")
        self.prefix = os.path.join(args.out_dir, "stages")

    def setup(self):
        from structdr import experiment, mixture

        d, k, n = self.shape
        spec = mixture.make_separation_family(d, k, experiment.DEFAULT_SEPARATION, 1.0,
                                              seed=self.args.seed)
        mixture.sample(spec, n, seed=self.args.seed).to_csv(self.dataset)
        subprocess.run([sys.executable, "-m", "structdr", "analyze", "--data", self.dataset],
                       check=True, capture_output=True, timeout=CLI_TIMEOUT_S)

    def _round_trip(self, command, spans=None):
        """Run analyze then transform through the meter and return their
        (process, wall seconds); with `spans` = (path prefix, op id) each
        traced process writes its spans to <prefix>-<verb>.jsonl."""
        outputs = []
        for verb, extra in (("analyze", []), ("transform", ["--out", self.prefix])):
            env = None
            if spans:
                env = dict(os.environ, PERFBENCH_SPANS=f"{spans[0]}-{verb}.jsonl",
                           PERFBENCH_OP=str(spans[1]))
                self.span_files.append(env["PERFBENCH_SPANS"])
            outputs.append(self.meter.call(
                verb, subprocess.run,
                command + [verb, "--data", self.dataset, "--alpha", repr(ALPHA)] + extra,
                env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S))
        return outputs

    def measure(self, seconds, traced):
        if not traced:
            command, spans_dir = [sys.executable, "-m", "structdr"], None
        else:
            command = [sys.executable, os.path.join(HERE, "traced_cli.py")]
            spans_dir = os.path.join(self.args.out_dir, "cli-spans")
            os.makedirs(spans_dir, exist_ok=True)
        self.meter, self.latencies, self.failed, self.span_files = Meter(), [], 0, []
        analyze_outputs, transform_digests = set(), set()
        start = time.perf_counter()
        while not self.latencies or time.perf_counter() - start < seconds:
            op = len(self.latencies) + 1
            spans = (os.path.join(spans_dir, f"op{op}"), op) if spans_dir else None
            (analyze, analyze_s), (transform, transform_s) = self._round_trip(command, spans)
            self.latencies.append(analyze_s + transform_s)
            if analyze.returncode or transform.returncode:
                self.failed += 1
                sys.stderr.write(analyze.stderr + transform.stderr)
            analyze_outputs.add(analyze.stdout)
            transform_digests.add(tuple(_digest(f"{self.prefix}_{part}.csv")
                                        for part in ("isotropic", "weighted", "weights")))
        self.analyze_stdout = analyze.stdout
        self.checks = [("cli-repeatable",
                        len(analyze_outputs) == 1 and len(transform_digests) == 1,
                        f"{len(self.latencies)} ops gave {len(analyze_outputs)} analyze "
                        f"output(s) and {len(transform_digests)} transform output set(s)")]
        return len(self.latencies)

    def ops_per_calib(self):
        return self.meter.ops_per_calib(1)

    def verify(self):
        checks = self.checks
        checks.append(("cli-exit-codes", self.failed == 0, f"{self.failed} failed ops"))
        checks.append(("analyze-matches-in-process",
                       *gate.check_analyze_output(self.analyze_stdout, self.dataset, ALPHA)))
        checks.append(("transform-outputs",
                       *gate.check_transform_outputs(self.prefix, self.dataset, ALPHA)))
        return checks


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--result", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--reference-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    run.exit_on_sigterm()

    import structdr

    expected = os.path.join(ROOT, "src", "structdr")
    if os.path.dirname(os.path.abspath(structdr.__file__)) != expected:
        sys.exit(f"imported structdr from {structdr.__file__}, expected {expected}")
    workload = CliRoundTrip(args) if args.workload == "cli-roundtrip" else Sweep(args)
    workload.setup()
    result = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            result["bindings_patched"] = tracing.install(tracer)
        ops = workload.measure(args.seconds, tracer is not None)
        meter = workload.meter
        p50, tail, tail_label = tracing.median_and_tail(workload.latencies)
        result.update({
            "ops": ops,
            "failed": workload.failed,
            "ops_per_s": ops / sum(meter.walls),
            "ops_per_calib": workload.ops_per_calib(),
            "calls": len(meter.walls),
            "call_walls_s": meter.walls,
            "calibration_s": meter.calibrations,
            "op_ms_p50": 1e3 * p50,
            "op_ms_tail": 1e3 * tail,
            "op_ms_tail_label": tail_label,
            "peak_rss_mb": _peak_rss_mb(),
        })
        if tracer is not None:
            summaries = [tracing.summarize(tracer.spans)]
            tracer.dump(os.path.join(args.out_dir, "spans.jsonl"))
            for path in getattr(workload, "span_files", ()):
                summaries.append(tracing.summarize(tracing.load_spans(path)))
            layers = tracing.layer_metrics(tracing.merge(summaries), ops)
            result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        result["checks"] = [list(c) for c in workload.verify()]
        result["env"] = _environment()
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
