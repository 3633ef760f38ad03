"""Command-line interface.

Verbs: generate (mixture spec -> dataset CSV), transform (dataset CSV ->
isotropic/weighted/weights CSVs), analyze (dataset CSV -> distinctness and
subspace-similarity report), sweep (config JSON -> records CSV), recipe
(name -> config JSON).

Exit codes: 0 success, 2 configuration error, 3 numerical error, 4 I/O
error (a failed write to stdout included).
"""

import argparse
import atexit
import csv
import os
import sys
from contextlib import suppress
from dataclasses import replace

import numpy as np

from .errors import ConfigError, NumericalError, check_seed, reading
from .experiment import RECIPE_NAMES, ExperimentConfig, format_value, recipe, run_sweep
from .mixture import (
    LabeledDataset,
    MixtureSpec,
    make_separation_family,
    sample,
    write_labeled_csv,
)
from .structure import analyze
from .transform import DEFAULT_ALPHA, SCHEMES, transform_pipeline

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line on stderr, exit 2."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}; see {self.prog} --help\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="structdr",
        description="Structure-preserving dimension reduction for Gaussian-mixture data",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    gen = sub.add_parser("generate", help="sample a labeled dataset from a mixture spec")
    gen.add_argument("--spec", help="mixture spec JSON file")
    gen.add_argument("--d", type=int, help="dimension (when building a family spec)")
    gen.add_argument("--k", type=int, help="component count (family spec)")
    gen.add_argument("--separation", type=float, default=4.0)
    gen.add_argument("--dispersion", type=float, default=1.0)
    gen.add_argument("--n-per-cluster", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output dataset CSV")

    tra = sub.add_parser("transform", help="isotropize and weight a dataset CSV")
    tra.add_argument("--data", required=True, help="input dataset CSV (x1..xd,label)")
    tra.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    tra.add_argument("--scheme", choices=SCHEMES, default="hyperbolic")
    tra.add_argument(
        "--out", required=True,
        help="output prefix; writes <out>_isotropic.csv, <out>_weighted.csv, <out>_weights.csv",
    )

    ana = sub.add_parser("analyze", help="distinctness / subspace-similarity report")
    ana.add_argument("--data", required=True, help="input dataset CSV")
    ana.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    ana.add_argument("--scheme", choices=SCHEMES, default="hyperbolic")
    ana.add_argument("--out", help="optional single-row CSV report")

    swe = sub.add_parser("sweep", help="run a replicated experiment sweep")
    swe.add_argument("--config", required=True, help="experiment config JSON")
    swe.add_argument("--out", required=True, help="output records CSV")
    swe.add_argument(
        "--threads", type=int, default=1,
        help="processes that run units, this one included, at most the CPUs available; "
        "the CSV does not depend on it",
    )
    swe.add_argument("--seed", type=int, help="override the config master seed")

    rec = sub.add_parser("recipe", help="write a canned experiment config")
    rec.add_argument("name", help=f"one of: {', '.join(RECIPE_NAMES)}")
    rec.add_argument("--out", required=True, help="output config JSON")
    return parser


def _cmd_generate(args) -> int:
    check_seed("seed", args.seed)  # before the family's seed is derived from it
    if args.spec:
        with open(args.spec) as fh, reading(args.spec):
            spec = MixtureSpec.from_json(fh.read())
    elif args.d is not None and args.k is not None:
        # the family draws from its own stream of --seed, and the sample
        # from --seed itself, so that no rows reuse the family's draws
        spec_seed = np.random.SeedSequence((args.seed, 1)).generate_state(1, np.uint64)[0]
        spec = make_separation_family(
            args.d, args.k, args.separation, args.dispersion, seed=int(spec_seed)
        )
    else:
        raise ConfigError("generate needs either --spec or both --d and --k")
    data = sample(spec, args.n_per_cluster, seed=args.seed)
    data.to_csv(args.out)
    print(f"wrote {data.n} x {data.d} dataset ({spec.k} clusters) to {args.out}")
    return EXIT_OK


def _cmd_transform(args) -> int:
    data = LabeledDataset.from_csv(args.data)
    pipe = transform_pipeline(data, alpha=args.alpha, scheme=args.scheme)
    iso_path = f"{args.out}_isotropic.csv"
    weighted_path = f"{args.out}_weighted.csv"
    weights_path = f"{args.out}_weights.csv"
    pipe.isotropic.as_labeled().to_csv(iso_path)
    pipe.weighted.to_csv(weighted_path)
    write_labeled_csv(weights_path, ["weight"], pipe.weights[:, None], data.labels)
    print(f"wrote {iso_path}, {weighted_path}, {weights_path}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    data = LabeledDataset.from_csv(args.data)
    result = analyze(data, alpha=args.alpha, scheme=args.scheme)
    print(f"n={data.n} d={data.d} k={data.k} alpha={args.alpha} scheme={args.scheme}")
    print(
        f"lambda_x={result.lambda_bar_x:.6f} lambda_z={result.lambda_bar_z:.6f} "
        f"delta={result.observed_delta:.6f} bound={result.bound_rhs:.6f} "
        f"satisfied={format_value(result.bound_satisfied)}"
    )
    print(f"sss_x={result.sss_x:.6f} sss_z={result.sss_z:.6f}")
    print(
        f"sd_norm_sq={result.empirical_sd_norm:.6e} d/n={data.d / data.n:.6e}"
    )
    if args.out:
        row = {
            "n": data.n,
            "d": data.d,
            "k": data.k,
            "alpha": args.alpha,
            "scheme": args.scheme,
            "lambda_x": result.lambda_bar_x,
            "lambda_z": result.lambda_bar_z,
            "delta": result.observed_delta,
            "bound": result.bound_rhs,
            "satisfied": result.bound_satisfied,
            "sss_x": result.sss_x,
            "sss_z": result.sss_z,
            "empirical_sd_norm": result.empirical_sd_norm,
        }
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(row)
            writer.writerow([format_value(v) for v in row.values()])
    return EXIT_OK


def _cmd_sweep(args) -> int:
    with open(args.config) as fh, reading(args.config):
        config = ExperimentConfig.from_json(fh.read())
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    records = run_sweep(config, out_path=args.out, threads=args.threads)
    failed = sum(1 for r in records if r.status != "ok")
    total_time = sum(r.elapsed_seconds for r in records)
    print(
        f"wrote {len(records)} records to {args.out} "
        f"({failed} failed, {total_time:.1f}s compute)"
    )
    return EXIT_OK


def _cmd_recipe(args) -> int:
    config = recipe(args.name)
    with open(args.out, "w") as fh:
        fh.write(config.to_json() + "\n")
    print(f"wrote recipe {args.name!r} to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "transform": _cmd_transform,
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "recipe": _cmd_recipe,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.verb](args)
        # here, so that a report that cannot be written is an I/O error, and
        # not a warning at interpreter exit (stdout is None under >&-)
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except ConfigError as exc:
        print(f"structdr: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"structdr: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"structdr: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def run():
    """The structdr command: `main` on sys.argv, then the exit handlers
    (multiprocessing's stops and joins a sweep's kept helpers), then
    `os._exit`, which skips the interpreter's teardown, a final garbage
    collection and module clearing in a process that is about to end.
    Usage errors and --help leave by SystemExit, the usual way."""
    code = main()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            # only a failed command leaves stdout unflushed, and its code
            # already says so
            with suppress(OSError):
                stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
