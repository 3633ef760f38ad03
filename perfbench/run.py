"""structdr benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload sweep-d7 --seed 0 --seconds 20 --trace 0

Every workload runs in fresh child processes (workloads.py) with BLAS and
OpenMP pinned to one thread and PYTHONPATH set to this checkout's ``src``.
With ``--trace 0`` it prints the end-to-end metrics; set-up is timed in
three fresh children and its median reported, and throughput is measured
against a calibration loop (calibration.py). With ``--trace 1`` it runs
the workload untraced and then traced for half the time each, and prints
the per-layer metrics plus the tracing overhead. Each run checks the
outputs (see gate.py); the last stdout line is one JSON object, and the
exit code is non-zero when a check fails.

``--record DIR`` also writes each result, with its environment, to DIR for
compare.py. ``--tiny``, ``--reference-dir`` and ``--write-reference``
serve selftest.py and the regeneration of the reference CSVs.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("sweep-d7", "sweep-d20-largen", "sweep-d7-threads2", "cli-roundtrip")
IMPORT_SAMPLES = 3
# Every child must end by this many seconds after start, so a run ends
# within the benchmark's 180-second limit.
DEADLINE_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "BLIS_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def exit_on_sigterm():
    """Turn SIGTERM into SystemExit, so `finally` blocks and subprocess.run
    stop the processes this one started."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def stop(proc):
    """Ask a child to stop (it kills its own subprocesses), then force it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def spawn(args, out_dir, deadline, seconds, trace=0, setup_only=False):
    """Run workloads.py once and return its result dict."""
    result = os.path.join(out_dir, "result.json")
    if os.path.exists(result):
        os.remove(result)
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--result", result, "--out-dir", out_dir, "--reference-dir", args.reference_dir]
    cmd += ["--setup-only"] * setup_only + ["--tiny"] * args.tiny
    cmd += ["--write-reference"] * (args.write_reference and not setup_only)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child")
    # stdout of the child goes to our stderr: stdout carries only results.
    proc = subprocess.Popen(cmd + ["--t0", repr(time.monotonic())], env=child_env(),
                            stdout=sys.stderr)
    try:
        proc.wait(timeout=timeout)
    finally:
        stop(proc)
    if proc.returncode != 0 or not os.path.exists(result):
        raise BenchError(f"workload child exited with code {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def import_cost(deadline):
    """Median wall time of a fresh `python3 -c pass` and of a fresh
    `import structdr`, in ms, interleaved."""
    def timed(code):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
        return 1e3 * (time.perf_counter() - t)

    start, imported = [], []
    for _ in range(IMPORT_SAMPLES):
        start.append(timed("pass"))
        imported.append(timed("import structdr"))
    return statistics.median(start), statistics.median(imported)


def run_workload(args):
    """Run one workload; return (result line dict, report dict)."""
    deadline = time.monotonic() + DEADLINE_S
    out_dir = os.path.join(ROOT, ".perfbench_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(), "python": sys.version.split()[0],
        "git_revision": git_revision(), "pinned": PINNED,
    }
    if not args.trace:
        # One set-up before the measuring child and one after it, so the
        # median spans the run rather than one moment of a shared machine.
        setups = [spawn(args, out_dir, deadline, args.seconds, setup_only=True)["setup_s"]]
        child = spawn(args, out_dir, deadline, args.seconds)
        setups.append(child["setup_s"])
        setups.append(spawn(args, out_dir, deadline, args.seconds, setup_only=True)["setup_s"])
        children = [child]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_calib": (child["ops_per_calib"], "1/calib"),
            "peak_rss_mb": (child["peak_rss_mb"], "MB"),
        }
        extra = {
            "ops_per_s": {"value": child["ops_per_s"], "unit": "1/s", "better": "higher"},
            "calibration_ms.p50": {"value": 1e3 * statistics.median(child["calibration_s"]),
                                   "unit": "ms", "better": "lower"},
            "op_ms.p50": {"value": child["op_ms_p50"], "unit": "ms", "better": "lower"},
            "op_ms.tail": {"value": child["op_ms_tail"], "unit": "ms", "better": "lower"},
        }
        notes = {"ops_per_calib": f"{child['calls']} timed calls between calibrations",
                 "ops_per_s": "wall clock, moves with the host's load",
                 "op_ms.tail": child["op_ms_tail_label"],
                 "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups)}
    else:
        untraced = spawn(args, out_dir, deadline, args.seconds / 2)
        child = spawn(args, out_dir, deadline, args.seconds / 2, trace=1)
        children = [untraced, child]
        start_ms, import_ms = import_cost(deadline)
        metrics = {k: (v["value"], v["unit"]) for k, v in child["per_layer"].items()}
        metrics["cli.interpreter_start_ms"] = (start_ms, "ms")
        metrics["cli.import_ms"] = (import_ms - start_ms, "ms")
        metrics["trace.untraced_ops_per_calib"] = (untraced["ops_per_calib"], "1/calib")
        metrics["trace.traced_ops_per_calib"] = (child["ops_per_calib"], "1/calib")
        metrics["trace.overhead_share"] = (
            1 - child["ops_per_calib"] / untraced["ops_per_calib"], "share")
        notes = {"trace.traced_ops_per_calib": f"{child['bindings_patched']} bindings wrapped"}
        extra = {}
    env.update(child["env"])
    checks = [c for ch in children for c in ch["checks"]]
    attempted = sum(ch["ops"] for ch in children)
    failed = sum(ch["failed"] for ch in children)
    line = {
        "correct": all(ok for _, ok, _ in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {"env": env, "checks": checks, "notes": notes,
              "call_walls_s": child["call_walls_s"], "calibration_s": child["calibration_s"],
              "failed_ratio": failed / attempted, "extra": extra, "result": line}
    return line, report


def print_report(report):
    env, line = report["env"], report["result"]
    print(f"== workload {env['workload']} seed {env['seed']} trace {env['trace']}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, ok, detail in report["checks"]:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    for name, m in list(line["metrics"].items()) + list(report["extra"].items()):
        note = report["notes"].get(name)
        print(f"metric {name} = {m['value']:.6g} {m['unit']}" + (f"  [{note}]" if note else ""))
    print(f"metric failed_ratio = {report['failed_ratio']:.6g} "
          f"({line['failed']} of {line['attempted']} ops)")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write each result as JSON into this directory")
    parser.add_argument("--tiny", action="store_true", help="tiny grids, for selftest.py")
    parser.add_argument("--reference-dir", default=os.path.join(HERE, "reference"))
    parser.add_argument("--write-reference", action="store_true",
                        help="copy the sweep CSV into --reference-dir before checking")
    args = parser.parse_args()
    exit_on_sigterm()
    if not os.path.isfile(os.path.join(ROOT, "src", "structdr", "__init__.py")):
        sys.exit(f"perfbench: no structdr sources under {os.path.join(ROOT, 'src')}")
    args.reference_dir = os.path.abspath(args.reference_dir)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for workload in workloads:
        args.workload = workload
        try:
            line, report = run_workload(args)
        except (BenchError, subprocess.SubprocessError, OSError, KeyError) as exc:
            sys.exit(f"perfbench: {workload}: {exc}")
        print_report(report)
        if args.record:
            os.makedirs(args.record, exist_ok=True)
            name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
            with open(os.path.join(args.record, name), "w") as fh:
                json.dump(report, fh, indent=1)
        lines[workload] = line
    if len(lines) == 1:
        final = lines[workloads[0]]
    else:
        final = {
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{w}:{k}": m for w, v in lines.items() for k, m in v["metrics"].items()},
        }
    print(json.dumps(final))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
