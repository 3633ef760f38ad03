"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Not a pytest module, so the repository's test suite does not collect it.
It runs every workload on tiny grids through run.py, untraced and traced,
and checks that every metric BENCHMARK.json names is printed, that the
call counts are the pipeline's, that a tampered reference CSV fails the
correctness gate, and that the benchmark refuses to run without the
structdr sources. It takes about a minute.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_out", "selftest")
# Calls per op that the pipeline makes today.
EXPECTED_CALLS = {
    "sweep": {"structure.scatter_matrices": 6, "linalg.gen_eig": 5,
              "experiment.run_cell": 1, "mixture.sample": 1, "cli.main": 0},
    "cli-roundtrip": {"cli.main": 2, "mixture.from_csv": 2, "mixture.to_csv": 2,
                      "structure.distinctness_delta_check": 1, "experiment.run_cell": 0},
}


def run(*args, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--tiny",
           "--seed", "0", "--seconds", "0.2", "--reference-dir", WORK, *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


def expect(condition, message):
    if not condition:
        sys.exit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    for workload in ("sweep-d7", "sweep-d20-largen"):
        code, _, proc = run("--workload", workload, "--write-reference")
        expect(code == 0, f"tiny reference written for {workload}")

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, line, proc = run("--workload", "all", "--trace", str(trace))
        expect(code == 0 and line["correct"], f"all workloads pass the gate, trace {trace}")
        for workload in workloads:
            names = {k.split(":", 1)[1] for k in line["metrics"]
                     if k.startswith(workload + ":")}
            wanted = {m["name"] for m in spec[key]}
            expect(names == wanted, f"{workload} trace {trace} prints exactly the "
                                    f"{len(wanted)} {key} metrics")
            values = [line["metrics"][f"{workload}:{n}"]["value"] for n in wanted]
            expect(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                   f"{workload} trace {trace} values are finite numbers")
            if trace:
                kind = "cli-roundtrip" if workload == "cli-roundtrip" else "sweep"
                got = {fn: line["metrics"][f"{workload}:{fn}.calls_per_op"]["value"]
                       for fn in EXPECTED_CALLS[kind]}
                expect(got == EXPECTED_CALLS[kind], f"{workload} calls per op {got}")
        expect("failed_ratio = 0 " in proc.stdout, f"failed_ratio printed as 0, trace {trace}")

    reference = os.path.join(WORK, "fig3_d7-tiny.csv")
    with open(reference) as fh:
        original = fh.read()
    columns, first = original.splitlines()[1:3]

    def edited(column, edit):
        fields = first.split(",")
        index = columns.split(",").index(column)
        fields[index] = edit(fields[index])
        return original.replace(first, ",".join(fields), 1)

    with open(reference, "w") as fh:
        fh.write(edited("lambda_x", lambda v: repr(float(v) + 1e-6)))
    code, line, _ = run("--workload", "sweep-d7")
    expect(code != 0 and line and not line["correct"], "a tampered reference CSV fails the gate")
    with open(reference, "w") as fh:
        fh.write(original)

    actual = os.path.join(WORK, "actual.csv")
    for column, edit, passes in (
            ("lambda_x", lambda v: repr(float(v) + 1e-12), True),
            ("seed", lambda v: str(int(v) + 1), False),
            ("status", lambda v: "failed", False)):
        with open(actual, "w") as fh:
            fh.write(edited(column, edit))
        ok, detail = gate.compare_reference(actual, reference)
        expect(ok == passes, f"gate on a changed {column}: {detail}")

    bare = os.path.join(WORK, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, line, _ = run("--workload", "sweep-d7", root=bare)
    expect(code != 0 and line is None, "without structdr sources: non-zero exit, no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
