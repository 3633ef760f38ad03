"""A fixed calibration loop that the measured calls are divided by.

On the shared 2-vCPU host this benchmark was built on, the whole machine
runs 20-100% slower for seconds to minutes at a time, so the wall-clock rate
of the same code differs by that much from run to run. workloads.py times
every measured call between two runs of `calibrate` and reports the call's
cost in calibrations (its wall time over the mean of the two calibrations
around it); a call and the calibrations next to it slow down together, so
the ratio does not move with the neighbours' load.

The loop uses nothing from structdr and no input from the seed, so no change
to the program moves it. It mixes the kinds of work the workloads do, in
about equal shares of time: small-matrix numpy in many short Python calls
(sweep-d7), numpy over a 12000x20 array (sweep-d20-largen), and the
compile, JSON, regex, sort and formatting work of interpreter start and CSV
handling (cli-roundtrip). On that host one call takes 70-110 ms.
"""

import dataclasses
import json
import marshal
import re

import numpy

SEED = 20240607
_SOURCE = "\n".join(
    f"def f{i}(x, y={i}):\n    z = [x * j + y for j in range(8)]\n"
    f"    return {{'k{i}': sum(z), 'n': len(z)}}\n"
    for i in range(60))
_DOC = [{"id": i, "name": f"item{i}", "vals": [i * 0.5, i * 1.5], "tags": ["a", str(i)]}
        for i in range(300)]
_ITEM = re.compile(r"item(\d+)")


@dataclasses.dataclass(frozen=True)
class _Record:
    k: int
    n: int
    top: float
    bottom: float


def _checked(x):
    if not numpy.all(numpy.isfinite(x)):
        raise ValueError("non-finite calibration data")
    return numpy.asarray(x, dtype=float)


def _scatter(x, labels, k):
    mean = x.mean(axis=0)
    within = numpy.zeros((x.shape[1], x.shape[1]))
    between = numpy.zeros_like(within)
    for j in range(k):
        xj = x[labels == j]
        mj = xj.mean(axis=0)
        d = xj - mj
        within += d.T @ d
        e = (mj - mean)[:, None]
        between += len(xj) * (e @ e.T)
    return within, between


def _mixture_pipeline(rng, d, k, n, repeats):
    """Sample a k-cluster mixture in d dimensions and solve the scatter
    eigenproblem three times per repeat."""
    records = []
    for rep in range(repeats):
        kk = k + rep % 5
        labels = numpy.repeat(numpy.arange(kk), n)
        x = _checked(rng.standard_normal((kk, d))[labels] * 5
                     + rng.standard_normal((kk * n, d)))
        for _ in range(3):
            within, between = _scatter(x, labels, kk)
            w = numpy.linalg.eigvalsh(numpy.linalg.solve(within + numpy.eye(d), between))
        records.append(_Record(kk, n, float(w[-1]), float(w[0])))
    return sum(dataclasses.asdict(r)["top"] for r in records)


def _text_work(repeats):
    total = 0
    for _ in range(repeats):
        code = compile(_SOURCE, "<calibration>", "exec")
        namespace = {}
        exec(marshal.loads(marshal.dumps(code)), namespace)
        total += namespace["f3"](2)["n"]
        text = json.dumps(_DOC)
        back = json.loads(text)
        total += sum(int(m.group(1)) for m in _ITEM.finditer(text))
        total += len(sorted(back, key=lambda r: (-r["id"] % 7, r["name"])))
        total += len("".join(f"{r['id']:5d},{r['vals'][0]:.6g};" for r in back))
    return total


def calibrate():
    """Run the fixed loop once; the result is only a checksum."""
    rng = numpy.random.default_rng(SEED)
    return (_mixture_pipeline(rng, 7, 3, 60, 50)
            + _mixture_pipeline(rng, 20, 10, 1200, 2)
            + _text_work(4))
