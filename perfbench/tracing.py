"""In-memory span tracing around structdr's public functions.

`install` wraps each function in TRACED and rebinds every reference to it
in every loaded ``structdr`` module, because the modules import each
other's functions by name (``experiment`` holds its own ``sss`` binding,
``subspace`` its own ``scatter_matrices`` and so on); patching only the
defining module would miss those calls.

Each span is (id, name, start, end, parent, op, bytes). Parents come from a
per-thread stack. A span opened on a worker thread with an empty stack
takes the main thread's innermost open span as parent, which is the
``run_sweep`` that submitted it. A ``run_cell`` span starts a new op id;
every other span inherits the op id of its parent.
"""

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

# (module, function) pairs whose calls and self time are reported.
TRACED = (
    ("mixture", "make_separation_family"),
    ("mixture", "sample"),
    ("mixture", "from_csv"),
    ("mixture", "to_csv"),
    ("transform", "isotropize"),
    ("transform", "compute_weights"),
    ("transform", "apply_weights"),
    ("structure", "scatter_matrices"),
    ("structure", "fisher_solve"),
    ("structure", "distinctness_delta_check"),
    ("linalg", "gen_eig"),
    ("linalg", "sym_eig"),
    ("linalg", "apply_centering"),
    ("subspace", "pc_subspace"),
    ("subspace", "fisher_subspace"),
    ("subspace", "sss"),
    ("experiment", "run_cell"),
    ("experiment", "write_records_csv"),
    ("cli", "main"),
)
# Traced for concurrency only; not reported per function.
EXTRA = (("experiment", "run_sweep"),)
MODULES = ("mixture", "transform", "structure", "linalg", "subspace", "experiment", "cli")
# Methods of LabeledDataset, reported under the mixture module.
DATASET_METHODS = ("from_csv", "to_csv")


def _sample_bytes(args, kwargs, result):
    return result.data.nbytes + result.labels.nbytes


def _path_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _records_bytes(args, kwargs, result):
    # run_sweep opens the file just before this call and writes nothing
    # else to it, so the position afterwards is the bytes written.
    return args[0].tell()


# Computed bytes per call, from array sizes or file sizes.
BYTE_COUNTERS = {
    "mixture.sample": _sample_bytes,
    "mixture.from_csv": _path_bytes,
    "mixture.to_csv": _path_bytes,
    "experiment.write_records_csv": _records_bytes,
}


class Tracer:
    """Collects spans in memory; `dump` writes them out as JSON lines."""

    def __init__(self, root_op=0):
        self.spans = []
        self.root_op = root_op
        self._ids = itertools.count(1)
        self._ops = itertools.count(root_op + 1)
        self._stacks = {}
        self._main = threading.main_thread().ident

    def _parent(self):
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        if stack:
            return stack, stack[-1]
        main_stack = self._stacks.get(self._main)
        if ident != self._main and main_stack:
            return stack, main_stack[-1]
        return stack, (None, self.root_op)

    def wrap(self, name, fn):
        new_op = name == "experiment.run_cell"
        count_bytes = BYTE_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, (parent, op) = self._parent()
            if new_op:
                op = next(self._ops)
            span_id = next(self._ids)
            stack.append((span_id, op))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            nbytes = count_bytes(args, kwargs, result) if count_bytes else 0
            self.spans.append((span_id, name, start, end, parent, op, nbytes))
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer):
    """Wrap every traced function and rebind each reference to it in the
    loaded structdr modules. Returns the number of bindings replaced."""
    import sys

    import structdr.cli  # noqa: F401  loads every traced module

    loaded = [m for n, m in list(sys.modules.items())
              if n == "structdr" or n.startswith("structdr.")]
    replaced = 0
    for module, fn_name in TRACED + EXTRA:
        name = f"{module}.{fn_name}"
        if fn_name in DATASET_METHODS:
            cls = sys.modules["structdr.mixture"].LabeledDataset
            raw = cls.__dict__[fn_name]
            if isinstance(raw, classmethod):
                setattr(cls, fn_name, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(cls, fn_name, tracer.wrap(name, raw))
            replaced += 1
            continue
        original = getattr(sys.modules[f"structdr.{module}"], fn_name)
        traced = tracer.wrap(name, original)
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
                    replaced += 1
    return replaced


def load_spans(path):
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans):
    """Per-name aggregates of one process's spans: calls, self seconds,
    span durations and bytes. Self time is a span's duration minus the
    part of it that its child spans cover."""
    children = defaultdict(list)
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "durations": [], "bytes": 0})
    for span_id, name, start, end, _, _, nbytes in spans:
        agg = out[name]
        agg["calls"] += 1
        agg["self_s"] += (end - start) - _covered(children.get(span_id, ()), start, end)
        agg["durations"].append(end - start)
        agg["bytes"] += nbytes
    return dict(out)


def merge(summaries):
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "durations": [], "bytes": 0})
    for summary in summaries:
        for name, agg in summary.items():
            target = out[name]
            target["calls"] += agg["calls"]
            target["self_s"] += agg["self_s"]
            target["durations"].extend(agg["durations"])
            target["bytes"] += agg["bytes"]
    return dict(out)


def median_and_tail(values):
    """Median, tail and the tail's label. The tail is the highest
    percentile with at least ten samples beyond it; with fewer than eleven
    samples no percentile qualifies and the maximum is reported."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, "no samples"
    mid = n // 2
    median = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    if n < 11:
        return median, ordered[-1], f"max of n={n}, fewer than 11 samples"
    return median, ordered[n - 11], f"p{100.0 * (n - 10) / n:.2f} of n={n}"


def layer_metrics(agg, ops):
    """Per-layer metric values from merged span aggregates over `ops` ops."""
    empty = {"calls": 0, "self_s": 0.0, "durations": [], "bytes": 0}
    metrics = {}
    for module, fn_name in TRACED:
        a = agg.get(f"{module}.{fn_name}", empty)
        metrics[f"{module}.{fn_name}.calls_per_op"] = (a["calls"] / ops, "count")
        metrics[f"{module}.{fn_name}.self_ms_per_op"] = (1e3 * a["self_s"] / ops, "ms")
    total_self = sum(a["self_s"] for a in agg.values()) or 1.0
    for module in MODULES:
        own = sum(a["self_s"] for n, a in agg.items() if n.split(".")[0] == module)
        metrics[f"{module}.self_share"] = (own / total_self, "share")
    cells = agg.get("experiment.run_cell", empty)["durations"]
    p50, tail, _ = median_and_tail(cells)
    metrics["experiment.run_cell.ms.p50"] = (1e3 * p50, "ms")
    metrics["experiment.run_cell.ms.tail"] = (1e3 * tail, "ms")
    sweeps = sum(agg.get("experiment.run_sweep", empty)["durations"])
    metrics["experiment.run_sweep.concurrency"] = (sum(cells) / sweeps if sweeps else 0.0, "x")
    metrics["mixture.sample.bytes_out_per_op"] = (
        agg.get("mixture.sample", empty)["bytes"] / ops, "B")
    for name in ("mixture.from_csv", "mixture.to_csv", "experiment.write_records_csv"):
        metrics[f"{name}.bytes_per_op"] = (agg.get(name, empty)["bytes"] / ops, "B")
    return metrics
