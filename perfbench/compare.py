"""Compare two result sets of the benchmark: parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the JSON files that ``run.py --record DIR`` writes,
one per (workload, seed, trace). Runs are paired by workload, seed and
trace; make at least ten pairs, alternating which side runs first. One
row per workload and metric gives each side's median and quartiles, the
pairs the change won (ties count for neither side) and a verdict:

  gain        the change won at least 9/10 of the pairs and the medians
              differ by more than the parent's quartile spread
  worse       the change's median is worse than the parent's by more
              than the metric's bound
  unresolved  either side's quartile spread exceeds the bound and not
              every change run beats every parent run
  no worse    otherwise

Metrics without a bound (per-layer, and the printed but ungated
``ops_per_s``, ``calibration_ms.p50``, ``op_ms.p50`` and ``op_ms.tail``)
get ``gain``, ``loss`` (the same pair rule the other way) or ``-``.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            report = json.load(fh)
        env = report["env"]
        runs[(env["workload"], env["trace"], env["seed"])] = {
            **report["result"]["metrics"], **report.get("extra", {})}
    return runs


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _span(values):
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(parent, change, pairs, better, bound):
    sign = 1 if better == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in pairs)
    lost = sum(sign * (c - p) < 0 for p, c in pairs)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    diff = c_med - p_med
    clear = abs(diff) > p_q3 - p_q1
    if bound is None:
        if pairs and won >= 0.9 * len(pairs) and clear:
            return won, "gain"
        if pairs and lost >= 0.9 * len(pairs) and clear:
            return won, "loss"
        return won, "-"
    scale = abs(p_med) or 1.0
    spread = max((p_q3 - p_q1) / scale, (c_q3 - c_q1) / (abs(c_med) or 1.0))
    every = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if spread > bound and not every:
        return won, "unresolved"
    if pairs and won >= 0.9 * len(pairs) and clear:
        return won, "gain"
    if sign * diff < -bound * scale:
        return won, "worse"
    return won, "no worse"


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    parent, change = load(argv[0]), load(argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for report in list(parent.values()) + list(change.values()):
        for name, m in report.items():
            meta.setdefault(name, m)
    header = (f"{'workload':18} {'metric':45} {'parent median [q1, q3]':32} "
              f"{'change median [q1, q3]':32} {'won':7}  verdict")
    print(header)
    print("-" * len(header))
    for workload, trace in sorted({k[:2] for k in parent} & {k[:2] for k in change}):
        seeds_p = sorted(s for w, t, s in parent if (w, t) == (workload, trace))
        seeds_c = sorted(s for w, t, s in change if (w, t) == (workload, trace))
        common = sorted(set(seeds_p) & set(seeds_c))
        names = [n for n in meta if n in parent[(workload, trace, seeds_p[0])]]
        for name in names:
            p_vals = [parent[(workload, trace, s)][name]["value"] for s in seeds_p]
            c_vals = [change[(workload, trace, s)][name]["value"] for s in seeds_c]
            pairs = [(parent[(workload, trace, s)][name]["value"],
                      change[(workload, trace, s)][name]["value"]) for s in common]
            won, result = verdict(p_vals, c_vals, pairs, meta[name]["better"],
                                  meta[name].get("bound"))
            print(f"{workload:18} {name:45} {_span(p_vals):32} {_span(c_vals):32} "
                  f"{won:>3}/{len(pairs):<3}  {result}")


if __name__ == "__main__":
    main(sys.argv[1:])
