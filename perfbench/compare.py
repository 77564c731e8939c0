#!/usr/bin/env python3
"""Compare two result sets of the benchmark, one row per workload and metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Run from the checkout root (bounds come from BENCHMARK.json).  Result sets
are the JSON-lines files sweep.py writes.  The verdict follows the rules
for landing a change:
- improved: the change wins at least 9/10 of the run pairs (ties count for
  neither side) and the medians differ by more than the parent's quartile
  distance;
- unresolved: either side's spread (quartile distance / median) is wider
  than the bound, unless every change run beats every parent run;
- worse: the change's median is worse than the parent's by more than the
  bound (a share of the parent's median);
- within bound: otherwise.
Runs pair by seed where both sets have the seed, else in file order.
"""

import os
import sys

from sweep import load_bench, quartiles, read_set


def _better(a, b, lower):
    """True when b reads better than a."""
    return b < a if lower else b > a


def verdict(parent, change, bound, lower):
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if _better(a, b, lower))
    if (pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1)):
        return "improved"
    all_better = all(_better(a, b, lower) for a in parent for b in change)
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    if bound is not None and spread > bound and not all_better:
        return "unresolved"
    if bound is not None:
        worse_by = (cm - pm) / pm if lower else (pm - cm) / pm
        if worse_by > bound:
            return "worse"
    return "within bound"


def _paired(a_vals, a_seeds, b_vals, b_seeds):
    common = [s for s in a_seeds if s in b_seeds]
    if len(common) == len(a_seeds) == len(b_seeds):
        order_b = {s: i for i, s in enumerate(b_seeds)}
        return a_vals, [b_vals[order_b[s]] for s in a_seeds]
    n = min(len(a_vals), len(b_vals))
    return a_vals[:n], b_vals[:n]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    bench = load_bench(os.getcwd())
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    (a, a_seeds), (b, b_seeds) = read_set(sys.argv[1]), read_set(sys.argv[2])
    print(f"{'workload':12s} {'metric':34s} {'parent med [q1, q3]':>34s} "
          f"{'change med [q1, q3]':>34s}  verdict")
    for w in a:
        for name in a[w]:
            if name not in b.get(w, {}):
                continue
            m = spec.get(name, {"better": "lower"})
            pa, pb = _paired(a[w][name], a_seeds[w], b[w][name], b_seeds[w])
            q = [quartiles(v) for v in (pa, pb)]
            cells = [f"{md:.5g} [{q1:.5g}, {q3:.5g}]" for q1, md, q3 in q]
            v = verdict(pa, pb, m.get("bound"), m["better"] == "lower")
            print(f"{w:12s} {name:34s} {cells[0]:>34s} {cells[1]:>34s}  {v}")


if __name__ == "__main__":
    main()
