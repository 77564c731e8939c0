#!/usr/bin/env python3
"""Write one row of the benchmark trajectory, BENCH_<pr>.json, from the
result sets of alternating parent/change pairs.

    python3 scripts/bench_record.py --pr N --parent PARENT.jsonl \
        --change CHANGE.jsonl > BENCH_N.json

Run from the checkout root.  Both files are JSON-lines result sets written
by perfbench/sweep.py (untraced and traced runs may share a file; a traced
run's metrics are per-layer).  Runs pair by seed.  For every workload and
metric the record holds each side's median and quartiles, the number of
pairs the change reads better in (ties count for neither side), and the
verdict of perfbench/compare.py; it also holds the seeds, the failed and
attempted job counts, and the machine and Python it ran on.
"""

import argparse
import json
import os
import platform
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "perfbench"))
from compare import verdict
from sweep import load_bench, quartiles


def read_runs(path):
    """{(workload, trace): {seed: result}}, in file order."""
    runs = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"])
            runs.setdefault(key, {})[rec["seed"]] = rec["result"]
    return runs


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def side(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def record(pr, parent, change, bench):
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = {}
    for key in sorted(set(parent) & set(change)):
        w, trace = key
        seeds = [s for s in parent[key] if s in change[key]]
        if not seeds:
            continue
        p_runs = [parent[key][s] for s in seeds]
        c_runs = [change[key][s] for s in seeds]
        metrics = {}
        for name in p_runs[0]["metrics"]:
            m = spec.get(name, {"better": "lower"})
            lower = m["better"] == "lower"
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            metrics[name] = {
                "unit": p_runs[0]["metrics"][name]["unit"],
                "better": m["better"], "bound": m.get("bound"),
                "parent": side(pv), "change": side(cv),
                "change_wins": sum((b < a) if lower else (b > a)
                                   for a, b in zip(pv, cv)),
                "pairs": len(seeds),
                "verdict": verdict(pv, cv, m.get("bound"), lower)}
        entry = workloads.setdefault(w, {})
        entry["traced" if trace else "untraced"] = {
            "seeds": seeds,
            "attempted": {"parent": sum(r["attempted"] for r in p_runs),
                          "change": sum(r["attempted"] for r in c_runs)},
            "failed": {"parent": sum(r["failed"] for r in p_runs),
                       "change": sum(r["failed"] for r in c_runs)},
            "metrics": metrics}
    return {
        "pr": pr,
        "machine": {"platform": platform.platform(),
                    "cpu": cpu_model(),
                    "cpus_allowed": len(os.sched_getaffinity(0)),
                    "cpu_count": os.cpu_count()},
        "python": {"implementation": platform.python_implementation(),
                   "version": platform.python_version(),
                   "PYTHONDONTWRITEBYTECODE":
                       os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "run_seconds": bench["run_seconds"],
        "workloads": workloads,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    args = ap.parse_args()
    doc = record(args.pr, read_runs(args.parent), read_runs(args.change),
                 load_bench(os.getcwd()))
    print(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()
