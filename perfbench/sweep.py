#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --out FILE [--workloads a,b] [--seeds 1,2,3]
                               [--seconds S] [--trace 0|1]

Run from the checkout root.  Each run's result object is appended to FILE
as one JSON line {"workload", "seed", "trace", "result"}; such a file is a
result set for compare.py.  The table gives, per workload and metric, the
median, the quartiles and the spread (quartile distance / median) next to
the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bench(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def read_set(path):
    """{workload: {metric: [values in run order]}} plus seeds per workload."""
    values, seeds = {}, {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            w = rec["workload"]
            seeds.setdefault(w, []).append(rec["seed"])
            for name, m in rec["result"]["metrics"].items():
                values.setdefault(w, {}).setdefault(name, []).append(m["value"])
    return values, seeds


def main():
    root = os.getcwd()
    bench = load_bench(root)
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    for w in args.workloads.split(","):
        for seed in args.seeds.split(","):
            cmd = bench["command"] + ["--workload", w, "--seed", seed,
                                      "--seconds", str(args.seconds),
                                      "--trace", str(args.trace)]
            p = subprocess.run(cmd, capture_output=True, text=True, cwd=root)
            if p.returncode != 0:
                sys.exit(f"{w} seed {seed} exited {p.returncode}:\n{p.stderr}")
            result = json.loads(p.stdout.strip().splitlines()[-1])
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": w, "seed": int(seed),
                                    "trace": args.trace, "result": result}) + "\n")
            print(f"{w} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}", flush=True)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, _ = read_set(args.out)
    print(f"{'workload':12s} {'metric':28s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for w, metrics in values.items():
        for name, vs in metrics.items():
            q1, med, q3 = quartiles(vs)
            spread = (q3 - q1) / med if med else 0.0
            b = bounds.get(name)
            flag = "" if b is None or spread < b / 3 else "  > bound/3"
            print(f"{w:12s} {name:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {b if b is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()
