#!/usr/bin/env python3
"""Failure-injection self-test: the correctness gate can fail.

    python3 perfbench/selftest.py

For each workload, corrupt one expected value (the first numeric or
boolean one, in sorted key order, that the seeded run's first job is
checked against), run the workload briefly and require fail_frac > 0.
Exits 1 if any workload still reports no failure.
"""

import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

SEED = 1


def bump(node):
    """Change the first numeric or boolean leaf (in sorted key order) of a
    nested expected value in place; returns a description of the change,
    or None when there is no such leaf."""
    keys = sorted(node) if isinstance(node, dict) else range(len(node))
    for key in keys:
        child = node[key]
        if isinstance(child, (dict, list)):
            done = bump(child)
            if done:
                return f"{key}.{done}"
            continue
        new = _bumped(child)
        if new is not None:
            node[key] = new
            return f"{key}: {child!r} -> {new!r}"
    return None


def _bumped(v):
    if isinstance(v, bool):
        return not v
    if isinstance(v, int):
        return v + 1
    try:
        return str(Fraction(v) + 1)
    except ValueError:
        return None


def main():
    root = os.getcwd()
    ok = True
    for name in bench.WORKLOADS:
        workload = bench.make_workload(name, bench.load_refs())
        first = next(workload.units(SEED, bench.Runner(root)))
        change = bump(first.expect)
        result = bench.run(name, SEED, 1, 0, root, workload=workload)
        frac = result["failed"] / result["attempted"]
        caught = frac > 0 and result["correct"] is False
        ok &= caught
        print(f"{'PASS' if caught else 'FAIL'} {name}: corrupted {change}; "
              f"fail_frac = {frac:.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
