#!/usr/bin/env python3
"""Generate and numerically verify the finite-form zeta identity for every
poset class up to a chosen size, then print a compact scoreboard."""

import argparse
import time

from posetoperad.catalog import iso_classes
from posetoperad.zeta import (PrecisionContext, finite_form_identity, nstr,
                              verify_identity)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-size", type=int, default=4)
    ap.add_argument("--digits", type=int, default=40)
    ap.add_argument("--tolerance", type=float, default=1e-10)
    ap.add_argument("--show", action="store_true",
                    help="print each identity's finite form")
    args = ap.parse_args()

    ctx = PrecisionContext(working_digits=args.digits,
                           verify_tolerance=args.tolerance)
    start = time.perf_counter()
    total = failures = 0
    for size in range(args.max_size + 1):
        for P in iso_classes(size):
            rec = verify_identity(finite_form_identity(P), ctx)
            total += 1
            if not rec.passed:
                failures += 1
            if args.show or not rec.passed:
                mark = "ok " if rec.passed else "FAIL"
                print(f"{mark} {P.relation_string():30s} "
                      f"rhs = {rec.rhs.render('shifted')}")
                print(f"     lhs = {nstr(rec.lhs_numeric, 20)} "
                      f"± {rec.error_bound:.2e}")
    elapsed = time.perf_counter() - start
    print(f"{total - failures}/{total} identities verified at "
          f"{args.tolerance:g} in {elapsed:.1f}s")


if __name__ == "__main__":
    main()
