#!/usr/bin/env python3
"""Generate and numerically verify both zeta identities of every poset class
up to a chosen size, then print a compact scoreboard line per map.

The alternating map is the finite form sum_(k>=r0) (-1)^(k+1) Omega(P, k)
(zeta(k+1)-1) = n_tilde2(Omega); the plain map is sum_(k>=r0) Omega(P, k)
(zeta(k+1)-1) = n_tilde(Omega), r0 the height of P in both."""

import argparse
import time

from posetoperad.catalog import iso_classes
from posetoperad.zeta import (PrecisionContext, finite_form_identity,
                              n_tilde, nstr, verify_identity)


def plain_record(form):
    """The plain map's record on the finite form's polynomial and start."""
    return form._replace(lhs_description=form.lhs_description.replace(
        "(-1)^(k+1) ", ""), rhs=n_tilde(form.lhs_poly), alternating=False)


MAPS = {"alternating": lambda form: form, "plain": plain_record}


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
    classes = [P for size in range(args.max_size + 1)
               for P in iso_classes(size)]
    for name, record in MAPS.items():
        start = time.perf_counter()
        failures = 0
        for P in classes:
            rec = verify_identity(record(finite_form_identity(P)), ctx)
            if not rec.passed:
                failures += 1
            if args.show or not rec.passed:
                mark = "ok " if rec.passed else "FAIL"
                style = "shifted" if rec.alternating else "plain"
                print(f"{mark} {P.relation_string():30s} "
                      f"rhs = {rec.rhs.render(style)}")
                print(f"     lhs = {nstr(rec.lhs_numeric, 20)} "
                      f"± {rec.error_bound:.2e}")
        elapsed = time.perf_counter() - start
        print(f"{name}: {len(classes) - failures}/{len(classes)} identities "
              f"verified at {args.tolerance:g} in {elapsed:.1f}s")

if __name__ == "__main__":
    main()
