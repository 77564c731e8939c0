#!/usr/bin/env python3
"""Exact inverse-power sums sum_n Omega(P, n) / r^n for a spread of posets
and ratios, cross-checked against direct partial summation."""

from fractions import Fraction

from posetoperad.dsl import parse_poset
from posetoperad.series import inverse_power_sum, inverse_power_sum_partial

CASES = [
    ("A5", 2, "strict"),        # sum k^5 / 2^k
    ("A5", 3, "strict"),        # sum k^5 / 3^k
    ("C1 * (C1 | C1 | C1)", 5, "strict"),
    ("C1 * (C1 | C1 | C1)", 5, "weak"),
    ("{x<y>z<w}", 2, "strict"),
    ("{x<y>z<w}", 2, "weak"),
    ("C4", Fraction(-3, 2), "strict"),
    ("A3 | C2", 7, "weak"),
]


def main():
    for text, r, mode in CASES:
        P = parse_poset(text)
        exact = inverse_power_sum(P, r, mode)
        partial, tail = inverse_power_sum_partial(P, r, 60, mode)
        ok = abs(exact - partial) <= tail
        print(f"{text:24s} r={str(r):5s} {mode:6s} -> {str(exact):12s} "
              f"(partial check {'ok' if ok else 'FAILED'}, tail <= {float(tail):.1e})")


if __name__ == "__main__":
    main()
