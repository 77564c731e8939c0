"""Catalogue of known printed-value inconsistencies in the source material.

Each entry pairs the value as printed in the literature with the value this
package derives from enumeration.  The verification suite flags these
(rather than silently correcting them); an entry is `confirmed` when the
derived value is internally cross-checked and genuinely differs from the
printed one.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .counting import count_strict_surjections, d_vector
from .errors import Record
from .polynomials import MonomialPoly, stirling2
from .poset import chain, lex_sum
from .series import series_of, zigzag_poset
from .zeta import operad_eval_zeta, zhat


class Discrepancy(Record):
    __slots__ = ("case_id", "published", "derived", "note", "confirmed")

    def to_json_dict(self):
        return {"id": self.case_id, "published": self.published,
                "derived": self.derived, "note": self.note,
                "confirmed": self.confirmed}


def quaternary_low_term_discrepancy():
    """The printed one-sided evaluations of the 4-slot zigzag place their
    lowest basis term at index 2; the maximal-chain floor and the surjection
    counts put it at index 3."""
    N = zigzag_poset()
    slot_x = series_of(lex_sum(N, [chain(2), chain(1), chain(1), chain(1)]))
    slot_y = series_of(lex_sum(N, [chain(1), chain(2), chain(1), chain(1)]))
    published = "3 Z_2 + 11 Z_4 + 9 Z_5  and  2 Z_2 + 8 Z_4 + 7 Z_5"
    derived = f"{slot_x.render()}  and  {slot_y.render()}"
    # cross-check the inclusion-exclusion route against direct surjection counts
    ok = True
    for S in (slot_x, slot_y):
        dv = d_vector(S.provenance)
        ok &= all(count_strict_surjections(S.provenance, i + 1) == v
                  for i, v in enumerate(dv.d))
    confirmed = ok and "Z_2" not in derived
    return Discrepancy(
        "quaternary-low-order-index", published, derived,
        "a chain of length 3 exists in both composites, so the coefficient "
        "at index 2 must vanish; surjection counting confirms index 3",
        confirmed)


def quaternary_zeta_example_discrepancy():
    """The printed zeta-side evaluation of the zigzag on (z[1],z[2],z[1],z[1])
    disagrees with its own series-side vector; the derived value follows the
    surjection counts."""
    N = zigzag_poset()
    expr = operad_eval_zeta(N, [zhat(1), zhat(2), zhat(1), zhat(1)])
    published = "2*zhat_2 - 8*zhat_3 + 5*zhat_4"
    terms = expr.zeta_terms()
    derived = " ".join(f"{'+' if v > 0 and i else ''}{v}*zhat_{k}"
                       for i, (k, v) in enumerate(terms))
    expected = {3: Fraction(2), 4: Fraction(-8), 5: Fraction(7)}
    confirmed = dict(terms) == expected
    return Discrepancy(
        "quaternary-zeta-example", published, derived,
        "rebuilt from the composite's d-vector (0,0,2,8,7) with the "
        "alternating sign rule; indices shift up by one and the top "
        "coefficient is 7",
        confirmed)


def points_expansion_sign_discrepancy():
    """The printed expansion identity for a disjoint union of points drops
    an alternating sign when the right side is reindexed."""
    x = MonomialPoly({1: 1})
    one = MonomialPoly({0: 1})
    one_minus_x = one - x

    def lhs(n):
        total = MonomialPoly({})
        for k in range(1, n + 1):
            term = x ** (k - 1) * one_minus_x ** (n - k)
            total = total + term.scale(
                Fraction(stirling2(n, k)) * factorial(k))
        return total

    def printed_rhs(n):
        total = MonomialPoly({})
        for k in range(1, n + 1):
            total = total + (one_minus_x ** k).scale(
                Fraction(stirling2(n, n - k)) * factorial(n - k))
        return total

    def corrected_rhs(n):
        total = MonomialPoly({})
        for k in range(1, n + 1):
            total = total + (one_minus_x ** (n - k)).scale(
                Fraction((-1) ** (n - k) * stirling2(n, k)) * factorial(k))
        return total

    printed_fails = lhs(2) != printed_rhs(2)
    corrected_holds = all(lhs(n) == corrected_rhs(n) for n in range(1, 7))
    return Discrepancy(
        "points-expansion-sign",
        "sum_k k! S(n,k) x^(k-1) (1-x)^(n-k) = sum_k (n-k)! S(n,n-k) (1-x)^k",
        "sum_k k! S(n,k) x^(k-1) (1-x)^(n-k) "
        "= sum_k (-1)^(n-k) k! S(n,k) (1-x)^(n-k)  (verified n <= 6)",
        "the printed right side already fails at n=2 (gives 1-x against "
        "1+x); restoring the alternating sign fixes it",
        printed_fails and corrected_holds)


def known_discrepancies():
    """The three flagged inconsistencies, deterministically ordered."""
    return (
        points_expansion_sign_discrepancy(),
        quaternary_low_term_discrepancy(),
        quaternary_zeta_example_discrepancy(),
    )
