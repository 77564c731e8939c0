"""Counting order-preserving maps, inclusion-exclusion d-vectors, and
reciprocity checking.

One engine counts: the d-vector, d_i = the number of strict surjections
P -> chain(i), which is both the strict order polynomial over {C(x, i)}
and the strict order series over Z_i.  It is read off the series-parallel
decomposition of P (``poset.decompose``), as the paper's operad does: a
disjoint union multiplies its parts' vectors by the Hadamard product
(``polynomials.cup_coeffs``), an ordinal sum by the ordinal product
(``polynomials.ordinal_coeffs``).  Only a point or a prime piece, which
neither operation splits, runs the DP over its downsets, which are
enumerated in time proportional to their number (``poset.downsets``).
Every map count is then an evaluation of the order polynomial; the weak
count follows by reciprocity.  The literal counters (backtracking along a
linear extension, subset sums over downset multichains) live in
``tests/oracles.py`` as independent referees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb

from .errors import EnumerationGuard, PosetOperadError
from .polynomials import (BinomialPoly, cup_coeffs, ordinal_coeffs,
                          weak_sign_flip)
from .poset import (Poset, _bits, chain, decompose, downsets,
                    max_chain_length)

DEFAULT_GUARD = 12


def check_guard(size, guard):
    """Refuse to count on a poset of more than ``guard`` elements."""
    if size > guard:
        raise EnumerationGuard(f"|P| = {size} exceeds enumeration guard {guard}")


def _prime_coeffs(below, mask):
    """{i: d_i} of the piece on ``mask`` by the downset DP.

    f_D(x) = sum_i x^i (number of chains of i+1 downsets from the empty
    one to D whose successive differences are nonempty antichains), so
    f_D = x * sum_S f_(D - S) over the nonempty sets S of maximal elements
    of D, and d_i is the coefficient of x^i in f_P.  Each f_D is held at
    x = 2^B: no coefficient reaches 2^B, so the digits do not carry and one
    integer addition adds whole polynomials.
    """
    k = mask.bit_count()
    B = (k ** k).bit_length()  # coefficients count surjections, <= k^k
    f = {0: 1}
    for m in downsets(below, mask)[1:]:  # ascending: each D - S comes first
        covered = 0
        for i in _bits(m):
            covered |= below[i]
        top = m & ~covered
        total = 0
        s = top
        while s:
            total += f[m ^ s]
            s = (s - 1) & top
        f[m] = total << B
    digit = (1 << B) - 1
    return {i: f[mask] >> (B * i) & digit for i in range(1, k + 1)}


def _strict_coeffs(below, tree):
    """{i: d_i} of the subposet a decomposition tree describes: products
    of the parts' vectors, and the DP on points and prime pieces."""
    if isinstance(tree, int):
        return _prime_coeffs(below, tree)
    op, parts = tree
    product = cup_coeffs if op == "|" else ordinal_coeffs
    return reduce(product, (_strict_coeffs(below, t) for t in parts))


def count_maps(P, n, mode="strict", guard=DEFAULT_GUARD):
    """Number of maps P -> chain(n) preserving order strictly or weakly:
    the order polynomial of that mode evaluated at n."""
    check_guard(len(P), guard)
    if n < 0:
        raise ValueError("n must be nonnegative")
    basis = "multiset" if mode == "weak" else "binomial"
    return int(order_polynomial(P, mode, guard).eval(n, basis))


def count_strict_surjections(P, m, guard=DEFAULT_GUARD):
    """Strict order-preserving maps from P onto chain(m) (direct search)."""
    check_guard(len(P), guard)
    k = len(P)
    if k == 0:
        return 1 if m == 0 else 0
    if m > k:
        return 0
    order = sorted(range(k), key=lambda i: P.below_mask(i).bit_count())
    place = {elem: t for t, elem in enumerate(order)}
    preds = [[place[j] for j in _bits(P.below_mask(elem))] for elem in order]
    vals = [0] * k
    full = (1 << m) - 1

    def rec(t, used):
        if t == k:
            return 1 if used == full else 0
        missing = m - used.bit_count()
        if missing > k - t:
            return 0
        lo = 1
        for s in preds[t]:
            lo = max(lo, vals[s] + 1)
        total = 0
        for v in range(lo, m + 1):
            vals[t] = v
            total += rec(t + 1, used | (1 << (v - 1)))
        return total

    return rec(0, 0)


@dataclass(frozen=True)
class DVector:
    """Inclusion-exclusion vector d_1..d_|P| of a poset.

    d_i counts the strict surjections onto chain(i), equivalently the
    i-simplices in the canonical triangulation of the order polytope.
    """

    poset: Poset
    d: tuple

    def __post_init__(self):
        r0 = max_chain_length(self.poset)
        if not all(isinstance(v, int) and v >= 0 for v in self.d):
            raise PosetOperadError(f"d-vector entries must be nonnegative "
                                   f"integers: {self.d}")
        if any(self.d[i - 1] for i in range(1, r0)):
            raise PosetOperadError(f"d_i must vanish below the longest "
                                   f"chain length {r0}: {self.d}")
        if len(self.poset) and self.d[-1] < 1:
            raise PosetOperadError(f"top entry must count linear extensions "
                                   f"(>= 1): {self.d}")

    def to_json_dict(self):
        return {"poset": self.poset.to_json_dict(), "d": list(self.d)}


@lru_cache(maxsize=None)
def d_vector(P, guard=DEFAULT_GUARD):
    """d_i = number of strict surjections P -> chain(i), read off the
    series-parallel decomposition of P (``poset.decompose``)."""
    check_guard(len(P), guard)
    below = [P.below_mask(i) for i in range(len(P))]
    d = _strict_coeffs(below, decompose(P))
    return DVector(P, tuple(d.get(i, 0) for i in range(1, len(P) + 1)))


def order_polynomial(P, mode="strict", guard=DEFAULT_GUARD):
    """Strict: sum_i d_i C(x,i).  Weak: the signed vector
    (-1)^(|P|-i) d_i read against the multiset basis (eval mode
    "multiset").  The empty poset gives the constant 1 in both modes."""
    dv = d_vector(P, guard)
    k = len(P)
    if k == 0:
        return BinomialPoly({0: 1})
    strict = {i + 1: v for i, v in enumerate(dv.d)}
    if mode == "strict":
        return BinomialPoly(strict)
    if mode == "weak":
        return BinomialPoly(weak_sign_flip(strict, k))
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class ReciprocityReport:
    poset: Poset
    strict_poly: BinomialPoly
    weak_poly: BinomialPoly
    passed: bool

    def to_json_dict(self):
        return {"poset": self.poset.to_json_dict(),
                "strict_poly": self.strict_poly.to_json_dict(),
                "weak_poly": self.weak_poly.to_json_dict(),
                "pass": self.passed}


def reciprocity_check(P, guard=DEFAULT_GUARD):
    """Verify (-1)^|P| Omega_strict(P, -x) = Omega_weak(P, x) exactly."""
    strict_poly = order_polynomial(P, "strict", guard)
    weak_poly = order_polynomial(P, "weak", guard)
    lhs = strict_poly.to_monomial("binomial").neg_x().scale((-1) ** len(P))
    rhs = weak_poly.to_monomial("multiset")
    return ReciprocityReport(P, strict_poly, weak_poly, lhs == rhs)


@dataclass(frozen=True)
class NestedSumReport:
    n: int
    k: int
    q: int
    binomial_value: int
    nested_value: int
    weak_map_count: int
    passed: bool

    def to_json_dict(self):
        return {"n": self.n, "k": self.k, "q": self.q,
                "binomial": self.binomial_value,
                "nested_sum": self.nested_value,
                "weak_maps": self.weak_map_count,
                "pass": self.passed}


def nested_sum_identity_check(n, k, q):
    """C(n+k-q, k) vs the k-fold nested sum with all indices >= q, vs the
    weak map count chain(k) -> chain(n-q+1)."""
    if not (1 <= q <= n and k >= 1):
        raise ValueError("need 1 <= q <= n and k >= 1")

    def nested(depth, hi):
        if depth == 0:
            return 1
        return sum(nested(depth - 1, i) for i in range(q, hi + 1))

    b = comb(n + k - q, k)
    s = nested(k, n)
    w = count_maps(chain(k), n - q + 1, "weak")
    return NestedSumReport(n, k, q, b, s, w, b == s == w)


def enumeration_report(P, guard=DEFAULT_GUARD, discrepancies=()):
    """JSON-ready report bundling the d-vector and both order polynomials."""
    return {
        "poset": P.to_json_dict(),
        "d": list(d_vector(P, guard).d),
        "strict_poly": order_polynomial(P, "strict", guard).to_json_dict(),
        "weak_poly": order_polynomial(P, "weak", guard).to_json_dict(),
        "discrepancies": list(discrepancies),
    }
