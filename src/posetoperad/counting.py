"""Counting order-preserving maps, inclusion-exclusion d-vectors, and
reciprocity checking.

One engine counts: a DP over the lattice of downsets.  A strict map into
the n-chain is a chain of downsets whose successive differences are
antichains, so |P| DP steps give Omega_strict(P, 0..|P|) and, by
inclusion-exclusion, the d-vector.  Every map count is then an evaluation
of the order polynomial built from the d-vector; the weak count follows by
reciprocity.  The literal counters (backtracking along a linear extension,
subset sums over downset multichains) live in ``tests/oracles.py`` as
independent referees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import EnumerationGuard, PosetOperadError
from .polynomials import BinomialPoly, weak_sign_flip
from .poset import Poset, _bits, max_chain_length

DEFAULT_GUARD = 12


def _check_guard(P, guard):
    if len(P) > guard:
        raise EnumerationGuard(f"|P| = {len(P)} exceeds enumeration guard {guard}")


@lru_cache(maxsize=None)
def _downsets(P: Poset):
    """All downset bitmasks of P, ascending by popcount."""
    n = len(P)
    masks = [m for m in range(1 << n)
             if all(P.below_mask(i) & ~m == 0 for i in _bits(m))]
    masks.sort(key=lambda m: (m.bit_count(), m))
    return tuple(masks)


@lru_cache(maxsize=None)
def _strict_transitions(P: Poset):
    """For each downset D: positions of the downsets D \\ S with S any subset
    of the maximal elements of D (each such S is an antichain)."""
    masks = _downsets(P)
    pos = {m: t for t, m in enumerate(masks)}
    trans = []
    for m in masks:
        mx = 0
        for i in _bits(m):
            if P.above_mask(i) & m == 0:
                mx |= 1 << i
        preds = []
        s = mx
        while True:
            preds.append(pos[m ^ s])
            if s == 0:
                break
            s = (s - 1) & mx
        trans.append(tuple(preds))
    return trans


def count_maps(P, n, mode="strict", guard=DEFAULT_GUARD):
    """Number of maps P -> chain(n) preserving order strictly or weakly:
    the order polynomial of that mode evaluated at n."""
    _check_guard(P, guard)
    if n < 0:
        raise ValueError("n must be nonnegative")
    basis = "multiset" if mode == "weak" else "binomial"
    return int(order_polynomial(P, mode, guard).eval(n, basis))


def count_strict_surjections(P, m, guard=DEFAULT_GUARD):
    """Strict order-preserving maps from P onto chain(m) (direct search)."""
    _check_guard(P, guard)
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

    def triangulation_profile(self):
        """dimension -> simplex count, highest dimension first."""
        return {i + 1: v for i, v in sorted(enumerate(self.d), reverse=True) if v}

    def to_json_dict(self):
        return {"poset": self.poset.to_json_dict(), "d": list(self.d)}


@lru_cache(maxsize=None)
def d_vector(P, guard=DEFAULT_GUARD):
    """d_i = sum_{j<=i} (-1)^(i-j) C(i,j) Omega_strict(P, j)."""
    _check_guard(P, guard)
    k = len(P)
    trans = _strict_transitions(P)
    vec = [0] * len(trans)
    vec[0] = 1  # empty downset after zero value levels
    counts = [vec[-1]]  # Omega_strict(P, j) for j = 0..k; last downset is P
    for _ in range(k):
        vec = [sum(vec[t] for t in preds) for preds in trans]
        counts.append(vec[-1])
    d = tuple(sum((-1) ** (i - j) * comb(i, j) * counts[j]
                  for j in range(i + 1))
              for i in range(1, k + 1))
    return DVector(P, d)


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

    from .poset import chain  # local import to keep module top light

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
