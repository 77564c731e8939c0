"""Counting order-preserving maps, inclusion-exclusion d-vectors, and
reciprocity checking.

One engine counts: the d-vector, d_i = the number of strict surjections
P -> chain(i), which is both the strict order polynomial over {C(x, i)}
and the strict order series over Z_i.  It is one ``poset.fold`` over the
substitution decomposition of P, as the paper's operad composes posets:
Hadamard products (``polynomials.cup_coeffs``) at disjoint unions,
ordinal products (``polynomials.ordinal_coeffs``) at ordinal sums, and
at prime quotients one DP over the levels of a surjection, each block, a
point or a module, weighted by its own vector.  With any rational vectors
in the slots the same fold is the operad action on series, and the
d-vector is that action with a point in every slot.  Every map count is
then an evaluation of the order polynomial; the weak count follows by
reciprocity, which ``reciprocity_check`` tests against weak map counts
folded over the same tree, without the d-vector.  The
literal counters (backtracking, subset sums over all masks, the downset
recursion and lattice) live in ``tests/oracles.py`` as independent referees.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from math import lcm, prod
from operator import mul

from .errors import EnumerationGuard, PosetOperadError, Record
from .polynomials import (BinomialPoly, cup_coeffs, ordinal_coeffs,
                          weak_sign_flip)
from .poset import _bits, downsets, fold, max_chain_length

DEFAULT_GUARD = 12


def check_guard(size, guard):
    """Refuse to count on a poset of more than ``guard`` elements."""
    if size > guard:
        raise EnumerationGuard(f"|P| = {size} exceeds enumeration guard {guard}")


def _block_dp(below, ids, vectors):
    """{m: c_m} of the lexicographic sum over the order ``below`` on the
    blocks ``ids`` (a mask), block i carrying the integer vector vectors[i].
    Read level by level, a block starts after those below it close and
    counts c_k if it closes after k levels.  A state is a downset D of the
    composite with a K-chain per block (K its top index), a closed block
    full; f_D(x), the weighted ways to reach D in m levels, is x times the
    sum of f over the states that drop a nonempty set of D's maximal
    elements: the top level of an open block, or of a block whose one
    weight is factored out, or levels k..K of a closed block, weighted c_k.
    With points only this is the downset DP.  f is held at x = 2^B, B
    above every coefficient and its sign: one addition adds polynomials."""
    spans, size, order, bound, factor, close = {}, 0, [], 1, 1, {}
    for i in sorted(_bits(ids), key=lambda i: below[i].bit_count()):
        vec = vectors[i]
        if 0 in vec:  # the unit, the empty poset, deletes block i
            rest = {k: c for k, c in vec.items() if k}
            out = _block_dp(below, ids, vectors[:i] + [rest]
                            + vectors[i + 1:]) if rest else {}
            for m, c in _block_dp(below, ids ^ 1 << i, vectors).items():
                out[m] = out.get(m, 0) + c * vec[0]
            return out
        pred = sum(map(spans.__getitem__, _bits(below[i] & ids)))
        span = spans[i] = ((1 << max(vec)) - 1) << size
        size = span.bit_length()
        level = first = span & -span
        while level & span:  # the levels, in a linear extension
            order.append((pred | span & (level - 1), level))
            level <<= 1
        if len(vec) == 1:
            factor *= vec[max(vec)]
        else:
            bound *= sum(map(abs, vec.values()))
            close[level >> 1] = [(span & -(first << k - 1), c)
                                 for k, c in vec.items() if c]
    closers, B = sum(close), (bound * size ** size).bit_length() + 1
    states, f = [(0, 0)], {0: 1}  # (downset, its maximal elements)
    for need, bit in order:  # subsets first (Squire, see poset.downsets)
        states += [(d | bit, top & ~need | bit)
                   for d, top in states if d & need == need]
    for d, top in states[1:]:
        plain, combos, total = top & ~closers, [(0, 1)], 0
        if plain != top:  # some block may close here, at one of its k
            for e in _bits(top ^ plain):
                combos += [(b | o, w * c) for b, w in combos
                           for o, c in close[1 << e]]
        for b, w in combos:
            part, sub = f[d ^ b] if b else 0, plain
            while sub:  # the subsets of the plain drops
                part += f[d ^ b ^ sub]
                sub = (sub - 1) & plain
            total += part if w == 1 else part * w
        f[d] = total << B
    # balanced digits, as a coefficient may be < 0: add 2^(B-1) to each
    bias = ((1 << B * (size + 1)) - 1) // ((1 << B) - 1) << (B - 1)
    value = f[(1 << size) - 1] + bias
    return {m: c * factor for m in range(size + 1)
            if (c := (value >> B * m & (1 << B) - 1) - (1 << B - 1))}


def _strict_node(kind, quotient, parts, mask):
    """{i: c_i} of a node of the decomposition from its parts' vectors."""
    if kind == "Q":
        return _block_dp(quotient, (1 << len(parts)) - 1, parts)
    return reduce(cup_coeffs if kind == "|" else ordinal_coeffs, parts)


def substitute_coeffs(P, slots):
    """The operad action on nonzero rational vectors: {i: c_i} of P with
    slot j carrying slots[j], folded over ``poset.decompose(P)``; it is
    linear in each slot, so it runs on the slots scaled to integers."""
    dens = [lcm(*(c.denominator for c in vec.values())) for vec in slots]
    # leaf 1 << j reads slot j at j + 1, and 0, the empty poset, the unit
    ints = [{0: 1}] + [{k: c.numerator * (d // c.denominator)
                        for k, c in vec.items()} for vec, d in zip(slots, dens)]
    out = fold(P, lambda leaf: ints[leaf.bit_length()], _strict_node)
    den = prod(dens)
    return {m: c if den == 1 else Fraction(c, den) for m, c in out.items()}


def count_maps(P, n, mode="strict", guard=DEFAULT_GUARD):
    """Number of maps P -> chain(n) preserving order strictly or weakly:
    the order polynomial of that mode evaluated at n."""
    check_guard(len(P), guard)
    if n < 0:
        raise ValueError("n must be nonnegative")
    basis = "multiset" if mode == "weak" else "binomial"
    return int(order_polynomial(P, mode, guard).eval(n, basis))


class DVector(Record):
    """Inclusion-exclusion vector d_1..d_|P| of a poset.

    d_i counts the strict surjections onto chain(i), equivalently the
    i-simplices in the canonical triangulation of the order polytope.
    """

    __slots__ = ("poset", "d")

    def _check(self):
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


@lru_cache
def d_vector(P, guard=DEFAULT_GUARD):
    """d_i = number of strict surjections P -> chain(i): the operad action
    of ``substitute_coeffs`` with a point, {1: 1}, in every slot, folded
    directly, as those slots need no scaling to integers."""
    check_guard(len(P), guard)
    d = fold(P, lambda leaf: {1: 1} if leaf else {0: 1}, _strict_node)
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


class ReciprocityReport(Record):
    __slots__ = ("poset", "strict_poly", "weak_poly", "passed")


def _lattice_counts(below, mask, top):
    """Omega_weak(n) for n = 0..top of the subposet on ``mask``: a weak map
    onto chain(n) is a multichain of n - 1 downsets, so the count is
    zeta^n(empty, mask) on the downset lattice.  A zeta transform adds
    f(D - e) into f(D) for each downset D - e, e in a linear extension
    order, so every partial sum runs over downsets only."""
    f = dict.fromkeys(downsets(below, mask), 0)
    f[0] = 1
    steps = [(d, d ^ 1 << e)
             for e in sorted(_bits(mask), key=lambda e: below[e].bit_count())
             for d in f if d >> e & 1 and d ^ 1 << e in f]
    counts = [f[mask]]
    for _ in range(top):
        for d, sub in steps:
            f[d] += f[sub]
        counts.append(f[mask])
    return counts


def _stacked_counts(low, up):
    """Weak counts of an ordinal sum, L below U: the maps of L whose
    largest value is j, times the maps of U into j..n, summed over j."""
    steps = [b - a for a, b in zip(low, low[1:])]
    return [sum(map(mul, steps[:n], up[n:0:-1])) for n in range(len(low))]


def _weak_map_counts(P):
    """Omega_weak(n) for n = 0..|P|, folded over ``poset.decompose(P)``
    without the d-vector: a point gives n, a disjoint union multiplies its
    parts' counts and an ordinal sum stacks them; only a prime quotient
    counts on its downsets."""
    def node(kind, quotient, parts, mask):
        if kind == "Q":
            return _lattice_counts(P._below, mask, len(P))
        if kind == "|":
            return [prod(values) for values in zip(*parts)]
        return reduce(_stacked_counts, parts)
    return fold(P, lambda leaf: list(range(len(P) + 1)) if leaf else [1],
                node)


def reciprocity_check(P, guard=DEFAULT_GUARD):
    """Verify (-1)^|P| Omega_strict(P, -x) = Omega_weak(P, x) exactly: the
    weak polynomial, the strict one with its signs flipped, must give the
    |P| + 1 weak map counts of ``_weak_map_counts``.  Those fix a
    polynomial of degree |P|, and through the flip the d-vector.  The
    coefficients w_i are ints, on the multiset basis C(n + i - 1, i),
    whose difference in n lowers i by one.  So q_k(n) = sum_i w_i
    C(n + i - k - 1, i - k), with q_k(0) = w_k, is the sum of q_j(n - 1)
    over j >= k: each n costs one pass of prefix sums, and q_0 is the
    value."""
    strict_poly = order_polynomial(P, "strict", guard)
    weak_poly = BinomialPoly(weak_sign_flip(strict_poly.coeffs, len(P)))
    sums = [weak_poly.coeffs.get(k, 0) for k in range(len(P), -1, -1)]
    values = [sums[-1]]  # q_0(0); sums holds q_|P|, ..., q_0
    for _ in range(len(P)):
        sums = list(accumulate(sums))
        values.append(sums[-1])
    passed = values == _weak_map_counts(P)
    return ReciprocityReport(P, strict_poly, weak_poly, passed)


def enumeration_report(P, guard=DEFAULT_GUARD):
    """JSON-ready report bundling the d-vector and both order polynomials;
    its "discrepancies" list is always empty (the flagged misprints are
    ``verify-suite`` cases), kept for the v1 schema."""
    return {
        "poset": P.to_json_dict(),
        "d": list(d_vector(P, guard).d),
        "strict_poly": order_polynomial(P, "strict", guard).to_json_dict(),
        "weak_poly": order_polynomial(P, "weak", guard).to_json_dict(),
        "discrepancies": [],
    }
