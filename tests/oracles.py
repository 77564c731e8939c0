"""Independent brute-force referees used by the tests.

Everything here enumerates exhaustively or works on label pairs, and stays
deliberately naive; the production code must agree with these on small
instances.
"""

from fractions import Fraction
from itertools import chain as chained, permutations, product
from math import comb, factorial, lcm

from posetoperad import zeta
from posetoperad.catalog import _extensions
from posetoperad.counting import count_maps
from posetoperad.errors import PrecisionUnachievable, Record
from posetoperad.polynomials import (BinomialPoly, MonomialPoly, SparseVec,
                                     binomial)
from posetoperad.poset import (Poset, chain, disjoint_union, downsets,
                               ordinal_sum, poset_from_masks)
from posetoperad.series import ClosedForm


def naive_count_maps(P, n, mode):
    """Full enumeration over all |P|-tuples of values in [n]."""
    rel = list(P.index_pairs())
    count = 0
    for f in product(range(n), repeat=len(P)):
        if mode == "strict":
            if all(f[i] < f[j] for i, j in rel):
                count += 1
        else:
            if all(f[i] <= f[j] for i, j in rel):
                count += 1
    return count


def backtracking_count_maps(P, n, mode):
    """Assign values along a linear extension, each element bounded below
    by its predecessors.  Cost grows with the count itself."""
    if mode not in ("strict", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    k = len(P)
    order = sorted(range(k), key=lambda i: P.below_mask(i).bit_count())
    place = {elem: t for t, elem in enumerate(order)}
    preds = [[place[j] for j in range(k) if P.below_mask(elem) >> j & 1]
             for elem in order]
    strict = mode == "strict"
    vals = [0] * k

    def rec(t):
        if t == k:
            return 1
        lo = 1
        for s in preds[t]:
            lo = max(lo, vals[s] + 1 if strict else vals[s])
        total = 0
        for v in range(lo, n + 1):
            vals[t] = v
            total += rec(t + 1)
        return total

    return rec(0)


def subset_sum_weak_count(P, n):
    """Weak maps = multichains of n downsets ending at P, via repeated
    subset-sum transforms over all 2^|P| masks; O(n |P| 2^|P|)."""
    k = len(P)
    size = 1 << k
    is_downset = [all(P.below_mask(i) & ~m == 0
                      for i in range(k) if m >> i & 1)
                  for m in range(size)]
    vec = [0] * size
    vec[0] = 1
    for _ in range(n):
        arr = [v if ok else 0 for v, ok in zip(vec, is_downset)]
        for b in range(k):
            bit = 1 << b
            for m in range(size):
                if m & bit:
                    arr[m] += arr[m ^ bit]
        vec = arr
    return vec[size - 1]


def lattice_weak_counts(P):
    """Omega_weak(P, n) for n = 0..|P| on the downset lattice of all of P:
    a weak map onto chain(n) is a multichain of n - 1 downsets, counted by
    n zeta transforms, each adding f(D - e) into f(D) for every downset
    D - e, e in a linear extension order."""
    below, full = P._below, (1 << len(P)) - 1
    f = dict.fromkeys(downsets(below, full), 0)
    f[0] = 1
    steps = [(d, d ^ 1 << e)
             for e in sorted(range(len(P)), key=lambda e: below[e].bit_count())
             for d in f if d >> e & 1 and d ^ 1 << e in f]
    counts = [f[full]]
    for _ in range(len(P)):
        for d, sub in steps:
            f[d] += f[sub]
        counts.append(f[full])
    return counts


def mask_scan_downsets(P, mask=None):
    """Downsets of the subposet on ``mask`` (default: all of P), in
    ascending order, by testing every one of the 2^|P| masks."""
    k = len(P)
    if mask is None:
        mask = (1 << k) - 1
    return [m for m in range(1 << k)
            if m & ~mask == 0
            and all(P.below_mask(i) & mask & ~m == 0
                    for i in range(k) if m >> i & 1)]


def downset_strict_vector(P):
    """d_1..d_|P| by the downset recursion over all 2^|P| masks: d_i counts
    the chains of i + 1 downsets from the empty one to P whose successive
    differences are nonempty antichains, each one a level of a strict
    surjection onto chain(i)."""
    k = len(P)
    chains = {0: [1] + [0] * k}  # downset -> chain counts by length
    for down in mask_scan_downsets(P)[1:]:
        covered = 0
        for i in range(k):
            if down >> i & 1:
                covered |= P.below_mask(i)
        top = down & ~covered  # the maximal elements of the downset
        counts = [0] * (k + 1)
        drop = top
        while drop:
            for i, c in enumerate(chains[down ^ drop][:k]):
                counts[i + 1] += c
            drop = (drop - 1) & top
        chains[down] = counts
    return tuple(chains[(1 << k) - 1][1:])


def naive_strict_surjections(P, m):
    rel = list(P.index_pairs())
    full = set(range(m))
    count = 0
    for f in product(range(m), repeat=len(P)):
        if set(f) == full and all(f[i] < f[j] for i, j in rel):
            count += 1
    return count


def naive_linear_extensions(P):
    """Order-preserving bijections onto the chain of size |P|."""
    k = len(P)
    rel = list(P.index_pairs())
    count = 0
    for perm in permutations(range(k)):
        if all(perm[i] < perm[j] for i, j in rel):
            count += 1
    return count


def naive_max_chain(P):
    k = len(P)
    best = 0
    idx_rel = P.index_pairs()
    for mask in range(1 << k):
        members = [i for i in range(k) if mask >> i & 1]
        if all((a, b) in idx_rel or (b, a) in idx_rel
               for t, a in enumerate(members) for b in members[t + 1:]):
            best = max(best, len(members))
    return best


def descent_eulerian(n, i):
    """Permutations of [n] with exactly i descents."""
    count = 0
    for perm in permutations(range(n)):
        descents = sum(1 for t in range(n - 1) if perm[t] > perm[t + 1])
        if descents == i:
            count += 1
    return count


def explicit_eulerian(n, i):
    """A(n, i) by the explicit alternating sum
    sum_(r<=i) (-1)^r C(n+1, r) (i+1-r)^n."""
    return sum((-1) ** r * comb(n + 1, r) * (i + 1 - r) ** n
               for r in range(i + 1))


def explicit_stirling2(n, k):
    """S(n, k) by the explicit sum sum_j (-1)^(k-j) C(k, j) j^n / k!."""
    total = sum((-1) ** (k - j) * comb(k, j) * j ** n for j in range(k + 1))
    return total // factorial(k)


def partition_stirling2(n, k):
    """Set partitions of [n] into exactly k blocks, by direct enumeration."""
    if n == 0:
        return 1 if k == 0 else 0

    def rec(elem, blocks):
        if elem == n:
            return 1 if len(blocks) == k else 0
        total = 0
        for b in blocks:
            b.append(elem)
            total += rec(elem + 1, blocks)
            b.pop()
        if len(blocks) < k:
            blocks.append([elem])
            total += rec(elem + 1, blocks)
            blocks.pop()
        return total

    return rec(0, [])


def has_induced_zigzag(P):
    """True when some 4 elements induce the one non-series-parallel shape
    a<b, c<b, c<d (and no other comparabilities among them)."""
    k = len(P)
    idx_rel = P.index_pairs()

    def rel(a, b):
        return (a, b) in idx_rel

    for quad in permutations(range(k), 4):
        a, b, c, d = quad
        wanted = {(a, b), (c, b), (c, d)}
        others = {(x, y) for x in quad for y in quad if x != y} - wanted
        if all(rel(x, y) for x, y in wanted) and not any(rel(x, y) for x, y in others):
            return True
    return False


def deep_series_parallel(n):
    """The n-element poset built from a point by putting one more point
    beside it, then above it, in turn, on labels x0, x1, ...: its
    decomposition tree is about n levels deep, yet its brace literal has
    about one relation per element."""
    P = chain(1)
    for i in range(1, n):
        P = (disjoint_union if i % 2 else ordinal_sum)(P, chain(1))
    return Poset([f"x{i}" for i in range(n)], P._below)


def poset_from_relation(elements, relation):
    """A Poset from its closed relation given as label pairs, by setting
    one bit per pair; trusts the pairs to be closed and acyclic."""
    idx = {a: i for i, a in enumerate(elements)}
    below = [0] * len(idx)
    for a, b in relation:
        below[idx[b]] |= 1 << idx[a]
    return Poset(elements, below)


def label_lex_sum(outer, inner):
    """Lexicographic sum built from "slot.inner" label pairs: the pairs of
    each block, plus every pair across blocks on related outer slots."""
    labels, blocks, rel = [], [], set()
    for slot, block in zip(outer.elements, inner):
        names = [f"{slot}.{e}" for e in block.elements]
        blocks.append(names)
        labels.extend(names)
        rel.update((f"{slot}.{a}", f"{slot}.{b}") for a, b in block.relation)
    for a, b in outer.index_pairs():
        rel.update((x, y) for x in blocks[a] for y in blocks[b])
    return poset_from_relation(labels, rel)


def closed_form_expand(cf, terms):
    """First ``terms`` power-series coefficients of num(x) / (1-x)^p."""
    p = cf.den_power
    return [sum((c * binomial(t - j + p - 1, p - 1)
                 for j, c in enumerate(cf.numerator) if j <= t), Fraction(0))
            for t in range(terms)]


def power_sum_closed_form(S):
    """The closed form by its definition: the numerator
    sum_i c_i lead_i (1-x)^(m-i), lead_i = x^i (strict) or x (weak), with
    each power of (1-x) built by repeated multiplication."""
    m = S.max_index()
    one_minus_x = MonomialPoly({0: 1, 1: -1})
    num = MonomialPoly({})
    for i, c in S.coeffs.items():
        term = MonomialPoly({i if S.mode == "strict" else 1: c})
        for _ in range(m - i):
            term = term * one_minus_x
        num = num + term
    return ClosedForm(tuple(num.coeff(t) for t in range(num.max_index() + 1)),
                      m + 1, S.mode)


def dfs_closure(n, covers):
    """Strict-below masks of the relation generated by the index pairs
    (a, b), a below b, on elements 0..n-1: what a depth-first search down
    the pairs reaches from each element (an element on a cycle reaches
    itself)."""
    down = [[] for _ in range(n)]
    for a, b in covers:
        down[b].append(a)
    masks = []
    for i in range(n):
        seen, stack = set(), list(down[i])
        while stack:
            j = stack.pop()
            if j not in seen:
                seen.add(j)
                stack.extend(down[j])
        masks.append(sum(1 << j for j in seen))
    return masks


def poly_from_json(d):
    cls = {"binomial": BinomialPoly, "monomial": MonomialPoly}.get(d["basis"])
    if cls is None:
        raise ValueError(f"unknown basis {d['basis']!r}")
    return cls(SparseVec.coeffs_from_json(d))


def triangulation_profile(dv):
    """dimension -> simplex count of the d-vector's triangulation, highest
    dimension first."""
    return {i + 1: v for i, v in sorted(enumerate(dv.d), reverse=True) if v}


def x_power(n):
    return MonomialPoly({n: 1})


def labeled_masks(n):
    """Yield every labeled poset on elements 0..n-1 as a tuple of
    strict-below bitmasks (transitively closed)."""
    if n == 0:
        yield ()
        return
    for down in labeled_masks(n - 1):
        yield from (below for below, _ in _extensions(poset_from_masks(down)))


class NestedSumReport(Record):
    __slots__ = ("n", "k", "q", "binomial_value", "nested_value",
                 "weak_map_count", "passed")


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


def fraction_series_cap(M, D, tol, cap):
    """The series cap in Fraction powers: try N until the exact majorant
    M (N+1)^D 2^-(N+1) / (1 - q), q = (N+2)^D / (2 (N+1)^D) < 1, falls
    below the exact tol / 2."""
    N = max(8, 2 * D + 2)
    while N <= cap:
        q = Fraction((N + 2) ** D, 2 * (N + 1) ** D)
        if q < 1:
            t = M * Fraction((N + 1) ** D, 2 ** (N + 1)) / (1 - q)
            if t < Fraction(tol) / 2:
                return N, t
        N = N + max(4, N // 4)
    raise PrecisionUnachievable(
        f"series cap {cap} cannot push the tail below "
        f"{zeta._sci_up(Fraction(tol) / 2)}")


def fraction_verdict(lhs, rhs, bound, ctx):
    """(the bound rounded up to a float, PASS) in Fractions: a bound above
    the tolerance raises, and PASS is |lhs - rhs| <= bound + tolerance."""
    if bound > ctx.verify_tolerance:
        raise PrecisionUnachievable(
            f"error bound {zeta._sci_up(bound)} exceeds tolerance "
            f"{ctx.verify_tolerance:.3e}; raise the working digits")
    return (zeta._float_up(bound),
            abs(lhs - rhs) <= bound + Fraction(ctx.verify_tolerance))


def fraction_eval_numeric(expr, ctx):
    """The value and bound of ``ZetaExpr.fixed_point`` as a Dyadic and a
    Fraction, with each term floored from its Fraction product
    v * zeta(k+1), and the bound summed term by term in Fractions."""
    B = zeta._borwein_size(ctx.working_digits)[1]
    terms = expr.zeta_terms()
    total = zeta._fixed(expr.constant, B)
    bound = Fraction(len(terms) + 1, 1 << B)
    for k, v in terms:
        zv, zb = zeta.zeta_value(k + 1, ctx)
        total += zeta._fixed(v * zv, B)
        bound += abs(v) * Fraction(zb)
    return zeta.Dyadic(total, 1 << B), bound


def hockey_stick_weight(values):
    """sum_j |Delta^j v(0)| C(T, j + 1) for the T values v(0..T-1): the
    differences are taken of the values themselves, each order one shorter,
    and no order past the last nonzero one counts."""
    T, weight, j = len(values), 0, 0
    while any(values):
        weight += abs(values[0]) * comb(T, j + 1)
        values = [b - a for a, b in zip(values, values[1:])]
        j += 1
    return weight


def fraction_verify_identity(rec, ctx):
    """verify_identity with every LHS term built from Fraction products:
    p(k) by poly.eval, times the sign and zeta(k+1) - 1, summed exactly and
    floored once, and the bound summed in Fractions from the weight of the
    p(k) and one floor per term."""
    if rec.lhs_poly is None:
        raise ValueError("record carries no summable polynomial")
    poly = rec.lhs_poly
    M = sum((abs(v) for v in poly.coeffs.values()), Fraction(0))
    N, tail = fraction_series_cap(M, poly.max_index(), ctx.verify_tolerance,
                                  ctx.series_term_cap)
    B = zeta._borwein_size(ctx.working_digits)[1]
    ks = range(max(rec.start_index, 1), N + 1)
    values = [poly.eval(k) for k in ks]
    exact = Fraction(0)
    for k, pk in zip(ks, values):
        sign = (-1) ** (k + 1) if rec.alternating else 1
        exact += sign * pk * zeta.zeta_value(k + 1, ctx, minus_one=True)[0]
    lhs_val = zeta.Dyadic(zeta._fixed(exact, B), 1 << B)
    zb = Fraction(zeta.zeta_value(2, ctx)[1])
    rhs_val, rhs_bound = fraction_eval_numeric(rec.rhs, ctx)
    bound, passed = fraction_verdict(
        lhs_val, rhs_val, tail + hockey_stick_weight(values) * zb + rhs_bound
        + Fraction(len(ks), 1 << B), ctx)
    return rec._replace(lhs_numeric=lhs_val, rhs_numeric=rhs_val,
                        error_bound=bound, passed=passed,
                        notes=rec.notes + (f"lhs summed to k={N}",))


def comb_verify_identity(rec, ctx):
    """verify_identity term by term: q = sum_i c_i C(k, i) by math.comb at
    each k, one zeta_value call per term, the signed products summed
    exactly and floored once by L, and the weight of the q and one floor
    per term in the bound."""
    if rec.lhs_poly is None:
        raise ValueError("record carries no summable polynomial")
    poly = rec.lhs_poly
    L = lcm(*(v.denominator for v in poly.coeffs.values()))
    coeffs = [(i, v.numerator * (L // v.denominator))
              for i, v in poly.coeffs.items()]
    M = Fraction(sum(abs(c) for _, c in coeffs), L)
    N, tail = zeta._choose_series_cap(M, poly.max_index(),
                                      ctx.verify_tolerance,
                                      ctx.series_term_cap)
    B = zeta._borwein_size(ctx.working_digits)[1]
    ks = range(max(rec.start_index, 1), N + 1)
    qs = [sum(c * comb(k, i) for i, c in coeffs) for k in ks]
    total = 0
    for k, q in zip(ks, qs):
        zv, _ = zeta.zeta_value(k + 1, ctx, minus_one=True)
        if rec.alternating and k % 2 == 0:
            q = -q
        total += q * zeta._fixed(zv, B)
    lhs_val = zeta.Dyadic(total // L, 1 << B)
    zb = zeta._fixed(zeta.zeta_value(2, ctx)[1], B)
    rhs_val, rhs_bound = fraction_eval_numeric(rec.rhs, ctx)
    ulps = hockey_stick_weight(qs) * zb + len(ks) * L
    bound, passed = fraction_verdict(
        lhs_val, rhs_val, tail + Fraction(ulps, L << B) + rhs_bound, ctx)
    return rec._replace(lhs_numeric=lhs_val, rhs_numeric=rhs_val,
                        error_bound=bound, passed=passed,
                        notes=rec.notes + (f"lhs summed to k={N}",))


def _color_refinement(below, above):
    n = len(below)
    colors = [(below[i].bit_count(), above[i].bit_count()) for i in range(n)]
    for _ in range(n):
        keys = [(colors[i],
                 tuple(sorted(colors[j] for j in range(n)
                              if below[i] >> j & 1)),
                 tuple(sorted(colors[j] for j in range(n)
                              if above[i] >> j & 1)))
                for i in range(n)]
        ranks = {k: r for r, k in enumerate(sorted(set(keys)))}
        new = [ranks[k] for k in keys]
        if new == colors:
            break
        colors = new
    return colors


def refined_search_key(P):
    """canonical_key by its definition: the least sorted relation tuple over
    every permutation inside the color refinement classes, twins and all."""
    n = len(P)
    below = [P.below_mask(i) for i in range(n)]
    above = [P.above_mask(i) for i in range(n)]
    pairs = list(P.index_pairs())
    classes = {}
    for i, c in enumerate(_color_refinement(below, above)):
        classes.setdefault(c, []).append(i)
    pos = [0] * n
    best = None
    for parts in product(*(permutations(classes[c]) for c in sorted(classes))):
        for t, old in enumerate(chained(*parts)):
            pos[old] = t
        key = tuple(sorted((pos[a], pos[b]) for a, b in pairs))
        if best is None or key < best:
            best = key
    return (n, best)
