"""Independent referees for the benchmark's expected outputs.

Nothing here imports posetoperad.  Expected values come from three routes:

- naive enumeration of order-preserving maps (small posets only);
- closed forms on expression trees: chains count C(x, n) strict and
  C(x+n-1, n) weak maps into [x], antichains x^n, disjoint unions multiply,
  and a lexicographic sum over a small outer poset sums, over interval
  assignments of its blocks, products of the blocks' end-hitting counts;
- mpmath.zeta for the numeric value of every zeta identity.

Expression trees are tuples: ("C", n), ("A", n), ("|", l, r), ("*", l, r)
and ("N", a, b, c, d), the zigzag {x<y,z<y,z<w} with its slots filled in
first-appearance order x, y, z, w.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import comb, factorial

ZIGZAG = "{x<y,z<y,z<w}"
ZIGZAG_RELS = ((0, 1), (2, 1), (2, 3))


# -- expression trees ------------------------------------------------------

def size(t):
    if t[0] in ("C", "A"):
        return t[1]
    return sum(size(c) for c in t[1:])


def render(t):
    """DSL text of a tree."""
    if t[0] in ("C", "A"):
        return f"{t[0]}{t[1]}"
    if t[0] in ("|", "*"):
        return f"({render(t[1])}{t[0]}{render(t[2])})"
    return ZIGZAG + "(" + ",".join(render(c) for c in t[1:]) + ")"


def lex_masks(outer_below, blocks):
    """Down-masks of the lexicographic sum: block i (a down-mask list) is
    substituted for outer element i, elements listed block by block."""
    offsets, pos = [], 0
    for blk in blocks:
        offsets.append(pos)
        pos += len(blk)
    out = []
    for i, blk in enumerate(blocks):
        cross = 0
        for j in range(len(blocks)):
            if outer_below[i] >> j & 1:
                cross |= ((1 << len(blocks[j])) - 1) << offsets[j]
        out += [(m << offsets[i]) | cross for m in blk]
    return out


def chain_masks(n):
    return [(1 << i) - 1 for i in range(n)]


def below_masks(t):
    """Down-masks (strictly below) of the poset a tree denotes, built
    directly from the tree; element order follows the slot order."""
    if t[0] == "C":
        return chain_masks(t[1])
    if t[0] == "A":
        return [0] * t[1]
    outer = {"|": [0, 0], "*": [0, 1]}.get(t[0])
    if outer is None:
        outer = [0] * 4
        for a, b in ZIGZAG_RELS:
            outer[b] |= 1 << a
    return lex_masks(outer, [below_masks(c) for c in t[1:]])


def height(below):
    """Size of the longest chain."""
    best = {}
    for i in sorted(range(len(below)), key=lambda i: below[i].bit_count()):
        best[i] = 1 + max((best[j] for j in range(len(below))
                           if below[i] >> j & 1), default=0)
    return max(best.values(), default=0)


def covers(below):
    """Cover pairs (a, b), a below b, of a closed down-mask list."""
    n = len(below)
    return [(a, b) for b in range(n) for a in range(n)
            if below[b] >> a & 1
            and not any(below[b] >> c & 1 and below[c] >> a & 1
                        for c in range(n))]


def hasse_text(below):
    """DSL brace literal with labels a, b, c, ... in element order."""
    lab = "abcdefghijklmnop"
    cov = covers(below)
    used = {e for pair in cov for e in pair}
    items = [lab[i] for i in range(len(below)) if i not in used]
    items = [f"{lab[a]}<{lab[b]}" for a, b in cov] + items
    # first-appearance order must be the element order for slots to line up
    order = []
    for it in items:
        for l in it.split("<"):
            if l not in order:
                order.append(l)
    if order != [lab[i] for i in range(len(below))]:
        items = [lab[i] for i in range(len(below))] + [
            f"{lab[a]}<{lab[b]}" for a, b in cov]
    return "{" + ",".join(items) + "}"


# -- naive enumeration -----------------------------------------------------

def naive_count(below, x, strict=True):
    """Order-preserving maps into [x] by full enumeration (|P| <= ~8)."""
    n = len(below)
    rel = [(j, i) for i in range(n) for j in range(n) if below[i] >> j & 1]
    if strict:
        return sum(all(f[a] < f[b] for a, b in rel)
                   for f in product(range(x), repeat=n))
    return sum(all(f[a] <= f[b] for a, b in rel)
               for f in product(range(x), repeat=n))


def naive_values(below, upto, strict=True):
    return [naive_count(below, x, strict) for x in range(upto + 1)]


def surjections(below):
    """d_1..d_n: strict surjections onto [i], by peeling a nonempty set of
    minimal elements for the lowest value (memoized on what remains)."""
    n = len(below)

    @lru_cache(maxsize=None)
    def rest(left, k):
        if left == 0:
            return 1 if k == 0 else 0
        if k == 0:
            return 0
        mins = [i for i in range(n) if left >> i & 1 and below[i] & left == 0]
        total = 0
        for pick in range(1, 1 << len(mins)):
            s = sum(1 << mins[t] for t in range(len(mins)) if pick >> t & 1)
            total += rest(left & ~s, k - 1)
        return total

    return [rest((1 << n) - 1, i) for i in range(1, n + 1)]


def weak_values(below, upto):
    """Omega_weak(P, 0..upto): the elements sent to the top value form an
    upset (possibly empty) of what remains; peel it and recurse."""
    n = len(below)

    @lru_cache(maxsize=None)
    def rest(left, x):
        if left == 0:
            return 1
        if x == 0:
            return 0
        total = 0
        sub = left
        while True:  # every submask of `left`, the empty one included
            rem = left & ~sub
            if all(below[j] & sub == 0 for j in range(n) if rem >> j & 1):
                total += rest(left & ~sub, x - 1)
            if sub == 0:
                break
            sub = (sub - 1) & left
        return total

    return [rest((1 << n) - 1, x) for x in range(upto + 1)]


def downsets(below):
    """All downset masks, by a search over the poset itself (not a 2^n
    scan): each element in or out along a linear extension."""
    n = len(below)
    order = sorted(range(n), key=lambda i: below[i].bit_count())
    out = []

    def rec(t, chosen):
        if t == n:
            out.append(chosen)
            return
        rec(t + 1, chosen)
        if below[order[t]] & ~chosen == 0:
            rec(t + 1, chosen | 1 << order[t])

    rec(0, 0)
    return out


def canonical_key(below):
    """Relabeling-invariant key: the least sorted relation over all
    relabelings that keep (down-degree, up-degree) classes in order."""
    n = len(below)
    rel = [(j, i) for i in range(n) for j in range(n) if below[i] >> j & 1]
    above = [sum(1 << i for i in range(n) if below[i] >> j & 1)
             for j in range(n)]
    sig = [(below[i].bit_count(), above[i].bit_count()) for i in range(n)]
    classes = {}
    for i in range(n):
        classes.setdefault(sig[i], []).append(i)
    parts = [classes[s] for s in sorted(classes)]
    best = None
    for perms in product(*(permutations(p) for p in parts)):
        sigma, pos = {}, 0
        for perm in perms:
            for old in perm:
                sigma[old] = pos
                pos += 1
        key = tuple(sorted((sigma[a], sigma[b]) for a, b in rel))
        if best is None or key < best:
            best = key
    return f"{n}:" + ",".join(f"{a}<{b}" for a, b in best)


def all_posets(n):
    """One down-mask list per isomorphism class of n-element posets, found by
    brute force over transitively closed relations (n <= 6)."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a < b]
    seen = {}
    # labelled posets whose natural order is a linear extension cover every class
    for bits in range(1 << len(pairs)):
        below = [0] * n
        for t, (a, b) in enumerate(pairs):
            if bits >> t & 1:
                below[b] |= 1 << a
        if any(below[b] >> a & 1 and below[a] & ~below[b]
               for b in range(n) for a in range(n)):
            continue  # not transitively closed
        key = canonical_key(below)
        seen.setdefault(key, below)
    return [seen[k] for k in sorted(seen)]


# -- closed forms on trees -------------------------------------------------

def _hits(F):
    """g(L): maps of a block into an L-chain that hit both ends, from the
    block's counts F(0..) by inclusion-exclusion; L = 1 is one point."""
    def g(L):
        if L == 1:
            return F[1]
        return F[L] - 2 * F[L - 1] + F[L - 2]
    return g


def _interval_sum(blocks, x, strict):
    """Sum over interval assignments I_i = [lo, hi] in [1, x] of the
    product of end-hitting counts, with hi_a < lo_b (strict) or
    hi_a <= lo_b (weak) for every outer relation a < b.  Two blocks are an
    ordinal sum, four the zigzag."""
    gs = [_hits(F) for F in blocks]
    ivs = [(lo, hi) for lo in range(1, x + 1) for hi in range(lo, x + 1)]

    def ok(ia, ib):
        return ia[1] < ib[0] if strict else ia[1] <= ib[0]

    w = [[g(hi - lo + 1) for lo, hi in ivs] for g in gs]
    if len(blocks) == 2:  # ordinal sum: slot 0 below slot 1
        total = 0
        for p, ia in enumerate(ivs):
            if w[0][p]:
                total += w[0][p] * sum(w[1][q] for q, ib in enumerate(ivs)
                                       if ok(ia, ib))
        return total
    # zigzag x<y, z<y, z<w: sum over (I_y, I_z), then x and w independently
    below_y = {lo: sum(w[0][p] for p, ia in enumerate(ivs)
                       if ok(ia, (lo, lo)))
               for lo in range(1, x + 1)}
    above_z = {hi: sum(w[3][q] for q, ib in enumerate(ivs)
                       if ok((hi, hi), ib))
               for hi in range(1, x + 1)}
    total = 0
    for p, iy in enumerate(ivs):
        if not w[1][p] or not below_y[iy[0]]:
            continue
        inner = sum(w[2][q] * above_z[iz[1]] for q, iz in enumerate(ivs)
                    if w[2][q] and ok(iz, iy))
        total += w[1][p] * below_y[iy[0]] * inner
    return total


@lru_cache(maxsize=None)
def tree_values(t, upto, strict=True):
    """(Omega(P, 0), ..., Omega(P, upto)) from the closed forms."""
    if t[0] == "C":
        n = t[1]
        return tuple(comb(x, n) if strict else comb(x + n - 1, n) if x else 0
                     for x in range(upto + 1))
    if t[0] == "A":
        return tuple(x ** t[1] for x in range(upto + 1))
    kids = [tree_values(c, upto, strict) for c in t[1:]]
    if t[0] == "|":
        return tuple(a * b for a, b in zip(*kids))
    return tuple(0 if x == 0 else _interval_sum(kids, x, strict)
                 for x in range(upto + 1))


# -- polynomial data from counts -------------------------------------------

def d_from_strict(values, n):
    """d_1..d_n from Omega_strict(P, 0..n) by finite differences."""
    return [sum((-1) ** (i - j) * comb(i, j) * values[j] for j in range(i + 1))
            for i in range(1, n + 1)]


def multiset_coeffs(values, n):
    """w_1..w_n with Omega_weak(P, x) = sum_i w_i C(x+i-1, i), solved exactly
    from Omega_weak(P, 1..n)."""
    rows = [[Fraction(comb(x + i - 1, i)) for i in range(1, n + 1)]
            + [Fraction(values[x])] for x in range(1, n + 1)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def poly_eval(coeffs, x, weak=False):
    """sum_i c_i C(x, i), or C(x+i-1, i) for the multiset reading."""
    return sum(c * (comb(x + i - 1, i) if weak else comb(x, i))
               for i, c in enumerate(coeffs, start=1))


def weak_closed_form(w, n):
    """Numerator of sum_i w_i x/(1-x)^(i+1) over (1-x)^(n+1), trailing zeros
    dropped; returned with the denominator power."""
    num = [Fraction(0)] * (n + 2)
    for i, c in enumerate(w, start=1):
        # x * (1-x)^(n-i)
        for j in range(n - i + 1):
            num[1 + j] += c * (-1) ** j * comb(n - i, j)
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return num, n + 1


def inverse_sum(coeffs, r, weak=False):
    """sum_n Omega(P, n) / r^n: sum_n C(n, i) y^n = y^i/(1-y)^(i+1) and
    sum_n C(n+i-1, i) y^n = y/(1-y)^(i+1) (n >= 1), with y = 1/r."""
    y = 1 / Fraction(r)
    return sum(c * (y if weak else y ** i) / (1 - y) ** (i + 1)
               for i, c in enumerate(coeffs, start=1))


# -- zeta identities ---------------------------------------------------------

def finite_form(d):
    """Exact finite form of sum_k (-1)^(k+1) Omega_strict(k) (zeta(k+1)-1):
    each C(k, i) term sums to (-1)^(i+1) (zeta(i+1) - 1 - 2^-(i+1))."""
    coeffs, const = {}, Fraction(0)
    for i, v in enumerate(d, start=1):
        if v:
            s = (-1) ** (i + 1) * v
            coeffs[i] = Fraction(s)
            const += s * (-1 - Fraction(1, 2 ** (i + 1)))
    return const, coeffs


@lru_cache(maxsize=None)
def _zeta(s, dps):
    import mpmath
    with mpmath.workdps(dps):
        return mpmath.zeta(s)


def zeta_rhs_value(const, coeffs, dps):
    import mpmath
    with mpmath.workdps(dps):
        return +(mpmath.mpf(const.numerator) / const.denominator
                 + sum(mpmath.mpf(v.numerator) / v.denominator
                       * _zeta(k + 1, dps) for k, v in coeffs.items()))


def zeta_lhs_value(d, dps):
    """The series itself, summed with mpmath.zeta until terms vanish."""
    import mpmath
    with mpmath.workdps(dps + 10):
        total = mpmath.mpf(0)
        eps = mpmath.mpf(10) ** (-(dps + 5))
        k, small = 1, 0
        while small < 5:
            term = (-1) ** (k + 1) * poly_eval(d, k) * (_zeta(k + 1, dps + 10) - 1)
            total += term
            small = small + 1 if k > len(d) and abs(term) < eps else 0
            k += 1
        return +total


def falling_check(n):
    """Antichain closed form d_i = i! S(n, i), for the generator's self-check."""
    def S(n, k):
        return sum((-1) ** (k - j) * comb(k, j) * j ** n
                   for j in range(k + 1)) // factorial(k)
    return [factorial(i) * S(n, i) for i in range(1, n + 1)]
