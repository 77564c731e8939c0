"""Poset corpora: labeled enumeration, isomorphism classes, and the
series-parallel test.

Labeled posets on k+1 elements are generated by extending each labeled
poset on k elements with a new element whose strict down-set D and up-set U
range over all compatible (downset, upset) pairs.  The classes of n
elements extend those of n - 1 in the order of their keys; extensions that
can only repeat an earlier class are skipped, the others deduplicated
through a certificate, a complete invariant that is cheap to compute, and
the classes are sorted by a canonical key (lexicographically minimal
relation under invariant-respecting relabelings), computed once per class.
The series-parallel test is one ``poset.fold``: no node is a prime quotient.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, permutations, product
from operator import itemgetter

from .poset import Poset, _bits, downsets, fold


def _extensions(P, keep=None):
    """All ways to add one element to the poset P, as (below masks, above
    masks) pairs, D ascending and for each D the U ascending.  d < new < u
    forces d < u already present, so U admits the D below the meet of its
    elements' down-sets, which also keeps D and U apart.  keep(D), if
    given, returns None to drop every U for that D, else a test of U."""
    k, down, up = len(P), P._below, P._up_masks()
    full, new = (1 << k) - 1, 1 << k
    ups = [(0, full)]  # (U, the meet), found as in poset.downsets
    for i in sorted(range(k), key=lambda i: up[i].bit_count()):
        need, bit, d = up[i], 1 << i, down[i]
        ups += [(U | bit, meet & d) for U, meet in ups if need & U == need]
    ups.sort()
    lifted = {}  # U -> the old elements' below masks, the new one below U
    for D in downsets(down, full):
        test = keep(D) if keep else _pass_all
        if test is None:
            continue
        above = None
        for U, meet in ups:
            if not D & ~meet and test(U):
                if above is None:
                    above = tuple([a | new if D >> i & 1 else a
                                   for i, a in enumerate(up)])
                below = lifted.get(U)
                if below is None:
                    below = lifted[U] = tuple([d | new if U >> i & 1 else d
                                               for i, d in enumerate(down)])
                yield below + (D,), above + (U,)


def _pass_all(U):
    """The test that passes every U."""
    return True


def _certificate(below, above, elements_of):
    """(a complete invariant of the poset with these masks, whether it is
    the relation of its canonical key); elements_of(mask) lists a mask's
    elements.

    The elements are ordered by code, (|below|, |above|) as one int, and
    then by color refinement.  When each class holds twins only, elements
    with one down-set and one up-set that an automorphism can swap, the
    invariant is the below masks relabeled in that order, in any order of
    the twins, and ``_pairs`` of it is the key's relation.  Else it is that
    relation, the least over the refined classes, twins kept in order."""
    n = len(below)
    w = n.bit_length()
    code = [b.bit_count() << w | a.bit_count() for b, a in zip(below, above)]
    order = sorted(range(n), key=code.__getitem__)
    classes = len(set(code))
    if classes == n:
        return _relabeled(below, order, elements_of), False
    twins = len(set(zip(below, above)))
    if classes == twins:
        return _relabeled(below, order, elements_of), False
    refined = _refined_classes(below, above, code, order, elements_of)
    if len(refined) == twins:  # twins share a class, so each holds twins
        return _relabeled(below, list(chain(*refined)), elements_of), False
    pairs = [(a, b) for a, m in enumerate(above) for b in elements_of(m)]
    pos = [0] * len(below)
    best = None
    for parts in product(*(_arrangements(members, below, above)
                           for members in refined)):
        for t, old in enumerate(chain(*parts)):
            pos[old] = t
        key = tuple(sorted((pos[a], pos[b]) for a, b in pairs))
        if best is None or key < best:
            best = key
    return best, True


def _relabeled(below, order, elements_of):
    """The below masks with element order[t] relabeled t, in that order."""
    bit, t = [0] * len(order), 1
    for x in order:
        bit[x] = t
        t <<= 1
    get = bit.__getitem__
    return tuple([sum(map(get, elements_of(below[x]))) for x in order])


def _pairs(below, elements_of):
    """The relation of the below masks as sorted (lower, upper) pairs."""
    return tuple(sorted((a, b) for b, m in enumerate(below)
                        for a in elements_of(m)))


def _refined_classes(below, above, code, order, elements_of):
    """The classes of color refinement in color order.  It starts from the
    classes of equal codes, in the code order ``order``; each round splits
    every class by its members' sorted class indices below and then above,
    ordered by them, until no class splits.  A singleton never splits."""
    classes, last = [], None
    for x in order:
        if code[x] != last:
            classes.append([])
            last = code[x]
        classes[-1].append(x)
    while True:
        index = [0] * len(below)
        for c, members in enumerate(classes):
            for x in members:
                index[x] = c
        get = index.__getitem__
        split = []
        for members in classes:
            if len(members) == 1:
                split.append(members)
                continue
            keyed = sorted([(sorted(map(get, elements_of(below[x]))),
                             sorted(map(get, elements_of(above[x]))), x)
                            for x in members])
            split.append([keyed[0][2]])
            for prev, cur in zip(keyed, keyed[1:]):
                if cur[:2] != prev[:2]:
                    split.append([])
                split[-1].append(cur[2])
        if len(split) == len(classes):
            return classes
        classes = split


def _arrangements(members, below, above):
    """The orders of members up to swapping twins, which give one key:
    twins keep their order."""
    return [p for p in permutations(members)
            if all(x < y for x, y in combinations(p, 2)
                   if below[x] == below[y] and above[x] == above[y])]


def canonical_key(P):
    """Relabeling-invariant key: the minimal sorted relation tuple over all
    permutations that respect the color refinement classes.  Twins are
    never split and swapping them keeps the tuple, so when each class of
    equal (|below|, |above|) holds twins only, one permutation is tried."""
    relation, is_key = _certificate(P._below, P._up_masks(), _bits)
    return (len(P), relation if is_key else _pairs(relation, _bits))


def _lowest_bits(mask):
    """[the lowest c bits of mask for c = 0, 1, ..., |mask|]."""
    out = [0]
    for i in _bits(mask):
        out.append(out[-1] | 1 << i)
    return out


def _candidate_filter(P, first):
    """keep(D) for ``_extensions(P, keep)``: it passes the extensions
    Q = P + v that can be the first of their class, and drops only repeats
    of an earlier one.

    - Of each orbit of the swaps of twins it keeps the first one
      generated, whose D and then U take the lowest bits of each set of
      twins: swapped twins give isomorphic extensions.
    - It drops v just above an element x (D = below(x) + x, U = above(x)):
      v just below x (D = below(x), U = above(x) + x) comes first, and
      both make x a 2-chain.
    - Unless P is the first class (``first``, the antichain), it drops a Q
      also generated from a class before P: one with an element w such
      that Q - w has a smaller canonical key.  A key but the antichain's
      starts at the pair (i, j), i the number of isolated points, and
      j = i + 1 exactly when the other points have one minimal point, else
      j >= i + 2.  So Q - w comes first if it has fewer isolated points
      than P, or as many and one minimal point among the others where P
      has two or more.

    With c >= 1 isolated points in P, the first holds unless v joins
    nothing (D | U = 0), or, if c = 1, the isolated point alone while each
    other element has a leaf, a point joined to it alone: else deleting an
    isolated point v misses, or one v joins, or an element without leaves,
    leaves fewer.  With two minimal points or more and none isolated, the
    second holds when v lies above more than a minimal w whose deletion
    leaves one minimal point, none isolated (``single``), or when v is
    minimal and lies below all that is minimal once some w is deleted
    (``minimize``)."""
    below, above = P._below, P._up_masks()
    groups, by_below, by_comp, chained = {}, {}, {}, {}
    for i, (b, a) in enumerate(zip(below, above)):
        groups[b, a] = groups.get((b, a), 0) | 1 << i
        by_below[b] = by_below.get(b, 0) | 1 << i
        by_comp[b | a] = by_comp.get(b | a, 0) | 1 << i
        chained[b | 1 << i] = a
    twins = [(G, _lowest_bits(G)) for G in groups.values() if G & (G - 1)]
    isolated = by_comp.get(0, 0)
    minimal = by_below.get(0, 0) & ~isolated
    joins, single, minimize = None, 0, []
    if first:
        pass
    elif isolated:
        joins = {0}
        if isolated & (isolated - 1) == 0 and all(
                1 << w in by_comp for w, m in enumerate(below)
                if m | above[w]):
            joins.add(isolated)
    elif minimal & (minimal - 1):
        for w in range(len(below)):
            bit = 1 << w
            # what must lie above a minimal v for it to be the one minimal
            # point left, none isolated anew, once w is deleted
            need = minimal & ~bit | by_below.get(bit, 0) | by_comp.get(bit, 0)
            minimize.append((need, bit))
            if minimal & bit and need == minimal & ~bit and not (
                    need & (need - 1)):
                single |= bit
    lone = single if not single & (single - 1) else 0  # one such w

    def keep(D):
        if joins is not None and D and D not in joins:
            return None
        if D and single and D != lone:
            return None
        low_d = []
        for G, low in twins:
            d = D & G
            if d != low[d.bit_count()]:
                return None
            low_d.append((G, low, d, d.bit_count()))
        chain_u = chained.get(D)
        if joins is None and (D or not minimize) and not low_d and (
                chain_u is None):
            return _pass_all

        def test(U):
            if U == chain_u or joins is not None and D | U not in joins:
                return False
            if not D:
                for need, bit in minimize:
                    if not need & ~U and U & ~bit:
                        return False
            for G, low, d, nd in low_d:
                u = U & G
                if u != low[nd + u.bit_count()] ^ d:
                    return False
            return True
        return test
    return keep


@lru_cache
def iso_classes(n):
    """One canonical representative per isomorphism class of n-element
    posets, generated by extending the (n-1)-element representatives: the
    first extension of each class, sorted by ``canonical_key``."""
    if n == 0:
        return (Poset((), ()),)
    elements_of = [tuple(_bits(m)) for m in range(1 << n)].__getitem__
    reps = {}
    for i, smaller in enumerate(iso_classes(n - 1)):
        keep = _candidate_filter(smaller, i == 0)
        for below, above in _extensions(smaller, keep):
            cert = _certificate(below, above, elements_of)
            if cert not in reps:
                reps[cert] = below, above
    keyed, labels = [], tuple(str(i + 1) for i in range(n))
    for (relation, is_key), (below, above) in reps.items():
        P = Poset(labels, below)  # as poset_from_masks, one labels tuple
        P._above = above  # known, so not derived again
        # canonical_key(P), from the certificate
        keyed.append(((n, relation if is_key
                       else _pairs(relation, elements_of)), P))
    keyed.sort(key=itemgetter(0))
    return tuple(P for _, P in keyed)


def is_series_parallel(P):
    """True iff P is generated from points by disjoint union and ordinal
    sum: no node of its decomposition is a prime part."""
    return fold(P, lambda leaf: True,
                lambda kind, quotient, parts, mask: kind != "Q" and all(parts))
