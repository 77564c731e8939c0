"""Poset corpora: labeled enumeration, isomorphism classes, and the
series-parallel test.

Labeled posets on k+1 elements are generated by extending each labeled
poset on k elements with a new element whose strict down-set D and up-set U
range over all compatible (downset, upset) pairs.  Isomorphism classes are
deduplicated through a canonical form (lexicographically minimal relation
under invariant-respecting relabelings).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product

from .poset import Poset, _bits, decompose, downsets


def _extensions(down):
    """All ways to add one element to a poset given as below-mask tuple."""
    k = len(down)
    up = [0] * k
    for i in range(k):
        for j in _bits(down[i]):
            up[j] |= 1 << i
    full = (1 << k) - 1
    ups = downsets(up, full)
    for D in downsets(down, full):
        for U in ups:
            if D & U:
                continue
            # d < new < u forces d < u already present
            if any(D & ~down[u] for u in _bits(U)):
                continue
            new = [down[i] | (1 << k) if U >> i & 1 else down[i]
                   for i in range(k)]
            new.append(D)
            yield tuple(new)


def poset_from_masks(down):
    return Poset([str(i + 1) for i in range(len(down))], down)


def _refined_colors(n, pairs):
    below = [set() for _ in range(n)]
    above = [set() for _ in range(n)]
    for a, b in pairs:
        below[b].add(a)
        above[a].add(b)
    colors = [(len(below[i]), len(above[i])) for i in range(n)]
    for _ in range(n):
        keys = [(colors[i],
                 tuple(sorted(colors[j] for j in below[i])),
                 tuple(sorted(colors[j] for j in above[i])))
                for i in range(n)]
        ranks = {k: r for r, k in enumerate(sorted(set(keys)))}
        new = [ranks[k] for k in keys]
        if new == colors:
            break
        colors = new
    return colors


def canonical_key(P):
    """Relabeling-invariant key: the minimal sorted relation tuple over all
    permutations that respect the color refinement classes."""
    n = len(P)
    pairs = sorted(P.index_pairs())
    colors = _refined_colors(n, pairs)
    classes = {}
    for i, c in enumerate(colors):
        classes.setdefault(c, []).append(i)
    ordered = [classes[c] for c in sorted(classes)]
    offsets = []
    pos = 0
    for cl in ordered:
        offsets.append(pos)
        pos += len(cl)
    best = None
    for perm_parts in product(*(permutations(cl) for cl in ordered)):
        sigma = {}
        for part, off in zip(perm_parts, offsets):
            for t, old in enumerate(part):
                sigma[old] = off + t
        key = tuple(sorted((sigma[a], sigma[b]) for a, b in pairs))
        if best is None or key < best:
            best = key
    return (n, best)


@lru_cache(maxsize=None)
def iso_classes(n):
    """One canonical representative per isomorphism class of n-element
    posets, generated by extending the (n-1)-element representatives."""
    if n == 0:
        return (Poset((), ()),)
    reps = {}
    for smaller in iso_classes(n - 1):
        down = tuple(smaller.below_mask(i) for i in range(n - 1))
        for extended in _extensions(down):
            Q = poset_from_masks(extended)
            key = canonical_key(Q)
            if key not in reps:
                reps[key] = Q
    return tuple(reps[k] for k in sorted(reps))


def _points_only(tree):
    if isinstance(tree, int):
        return tree & (tree - 1) == 0
    return tree[0] != "Q" and all(_points_only(part) for part in tree[1])


@lru_cache(maxsize=None)
def is_series_parallel(P):
    """True iff P is generated from points by disjoint union and ordinal
    sum: its decomposition (``poset.decompose``) has no prime part."""
    return _points_only(decompose(P))
