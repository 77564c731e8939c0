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
from itertools import chain, permutations, product

from .poset import Poset, _bits, decompose, downsets, poset_from_masks


def _extensions(P):
    """All ways to add one element to the poset P, as below-mask tuples."""
    k, down = len(P), P._below
    full = (1 << k) - 1
    ups = downsets(P._up_masks(), full)
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


def _refined_colors(below, above):
    n = len(below)
    colors = [(below[i].bit_count(), above[i].bit_count()) for i in range(n)]
    for _ in range(n):
        keys = [(colors[i],
                 tuple(sorted(colors[j] for j in _bits(below[i]))),
                 tuple(sorted(colors[j] for j in _bits(above[i]))))
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
    above = P._up_masks()
    pairs = [(a, b) for a in range(n) for b in _bits(above[a])]
    classes = {}
    for i, c in enumerate(_refined_colors(P._below, above)):
        classes.setdefault(c, []).append(i)
    ordered = [classes[c] for c in sorted(classes)]
    pos = [0] * n
    best = None
    for perm_parts in product(*(permutations(cl) for cl in ordered)):
        for t, old in enumerate(chain(*perm_parts)):
            pos[old] = t
        key = tuple(sorted((pos[a], pos[b]) for a, b in pairs))
        if best is None or key < best:
            best = key
    return (n, best)


@lru_cache
def iso_classes(n):
    """One canonical representative per isomorphism class of n-element
    posets, generated by extending the (n-1)-element representatives."""
    if n == 0:
        return (Poset((), ()),)
    reps = {}
    for smaller in iso_classes(n - 1):
        for extended in _extensions(smaller):
            Q = poset_from_masks(extended)
            reps.setdefault(canonical_key(Q), Q)
    return tuple(reps[k] for k in sorted(reps))


def _points_only(tree):
    if isinstance(tree, int):
        return tree & (tree - 1) == 0
    return tree[0] != "Q" and all(_points_only(part) for part in tree[1])


def is_series_parallel(P):
    """True iff P is generated from points by disjoint union and ordinal
    sum: its decomposition (``poset.decompose``) has no prime part."""
    return _points_only(decompose(P))
