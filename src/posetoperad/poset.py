"""Finite posets, canonical families, and the lexicographic-sum composition.

A poset is stored as one tuple of bitmasks: bit j of ``below[i]`` is set
when element j lies strictly below element i, and the masks are transitively
closed.  Everything else (the up-masks, the label pairs of ``relation``, the
cover pairs) is read off them.  Elements carry string labels, which are for
presentation only; the element list order is the canonical slot order: when
a poset acts as an operation, ``lex_sum`` binds its i-th argument to the
i-th declared element.  Values are immutable after construction and safe to
share.
"""

from __future__ import annotations

from .errors import ArityMismatch, CycleDetected, DuplicateLabel, UnknownLabel


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _close_masks(below):
    """Transitive closure of down-masks by Warshall's algorithm: for each k,
    whatever lies below k lies below every element above k."""
    below = list(below)
    for k, down in enumerate(below):
        for i, m in enumerate(below):
            if m >> k & 1:
                below[i] = m | down
    return below


class Poset:
    """Immutable strict partial order on labeled elements.

    The one relation store is ``_below``, the transitively closed
    strict-below bitmask of each element, indexed like ``elements``; the
    labels only name the elements in output.  Use :func:`construct_poset`
    to build from cover pairs with validation; the raw constructor
    ``Poset(elements, below)`` trusts its masks to be closed and acyclic.
    """

    __slots__ = ("elements", "_below", "_above", "_hash", "_covers", "_tree")

    def __init__(self, elements, below):
        self.elements = tuple(elements)
        self._below = tuple(below)
        self._above = None
        self._hash = hash((self.elements, self._below))
        self._covers = None
        self._tree = None

    def _up_masks(self):
        """The strict-above masks, derived from ``_below`` on first use.
        Threads that race here each derive the same tuple, so the cache
        needs no lock."""
        if self._above is None:
            above = [0] * len(self._below)
            for i, m in enumerate(self._below):
                bit = 1 << i
                for j in _bits(m):
                    above[j] |= bit
            self._above = tuple(above)
        return self._above

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (isinstance(other, Poset)
                and self.elements == other.elements
                and self._below == other._below)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Poset({self.relation_string()})"

    @property
    def relation(self):
        """The closed relation as (lower label, upper label) pairs."""
        e = self.elements
        return frozenset((e[a], e[b]) for a, b in self.index_pairs())

    def below_mask(self, i):
        """Bitmask of indices strictly below element i."""
        return self._below[i]

    def above_mask(self, i):
        """Bitmask of indices strictly above element i; the pair of
        ``below_mask``, kept public with it although only the tests read
        it."""
        return self._up_masks()[i]

    def index_pairs(self):
        return frozenset((j, i) for i, m in enumerate(self._below)
                         for j in _bits(m))

    def covers(self):
        """Cover pairs (transitive reduction), sorted by element indices."""
        if self._covers is None:
            e, below = self.elements, self._below
            # a < b is a cover unless something sits strictly between
            self._covers = tuple((e[a], e[b])
                                 for a, up in enumerate(self._up_masks())
                                 for b in _bits(up) if not below[b] & up)
        return self._covers

    def relation_string(self):
        """Compact brace rendering: cover pairs plus isolated elements."""
        covers = self.covers()
        items = [f"{a}<{b}" for a, b in covers]
        used = {e for pair in covers for e in pair}
        items += [e for e in self.elements if e not in used]
        return "{" + ", ".join(items) + "}"

    def to_json_dict(self):
        return {"elements": list(self.elements),
                "covers": [[a, b] for a, b in self.covers()]}

    @staticmethod
    def from_json_dict(d):
        return construct_poset(d["elements"], [tuple(c) for c in d["covers"]])


def construct_poset(labels, covers):
    """Build a poset from labels and cover pairs.

    The relation is the transitive closure of the covers.  Raises
    DuplicateLabel / UnknownLabel / CycleDetected.
    """
    labels = [str(l) for l in labels]
    seen = set()
    for l in labels:
        if l in seen:
            raise DuplicateLabel(l)
        seen.add(l)
    idx = {l: i for i, l in enumerate(labels)}
    below = [0] * len(labels)
    for a, b in covers:
        a, b = str(a), str(b)
        if a not in idx:
            raise UnknownLabel(a)
        if b not in idx:
            raise UnknownLabel(b)
        below[idx[b]] |= 1 << idx[a]
    below = _close_masks(below)
    for i, m in enumerate(below):
        if m >> i & 1:
            # the cycle through i: elements both below and above i
            cycle = [labels[j] for j in _bits(m) if below[j] >> i & 1]
            raise CycleDetected("cycle among " + ", ".join(cycle))
    return Poset(labels, below)


def poset_from_masks(below):
    """The poset on labels 1..n with the closed strict-below masks below."""
    return Poset([str(i + 1) for i in range(len(below))], below)


def chain(n):
    """The chain 1 < 2 < ... < n; n = 0 gives the empty poset."""
    return poset_from_masks([(1 << i) - 1 for i in range(n)])


def antichain(n):
    return poset_from_masks([0] * n)


def lex_sum(outer, inner):
    """Lexicographic sum: substitute inner[i] for the i-th element of outer.

    Composite labels are namespaced "slotLabel.innerLabel"; two composite
    elements are related iff they lie in one block and are related there,
    or their blocks sit on related outer slots.  So an element of block i
    has below it its block's own down-mask, shifted to the block's offset,
    and the full spans of the blocks on the slots below i.
    """
    inner = list(inner)
    if len(inner) != len(outer):
        raise ArityMismatch(
            f"outer poset has {len(outer)} slots, got {len(inner)} arguments")
    labels = [f"{slot}.{e}" for slot, block in zip(outer.elements, inner)
              for e in block.elements]
    if len(set(labels)) != len(labels):
        raise DuplicateLabel("label collision after namespacing")
    spans, offset = [], 0
    for block in inner:
        spans.append(((1 << len(block)) - 1) << offset)
        offset += len(block)
    below = []
    for i, block in enumerate(inner):
        under = 0
        for j in _bits(outer.below_mask(i)):
            under |= spans[j]
        offset = len(below)  # where block i starts
        below.extend(under | m << offset for m in block._below)
    # union of closed blocks plus full cross spans is already closed
    return Poset(labels, below)


def disjoint_union(*posets):
    return lex_sum(antichain(len(posets)), list(posets))


def ordinal_sum(*posets):
    return lex_sum(chain(len(posets)), list(posets))


def downsets(below, mask):
    """Every downset among the elements of ``mask``, in ascending mask
    order, for the order given by the closed strict-below masks ``below``.

    Elements join in a linear-extension order (fewest elements below
    first), and element i extends a downset D of the elements before it
    exactly when below(i) lies in D.  A downset of a prefix is a downset of
    the whole, so the work is |mask| steps per downset found rather than a
    scan of 2^|mask| masks (M. Squire, "Enumerating the ideals of a poset",
    1995).
    """
    found = [0]
    for i in sorted(_bits(mask), key=lambda i: below[i].bit_count()):
        need, bit = below[i] & mask, 1 << i
        found += [d | bit for d in found if need & d == need]
    found.sort()
    return found


def _components(mask, adjacent):
    """Connected components, as masks, of the graph on the elements of
    ``mask`` in which i is joined to the elements of adjacent(i)."""
    comps = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            reach = 0
            for i in _bits(frontier):
                reach |= adjacent(i)
            frontier = reach & mask & ~comp
            comp |= frontier
        comps.append(comp)
        mask &= ~comp
    return comps


def _maximal_modules(below, above, mask):
    """The maximal modules, in order of their lowest elements, of a
    subposet neither operation of ``decompose`` splits.  They partition it
    over a prime quotient, so a module (a set all else relates to alike)
    meeting two is all of it (Moehring and Radermacher, 1984).  A module
    holding u and x holds each y telling x apart from u, so u's block is
    what does not reach, by such steps, an element outside it: a maximal
    one if u is minimal, or nothing would be comparable to the block."""
    u = next(1 << i for i in _bits(mask) if not below[i] & mask)
    outsider = next(1 << i for i in _bits(mask) if not above[i] & mask)
    rest, blocks = mask, []
    while rest:
        seen = frontier = outsider
        while frontier and rest & ~seen != u:  # found blocks are outside
            step = 0
            for y in _bits(frontier):  # what y tells apart from u
                b, a = below[y], above[y]
                step |= ~(b if b & u else a if a & u else ~(a | b))
            frontier = step & mask & ~seen & ~u
            seen |= frontier
        blocks.append(rest & ~seen)
        rest &= seen
        outsider, u = u, rest & -rest
    return sorted(blocks, key=lambda block: block & -block)


def decompose(P, mask=None):
    """Substitution (modular) decomposition of the subposet of P on
    ``mask`` (default: all of P), as a tree.

    ``("|", parts)``: the comparability graph is disconnected, and the
    subposet is the disjoint union of its components.  ``("*", parts)``:
    the incomparability graph is disconnected, and the subposet is the
    ordinal sum of its components, listed bottom to top.  ``("Q",
    quotient_below, blocks)``: neither splits it, and it is the
    lexicographic sum of its maximal modules, not all points, over the
    prime quotient with those strict-below masks.  Otherwise the tree is
    the mask: a point, or a prime piece of points such as the zigzag.
    P keeps its whole tree; racing threads at worst compute it twice.
    """
    if mask is None:
        if P._tree is None:
            P._tree = decompose(P, (1 << len(P)) - 1)
        return P._tree
    if mask & (mask - 1) == 0:
        return mask
    below, above = P._below, P._up_masks()
    parts = _components(mask, lambda i: below[i] | above[i])
    if len(parts) > 1:
        return ("|", tuple(decompose(P, m) for m in parts))
    parts = _components(mask, lambda i: ~(below[i] | above[i]))
    if len(parts) > 1:
        # each element of a higher part has all lower parts below it
        parts.sort(key=lambda m: (below[m.bit_length() - 1]
                                  & mask).bit_count())
        return ("*", tuple(decompose(P, m) for m in parts))
    blocks = _maximal_modules(below, above, mask)
    if len(blocks) == mask.bit_count():
        return mask
    lows = [(b & -b).bit_length() - 1 for b in blocks]  # one speaks for all
    quotient = tuple(sum(1 << j for j, r in enumerate(lows)
                         if below[i] >> r & 1) for i in lows)
    return ("Q", quotient, tuple(decompose(P, b) for b in blocks))


def max_chain_length(P):
    """Size of the longest totally ordered subset; 0 for the empty poset."""
    return tropical_eval(P, [1] * len(P))


def check_lengths(size, lengths):
    """One slot length, a chain length >= 0, per element of a poset of the
    given size."""
    if len(lengths) != size:
        raise ArityMismatch(
            f"poset has {size} slots, got {len(lengths)} lengths")
    if any(v < 0 for v in lengths):
        raise ValueError(f"slot lengths must be >= 0, got {min(lengths)}")


def tropical_eval(P, lengths):
    """max over chains of P of the sum of the chain's slot lengths.

    Equals max_chain_length(lex_sum(P, [chain(l) for l in lengths])).
    """
    lengths = list(lengths)
    check_lengths(len(P), lengths)
    best = [0] * len(P)
    # popcount of the below-mask is a valid height key on a closed relation
    for i in sorted(range(len(P)), key=lambda i: P.below_mask(i).bit_count()):
        best[i] = lengths[i] + max(
            (best[j] for j in _bits(P.below_mask(i))), default=0)
    return max(best, default=0)
