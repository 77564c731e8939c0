import gc
import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from posetoperad.catalog import iso_classes
from posetoperad.errors import (ArityMismatch, CycleDetected, DuplicateLabel,
                                UnknownLabel)
from posetoperad.poset import (Poset, antichain, chain, construct_poset,
                               decompose, disjoint_union, downsets, fold,
                               lex_sum, max_chain_length, ordinal_sum,
                               tropical_eval)
from posetoperad.series import zigzag_poset

from oracles import (dfs_closure, label_lex_sum, lattice_weak_counts,
                     mask_scan_downsets, naive_max_chain)


def labeled_dag(draw, max_size=5):
    n = draw(st.integers(min_value=0, max_value=max_size))
    labels = [f"e{i}" for i in range(n)]
    covers = []
    for j in range(n):
        for i in range(j):
            if draw(st.booleans()):
                covers.append((labels[i], labels[j]))
    return construct_poset(labels, covers)


posets = st.composite(labeled_dag)


def test_zigzag_construction():
    N = zigzag_poset()
    assert N.elements == ("x", "y", "z", "w")
    assert N.relation == {("x", "y"), ("z", "y"), ("z", "w")}
    assert len(N.covers()) == 3


def test_singleton_and_errors():
    P = construct_poset(["a"], [])
    assert len(P) == 1 and not P.relation
    with pytest.raises(CycleDetected) as exc:
        construct_poset(["a", "b"], [("a", "b"), ("b", "a")])
    assert str(exc.value) == "cycle among a, b"
    with pytest.raises(DuplicateLabel):
        construct_poset(["a", "a"], [])
    with pytest.raises(UnknownLabel):
        construct_poset(["a"], [("a", "b")])


def test_integer_labels_and_cover_endpoints_become_strings():
    P = construct_poset([1, 2], [(1, 2)])
    assert P == construct_poset(["1", "2"], [("1", "2")]) == chain(2)
    with pytest.raises(UnknownLabel):
        construct_poset([1], [(1, 2)])


def test_canonical_families():
    C = chain(3)
    assert C.relation == {("1", "2"), ("1", "3"), ("2", "3")}
    assert len(C.relation) == 3  # C(3,2) closed pairs
    A = antichain(4)
    assert len(A) == 4 and not A.relation
    assert len(chain(0)) == 0


def test_closure_transitivity():
    P = construct_poset(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")])
    assert ("a", "d") in P.relation
    assert len(P.relation) == 6
    assert P.covers() == (("a", "b"), ("b", "c"), ("c", "d"))


def test_closure_matches_dfs_referee():
    # seeded random cover lists on 0-12 elements: half of them oriented
    # along a random order (acyclic), half drawn freely (cycles and loops)
    rng = random.Random(22)
    cycles = 0
    for trial in range(2000):
        n = rng.randint(0, 12)
        order = rng.sample(range(n), n)
        covers = []
        for _ in range(rng.randint(0, 2 * n)):
            a, b = rng.randrange(n), rng.randrange(n)
            if trial % 2 == 0:
                if a == b:
                    continue
                a, b = sorted((a, b), key=order.index)
            covers.append((a, b))
        labels = [f"e{i}" for i in range(n)]
        want = dfs_closure(n, covers)
        looped = [i for i in range(n) if want[i] >> i & 1]
        pairs = [(labels[a], labels[b]) for a, b in covers]
        if not looped:
            assert construct_poset(labels, pairs)._below == tuple(want)
            continue
        cycles += 1
        i = looped[0]
        cycle = [labels[j] for j in range(n)
                 if want[i] >> j & 1 and want[j] >> i & 1]
        with pytest.raises(CycleDetected) as exc:
            construct_poset(labels, pairs)
        assert str(exc.value) == "cycle among " + ", ".join(cycle)
    assert 100 < cycles < 1000


def test_lex_sum_two_chains_stack():
    out = lex_sum(chain(2), [antichain(2), antichain(2)])
    pairs = out.index_pairs()
    assert pairs == {(0, 2), (0, 3), (1, 2), (1, 3)}


def _same_shape(P, Q):
    return len(P) == len(Q) and P.index_pairs() == Q.index_pairs()


def test_lex_sum_unit_and_ordinal_chain():
    P = zigzag_poset()
    assert _same_shape(lex_sum(chain(1), [P]), P)
    assert _same_shape(ordinal_sum(chain(2), chain(3)), chain(5))


def test_lex_sum_arity():
    with pytest.raises(ArityMismatch):
        lex_sum(chain(2), [chain(1)])


def test_max_chain_examples():
    assert max_chain_length(chain(5)) == 5
    assert max_chain_length(zigzag_poset()) == 2
    comp = lex_sum(zigzag_poset(), [chain(2), chain(1), chain(1), chain(1)])
    assert max_chain_length(comp) == 3
    assert max_chain_length(chain(0)) == 0


def test_tropical_examples():
    two = chain(2)
    pair = antichain(2)
    for m in range(4):
        for n in range(4):
            assert tropical_eval(two, [m, n]) == m + n
            assert tropical_eval(pair, [m, n]) == max(m, n)
    N = zigzag_poset()
    for args in [(1, 2, 3, 4), (2, 3, 1, 4), (0, 1, 0, 5)]:
        m, n, r, s = args
        assert tropical_eval(N, list(args)) == max(m + n, n + r, r + s)
    with pytest.raises(ArityMismatch):
        tropical_eval(N, [1, 2, 3])
    with pytest.raises(ValueError):  # no chain has a negative length
        tropical_eval(two, [1, -1])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_tropical_matches_composition(data):
    P = data.draw(posets())
    lengths = [data.draw(st.integers(min_value=0, max_value=3))
               for _ in range(len(P))]
    comp = lex_sum(P, [chain(k) for k in lengths])
    assert tropical_eval(P, lengths) == max_chain_length(comp)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_max_chain_against_subset_oracle(data):
    P = data.draw(posets(max_size=5))
    assert max_chain_length(P) == naive_max_chain(P)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_closure_idempotent(data):
    P = data.draw(posets())
    again = construct_poset(P.elements, list(P.relation))
    assert again.relation == P.relation


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_lex_sum_operadic_associativity(data):
    outer = data.draw(posets(max_size=3))
    mids = [data.draw(posets(max_size=2)) for _ in range(len(outer))]
    inners = [[data.draw(posets(max_size=2)) for _ in range(len(m))]
              for m in mids]
    staged = lex_sum(lex_sum(outer, mids), [p for group in inners for p in group])
    direct = lex_sum(outer, [lex_sum(m, group)
                             for m, group in zip(mids, inners)])
    assert _same_shape(staged, direct)


def _assert_same_poset(P, R):
    assert P.elements == R.elements
    assert P.relation == R.relation
    assert P.covers() == R.covers()
    assert hash(P) == hash(R)
    assert P == R


def test_lex_sum_masks_match_label_pair_referee():
    # outers and blocks in catalog order, which is not always a linear
    # extension, so a block may sit below a slot declared before it
    rng = random.Random(2024)
    outers = [P for n in range(5) for P in iso_classes(n)]
    blocks = [P for n in range(4) for P in iso_classes(n)]
    for _ in range(60):
        outer = rng.choice(outers)
        inner = [rng.choice(blocks) for _ in range(len(outer))]
        once = lex_sum(outer, inner)
        ref_once = label_lex_sum(outer, inner)
        _assert_same_poset(once, ref_once)
        top = rng.choice(outers)
        slots = [rng.randrange(2) for _ in range(len(top))]
        args = [once if s else rng.choice(blocks) for s in slots]
        ref_args = [ref_once if s else a for s, a in zip(slots, args)]
        _assert_same_poset(lex_sum(top, args), label_lex_sum(top, ref_args))


def test_chain_and_antichain_masks_match_construction():
    for n in range(13):
        labels = [str(i + 1) for i in range(n)]
        _assert_same_poset(chain(n), construct_poset(
            labels, [(labels[i], labels[i + 1]) for i in range(n - 1)]))
        _assert_same_poset(antichain(n), construct_poset(labels, []))


def test_json_round_trip():
    P = zigzag_poset()
    blob = P.to_json_dict()
    assert blob == {"elements": ["x", "y", "z", "w"],
                    "covers": [["x", "y"], ["z", "y"], ["z", "w"]]}
    assert Poset.from_json_dict(blob) == P


def test_disjoint_union_shape():
    U = disjoint_union(chain(2), chain(1))
    assert len(U) == 3
    assert U.index_pairs() == {(0, 1)}


def test_downsets_match_mask_scan(classes_upto_6):
    for P in classes_upto_6[6]:
        below = [P.below_mask(i) for i in range(6)]
        assert downsets(below, 0b111111) == mask_scan_downsets(P)
        for mask in (0b101101, 0b011110, 0b110011):
            assert downsets(below, mask) == mask_scan_downsets(P, mask)


def _is_module(P, node, m):
    """No element of ``node`` outside ``m`` tells two elements of m apart."""
    for x in range(len(P)):
        if node >> x & 1 and not m >> x & 1:
            kinds = {(P.below_mask(x) >> i & 1, P.above_mask(x) >> i & 1)
                     for i in range(len(P)) if m >> i & 1}
            if len(kinds) > 1:
                return False
    return True


def _has_proper_module(P, node):
    """A module of the subposet on ``node`` with 2 .. |node| - 1 elements,
    by trying every subset."""
    elems = [i for i in range(len(P)) if node >> i & 1]
    for pick in range(1, 1 << len(elems)):
        m = sum(1 << e for t, e in enumerate(elems) if pick >> t & 1)
        if 1 < m.bit_count() < len(elems) and _is_module(P, node, m):
            return True
    return False


def _tree_mask(P, tree):
    """The elements a decomposition tree covers; asserts that each leaf is
    one point, each split, and that the blocks of a "Q" node are modules
    partitioning it over a prime quotient."""
    if isinstance(tree, int):
        assert tree & (tree - 1) == 0
        return tree
    if tree[0] == "Q":
        _, quotient, parts = tree
        masks = [_tree_mask(P, part) for part in parts]
        node = sum(masks)
        assert len(masks) >= 4 and node.bit_count() >= len(masks)
        for i, m in enumerate(masks):
            assert all(m & other == 0 for other in masks[i + 1:])
            assert _is_module(P, node, m)
            low = (m & -m).bit_length() - 1
            assert quotient[i] == sum(1 << j for j, other in enumerate(masks)
                                      if j != i and P.below_mask(low) & other)
        outer = Poset([str(i) for i in range(len(masks))], quotient)
        assert decompose(outer) == ("Q", quotient, tuple(
            1 << i for i in range(len(masks))))
        assert not _has_proper_module(outer, (1 << len(masks)) - 1)
        return node
    op, parts = tree
    masks = [_tree_mask(P, part) for part in parts]
    for lo in range(len(masks)):
        for hi in range(lo + 1, len(masks)):
            for i in range(len(P)):
                if not masks[lo] >> i & 1:
                    continue
                related = P.above_mask(i) | P.below_mask(i)
                if op == "|":
                    assert related & masks[hi] == 0
                else:
                    assert P.above_mask(i) & masks[hi] == masks[hi]
    return sum(masks)


def test_decompose_splits_hold(classes_upto_6):
    quotients = 0
    for reps in classes_upto_6.values():
        for P in reps:
            tree = decompose(P)
            assert _tree_mask(P, tree) == (1 << len(P)) - 1
            quotients += not isinstance(tree, int) and tree[0] == "Q"
    assert quotients == 117
    assert decompose(ordinal_sum(antichain(2), chain(1))) == (
        "*", (("|", (1, 2)), 4))
    assert decompose(zigzag_poset()) == ("Q", zigzag_poset()._below,
                                         (1, 2, 4, 8))
    # the zigzag with its top y doubled: y and y' form a module, and the
    # quotient is the zigzag again
    twin = lex_sum(zigzag_poset(), [chain(1), antichain(2), chain(1),
                                    chain(1)])
    assert decompose(twin) == ("Q", zigzag_poset()._below,
                               (1, ("|", (2, 4)), 8, 16))


def test_fold_reads_the_tree_bottom_up():
    # the twin zigzag of test_decompose_splits_hold: each value is the mask
    # a leaf or node covers, and the calls come in post-order
    twin = lex_sum(zigzag_poset(), [chain(1), antichain(2), chain(1),
                                    chain(1)])
    leaves, nodes = [], []

    def point(leaf):
        leaves.append(leaf)
        return leaf

    def node(kind, quotient, parts, mask):
        nodes.append((kind, quotient, parts, mask))
        return mask
    assert fold(twin, point, node) == 0b11111
    assert leaves == [1, 2, 4, 8, 16]
    assert nodes == [("|", None, [2, 4], 0b110),
                     ("Q", zigzag_poset()._below, [1, 0b110, 8, 16], 0b11111)]
    # the empty poset is one leaf, 0
    assert fold(chain(0), lambda leaf: ("point", leaf), node) == ("point", 0)
    assert len(nodes) == 2


def test_fold_leaves_no_reference_cycle():
    # what a fold allocates goes when its last reference does: none of it
    # waits for the cyclic collector, which would add pauses to the jobs
    # that happen to trigger it
    twin = lex_sum(zigzag_poset(), [chain(1), antichain(2), chain(1),
                                    chain(1)])
    decompose(twin)
    gc.collect()
    gc.disable()
    try:
        fold(twin, lambda leaf: leaf, lambda kind, quotient, parts, mask: mask)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_decompose_sums_over_prime_outers(classes_upto_5):
    from posetoperad.catalog import is_series_parallel
    from posetoperad.counting import _weak_map_counts
    pool = [Q for n in range(1, 4) for Q in classes_upto_5[n]]
    outers = [P for n in (4, 5) for P in classes_upto_5[n]
              if not is_series_parallel(P)]
    assert len(outers) == 16
    rng = random.Random(20261018)
    over_primes = 0
    for P in outers:
        # a prime P: a "Q" node whose blocks are its points
        prime = decompose(P) == ("Q", P._below,
                                 tuple(1 << i for i in range(len(P))))
        for _ in range(5):
            S = lex_sum(P, [rng.choice(pool) for _ in range(len(P))])
            tree = decompose(S)
            assert _tree_mask(S, tree) == (1 << len(S)) - 1
            # the weak counts folded along the tree, also under one more split
            for T in (S, disjoint_union(S, chain(2)),
                      ordinal_sum(antichain(2), S)):
                assert _weak_map_counts(T) == lattice_weak_counts(T)
            if prime and len(S) > len(P):
                # over a prime outer the blocks are the maximal modules
                assert tree[0] == "Q" and tree[1] == P._below
                over_primes += 1
    assert over_primes > 20
