import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from posetoperad.catalog import iso_classes
from posetoperad.errors import (ArityMismatch, CycleDetected, DuplicateLabel,
                                UnknownLabel)
from posetoperad.poset import (Poset, antichain, chain, construct_poset,
                               decompose, disjoint_union, downsets, lex_sum,
                               max_chain_length, ordinal_sum, tropical_eval)
from posetoperad.series import zigzag_poset

from oracles import label_lex_sum, mask_scan_downsets, naive_max_chain


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


def _tree_mask(P, tree):
    """The elements a decomposition tree covers; asserts each split."""
    if isinstance(tree, int):
        return tree
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
    for reps in classes_upto_6.values():
        for P in reps:
            assert _tree_mask(P, decompose(P)) == (1 << len(P)) - 1
    assert decompose(ordinal_sum(antichain(2), chain(1))) == (
        "*", (("|", (1, 2)), 4))
    assert decompose(zigzag_poset()) == 0b1111
