import random
from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from posetoperad import series
from posetoperad.counting import (DEFAULT_GUARD, count_maps, d_vector,
                                  order_polynomial)
from posetoperad.errors import (ArityMismatch, EnumerationGuard,
                                IndexOutOfRange, MissingProvenance,
                                ModeMismatch, PosetOperadError,
                                UnknownIdentity)
from posetoperad.polynomials import (BinomialPoly, MonomialPoly,
                                     eulerian_polynomial)
from posetoperad.poset import (antichain, chain, construct_poset,
                               disjoint_union, lex_sum, ordinal_sum)
from posetoperad.series import (SeriesVec, basis_series, closed_form,
                                hadamard, iota, operad_eval_series,
                                ordinal_mul, series_identity_check, series_of,
                                zigzag_poset)
from posetoperad.zeta import n_tilde2

from oracles import (closed_form_expand, downset_strict_vector,
                     power_sum_closed_form)


def star_poset():
    return ordinal_sum(chain(1), antichain(3))


def test_series_of_examples():
    for k in range(5):
        assert series_of(chain(k)).coeffs == ({k: 1} if k else {0: 1})
    weak_star = series_of(star_poset(), "weak")
    assert weak_star.coeffs == {2: 1, 3: -6, 4: 6}
    unit = series_of(chain(0))
    assert unit.coeffs == {0: 1} and unit.provenance is not None


def test_closed_form_examples():
    cf = closed_form(basis_series(3))
    assert cf.numerator == (0, 0, 0, 1) and cf.den_power == 4
    cf0 = closed_form(basis_series(0))
    assert cf0.numerator == (1,) and cf0.den_power == 1
    weak3 = closed_form(series_of(antichain(3), "weak"))
    assert weak3.numerator == (0, 1, 4, 1) and weak3.den_power == 4
    assert list(weak3.h_star()) == eulerian_polynomial(3)


def test_closed_form_h_star_is_eulerian():
    for n in range(1, 7):
        cf = closed_form(series_of(antichain(n), "weak"))
        assert list(cf.h_star()) == eulerian_polynomial(n)
        assert len(cf.h_star()) <= n  # top coefficient vanishes


def test_closed_form_expansion_matches_counts(classes_upto_4):
    # coefficients at n >= 1 are the map counts; the constant term matches
    # too except for the weak unit x/(1-x), which starts at n = 1
    for size, reps in classes_upto_4.items():
        for P in reps:
            for mode in ("strict", "weak"):
                cf = closed_form(series_of(P, mode))
                expanded = closed_form_expand(cf, 20)
                counts = [count_maps(P, n, mode) for n in range(20)]
                assert expanded[1:] == counts[1:]
                if size:
                    assert expanded[0] == counts[0] == 0


def test_closed_form_matches_power_sum_referee(classes_upto_6):
    rng = random.Random(23)
    vecs = [series_of(P, mode) for reps in classes_upto_6.values()
            for P in reps for mode in ("strict", "weak")]
    assert len(vecs) == 812
    for _ in range(2000):
        coeffs = {rng.randrange(13): Fraction(rng.randint(-9, 9),
                                              rng.randint(1, 9))
                  for _ in range(rng.randint(0, 6))}
        vecs += [SeriesVec(mode, coeffs) for mode in ("strict", "weak")]
    for S in vecs:
        got, want = closed_form(S), power_sum_closed_form(S)
        assert got == want and repr(got) == repr(want), S


@pytest.mark.parametrize("mode", ["strict", "weak"])
def test_closed_form_makes_one_product_per_index(monkeypatch, mode):
    # Horner's rule in 1 - x: 41 products for A40's top index 40 (and one
    # by x for the weak form), where a power of (1 - x) per index made 820
    S = series_of(antichain(40), mode, guard=40)
    calls = []
    mul = MonomialPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)
    monkeypatch.setattr(MonomialPoly, "__mul__", counted)
    cf = closed_form(S)
    assert len(calls) <= 42
    monkeypatch.undo()
    assert cf == power_sum_closed_form(S)


def test_negative_basis_index_is_refused():
    for build in (lambda c: SeriesVec("strict", c),
                  lambda c: SeriesVec("weak", c),
                  MonomialPoly, BinomialPoly):
        with pytest.raises(IndexOutOfRange):
            build({-1: 1, 2: 3})
        with pytest.raises(IndexOutOfRange):
            build({-1: 0})
    with pytest.raises(IndexOutOfRange):
        SeriesVec.from_json_dict({"mode": "weak", "coeffs": {"-1": "1"}})


def test_hadamard_examples():
    z1 = basis_series(1)
    assert hadamard(z1, z1).coeffs == {1: 1, 2: 2}
    z2 = basis_series(2)
    assert hadamard(z2, z2).coeffs == {2: 1, 3: 6, 4: 6}
    s = series_of(star_poset())
    assert hadamard(basis_series(0), s) == s
    with pytest.raises(ModeMismatch):
        hadamard(z1, series_of(chain(2), "weak"))


def test_hadamard_provenance_is_disjoint_union():
    got = hadamard(basis_series(2), basis_series(2))
    assert got == series_of(disjoint_union(chain(2), chain(2)))
    assert got.provenance is not None
    assert d_vector(got.provenance).d == (0, 1, 6, 6)


def test_structural_constants_vs_composition(classes_upto_4):
    for a in range(1, 4):
        for b in range(1, 4):
            for P in classes_upto_4[a]:
                for Q in classes_upto_4[b]:
                    sp, sq = series_of(P), series_of(Q)
                    assert hadamard(sp, sq) == series_of(disjoint_union(P, Q))
                    assert ordinal_mul(sp, sq) == series_of(ordinal_sum(P, Q))


def test_ordinal_examples():
    assert ordinal_mul(basis_series(2), basis_series(3)).coeffs == {5: 1}
    s = series_of(zigzag_poset())
    assert ordinal_mul(basis_series(0), s) == s
    vee = series_of(antichain(2))
    got = ordinal_mul(vee, basis_series(1))
    assert got.coeffs == {2: 1, 3: 2}
    assert got == series_of(ordinal_sum(antichain(2), chain(1)))


def test_iota():
    for k in range(4):
        up = iota(series_of(chain(k)))
        assert up.mode == "weak" and up.coeffs == ({k: 1} if k else {0: 1})
    star = series_of(star_poset())
    assert iota(star) == series_of(star_poset(), "weak")
    assert iota(iota(star)) == star
    with pytest.raises(MissingProvenance):
        iota(SeriesVec("strict", {2: 1}))


def test_iota_weak_starts_at_one(classes_upto_4):
    # nonempty posets always admit the constant weak map
    for size, reps in classes_upto_4.items():
        if size == 0:
            continue
        for P in reps:
            w = series_of(P, "weak")
            assert min(w.coeffs) >= 1
            assert count_maps(P, 1, "weak") == 1


def test_operad_eval_quaternary_table():
    N = zigzag_poset()
    z1 = basis_series(1)
    assert operad_eval_series(N, [z1] * 4).coeffs == {2: 1, 3: 5, 4: 5}
    got = operad_eval_series(N, [z1, basis_series(2), z1, z1])
    assert got.coeffs == {3: 2, 4: 8, 5: 7}
    got = operad_eval_series(N, [basis_series(2), z1, z1, z1])
    assert got.coeffs == {3: 3, 4: 11, 5: 9}


def test_operad_eval_errors():
    N = zigzag_poset()
    with pytest.raises(ArityMismatch):
        operad_eval_series(N, [basis_series(1)] * 3)
    with pytest.raises(ModeMismatch):
        operad_eval_series(N, [series_of(chain(1), "weak")] * 4)


def _referee(P, blocks):
    """The strict series of the lexicographic sum, counted by the oracle's
    downset recursion on the composite itself."""
    d = downset_strict_vector(lex_sum(P, blocks))
    return SeriesVec("strict", {i: v for i, v in enumerate(d, 1)} or {0: 1})


def test_operad_eval_exact_vs_multilinear(classes_upto_4):
    # chain arguments with and without their provenance give the series of
    # the lexicographic sum over chains
    for P in classes_upto_4[3]:
        for ks in [(1, 1, 1), (2, 1, 1), (1, 2, 3), (0, 2, 1)]:
            args = [basis_series(k) for k in ks]
            expect = _referee(P, [chain(k) for k in ks])
            got = operad_eval_series(P, args)
            assert got == expect
            assert got.provenance == lex_sum(P, [chain(k) for k in ks])
            bare = [SeriesVec("strict", a.coeffs) for a in args]
            got = operad_eval_series(P, bare)
            assert got == expect and got.provenance is None


def test_exact_route_refuses_coefficients_that_contradict_provenance():
    # 5 Z_1 carrying chain(1): its provenance says Z_1, its coefficients
    # 5 Z_1; without the provenance it is a plain vector
    bad = SeriesVec("strict", {1: 5}, provenance=chain(1))
    with pytest.raises(PosetOperadError, match="slot 1"):
        operad_eval_series(chain(2), [bad, basis_series(1)])
    with pytest.raises(PosetOperadError, match="slot 2"):
        operad_eval_series(chain(2), [basis_series(1), bad])
    assert operad_eval_series(
        chain(2), [SeriesVec("strict", {1: 5}), basis_series(1)]) == \
        SeriesVec("strict", {2: 5})


def test_operad_eval_matches_referee_on_prime_outers(classes_upto_5):
    # every outer of up to 5 elements that is not series-parallel, with
    # seeded blocks of up to 3 elements, one of them empty in each first draw
    from posetoperad.catalog import is_series_parallel
    pool = [Q for n in range(4) for Q in classes_upto_5[n]]  # C0..3 classes
    empty = classes_upto_5[0][0]
    rng = random.Random(20261018)
    outers = [P for n in (4, 5) for P in classes_upto_5[n]
              if not is_series_parallel(P)]
    assert len(outers) == 16
    for P in outers:
        for draw in range(5):
            blocks = [rng.choice(pool) for _ in range(len(P))]
            if draw == 0:
                blocks[rng.randrange(len(P))] = empty
            expect = _referee(P, blocks)
            args = [series_of(Q) for Q in blocks]
            got = operad_eval_series(P, args, guard=15)
            assert got == expect, (P, blocks)
            assert got.provenance == lex_sum(P, blocks)
            bare = [SeriesVec("strict", a.coeffs) for a in args]
            assert operad_eval_series(P, bare, guard=15) == expect


def _referee_bare(P, vecs):
    """The referee extended multilinearly from chain slots to the
    coefficient maps ``vecs``; index 0 is the empty chain."""
    out = SeriesVec("strict", {})
    for combo in product(*(sorted(v.items()) for v in vecs)):
        coeff = Fraction(1)
        for _, c in combo:
            coeff *= c
        out = out + _referee(P, [chain(k) for k, _ in combo]).scale(coeff)
    return out


def test_operad_eval_builds_no_lex_sum_without_provenance(
        classes_upto_5, monkeypatch):
    # provenance-free arguments are acted on through the decomposition of
    # the outer poset: no lexicographic sum is built, on any outer class
    import posetoperad.poset as poset_mod
    import posetoperad.series as series_mod
    vecs = [{1: 1}, {1: 2, 2: -1}, {0: 1, 2: Fraction(1, 3)}, {3: 1}]
    cases = []
    for n in range(1, 6):
        for P in classes_upto_5[n]:
            slots = [vecs[i % 4] for i in range(n)]
            cases.append((P, slots, _referee_bare(P, slots)))

    def refuse(*args):
        raise AssertionError("a lexicographic sum was built")
    monkeypatch.setattr(poset_mod, "lex_sum", refuse)
    monkeypatch.setattr(series_mod, "lex_sum", refuse)
    for P, slots, expect in cases:
        got = operad_eval_series(P, [SeriesVec("strict", v) for v in slots])
        assert got == expect and got.provenance is None, (P, slots)
    with pytest.raises(AssertionError):  # a provenance is a lexicographic sum
        operad_eval_series(chain(2), [basis_series(1)] * 2)


def test_operad_eval_multilinear_mode_is_linear():
    N = zigzag_poset()
    z1 = basis_series(1)
    bare = SeriesVec("strict", {1: Fraction(1, 2), 2: 3})
    got = operad_eval_series(N, [bare, z1, z1, z1])
    part1 = operad_eval_series(N, [basis_series(1), z1, z1, z1])
    part2 = operad_eval_series(N, [basis_series(2), z1, z1, z1])
    expect = part1.scale(Fraction(1, 2)) + part2.scale(3)
    assert got == expect
    assert got == _referee_bare(N, [bare.coeffs] + [{1: 1}] * 3)


def test_operad_eval_edge_cases():
    # pinned values: the empty outer, a zero slot, a unit mixed with a
    # negative coefficient, and the guard on the composite's size
    unit = operad_eval_series(chain(0), [])
    assert unit == SeriesVec("strict", {0: 1}) and len(unit.provenance) == 0
    zero = operad_eval_series(chain(2), [SeriesVec("strict", {}),
                                         SeriesVec("strict", {20: 1})],
                              guard=8)
    assert zero == SeriesVec("strict", {})
    got = operad_eval_series(antichain(2), [SeriesVec("strict", {0: 1, 1: -2}),
                                            SeriesVec("strict", {1: 1})])
    assert got.render() == "-Z_1 - 4 Z_2"
    # the guard reads the composite size, the sum of the top indices
    with pytest.raises(EnumerationGuard, match=r"\|P\| = 10 exceeds"):
        operad_eval_series(chain(2), [SeriesVec("strict", {5: 1, 6: 1}),
                                      SeriesVec("strict", {1: 1, 4: 1})],
                           guard=8)
    with pytest.raises(EnumerationGuard, match=r"\|P\| = 13 exceeds"):
        operad_eval_series(zigzag_poset(), [basis_series(4), basis_series(3),
                                            basis_series(3), basis_series(3)])


def test_operad_eval_agrees_with_lex_sum(classes_upto_4):
    for size in range(1, 5):
        for P in classes_upto_4[size]:
            args = [basis_series(1)] * size
            assert operad_eval_series(P, args) == series_of(P)


def test_quaternary_known_one_slot_formulas():
    # closed forms for a single non-unit chain in slot 1 or slot 2
    N = zigzag_poset()
    z1 = basis_series(1)
    for k in range(1, 5):
        got = operad_eval_series(N, [basis_series(k), z1, z1, z1])
        expect = {
            k + 3: (k + 1) * (k + 4) // 2,
            k + 2: (k + 2) * (k + 1) // 2 + k * (k + 3) // 2,
            k + 1: (k + 1) * k // 2,
        }
        assert got.coeffs == {i: v for i, v in expect.items() if v}
        got = operad_eval_series(N, [z1, basis_series(k), z1, z1])
        expect = {
            k + 3: 2 * (k + 3) - 3,
            k + 2: (2 * (k + 2) - 3) + (k + 1),
            k + 1: k,
        }
        assert got.coeffs == {i: v for i, v in expect.items() if v}


@given(st.tuples(*[st.integers(min_value=0, max_value=3)] * 4))
@settings(max_examples=40, deadline=None)
def test_quaternary_reversal_property(chains):
    rep = series_identity_check("quaternary_reversal", {"chains": chains})
    assert rep.passed


def test_differential_cup_identity():
    rep = series_identity_check("differential_cup", {"s": 1, "p": 1, "q": 1})
    assert rep.passed
    assert rep.lhs == "2 Z_2 + 3 Z_3"
    for s in range(3):
        for p in range(1, 3):
            for q in range(1, 3):
                assert series_identity_check(
                    "differential_cup", {"s": s, "p": p, "q": q}).passed


def test_hstar_and_antichain_identities(classes_upto_4):
    for P in classes_upto_4[3] + classes_upto_4[4]:
        assert series_identity_check("hstar_top", {"poset": P}).passed
    for n in range(1, 6):
        assert series_identity_check("antichain_strict_weak", {"n": n}).passed
    with pytest.raises(UnknownIdentity):
        series_identity_check("no_such_identity", {})


@pytest.mark.parametrize("extra", [{2: 1}, {4: 1}],
                         ids=["same-top-index", "higher-top-index"])
def test_antichain_identity_fails_on_a_corrupted_weak_series(monkeypatch,
                                                             extra):
    # a coefficient added below A3's top index moves the weak numerator;
    # one above it moves the denominator power
    true_series_of = series.series_of

    def patched(P, mode="strict", guard=DEFAULT_GUARD):
        S = true_series_of(P, mode, guard)
        if mode == "weak" and P == antichain(3):
            return S + SeriesVec("weak", extra)
        return S
    monkeypatch.setattr(series, "series_of", patched)
    assert series_identity_check("antichain_strict_weak", {"n": 2}).passed
    assert not series_identity_check("antichain_strict_weak",
                                     {"n": 3}).passed


def test_nonsense_fourth_slot_units():
    rep = series_identity_check("quaternary_reversal", {"chains": (0, 2, 3, 1)})
    assert rep.passed and rep.notes


def test_no_series_parallel_match_for_zigzag_vector():
    from posetoperad.catalog import is_series_parallel, iso_classes
    zig = {2: 1, 3: 5, 4: 5}
    for P in iso_classes(4):
        if is_series_parallel(P):
            assert series_of(P).coeffs != zig


def test_series_json_round_trip():
    s = series_of(star_poset(), "weak")
    blob = s.to_json_dict()
    assert blob["mode"] == "weak"
    assert blob["coeffs"] == {"2": "1", "3": "-6", "4": "6"}
    back = SeriesVec.from_json_dict(blob)
    assert back == s and back.provenance == s.provenance
    cf = closed_form(s)
    assert cf.to_json_dict() == {"numerator": ["0", "1", "4", "1"],
                                 "den_power": 5}


def test_fig2_rows_complete(classes_upto_4):
    # the seven distinct coefficient vectors over the 4-element classes
    table = {
        "{1<2, 2<3, 3<4}": {4: 1},
        "{1<2, 2<3, 4}": {3: 3, 4: 4},
        "{1<2, 3<4}": {2: 1, 3: 6, 4: 6},
        "{1<2, 1<3, 1<4}": {2: 1, 3: 6, 4: 6},
        "{2<1, 3<1, 4<1}": {2: 1, 3: 6, 4: 6},
        "{1, 2, 3<4}": {2: 4, 3: 15, 4: 12},
        "{1, 2, 3, 4}": {1: 1, 2: 14, 3: 36, 4: 24},
        "{1<2, 3<2, 4}": {2: 2, 3: 9, 4: 8},
        "{1, 2<3, 2<4}": {2: 2, 3: 9, 4: 8},
        "{1<2, 3<2, 3<4}": {2: 1, 3: 5, 4: 5},
    }
    vectors = {}
    for expr, expected in table.items():
        items = [t.strip() for t in expr.strip("{}").split(",")]
        labels, covers = [], []
        for item in items:
            if "<" in item:
                a, b = item.split("<")
                for l in (a, b):
                    if l not in labels:
                        labels.append(l)
                covers.append((a, b))
            elif item not in labels:
                labels.append(item)
        P = construct_poset(labels, covers)
        got = {i: int(v) for i, v in series_of(P).coeffs.items()}
        assert got == expected, expr
        vectors[frozenset(expected.items())] = True
    assert len(vectors) == 7


def assert_exact(values, where):
    # an int when integral, a Fraction otherwise, never a float
    for v in values:
        assert type(v) in (int, Fraction), (where, v)
        assert (type(v) is int) == (v.denominator == 1), (where, v)


def test_coefficients_are_ints_when_integral(classes_upto_5):
    posets = [P for n in range(6) for P in classes_upto_5[n]]
    small = [series_of(P) for P in posets if len(P) <= 2]
    for P in posets:
        for mode in ("strict", "weak"):
            poly = order_polynomial(P, mode)
            assert_exact(poly.coeffs.values(), (P, mode))
            S = series_of(P, mode)
            assert_exact(S.coeffs.values(), (P, mode))
            assert_exact(closed_form(S).numerator, (P, mode))
        S = series_of(P)
        assert_exact(n_tilde2(order_polynomial(P)).coeffs.values(), P)
        for T in small:
            assert_exact(hadamard(S, T).coeffs.values(), (P, T))
            assert_exact(ordinal_mul(S, T).coeffs.values(), (P, T))
        if len(P) <= 3:
            args = [series_of(Q) for Q in posets[:len(P)]]
            assert_exact(operad_eval_series(P, args).coeffs.values(), P)
    # a rational slot keeps its fractions, and an integral product drops
    # them
    half = SeriesVec("strict", {1: Fraction(1, 2)})
    assert_exact(operad_eval_series(chain(2), [half, half]).coeffs.values(),
                 "halves")
    assert_exact(half.scale(2).coeffs.values(), "doubled")
    assert half.scale(2).coeffs == {1: 1}
