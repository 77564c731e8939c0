from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from posetoperad.counting import count_maps, d_vector
from posetoperad.errors import (ArityMismatch, MissingProvenance,
                                ModeMismatch, UnknownIdentity)
from posetoperad.polynomials import eulerian_polynomial
from posetoperad.poset import (antichain, chain, construct_poset,
                               disjoint_union, ordinal_sum)
from posetoperad.series import (SeriesVec, basis_series, closed_form,
                                hadamard, iota, operad_eval_series,
                                operad_eval_series_report, ordinal_mul,
                                series_identity_check, series_of,
                                zigzag_poset)

from oracles import closed_form_expand


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


def test_operad_eval_exact_vs_multilinear(classes_upto_4):
    # chain-provenanced arguments must agree across both evaluation routes
    for P in classes_upto_4[3]:
        for ks in [(1, 1, 1), (2, 1, 1), (1, 2, 3)]:
            rep = operad_eval_series_report(P, [basis_series(k) for k in ks])
            assert rep.mode_used == "exact" and rep.crosschecked


def test_operad_eval_multilinear_mode_is_linear():
    N = zigzag_poset()
    z1 = basis_series(1)
    bare = SeriesVec("strict", {1: Fraction(1, 2), 2: 3})
    rep = operad_eval_series_report(N, [bare, z1, z1, z1])
    assert rep.mode_used == "multilinear" and rep.conjectural
    part1 = operad_eval_series(N, [basis_series(1), z1, z1, z1])
    part2 = operad_eval_series(N, [basis_series(2), z1, z1, z1])
    expect = part1.scale(Fraction(1, 2)) + part2.scale(3)
    assert rep.series == expect


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
