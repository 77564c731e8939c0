"""Acceptance battery: one test per criterion, each printing a PASS line
with its runtime so the suite doubles as a report."""

import time
from fractions import Fraction

from posetoperad.counting import d_vector, reciprocity_check
from posetoperad.discrepancies import known_discrepancies
from posetoperad.dsl import parse_poset
from posetoperad.polynomials import (binomial, eulerian_number, stirling2,
                                     x_power)
from posetoperad.poset import antichain, chain, disjoint_union, ordinal_sum
from posetoperad.series import hadamard, ordinal_mul, series_of, zigzag_poset
from posetoperad.zeta import (PrecisionContext, alternating_unit_record,
                              binomial_shift_record, entry22_check,
                              finite_form_identity, goldbach_record,
                              inverse_power_sum, verify_identity)

from oracles import backtracking_count_maps, naive_count_maps


def _report(name, started, detail=""):
    elapsed = time.perf_counter() - started
    print(f"ACCEPT {name}: PASS ({elapsed:.2f}s) {detail}")


def test_criterion_01_zigzag_d_vector():
    t0 = time.perf_counter()
    dv = d_vector(zigzag_poset())
    assert dv.d == (0, 1, 5, 5)
    profile = dv.triangulation_profile()
    # 5 top simplices glued along 5 facets, all sharing one triangle
    assert profile == {4: 5, 3: 5, 2: 1}
    _report("01 zigzag d-vector", t0, f"d={dv.d}")


FIG2 = [
    ("{x<y<z<w}", {4: 1}),
    ("{x<y<z, w}", {3: 3, 4: 4}),
    ("{x<y, z<w}", {2: 1, 3: 6, 4: 6}),
    ("{x<y, x<z, x<w}", {2: 1, 3: 6, 4: 6}),
    ("{y<x, z<x, w<x}", {2: 1, 3: 6, 4: 6}),
    ("{x, y, z<w}", {2: 4, 3: 15, 4: 12}),
    ("{x, y, z, w}", {1: 1, 2: 14, 3: 36, 4: 24}),
    ("{x<y>z, w}", {2: 2, 3: 9, 4: 8}),
    ("{x, y>z<w}", {2: 2, 3: 9, 4: 8}),
    ("{x<y>z<w}", {2: 1, 3: 5, 4: 5}),
]


def test_criterion_02_quaternary_table():
    t0 = time.perf_counter()
    seen = set()
    for text, expected in FIG2:
        S = series_of(parse_poset(text))
        assert {i: int(v) for i, v in S.coeffs.items()} == expected, text
        seen.add(frozenset(expected.items()))
    assert len(seen) == 7
    _report("02 quaternary table", t0, f"{len(FIG2)} rows, 7 classes")


def test_criterion_03_inverse_power_sums():
    t0 = time.perf_counter()
    star = parse_poset("C1 * (C1 | C1 | C1)")
    assert inverse_power_sum(antichain(5), 2) == 1082
    assert inverse_power_sum(antichain(5), 3) == Fraction(273, 4)
    assert inverse_power_sum(star, 5) == Fraction(115, 512)
    assert inverse_power_sum(star, 5, "weak") == Fraction(575, 512)
    _report("03 inverse power sums", t0)


def test_criterion_04_finite_forms_verify(classes_upto_4):
    t0 = time.perf_counter()
    ctx = PrecisionContext(working_digits=40, verify_tolerance=1e-10)
    corpus = [P for size in range(5) for P in classes_upto_4[size]]
    corpus += [chain(n) for n in range(5, 7)]
    corpus += [antichain(n) for n in range(5, 7)]
    for P in corpus:
        rec = verify_identity(finite_form_identity(P), ctx)
        assert rec.passed, P
        assert rec.error_bound < 1e-10
        assert abs(rec.lhs_numeric - rec.rhs_numeric) <= 1e-10
    _report("04 finite forms verified", t0, f"{len(corpus)} posets at 1e-10")


def test_criterion_05_binomial_shift_k1_to_6():
    t0 = time.perf_counter()
    ctx = PrecisionContext(verify_tolerance=1e-10)
    for k in range(1, 7):
        rec = verify_identity(binomial_shift_record(k), ctx)
        assert rec.passed
        if k == 1:
            assert abs(rec.lhs_numeric - 0.3949340668) < 1e-9
    _report("05 alternating binomial shifts k=1..6", t0)


def test_criterion_06_goldbach():
    t0 = time.perf_counter()
    g = verify_identity(goldbach_record())
    assert g.passed and abs(g.lhs_numeric - 1) < 1e-12
    a = verify_identity(alternating_unit_record())
    assert a.passed and abs(a.lhs_numeric - Fraction(1, 2)) < 1e-12
    _report("06 goldbach sums", t0)


def test_criterion_07_oracle_equivalence(classes_upto_5):
    t0 = time.perf_counter()
    checks = 0
    for size in range(6):
        for P in classes_upto_5[size]:
            for n in range(8):
                for mode in ("strict", "weak"):
                    assert (backtracking_count_maps(P, n, mode)
                            == naive_count_maps(P, n, mode))
                    checks += 1
            assert reciprocity_check(P).passed
    _report("07 oracle equivalence + reciprocity", t0, f"{checks} counts")


def test_criterion_08_structural_constants(classes_upto_6):
    t0 = time.perf_counter()
    pairs = 0
    for a in range(1, 7):
        for b in range(1, 8 - a):
            for P in classes_upto_6[a]:
                for Q in classes_upto_6[b]:
                    sp, sq = series_of(P), series_of(Q)
                    assert hadamard(sp, sq) == series_of(disjoint_union(P, Q))
                    assert ordinal_mul(sp, sq) == series_of(ordinal_sum(P, Q))
                    pairs += 1
    _report("08 structural constants", t0, f"{pairs} pairs")


def test_criterion_09_kernels():
    t0 = time.perf_counter()
    from math import factorial
    for n in range(1, 11):
        for i in range(n):
            assert eulerian_number(n, i) == eulerian_number(n, n - 1 - i)
    for n in range(1, 7):
        for k in range(11):
            assert k ** n == sum(eulerian_number(n, i) * binomial(k + i, n)
                                 for i in range(n))
    for n in range(9):
        conv = x_power(n).to_binomial()
        for k in range(n + 1):
            assert conv.coeff(k) == factorial(k) * stirling2(n, k)
    _report("09 eulerian/stirling kernels", t0)


def test_criterion_10_flagged_discrepancies():
    t0 = time.perf_counter()
    found = known_discrepancies()
    assert len(found) == 3
    ids = sorted(d.case_id for d in found)
    assert ids == ["points-expansion-sign", "quaternary-low-order-index",
                   "quaternary-zeta-example"]
    for d in found:
        assert d.confirmed, d.case_id
        assert d.derived and d.published
        assert d.derived != d.published
    again = known_discrepancies()
    assert [d.to_json_dict() for d in again] == [d.to_json_dict() for d in found]
    _report("10 discrepancies flagged", t0, ", ".join(ids))


def test_criterion_11_entry22_k2():
    t0 = time.perf_counter()
    ctx = PrecisionContext(verify_tolerance=1e-10)
    rec = entry22_check(2, ctx)
    assert rec.passed
    assert abs(rec.lhs_numeric - 0.2898681337) < 1e-10
    assert any("formula matches oracle: True" in n for n in rec.notes)
    _report("11 entry22 k=2", t0, "lhs=2*zeta(2)-3")
