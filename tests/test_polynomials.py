import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

import posetoperad
from posetoperad.errors import IndexOutOfRange, ModeMismatch
from posetoperad.polynomials import (BinomialPoly, MonomialPoly,
                                     bernoulli_number, binomial, cup_coeffs,
                                     eulerian_number, eulerian_polynomial,
                                     eulerian_rows, multiset_coeff, stirling2,
                                     stirling_rows)

from oracles import (descent_eulerian, explicit_eulerian, explicit_stirling2,
                     partition_stirling2, poly_from_json, x_power)


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(2, 3) == 0          # 0 <= q < p
    assert binomial(-2, 2) == 3         # falling factorial continuation
    assert binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert multiset_coeff(3, 2) == 6    # C(4,2)


def test_eval_modes():
    p = BinomialPoly({2: 1})
    assert p.eval(5) == 10
    assert BinomialPoly({3: 1}).eval(2) == 0
    assert p.eval(3, "multiset") == 6


def test_stirling_against_partition_oracle():
    for n in range(8):
        for k in range(8):
            assert stirling2(n, k) == partition_stirling2(n, k)
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert all(stirling2(n, n) == 1 for n in range(9))


def test_eulerian_against_descent_oracle():
    for n in range(1, 7):
        for i in range(n):
            assert eulerian_number(n, i) == descent_eulerian(n, i)
    assert eulerian_number(3, 1) == 4
    assert eulerian_polynomial(4) == [1, 11, 11, 1]
    assert all(eulerian_number(n, 0) == 1 for n in range(1, 9))


def test_rows_match_the_explicit_sums():
    rows = list(eulerian_rows(60))
    assert len(rows) == 60
    for n, row in enumerate(rows, 1):
        assert row == [explicit_eulerian(n, i) for i in range(n)], n
    rows = list(stirling_rows(60))
    assert len(rows) == 61
    for n, row in enumerate(rows):
        assert row == [explicit_stirling2(n, k) for k in range(n + 1)], n
    assert list(eulerian_rows(0)) == []
    # one value far down the triangle
    assert stirling2(600, 300) == explicit_stirling2(600, 300)


def test_stirling2_matches_the_rows():
    rows = list(stirling_rows(80))
    for n, row in enumerate(rows):
        assert [stirling2(n, k) for k in range(-1, n + 3)] == \
            [0, *row, 0, 0], n


def test_stirling2_reads_only_what_it_needs():
    # S(3000, 3) in closed form; building all 3,001 rows took about 7 s
    code = ("from posetoperad.polynomials import stirling2\n"
            "assert stirling2(3000, 3) == (3**3000 - 3 * 2**3000 + 3) // 6\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(posetoperad.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=2)
    assert proc.returncode == 0, proc.stderr


def test_eulerian_row_sums_and_errors():
    from math import factorial
    for n in range(1, 8):
        assert sum(eulerian_polynomial(n)) == factorial(n)
    with pytest.raises(IndexOutOfRange):
        eulerian_number(3, 3)
    with pytest.raises(IndexOutOfRange):
        eulerian_number(0, 0)


def test_kernels_refuse_indices_they_cannot_compute():
    for m in (-1, -2):
        with pytest.raises(IndexOutOfRange):
            bernoulli_number(m)
    with pytest.raises(IndexOutOfRange):
        eulerian_polynomial(-1)
    for k in (2.5, Fraction(5, 2)):
        with pytest.raises(ValueError):
            binomial(5, k)
    assert binomial(5, Fraction(2)) == 10


def test_eulerian_symmetry():
    for n in range(1, 11):
        for i in range(n):
            assert eulerian_number(n, i) == eulerian_number(n, n - 1 - i)


def test_worpitzky():
    for n in range(1, 7):
        for k in range(11):
            assert k ** n == sum(eulerian_number(n, i) * binomial(k + i, n)
                                 for i in range(n))


def test_bernoulli():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(4) == Fraction(-1, 30)
    assert bernoulli_number(8) == Fraction(-1, 30)
    assert bernoulli_number(10) == Fraction(5, 66)
    assert all(bernoulli_number(m) == 0 for m in range(3, 20, 2))


def test_monomial_to_binomial_examples():
    got = x_power(3).to_binomial()
    assert got == BinomialPoly({1: 1, 2: 6, 3: 6})
    got4 = x_power(4).to_binomial()
    assert got4 == BinomialPoly({1: 1, 2: 14, 3: 36, 4: 24})
    expanded = BinomialPoly({2: 1}).to_monomial()
    assert expanded == MonomialPoly({2: Fraction(1, 2), 1: Fraction(-1, 2)})


def test_binomial_coeffs_are_scaled_stirling():
    from math import factorial
    for n in range(9):
        conv = x_power(n).to_binomial()
        for k in range(n + 1):
            assert conv.coeff(k) == factorial(k) * stirling2(n, k)


def test_basis_convert_dispatch():
    p = BinomialPoly({1: 2, 3: 1})
    assert p.to_monomial().to_binomial() == p


def test_mixed_bases_do_not_add():
    from posetoperad.series import SeriesVec
    b, m = BinomialPoly({1: 1}), MonomialPoly({1: 1})
    assert b != m and b.coeffs == m.coeffs
    for x, y in [(b, m), (m, b),
                 (SeriesVec("strict", {1: 1}), SeriesVec("weak", {1: 1}))]:
        with pytest.raises(ModeMismatch):
            x + y
        with pytest.raises(ModeMismatch):
            x - y


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@given(st.dictionaries(st.integers(min_value=0, max_value=6), small_fracs,
                       max_size=5))
@settings(max_examples=80, deadline=None)
def test_round_trip_binomial_monomial(coeffs):
    p = BinomialPoly(coeffs)
    assert p.to_monomial().to_binomial() == p


@given(st.dictionaries(st.integers(min_value=0, max_value=5), small_fracs,
                       max_size=5),
       st.integers(min_value=-6, max_value=8))
@settings(max_examples=80, deadline=None)
def test_monomial_agrees_with_binomial_eval(coeffs, x):
    p = BinomialPoly(coeffs)
    assert p.eval(x) == p.to_monomial().eval(x)


@given(st.dictionaries(st.integers(min_value=0, max_value=7), small_fracs,
                       max_size=4),
       st.dictionaries(st.integers(min_value=0, max_value=7), small_fracs,
                       max_size=4))
@settings(max_examples=80, deadline=None)
def test_cup_coeffs_is_the_pointwise_product(a, b):
    # the structural constants C(x,n) C(x,s) over {C(x,k)}, read at the
    # 16 points 0..15, which fix a polynomial of degree at most 14
    product = BinomialPoly(cup_coeffs(a, b))
    assert all(product.eval(x) == BinomialPoly(a).eval(x) *
               BinomialPoly(b).eval(x) for x in range(16))


def test_alternating_power_sum_entry():
    # sum_k (k+1)^n (-p)^k converges to (p+1)^(-n-1) A_n(-p) for |p| < 1
    for n in range(0, 6):
        psi = [Fraction(c) for c in eulerian_polynomial(n)]
        for p in (Fraction(1, 2), Fraction(1, 3)):
            target = sum(c * (-p) ** i for i, c in enumerate(psi))
            target /= (p + 1) ** (n + 1)
            K = 60
            partial = sum((k + 1) ** n * (-p) ** k for k in range(K + 1))
            growth = Fraction((K + 3) ** n, (K + 2) ** n)
            q = growth * p
            assert q < 1
            tail = Fraction((K + 2) ** n) * p ** (K + 1) / (1 - q)
            assert abs(target - partial) <= tail
            assert tail < Fraction(1, 10 ** 6)


def test_poly_json_round_trip():
    p = BinomialPoly({0: Fraction(1, 2), 2: -3})
    blob = p.to_json_dict()
    assert blob["basis"] == "binomial"
    assert blob["coeffs"] == {"0": "1/2", "2": "-3"}
    assert poly_from_json(blob) == p
    m = MonomialPoly({1: Fraction(2, 3)})
    assert poly_from_json(m.to_json_dict()) == m
