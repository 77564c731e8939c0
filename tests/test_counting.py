import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

import posetoperad
from posetoperad import counting
from posetoperad.counting import (DVector, _weak_map_counts, count_maps,
                                  d_vector, enumeration_report,
                                  order_polynomial, reciprocity_check)
from posetoperad.dsl import parse_poset
from posetoperad.errors import EnumerationGuard, PosetOperadError
from posetoperad.polynomials import BinomialPoly, MonomialPoly, stirling2
from posetoperad.poset import (antichain, chain, construct_poset, lex_sum,
                               max_chain_length, ordinal_sum)
from posetoperad.series import zigzag_poset

from oracles import (backtracking_count_maps, deep_series_parallel,
                     downset_strict_vector, lattice_weak_counts,
                     naive_count_maps, naive_linear_extensions,
                     naive_strict_surjections, nested_sum_identity_check,
                     subset_sum_weak_count)


def star_poset():
    return ordinal_sum(chain(1), antichain(3))


def test_count_chain_is_binomial():
    from posetoperad.polynomials import binomial
    for k in range(5):
        for n in range(8):
            assert count_maps(chain(k), n) == comb(n, k)
            assert count_maps(chain(k), n, "weak") == binomial(n + k - 1, k)


def test_count_examples():
    assert count_maps(antichain(3), 2) == 8
    assert count_maps(zigzag_poset(), 3) == 8
    assert count_maps(chain(0), 17) == 1


def test_three_counting_routes_agree(classes_upto_4):
    for size, reps in classes_upto_4.items():
        for P in reps:
            for n in range(7):
                for mode in ("strict", "weak"):
                    dp = count_maps(P, n, mode)
                    bt = backtracking_count_maps(P, n, mode)
                    nv = naive_count_maps(P, n, mode)
                    assert dp == bt == nv


def test_counts_match_literal_referees_on_six_elements(classes_upto_6):
    for P in classes_upto_6[6]:
        for n in range(9):
            assert count_maps(P, n, "weak") == subset_sum_weak_count(P, n)
        for n in range(5):
            assert count_maps(P, n) == backtracking_count_maps(P, n, "strict")


def test_d_vector_examples():
    assert d_vector(zigzag_poset()).d == (0, 1, 5, 5)
    assert d_vector(antichain(4)).d == (1, 14, 36, 24)
    comp = lex_sum(zigzag_poset(), [chain(2), chain(1), chain(1), chain(1)])
    assert d_vector(comp).d == (0, 0, 3, 11, 9)
    comp2 = lex_sum(zigzag_poset(), [chain(1), chain(2), chain(1), chain(1)])
    assert d_vector(comp2).d == (0, 0, 2, 8, 7)


def _d_from_strict_counts(counts):
    """d_i = sum_j (-1)^(i-j) C(i,j) Omega_strict(j), for i >= 1."""
    return tuple(sum((-1) ** (i - j) * comb(i, j) * counts[j]
                     for j in range(i + 1))
                 for i in range(1, len(counts)))


def test_d_vector_matches_backtracking_up_to_six_elements(classes_upto_6):
    for size, reps in classes_upto_6.items():
        for P in reps:
            counts = [backtracking_count_maps(P, n, "strict")
                      for n in range(size + 1)]
            assert d_vector(P).d == _d_from_strict_counts(counts)


def _random_expr(rng, size):
    """A random expression on `size` elements built from chains and
    antichains by |, * and lexicographic sums over the zigzag."""
    kind = rng.choice(["leaf", "|", "*", "lex"])
    if size == 1 or kind == "leaf":
        return f"{rng.choice('CA')}{size}"
    if kind == "lex" and size >= 4:
        cuts = sorted(rng.sample(range(1, size), 3))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [size])]
        args = ",".join(_random_expr(rng, p) for p in parts)
        return f"{{x<y,z<y,z<w}}({args})"
    left = rng.randint(1, size - 1)
    op = "|" if kind == "|" else "*"
    return f"({_random_expr(rng, left)}{op}{_random_expr(rng, size - left)})"


def test_d_vector_matches_backtracking_on_random_expressions():
    # counts grow like n^|P|, so each mode stops once a count passes 2000
    rng = random.Random(20240518)
    for _ in range(30):
        text = _random_expr(rng, rng.randint(4, 10))
        P = parse_poset(text)
        for mode, basis in (("strict", "binomial"), ("weak", "multiset")):
            poly = order_polynomial(P, mode)
            for n in range(len(P) + 1):
                count = backtracking_count_maps(P, n, mode)
                assert poly.eval(n, basis) == count, (text, mode, n)
                if count > 2000:
                    break


def test_d_vector_closed_forms_past_the_old_reach():
    dv = d_vector(antichain(40), guard=40)
    assert dv.d == tuple(factorial(k) * stirling2(40, k)
                         for k in range(1, 41))
    # linear extensions of C30 | A6: places of the 6 free points among 36
    assert d_vector(parse_poset("C30 | A6"), guard=36).d[-1] == (
        factorial(36) // factorial(30))


def test_d_vector_of_a_sum_over_the_zigzag():
    # Z(A5, A5, A5, A5): the block DP over the zigzag quotient, pinned
    Z = zigzag_poset()
    assert d_vector(lex_sum(Z, [antichain(5)] * 4), guard=20).d == (
        0, 1, 3005, 1615745, 182266680, 8058571140, 178440490800,
        2298182046000, 18902911075200, 105550829794800, 416702597580000,
        1194318445068000, 2524403360736000, 3960410821776000,
        4599148256640000, 3900388705920000, 2347522560000000,
        949800038400000, 231656371200000, 25739596800000)
    # a smaller sum against the oracle's downset recursion
    S = lex_sum(Z, [antichain(2), chain(2), antichain(1), antichain(3)])
    assert d_vector(S).d == downset_strict_vector(S)


def test_d_vector_cache_is_bounded(classes_upto_6):
    # a long stream of distinct posets keeps at most the default 128
    # d-vectors, and an evicted one is counted again to the same vector
    first = classes_upto_6[6][:200]
    assert len(set(first)) == 200
    kept = [d_vector(P) for P in first]
    info = d_vector.cache_info()
    assert info.maxsize == 128 and info.currsize <= 128
    assert [d_vector(P) for P in first[:10]] == kept[:10]


def test_d_vector_is_surjection_count(classes_upto_4):
    for size, reps in classes_upto_4.items():
        for P in reps:
            dv = d_vector(P)
            for i in range(1, size + 1):
                assert dv.d[i - 1] == naive_strict_surjections(P, i)


def test_d_vector_zero_prefix_and_extensions(classes_upto_5):
    for size, reps in classes_upto_5.items():
        for P in reps:
            dv = d_vector(P)
            r0 = max_chain_length(P)
            assert all(v == 0 for v in dv.d[:r0 - 1])
            if size:
                assert all(v > 0 for v in dv.d[r0 - 1:])
                assert dv.d[-1] == naive_linear_extensions(P)


def test_order_polynomial_matches_counts(classes_upto_6):
    for size, reps in classes_upto_6.items():
        for P in reps:
            strict = order_polynomial(P, "strict")
            weak = order_polynomial(P, "weak")
            for n in range(1, 9):
                assert strict.eval(n) == count_maps(P, n)
                assert weak.eval(n, "multiset") == count_maps(P, n, "weak")


def test_order_polynomial_examples():
    assert order_polynomial(antichain(3)) == BinomialPoly({1: 1, 2: 6, 3: 6})
    assert order_polynomial(antichain(3)).to_monomial() == MonomialPoly({3: 1})
    star = star_poset()
    assert order_polynomial(star) == BinomialPoly({2: 1, 3: 6, 4: 6})
    assert order_polynomial(star).to_monomial() == MonomialPoly(
        {4: Fraction(1, 4), 3: Fraction(-1, 2), 2: Fraction(1, 4)})
    assert order_polynomial(chain(3), "weak") == BinomialPoly({3: 1})
    assert order_polynomial(chain(0)) == BinomialPoly({0: 1})


def test_antichain_strict_equals_weak_power():
    for n in range(7):
        strict = order_polynomial(antichain(n)).to_monomial("binomial")
        weak = order_polynomial(antichain(n), "weak").to_monomial("multiset")
        assert strict == weak == MonomialPoly({n: 1} if n else {0: 1})


def test_reciprocity_examples():
    assert reciprocity_check(chain(2)).passed
    assert reciprocity_check(zigzag_poset()).passed
    for n in range(6):
        assert reciprocity_check(antichain(n)).passed


def test_reciprocity_corpus(classes_upto_6):
    for reps in classes_upto_6.values():
        for P in reps:
            assert reciprocity_check(P).passed


def test_tree_walks_take_one_frame_per_level():
    # the tree is about n levels deep; decompose and the one fold over it
    # each take one frame per level, within the default recursion limit
    from posetoperad.catalog import is_series_parallel
    n = 340
    P = deep_series_parallel(n)
    d = d_vector(P, n).d
    height = n // 2  # each point put above adds a level
    assert d[height - 2] == 0 < d[height - 1]
    # a point put beside k elements multiplies the extensions by k + 1
    assert d[-1] == factorial(n // 2) << n // 2
    assert reciprocity_check(P, n).passed
    assert is_series_parallel(P)


def test_weak_map_counts_match_naive_enumeration(classes_upto_5):
    for reps in classes_upto_5.values():
        for P in reps:
            assert _weak_map_counts(P) == [naive_count_maps(P, n, "weak")
                                           for n in range(len(P) + 1)]


def test_weak_map_counts_match_the_downset_lattice(classes_upto_6):
    for reps in classes_upto_6.values():
        for P in reps:
            assert _weak_map_counts(P) == lattice_weak_counts(P)


def test_reciprocity_counts_no_downsets_where_the_tree_has_points(
        monkeypatch):
    def refuse(*args):
        raise AssertionError("downsets enumerated")
    monkeypatch.setattr(counting, "downsets", refuse)
    assert reciprocity_check(antichain(16), guard=16).passed
    split = parse_poset("(C2|C1)*A3*(C1|C3*A2)")
    assert reciprocity_check(split).passed
    with pytest.raises(AssertionError, match="downsets enumerated"):
        reciprocity_check(zigzag_poset())


def test_one_poset_is_decomposed_once(monkeypatch):
    from posetoperad import poset
    from posetoperad.catalog import is_series_parallel
    from posetoperad.series import basis_series, operad_eval_series
    P = lex_sum(zigzag_poset(), [chain(1), antichain(2), chain(2), chain(1)])
    whole, decompose = [], poset.decompose

    def counted(Q, mask=None):  # the recursion enters here, the callers not
        whole.append(Q is P and mask == (1 << len(P)) - 1)
        return decompose(Q, mask)
    monkeypatch.setattr(poset, "decompose", counted)
    d_vector(P)
    assert reciprocity_check(P).passed
    operad_eval_series(P, [basis_series(1)] * len(P))
    assert not is_series_parallel(P)
    assert sum(whole) == 1


def test_reciprocity_fails_on_a_wrong_d_vector(monkeypatch):
    # the zigzag's d-vector is (0, 1, 5, 5); both polynomials come from the
    # patched one, the weak map counts on the downsets do not
    Z, true_d_vector = zigzag_poset(), counting.d_vector

    def patched(P, guard=counting.DEFAULT_GUARD):
        return DVector(P, (0, 1, 6, 99)) if P == Z else true_d_vector(P, guard)
    monkeypatch.setattr(counting, "d_vector", patched)
    assert not reciprocity_check(Z).passed
    assert reciprocity_check(chain(4)).passed


def test_reciprocity_checks_the_guard_first():
    with pytest.raises(EnumerationGuard):
        reciprocity_check(antichain(5), guard=4)


def test_chain2_reciprocity_closed_form():
    # Omega_strict = C(x,2); (-1)^2 C(-x,2) = C(x+1,2) = Omega_weak
    strict = order_polynomial(chain(2)).to_monomial()
    assert strict.neg_x() == MonomialPoly({2: Fraction(1, 2),
                                           1: Fraction(1, 2)})
    weak = order_polynomial(chain(2), "weak").to_monomial("multiset")
    assert strict.neg_x() == weak


def test_nested_sum_identity():
    rep = nested_sum_identity_check(4, 2, 2)
    assert rep.passed and rep.binomial_value == 6 and rep.nested_value == 6
    rep = nested_sum_identity_check(3, 3, 3)
    assert rep.passed and rep.binomial_value == 1
    for n in range(1, 6):
        for k in range(1, 5):
            rep = nested_sum_identity_check(n, k, 1)
            assert rep.passed and rep.binomial_value == comb(n + k - 1, k)
    with pytest.raises(ValueError):
        nested_sum_identity_check(2, 1, 3)


def test_empty_poset_conventions():
    P = chain(0)
    assert count_maps(P, 0) == 1
    assert d_vector(P).d == ()
    assert order_polynomial(P) == BinomialPoly({0: 1})


def test_guards():
    with pytest.raises(EnumerationGuard):
        count_maps(antichain(13), 2)
    assert count_maps(chain(2), 65) == comb(65, 2)
    assert count_maps(antichain(13), 2, guard=13) == 2 ** 13


def test_corrupt_d_vector_raises_under_optimize():
    with pytest.raises(PosetOperadError):
        DVector(chain(2), (1, 0))
    code = ("from posetoperad.counting import DVector\n"
            "from posetoperad.poset import chain\n"
            "DVector(chain(2), (1, 0))\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(posetoperad.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 1 and "PosetOperadError" in proc.stderr


def test_guard_override_threaded_through():
    with pytest.raises(EnumerationGuard):
        d_vector(antichain(13))
    with pytest.raises(EnumerationGuard):
        order_polynomial(antichain(13))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_counting_random_posets_match_naive(data):
    n_el = data.draw(st.integers(min_value=0, max_value=5))
    labels = [f"e{i}" for i in range(n_el)]
    covers = [(labels[i], labels[j])
              for j in range(n_el) for i in range(j)
              if data.draw(st.booleans())]
    P = construct_poset(labels, covers)
    n = data.draw(st.integers(min_value=0, max_value=6))
    mode = data.draw(st.sampled_from(["strict", "weak"]))
    assert count_maps(P, n, mode) == naive_count_maps(P, n, mode)


def test_points_expansion_identity_corrected():
    # sum_k k! S(n,k) x^(k-1) (1-x)^(n-k) = sum_k (-1)^(n-k) k! S(n,k) (1-x)^(n-k)
    x = MonomialPoly({1: 1})
    one_minus_x = MonomialPoly({0: 1, 1: -1})

    def power(p, e):
        out = MonomialPoly({0: 1})
        for _ in range(e):
            out = out * p
        return out

    for n in range(1, 7):
        lhs = MonomialPoly({})
        rhs = MonomialPoly({})
        for k in range(1, n + 1):
            c = factorial(k) * stirling2(n, k)
            lhs = lhs + (power(x, k - 1) * power(one_minus_x, n - k)).scale(c)
            rhs = rhs + power(one_minus_x, n - k).scale((-1) ** (n - k) * c)
        assert lhs == rhs


def test_enumeration_report_shape():
    rep = enumeration_report(zigzag_poset())
    assert rep["d"] == [0, 1, 5, 5]
    assert rep["strict_poly"]["coeffs"] == {"2": "1", "3": "5", "4": "5"}
    assert rep["discrepancies"] == []
