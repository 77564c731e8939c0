import re
import sys
import threading
from fractions import Fraction
from math import comb, factorial

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from posetoperad import zeta
from posetoperad.counting import d_vector
from posetoperad.errors import (MAX_DIGITS, ArityMismatch, DivergentParameter,
                                MissingProvenance, PrecisionUnachievable)
from posetoperad.polynomials import BinomialPoly, bernoulli_number
from posetoperad.poset import antichain, chain, lex_sum, ordinal_sum
from posetoperad.series import (inverse_power_sum, inverse_power_sum_partial,
                                zigzag_poset)
from posetoperad.suite import (alternating_unit_record, binomial_shift_record,
                               goldbach_record)
from posetoperad.zeta import (DEFAULT_CTX, IdentityRecord, PrecisionContext,
                              ZETA_PASSES_KEPT, ZetaExpr, _borwein_weights,
                              _choose_series_cap, _entry22_record, _moments,
                              _zeta_pass, entry22_check, entry22_formula,
                              entry22_oracle, finite_form_identity, n_tilde,
                              n_tilde2, operad_eval_zeta, verify_identity,
                              zeta_number, zeta_value, zhat)

from oracles import (comb_verify_identity, fraction_series_cap,
                     fraction_verify_identity, x_power)


def star_poset():
    return ordinal_sum(chain(1), antichain(3))


def test_zeta2_matches_pi_squared_over_six():
    v, b = zeta_value(2)
    with mpmath.workdps(60):
        ref = mpmath.pi ** 2 / 6
        assert abs(v - ref) < mpmath.mpf(10) ** -48
    assert b < 1e-48


def test_zeta_two_parameter_choices_agree_to_30_digits():
    # two Borwein term counts (chosen for 30 and 80 digits) agree to 30
    a, _ = zeta_value(3, PrecisionContext(working_digits=30), minus_one=True)
    b, _ = zeta_value(3, PrecisionContext(working_digits=80), minus_one=True)
    with mpmath.workdps(45):
        assert abs(a - b) < mpmath.mpf(10) ** -30


def test_zeta_against_library_reference():
    for s in range(2, 25):
        v, b = zeta_value(s)
        with mpmath.workdps(60):
            err = abs(v - mpmath.zeta(s))
            assert err < mpmath.mpf(10) ** -45
            assert float(err) <= b + 1e-45  # reported bound is honest


@pytest.mark.parametrize("digits", [30, 55, 200])
def test_zeta_minus_one_within_reported_bound(digits):
    ctx = PrecisionContext(working_digits=digits)
    for s in range(2, 101):
        v, b = zeta_value(s, ctx, minus_one=True)
        with mpmath.workdps(digits + 40):
            err = abs(v - (mpmath.zeta(s) - 1))
            assert err <= b, (s, err, b)
        assert b < 10.0 ** -(digits + 5)


def test_borwein_weights_are_integers():
    # d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!), in exact rationals
    for n in (1, 2, 7, 53, 86):
        dn, weights = _borwein_weights(n)
        d, exact = Fraction(0), []
        for i in range(n + 1):
            d += Fraction(n * factorial(n + i - 1) * 4 ** i,
                          factorial(n - i) * factorial(2 * i))
            exact.append(d)
        assert all(x.denominator == 1 for x in exact)
        assert dn == exact[n]
        assert weights == tuple(dn - x for x in exact[:n])


def has_pass(digits):
    """Whether the pass for the digits is cached: reading it is a hit.  A
    hit moves the pass to the back, as any use of it does."""
    hits = _zeta_pass.cache_info().hits
    _zeta_pass(digits)
    return _zeta_pass.cache_info().hits > hits


def test_zeta_pass_cache_keeps_the_last_four_digits_values():
    # an API caller looping over digits keeps at most four passes alive,
    # and an evicted pass is rebuilt to the same values
    assert ZETA_PASSES_KEPT == 4 == _zeta_pass.cache_info().maxsize
    _zeta_pass.cache_clear()
    ctxs = [PrecisionContext(working_digits=d) for d in range(20, 40)]
    first = [(zeta_value(3, c), zeta_value(7, c)) for c in ctxs]
    assert _zeta_pass.cache_info().currsize == 4
    assert all(has_pass(d) for d in (36, 37, 38, 39))
    zeta_value(2, ctxs[-4])  # a hit moves its pass to the back
    zeta_value(2, PrecisionContext(working_digits=60))
    # 37 is now the least recent and was evicted; probed in LRU order,
    # each hit leaves the order as it was
    assert all(has_pass(d) for d in (38, 39, 36, 60))
    assert _zeta_pass.cache_info().currsize == 4
    again = [(zeta_value(3, c), zeta_value(7, c)) for c in ctxs]
    assert again == first and _zeta_pass.cache_info().currsize == 4
    _zeta_pass.cache_clear()
    assert [(zeta_value(3, c), zeta_value(7, c)) for c in ctxs[:2]] == \
        first[:2]


def test_zeta_value_is_thread_safe():
    ctxs = [PrecisionContext(working_digits=30),
            PrecisionContext(working_digits=200)]
    _zeta_pass.cache_clear()
    serial = [[zeta_value(s, c) for s in range(2, 60)] for c in ctxs]
    _zeta_pass.cache_clear()
    prec = mpmath.mp.prec
    got = [None, None]
    barrier = threading.Barrier(2, timeout=60)

    def work(i):
        barrier.wait()
        got[i] = [zeta_value(s, ctxs[i]) for s in range(2, 60)]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == serial
    assert mpmath.mp.prec == prec


def test_threads_missing_on_the_same_digits_build_one_pass(monkeypatch):
    # a slow build keeps the other threads waiting on the lock, so at most
    # one pass (about 120 MB near MAX_DIGITS) is being built at a time
    size = zeta._borwein_size

    def slow_size(digits):
        threading.Event().wait(0.05)
        return size(digits)

    monkeypatch.setattr(zeta, "_borwein_size", slow_size)
    _zeta_pass.cache_clear()
    ctx = PrecisionContext(working_digits=41)
    got = [None] * 4
    barrier = threading.Barrier(4, timeout=60)

    def work(i):
        barrier.wait()
        got[i] = zeta_value(5, ctx)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert _zeta_pass.cache_info().misses == 1
    assert got == [got[0]] * 4
    _zeta_pass.cache_clear()


def test_verification_is_thread_safe():
    # two threads verify at 30 and 200 digits at once, from cold zeta
    # caches; each must get the records of a serial run
    ctxs = [PrecisionContext(working_digits=30),
            PrecisionContext(working_digits=200)]

    def work(ctx):
        recs = (verify_identity(finite_form_identity(antichain(3)), ctx),
                entry22_check(3, ctx))
        return [(r.lhs_numeric, r.rhs_numeric, r.error_bound, r.passed)
                for r in recs]

    serial = [work(c) for c in ctxs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(20):
            _zeta_pass.cache_clear()
            got = [None, None]
            barrier = threading.Barrier(2, timeout=60)

            def run(i):
                barrier.wait()
                got[i] = [work(ctxs[i]) for _ in range(3)]

            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert got == [[serial[i]] * 3 for i in range(2)], trial
    finally:
        sys.setswitchinterval(interval)


def test_verification_survives_pass_evictions():
    # six threads at six precisions, more than the four passes kept, so a
    # pass can be evicted between a record's zeta_value call and its read
    # of the pass's integers; every record must equal a serial run's
    assert ZETA_PASSES_KEPT < 6
    ctxs = [PrecisionContext(working_digits=d) for d in range(20, 50, 5)]
    rec = finite_form_identity(antichain(3))
    serial = [verify_identity(rec, c) for c in ctxs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(5):
            _zeta_pass.cache_clear()
            got = [None] * len(ctxs)
            barrier = threading.Barrier(len(ctxs), timeout=60)

            def run(i):
                barrier.wait()
                got[i] = [verify_identity(rec, ctxs[i]) for _ in range(4)]

            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(ctxs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert got == [[r] * 4 for r in serial], trial
    finally:
        sys.setswitchinterval(interval)
        _zeta_pass.cache_clear()


def test_zeta_minus_one_decay():
    # 2^-s <= zeta(s)-1 <= 2^-s + integral tail; the first term dominates
    for s in range(2, 45):
        v, _ = zeta_value(s, minus_one=True)
        assert 2.0 ** -s < v <= 2.0 ** -s + 2.0 ** -(s - 1) / (s - 1)
        if s >= 10:
            assert v <= 2.0 ** -s * (1 + 2e-2)


def test_euler_even_zeta_formula():
    # zeta(2n) = (-1)^(n+1) (2 pi)^(2n) B_2n / (2 (2n)!)
    from math import comb, factorial
    for n in range(1, 7):
        v, _ = zeta_value(2 * n)
        B = bernoulli_number(2 * n)
        with mpmath.workdps(60):
            ref = ((-1) ** (n + 1) * (2 * mpmath.pi) ** (2 * n)
                   * mpmath.mpf(B.numerator) / B.denominator
                   / (2 * factorial(2 * n)))
            assert abs(v - ref) < mpmath.mpf(10) ** -45


def test_zeta_value_validation():
    with pytest.raises(ValueError):
        zeta_value(1)
    # 1.6M digits is far past the digits ceiling, which refuses before any
    # pass is built
    huge = PrecisionContext(working_digits=1_600_000)
    before = _zeta_pass.cache_info()
    with pytest.raises(PrecisionUnachievable):
        zeta_value(2, huge)
    assert _zeta_pass.cache_info() == before


class PassBuilt(Exception):
    pass


def test_digits_ceiling_refuses_before_any_pass_is_built(monkeypatch):
    def refuse(n, B):
        raise PassBuilt(n, B)
    monkeypatch.setattr(zeta, "_BorweinPass", refuse)
    before = _zeta_pass.cache_info()
    with pytest.raises(PrecisionUnachievable, match=r"ceiling .* zeta\(2\)"):
        zeta_value(2, PrecisionContext(working_digits=MAX_DIGITS + 1))
    assert _zeta_pass.cache_info() == before  # not even looked up
    # the ceiling itself is allowed: its pass would be built
    with pytest.raises(PassBuilt):
        zeta_value(2, PrecisionContext(working_digits=MAX_DIGITS))
    after = _zeta_pass.cache_info()
    assert after.currsize == before.currsize
    assert after.misses == before.misses + 1


def test_n_tilde_examples():
    assert n_tilde(BinomialPoly({2: 1})) == ZetaExpr.make(0, {2: 1})
    assert n_tilde(BinomialPoly({})) == ZetaExpr.make(0)
    cubed = x_power(3).to_binomial()
    assert n_tilde(cubed) == ZetaExpr.make(0, {1: 1, 2: 6, 3: 6})
    assert n_tilde(BinomialPoly({0: 5})) == ZetaExpr.make(5)


def test_n_tilde2_examples():
    got = n_tilde2(BinomialPoly({1: 1}))
    assert got == ZetaExpr.make(Fraction(-5, 4), {1: 1})
    assert n_tilde2(BinomialPoly({0: 1})) == ZetaExpr.make(Fraction(1, 2))
    got = n_tilde2(BinomialPoly({2: 1}))
    assert got == ZetaExpr.make(Fraction(9, 8), {2: -1})
    assert got.render("shifted") == "-(zeta(3)-1-1/8)"


@given(st.dictionaries(st.integers(min_value=0, max_value=6),
                       st.fractions(min_value=-4, max_value=4,
                                    max_denominator=5),
                       max_size=5))
@settings(max_examples=60, deadline=None)
def test_tilde_maps_are_injective(coeffs):
    p = BinomialPoly(coeffs)
    # reconstruct the polynomial from each image: both maps are injective
    t = n_tilde(p)
    rebuilt = dict(t.zeta_terms())
    rebuilt[0] = t.constant
    assert BinomialPoly(rebuilt) == p
    t2 = n_tilde2(p)
    rebuilt2 = {k: (-1) ** (k + 1) * v for k, v in t2.zeta_terms()}
    shift = sum((Fraction((-1) ** (k + 1)) * v * (-1 - Fraction(1, 2 ** (k + 1)))
                 for k, v in zip(rebuilt2, rebuilt2.values())), Fraction(0))
    rebuilt2[0] = (t2.constant - shift) * 2
    assert BinomialPoly(rebuilt2) == p


def test_zeta_number_examples():
    assert zeta_number(chain(3)) == ZetaExpr.make(Fraction(-17, 16), {3: 1})
    for k in range(1, 5):
        assert zeta_number(chain(k), "tilde") == ZetaExpr.make(0, {k: 1})
    assert zeta_number(chain(0), "tilde") == ZetaExpr.make(1)
    assert zhat(2).render("shifted") == "(zeta(3)-1-1/8)"


def test_zeta_expr_shifted_round_trip():
    e = zeta_number(star_poset(), "tilde2")
    assert e.shifted_constant() == e.constant + sum(
        v * (1 + Fraction(1, 2 ** (k + 1))) for k, v in e.zeta_terms())


def test_finite_form_star_poset():
    rec = finite_form_identity(star_poset())
    assert rec.rhs == ZetaExpr.make(Fraction(15, 16), {2: -1, 3: 6, 4: -6})
    assert rec.rhs.render("shifted") == (
        "-(zeta(3)-1-1/8) + 6*(zeta(4)-1-1/16) - 6*(zeta(5)-1-1/32)")
    out = verify_identity(rec)
    assert out.passed


def test_finite_form_cube_identity():
    rec = finite_form_identity(antichain(3))
    assert rec.rhs.render("shifted") == (
        "(zeta(2)-1-1/4) - 6*(zeta(3)-1-1/8) + 6*(zeta(4)-1-1/16)")
    assert verify_identity(rec).passed


def test_finite_form_chain_is_binomial_shift():
    for k in range(1, 5):
        rec = finite_form_identity(chain(k))
        assert rec.rhs == n_tilde2(BinomialPoly({k: 1}))
        assert rec.start_index == k


def test_binomial_shift_records():
    rec = verify_identity(binomial_shift_record(1))
    assert rec.passed
    assert abs(rec.lhs_numeric - Fraction(3949340668, 10 ** 10)) < 1e-9
    for k in range(2, 7):
        assert verify_identity(binomial_shift_record(k)).passed


def test_goldbach_records():
    rec = verify_identity(goldbach_record())
    assert rec.passed and abs(rec.lhs_numeric - 1) < 1e-12
    rec = verify_identity(alternating_unit_record())
    assert rec.passed and abs(rec.lhs_numeric - 0.5) < 1e-12


def test_identity_record_pass_definition():
    rec = verify_identity(goldbach_record())
    assert rec.passed == (abs(rec.lhs_numeric - rec.rhs_numeric)
                          <= rec.error_bound + DEFAULT_CTX.verify_tolerance)
    blob = rec.to_json_dict()
    assert blob["pass"] is True and blob["rhs"]["constant"] == "1"


def test_printed_bound_covers_its_exact_parts(classes_upto_6):
    # the float a record prints is at least the exact sum of the parts it
    # certifies: the tail, |p(k)| zb for each summed term, |v| zb for each
    # RHS term, and one ulp for each floor
    ctxs = [PrecisionContext(working_digits=d) for d in (20, 30, 40, 50)]
    for size in range(1, 7):
        for P in classes_upto_6[size]:
            form = finite_form_identity(P)
            poly = form.lhs_poly
            # the tolerance and the cap, so N and the tail, are shared
            N, tail = fraction_series_cap(
                sum(abs(v) for v in poly.coeffs.values()), poly.max_index(),
                DEFAULT_CTX.verify_tolerance, DEFAULT_CTX.series_term_cap)
            lhs = [abs(poly.eval(k)) for k in range(form.start_index, N + 1)]
            lhs = [c for c in lhs if c]
            rhs = [abs(v) for _, v in form.rhs.zeta_terms()]
            for ctx in ctxs:
                rec = verify_identity(form, ctx)
                assert rec.notes[-1] == f"lhs summed to k={N}"
                B = zeta._borwein_size(ctx.working_digits)[1]
                zb = Fraction(zeta_value(2, ctx)[1])
                parts = (tail + (sum(lhs) + sum(rhs)) * zb
                         + Fraction(len(lhs) + len(rhs) + 1, 1 << B))
                assert Fraction(rec.error_bound) >= parts, (P, ctx)


def test_zeta_bound_is_one_dyadic_below_any_float():
    # the kernel's bound is the same Dyadic for every s, and at 400 digits
    # it lies far below the smallest positive float
    ctx = PrecisionContext(working_digits=400)
    bounds = {zeta_value(s, ctx, minus_one=m)[1]
              for s in (2, 3, 50, 400) for m in (False, True)}
    assert len(bounds) == 1
    (b,) = bounds
    assert type(b) is zeta.Dyadic and 0 < b < Fraction(10) ** -400


def test_verify_fails_loudly_when_unachievable():
    rec = goldbach_record()
    cramped = PrecisionContext(verify_tolerance=1e-12, series_term_cap=10)
    with pytest.raises(PrecisionUnachievable):
        verify_identity(rec, cramped)


def test_inverse_power_sum_values():
    assert inverse_power_sum(antichain(5), 2) == 1082
    assert inverse_power_sum(antichain(5), 3) == Fraction(273, 4)
    assert inverse_power_sum(star_poset(), 5) == Fraction(115, 512)
    assert inverse_power_sum(star_poset(), 5, "weak") == Fraction(575, 512)
    assert inverse_power_sum(chain(0), 2) == 2  # 1/(1-x) at x = 1/2
    with pytest.raises(DivergentParameter):
        inverse_power_sum(chain(2), 1)
    with pytest.raises(DivergentParameter):
        inverse_power_sum(chain(2), Fraction(1, 2))


def test_inverse_power_sum_closed_forms(classes_upto_4):
    # strict: sum_i (-1)^(i+1) d_i r/(1-r)^(i+1)
    # weak:   (-1)^(|P|+1) sum_i d_i r^i/(1-r)^(i+1)
    for size in range(1, 5):
        for P in classes_upto_4[size]:
            dv = d_vector(P).d
            for r in (Fraction(2), Fraction(5), Fraction(-3)):
                strict_rhs = sum(
                    (Fraction((-1) ** (i + 1)) * v * r / (1 - r) ** (i + 1)
                     for i, v in enumerate(dv, start=1)), Fraction(0))
                assert inverse_power_sum(P, r) == strict_rhs
                weak_rhs = (-1) ** (size + 1) * sum(
                    (Fraction(v) * r ** i / (1 - r) ** (i + 1)
                     for i, v in enumerate(dv, start=1)), Fraction(0))
                assert inverse_power_sum(P, r, "weak") == weak_rhs


def test_inverse_power_sum_vs_partial(classes_upto_4):
    for size in range(5):
        for P in classes_upto_4[size]:
            for r in (2, 3, 5, -2):
                for mode in ("strict", "weak"):
                    exact = inverse_power_sum(P, r, mode)
                    partial, tail = inverse_power_sum_partial(P, r, 60, mode)
                    assert abs(exact - partial) <= tail
                    assert tail < Fraction(1, 10 ** 6)


def test_operad_eval_zeta_examples():
    pair = antichain(2)
    got = operad_eval_zeta(pair, [zhat(1), zhat(2)])
    assert dict(got.zeta_terms()) == {2: -2, 3: 3}
    # general pattern: -m zhat_m + (m+1) zhat_(m+1)
    for m in range(1, 5):
        got = operad_eval_zeta(pair, [zhat(1), zhat(m)])
        assert dict(got.zeta_terms()) == {m: -m, m + 1: m + 1}
    two = chain(2)
    for k in range(1, 4):
        for j in range(1, 4):
            assert operad_eval_zeta(two, [zhat(k), zhat(j)]) == zhat(k + j)
    N = zigzag_poset()
    got = operad_eval_zeta(N, [zhat(1), zhat(2), zhat(1), zhat(1)])
    assert dict(got.zeta_terms()) == {3: 2, 4: -8, 5: 7}


def test_operad_eval_zeta_consistency(classes_upto_4):
    N = zigzag_poset()
    for ks in [(1, 1, 1, 1), (2, 1, 1, 1), (1, 1, 1, 2)]:
        via_action = operad_eval_zeta(N, [zhat(k) for k in ks])
        direct = zeta_number(lex_sum(N, [chain(k) for k in ks]))
        assert via_action == direct


def test_operad_eval_zeta_errors():
    with pytest.raises(ArityMismatch):
        operad_eval_zeta(chain(2), [zhat(1)])
    with pytest.raises(MissingProvenance):
        operad_eval_zeta(chain(2), [zhat(1), ZetaExpr.make(0, {2: 1})])


def test_entry22_k2():
    rec = entry22_check(2)
    assert rec.passed
    assert abs(rec.lhs_numeric - Fraction(2898681337, 10 ** 10)) < 1e-9
    assert entry22_oracle(2) == ZetaExpr.make(-3, {1: 2})
    assert entry22_formula(2) == entry22_oracle(2)


def test_entry22_formula_matches_oracle():
    for k in range(2, 7):
        assert entry22_formula(k) == entry22_oracle(k)
        if k <= 4:
            assert entry22_check(k).passed


def test_entry22_oracle_values():
    assert entry22_oracle(3) == ZetaExpr.make(10, {1: -6})
    assert entry22_oracle(4) == ZetaExpr.make(-35, {1: 20, 3: 2})
    with pytest.raises(ValueError):
        entry22_check(1)


def test_finite_form_verifies_on_corpus(classes_upto_6):
    ctx = PrecisionContext(working_digits=30, verify_tolerance=1e-10)
    for size in range(7):
        for P in classes_upto_6[size]:
            rec = verify_identity(finite_form_identity(P), ctx)
            assert rec.passed, P


def plain_record(P):
    """The plain map's record of P: sum_(n>=r0) Omega(P, n) (zeta(n+1)-1)
    = n_tilde(Omega), r0 the height of P, where Omega starts."""
    form = finite_form_identity(P)
    return form._replace(
        lhs_description=f"sum_{{n>={form.start_index}}} "
                        f"Omega({P.relation_string()})(n) (zeta(n+1)-1)",
        rhs=n_tilde(form.lhs_poly), alternating=False)


def test_plain_map_verifies_on_corpus(classes_upto_6):
    # the plain series converges as the alternating one does: every class
    # passes, and on 0-5 elements the engine equals the comb-sum referee
    ctx = PrecisionContext(working_digits=40)
    for size in range(7):
        for P in classes_upto_6[size]:
            rec = plain_record(P)
            got = verify_identity(rec, ctx)
            assert got.passed, P
            if size <= 5:
                assert got == comb_verify_identity(rec, ctx), P
    # a zeta(3) too many on A3's right side fails
    rec = plain_record(antichain(3))
    assert rec.rhs == ZetaExpr.make(0, {1: 1, 2: 6, 3: 6})
    wrong = rec._replace(rhs=rec.rhs + ZetaExpr.make(0, {2: 1}))
    assert verify_identity(wrong, ctx).passed is False


REFEREE_CONTEXTS = [PrecisionContext(working_digits=d, verify_tolerance=t)
                    for d in (20, 40, 60) for t in (1e-12, 1e-15)]


def fractional_record():
    """An alternating record whose polynomial has denominators 3 and 7, so
    each integer term is floored by the lcm 21."""
    poly = BinomialPoly({0: Fraction(1, 3), 2: Fraction(5, 7)})
    return IdentityRecord(
        lhs_description="sum_{n>=1} (-1)^(n+1) (1/3 + 5/7 C(n,2)) (zeta(n+1)-1)",
        rhs=n_tilde2(poly), lhs_poly=poly, alternating=True)


def fractional_goldbach_record():
    """Goldbach's sum times 2/3: non-alternating, with denominator 3."""
    return IdentityRecord(
        lhs_description="sum_{n>=2} 2/3 (zeta(n)-1)",
        rhs=ZetaExpr.make(Fraction(2, 3)),
        lhs_poly=BinomialPoly({0: Fraction(2, 3)}), alternating=False)


def assert_same_as_referee(rec, ctx):
    got = verify_identity(rec, ctx)
    assert got == fraction_verify_identity(rec, ctx), (
        rec.lhs_description, ctx)
    assert type(got.lhs_numeric) is type(got.rhs_numeric) is zeta.Dyadic
    assert got.passed, (rec.lhs_description, ctx)


@pytest.mark.parametrize("ctx", REFEREE_CONTEXTS,
                         ids=lambda c: f"{c.working_digits}-{c.verify_tolerance}")
def test_integer_sums_match_the_fraction_referee_on_the_corpus(
        ctx, classes_upto_6):
    # lhs_numeric, rhs_numeric, error_bound, passed and notes, exactly
    for size in range(7):
        for P in classes_upto_6[size]:
            assert_same_as_referee(finite_form_identity(P), ctx)


def test_integer_sums_match_the_fraction_referee_on_named_records():
    records = [goldbach_record(), alternating_unit_record(),
               fractional_record(), fractional_goldbach_record()]
    records += [binomial_shift_record(k) for k in range(1, 7)]
    for ctx in REFEREE_CONTEXTS:
        for rec in records:
            assert_same_as_referee(rec, ctx)
    # the sum by the lcm 21 is floored once: it sits below the exact
    # partial sum by less than one ulp
    rec = verify_identity(fractional_record())
    N = int(rec.notes[-1].rpartition("=")[2])
    exact = sum((-1) ** (k + 1) * rec.lhs_poly.eval(k)
                * zeta_value(k + 1, minus_one=True)[0]
                for k in range(1, N + 1))
    B = zeta._borwein_size(DEFAULT_CTX.working_digits)[1]
    assert 0 < exact - rec.lhs_numeric < Fraction(1, 1 << B)


def assert_same_as_comb_sum(rec, ctx):
    try:
        want = comb_verify_identity(rec, ctx)
    except PrecisionUnachievable as exc:
        with pytest.raises(PrecisionUnachievable, match=re.escape(str(exc))):
            verify_identity(rec, ctx)
    else:
        assert verify_identity(rec, ctx) == want, (rec.lhs_description, ctx)


def test_a_start_past_the_cap_sums_nothing():
    # no term lies in start..N, so the left side is 0 and no floor counts
    rec = binomial_shift_record(3)._replace(start_index=10_000)
    got = verify_identity(rec)
    assert got.lhs_numeric == 0
    assert got == comb_verify_identity(rec, DEFAULT_CTX)
    # T = N - start + 1 < 0 counts no term, with either sign
    for alternating in (True, False):
        rec = IdentityRecord("sum_{n>=1000} (zeta(n+1)-1)", ZetaExpr.make(0),
                             lhs_poly=BinomialPoly({0: 1}),
                             alternating=alternating, start_index=1000)
        got = verify_identity(rec)
        assert got.lhs_numeric == 0 and got.passed
        assert got == comb_verify_identity(rec, DEFAULT_CTX)
        assert got == fraction_verify_identity(rec, DEFAULT_CTX)


COEFFICIENTS = st.one_of(st.integers(min_value=-6, max_value=6).map(Fraction),
                         st.fractions(min_value=-4, max_value=4,
                                      max_denominator=7))


@given(st.dictionaries(st.integers(min_value=0, max_value=4), COEFFICIENTS,
                       max_size=5),
       st.integers(min_value=1, max_value=6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_drawn_records_match_the_fraction_referee(coeffs, start, alternating):
    # any signs, any lcm, either map: lhs, rhs, bound, pass and notes; at
    # 20 digits the weight's part of the bound shows in its float
    poly = BinomialPoly(coeffs)
    rhs = n_tilde2(poly) if alternating else n_tilde(poly)
    rec = IdentityRecord("drawn", rhs, lhs_poly=poly, alternating=alternating,
                         start_index=start)
    for ctx in (DEFAULT_CTX, PrecisionContext(working_digits=20)):
        assert verify_identity(rec, ctx) == fraction_verify_identity(rec, ctx)


def test_inverse_product_sums_match_the_comb_sum_referee_and_mpmath():
    # the zeta-shift record of each inverse-product sum, field for field
    for k in range(2, 7):
        rec = _entry22_record(k)
        for ctx in REFEREE_CONTEXTS:
            assert verify_identity(rec, ctx) == comb_verify_identity(rec, ctx)
    # the whole sum, its n = 1 term added back, lies within its bound of
    # mpmath's
    for k in range(2, 7):
        rec = entry22_check(k)
        with mpmath.workdps(60):
            want = mpmath.nsum(lambda n: (n * (n + 1)) ** -k,
                               [1, mpmath.inf])
            assert abs(rec.lhs_numeric - want) <= rec.error_bound, k
    # the k range at 50 digits: the weight grows with k until the zeta
    # bound times it passes the tolerance
    assert entry22_check(30).passed
    with pytest.raises(PrecisionUnachievable,
                       match="error bound 5.709e[+]10 exceeds tolerance"):
        entry22_check(50)
    assert entry22_check(50, PrecisionContext(working_digits=200)).passed


@pytest.mark.parametrize("digits", (30, 40, 55, 200))
def test_forward_differences_match_the_comb_sum_referee(digits,
                                                        classes_upto_6):
    # lhs, rhs, bound, pass and notes equal to a sum of math.comb terms
    # with one zeta_value call each, on the corpus and the named records
    ctx = PrecisionContext(working_digits=digits)
    records = [finite_form_identity(P) for n in range(7)
               for P in classes_upto_6[n]]
    records += [goldbach_record(), alternating_unit_record(),
                fractional_record(), fractional_goldbach_record()]
    records += [binomial_shift_record(k) for k in range(1, 9)]
    for rec in records:
        assert_same_as_comb_sum(rec, ctx)


def test_forward_differences_match_the_comb_sum_referee_at_high_degree():
    # A_D has d_D = 1 and every lower d_i, so the differences run D deep;
    # at 80 digits the larger D refuse with the same message
    for digits in (80, 200):
        ctx = PrecisionContext(working_digits=digits)
        for D in range(1, 61):
            assert_same_as_comb_sum(
                finite_form_identity(antichain(D), guard=D), ctx)


def falling_record():
    """q(k) = 2 - k: a negative difference at its start, zero at k = 2 and
    negative past it."""
    falling = BinomialPoly({0: 2, 1: -1})
    return IdentityRecord(
        lhs_description="sum_{n>=1} (-1)^(n+1) (2 - n) (zeta(n+1)-1)",
        rhs=n_tilde2(falling), lhs_poly=falling, alternating=True)


def test_records_off_the_certificate_match_the_comb_sum_referee():
    # records no package code builds: the falling record, whose weight
    # sum_j |delta_j| C(T, j+1) lies above sum |q_k|, and C3 summed from
    # k = 1, where delta_0 = q(1) = 0
    records = [falling_record(),
               finite_form_identity(chain(3))._replace(start_index=1)]
    assert zeta._differences({0: 2, 1: -1}, 1) == [1, -1]
    assert zeta._differences({3: 1}, 1)[0] == 0
    for digits in (30, 40, 200):
        ctx = PrecisionContext(working_digits=digits)
        for rec in records:
            assert_same_as_comb_sum(rec, ctx)
            assert verify_identity(rec, ctx).passed


def test_moment_sums_match_the_direct_sums(classes_upto_6):
    # every class sums from the moments, built on a cleared memo and read
    # again from it after the passes are evicted: both equal the referee
    ctx = PrecisionContext(working_digits=40)
    assert _moments.cache_info().maxsize is not None
    records = [finite_form_identity(P) for size in range(7)
               for P in classes_upto_6[size]]
    want = [comb_verify_identity(rec, ctx) for rec in records]
    _moments.cache_clear()
    try:
        assert [verify_identity(rec, ctx) for rec in records] == want
        _zeta_pass.cache_clear()
        hits = _moments.cache_info().hits
        assert [verify_identity(rec, ctx) for rec in records] == want
        assert _moments.cache_info().hits - hits == len(records)
    finally:
        _zeta_pass.cache_clear()
        _moments.cache_clear()


def test_closed_form_weight_matches_the_summed_weight(classes_upto_6):
    # every class of 0-6 elements has delta_0 > 0 and no delta_j < 0 at r0,
    # so the weight sum_j delta_j C(T, j+1) equals sum |q_k| over the
    # N - r0 + 1 summed terms
    for size in range(7):
        for P in classes_upto_6[size]:
            form = finite_form_identity(P)
            coeffs = form.lhs_poly.coeffs
            N, _ = _choose_series_cap(Fraction(sum(coeffs.values())),
                                      form.lhs_poly.max_index(),
                                      DEFAULT_CTX.verify_tolerance,
                                      DEFAULT_CTX.series_term_cap)
            start, T = form.start_index, N - form.start_index + 1
            delta = zeta._differences(coeffs, start)
            assert delta[0] > 0 and min(delta) >= 0, P
            summed = [sum(c * comb(k, i) for i, c in coeffs.items())
                      for k in range(start, N + 1)]
            assert min(summed) > 0, P
            assert sum(d * comb(T, j + 1) for j, d in enumerate(delta)) \
                == sum(summed), P


def test_the_bound_refuses_before_the_sum(monkeypatch):
    # A500's weight comes from its differences, so the refusal needs
    # neither the terms nor the pass's moments
    def no_moments(*args):
        raise AssertionError("the moments were read")
    monkeypatch.setattr(zeta, "_moments", no_moments)
    rec = finite_form_identity(antichain(500), guard=500)
    ctx = PrecisionContext(series_term_cap=10 ** 8)
    with pytest.raises(PrecisionUnachievable,
                       match=r"error bound 1\.760e\+1974 exceeds"):
        verify_identity(rec, ctx)


def test_a_record_off_the_certificate_refuses_before_the_sum(monkeypatch):
    # the falling record at one digit: its weight comes from its
    # differences, and the bound is refused with the referee's message
    # before the moments are read
    rec = falling_record()
    ctx = PrecisionContext(working_digits=1)
    with pytest.raises(PrecisionUnachievable) as want:
        comb_verify_identity(rec, ctx)

    def no_moments(*args):
        raise AssertionError("the moments were read")
    monkeypatch.setattr(zeta, "_moments", no_moments)
    with pytest.raises(PrecisionUnachievable,
                       match=re.escape(str(want.value))):
        verify_identity(rec, ctx)


def test_a_moved_constant_fails_whatever_the_lcm(monkeypatch):
    # n_tilde2's constant moved by 2^-30: A3 and the fractional record
    # (L = 21, floored once) both FAIL, twice
    true_n_tilde2 = zeta.n_tilde2

    def shifted(p):
        expr = true_n_tilde2(p)
        return ZetaExpr({**expr.coeffs,
                         0: expr.constant + Fraction(1, 2 ** 30)})
    monkeypatch.setattr(zeta, "n_tilde2", shifted)
    frac = fractional_record()
    records = [zeta.finite_form_identity(antichain(3)),
               frac._replace(rhs=zeta.n_tilde2(frac.lhs_poly))]
    _zeta_pass.cache_clear()
    for rec in records:
        got = [verify_identity(rec) for _ in range(2)]
        assert got[0].passed is False, rec.lhs_description
        assert got == [comb_verify_identity(rec, DEFAULT_CTX)] * 2


def test_the_smallest_tolerance_is_halved_exactly():
    # 5e-324 / 2 rounds to 0.0 as a float; the exact half is reached
    N, tail = _choose_series_cap(Fraction(1), 3, 5e-324, 4000)
    assert 0 < tail < Fraction(5e-324) / 2
    assert (N, tail) == fraction_series_cap(Fraction(1), 3, 5e-324, 4000)
    with pytest.raises(PrecisionUnachievable,
                       match=r"cannot push the tail below 4\.941e-324"):
        _choose_series_cap(Fraction(1), 3, 5e-324, 1000)


def test_bounds_past_float_range_print_rounded_up():
    # the refusal names the bound in %.3e form, above it, in float range
    # through the float and past it from the exact rational
    for x in (Fraction(10 ** 400), Fraction(10 ** 400 + 1),
              Fraction(9999 * 10 ** 397 + 1), Fraction(7 * 10 ** 309, 3),
              Fraction(2 ** 1024 - 1), Fraction(3, 7), Fraction(10 ** 300),
              Fraction(2 ** 1030, 15)):  # its first exponent guess is high
        text = zeta._sci_up(x)
        mantissa, _, exponent = text.partition("e")
        shown = Fraction(mantissa) * Fraction(10) ** int(exponent)
        assert shown >= x and shown - x < Fraction(10) ** int(exponent) / 1000
        if x < 2 ** 1023:
            assert text == f"{zeta._float_up(x):.3e}"


def test_series_cap_matches_the_fraction_referee():
    def agree(M, D, tol, cap):
        try:
            got = _choose_series_cap(M, D, tol, cap)
        except PrecisionUnachievable as exc:
            with pytest.raises(PrecisionUnachievable,
                               match=re.escape(str(exc))):
                fraction_series_cap(M, D, tol, cap)
        else:
            assert got == fraction_series_cap(M, D, tol, cap)

    for M in (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(22, 21),
              Fraction(13), Fraction(5040), Fraction(10 ** 9, 7)):
        for D in (0, 1, 2, 3, 5, 8, 12):
            for tol in (1e-3, 1e-10, 1e-12, 1e-15, 1e-40):
                for cap in (10, 40, 4000):
                    agree(M, D, tol, cap)
    # large D: the first majorants lie past float range, and A95's N is
    # found past them
    a95 = Fraction(sum(d_vector(antichain(95), 95).d))
    assert _choose_series_cap(a95, 95, 1e-12, 4000)[0] > 2 * 95 + 2
    for M, D in ((a95, 95), (Fraction(1), 200), (Fraction(10 ** 300), 60)):
        for tol in (1e-12, 1e300, 1.7e308):
            agree(M, D, tol, 4000)
    # the cramped context of test_verify_fails_loudly_when_unachievable
    with pytest.raises(PrecisionUnachievable):
        _choose_series_cap(Fraction(1), 0, 1e-12, 10)


def test_integer_sum_fails_on_a_corrupted_polynomial_or_constant():
    rec = finite_form_identity(antichain(3))
    assert verify_identity(rec).passed
    poly = rec.lhs_poly
    for i in range(poly.max_index() + 1):
        for delta in (1, -1):
            bad = BinomialPoly({**poly.coeffs, i: poly.coeff(i) + delta})
            assert verify_identity(rec._replace(lhs_poly=bad)).passed is False
    for delta in (Fraction(1, 2 ** 30), -Fraction(1, 2 ** 30)):
        moved = ZetaExpr({**rec.rhs.coeffs, 0: rec.rhs.constant + delta})
        assert verify_identity(rec._replace(rhs=moved)).passed is False
