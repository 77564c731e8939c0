"""The package's decimal renderer, zeta.nstr, works on integers only.  Here
mpmath.nstr referees it: the strings must be byte-identical at the digit
counts the package prints (15, 20 and 25) and at the 35 that perfbench's
corpus batch prints.  mpmath reads a Dyadic through its ``_mpf_`` tuple,
which is checked against mpmath's own normal form first."""

import random

import mpmath
from mpmath.libmp import from_man_exp

from posetoperad.poset import antichain, chain
from posetoperad.suite import (alternating_unit_record, binomial_shift_record,
                               goldbach_record)
from posetoperad.zeta import (Dyadic, PrecisionContext, entry22_check,
                              finite_form_identity, nstr, verify_identity)

DIGITS = (15, 20, 25, 35)


def dyadic(man, exp):
    """man * 2^exp as a Dyadic."""
    return Dyadic(man << exp, 1) if exp >= 0 else Dyadic(man, 1 << -exp)


def assert_renders_like_mpmath(x):
    for n in DIGITS:
        assert nstr(x, n) == mpmath.nstr(x, n), (x, n)


def random_dyadics(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        bits = rng.randint(1, 400)
        man = rng.getrandbits(bits) or 1
        yield dyadic(rng.choice((1, -1)) * man, rng.randint(-700, 300))


def test_mpf_tuple_is_mpmaths_normal_form():
    values = [Dyadic(0), Dyadic(-3, 8), Dyadic(40), dyadic(-96, 5)]
    values += random_dyadics(7, 300)
    for x in values:
        shift = x.denominator.bit_length() - 1
        assert x._mpf_ == from_man_exp(x.numerator, -shift), x


def test_dyadics_stay_dyadic_under_ring_operations():
    a, b = dyadic(5, -7), dyadic(-3, -70)
    for value in (a + b, a - b, a * b, 2 - a, 3 * b, -a, abs(b)):
        assert type(value) is Dyadic
    assert type(a / b) is not Dyadic  # a quotient need not be dyadic


def test_verify_suite_values():
    for digits in (30, 50, 200):
        ctx = PrecisionContext(working_digits=digits)
        recs = [verify_identity(r, ctx) for r in
                [goldbach_record(), alternating_unit_record()]
                + [binomial_shift_record(k) for k in range(1, 7)]
                + [finite_form_identity(P) for P in (antichain(3), chain(3))]]
        recs += [entry22_check(k, ctx) for k in (2, 3, 4)]
        for rec in recs:
            assert_renders_like_mpmath(rec.lhs_numeric)
            assert_renders_like_mpmath(rec.rhs_numeric)


def test_seeded_random_values():
    for x in random_dyadics(20261018, 1500):
        assert_renders_like_mpmath(x)


def test_exact_ties_at_the_last_digit():
    # q / 2^m = q 5^m / 10^m: with q 5^m of n + 1 digits, digit n + 1 is an
    # exact 5 and nothing follows it
    rng = random.Random(11)
    for n in DIGITS:
        for m in range(1, int(1.43 * (n + 1)) + 1):
            lo, hi = -(-10 ** n // 5 ** m), (10 ** (n + 1) - 1) // 5 ** m
            for _ in range(3):
                q = rng.randint(lo, hi) | 1
                if q > hi:
                    continue
                tail = str(q * 5 ** m)
                assert len(tail) == n + 1 and tail.endswith("5")
                for j in (0, 3, n):  # the same digits at larger exponents
                    assert_renders_like_mpmath(dyadic(q * 10 ** j, -m))
                    assert_renders_like_mpmath(dyadic(-q * 10 ** j, -m))


def test_nine_carries_and_format_switch_points():
    # values at and next to 10^e, for every e from below min_fixed
    # (min(-(n//3), -5)) to above max_fixed (n), rounding up through 9s
    for e in range(-15, 40):
        for m in (1, 8, 60, 130, 300):
            near = (2 ** m * 10 ** e if e >= 0 else 2 ** m // 10 ** -e)
            for man in (near - 1, near, near + 1):
                if man:
                    assert_renders_like_mpmath(dyadic(man, -m))
                    assert_renders_like_mpmath(dyadic(-man, -m))
    for n in DIGITS:  # n nines, then an exact 5: a tie that carries
        assert_renders_like_mpmath(dyadic(2 * 10 ** n - 1, -1))


def test_zero():
    for n in DIGITS:
        assert nstr(Dyadic(0), n) == mpmath.nstr(mpmath.mpf(0), n) == "0.0"
