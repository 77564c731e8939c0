"""High-precision zeta values, the binomial-to-zeta linear maps, finite-form
identity generation, exact inverse-power sums, and numeric verification.

Exactness split: every ZetaExpr is exact rational data.  The numeric layer
runs on Python integers only.  zeta(s) comes from Borwein's alternating
series ("An efficient algorithm for the Riemann zeta function", 2000) in
B-bit fixed point, one pass shared by every s.  The verification sums, the
direct sum in entry22_check and the decimal rendering work on the same
integers, so every value is an exact Dyadic, every bound is an exact sum
that counts its floors, rounded up to a float once, PASS is an exact
rational comparison, and the one shared state, the zeta passes, is read
under a lock: the layer is safe to call from several threads.  mpmath is
not needed; a Dyadic exposes ``_mpf_`` so that mpmath code can read it.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache

from .counting import DEFAULT_GUARD, count_maps, order_polynomial
from .errors import (MAX_DIGITS, MAX_DIRECT_TERMS, ArityMismatch,
                     DivergentParameter, MissingProvenance, PosetOperadError,
                     PrecisionUnachievable, Record)
from .polynomials import BinomialPoly, SparseVec, binomial, render_sum
from .poset import chain, lex_sum, max_chain_length
# inverse_power_sum lives in series, next to SeriesVec.eval_at; it is bound
# here too, so `from posetoperad.zeta import inverse_power_sum` keeps working
from .series import inverse_power_sum


class PrecisionContext(Record):
    """Numeric policy: working digits, verification tolerance, term cap.

    The tolerance must stay looser than the guaranteed truncation and
    rounding bound of each computation; the verifiers raise
    PrecisionUnachievable when they cannot honor that.
    """

    __slots__ = ("working_digits", "verify_tolerance", "series_term_cap")
    _defaults = {"working_digits": 50, "verify_tolerance": 1e-12,
                 "series_term_cap": 4000}


DEFAULT_CTX = PrecisionContext()

_GUARD_DIGITS = 10  # fixed-point digits kept past the working digits


class Dyadic(Fraction):
    """An exact binary fraction man / 2^B, built as ``Dyadic(man, 1 << B)``.

    Sums, differences, products and absolute values of dyadics stay
    dyadic.  ``_mpf_`` is the normalized mpmath tuple (sign, man, exp, bc),
    so mpmath arithmetic and ``mpmath.nstr`` read a Dyadic exactly.
    """

    __slots__ = ()

    def _closed(op):
        def method(a, b):
            r = op(a, b)
            return Dyadic(r) if isinstance(b, (int, Dyadic)) else r
        return method

    __add__ = __radd__ = _closed(Fraction.__add__)
    __mul__ = __rmul__ = _closed(Fraction.__mul__)
    __sub__ = _closed(Fraction.__sub__)
    __rsub__ = _closed(Fraction.__rsub__)
    del _closed

    def __neg__(self):
        return Dyadic(-self.numerator, self.denominator)

    def __abs__(self):
        return Dyadic(abs(self.numerator), self.denominator)

    @property
    def _mpf_(self):
        man, den = self.numerator, self.denominator
        if not man:
            return (0, 0, 0, 0)
        sign, man = int(man < 0), abs(man)
        zeros = (man & -man).bit_length() - 1
        man >>= zeros
        return (sign, man, zeros - den.bit_length() + 1, man.bit_length())


def _fixed(x, B):
    """floor(x 2^B) for a rational x: its B-bit fixed point, one floor."""
    return (x.numerator << B) // x.denominator


def _mantissa(x, B):
    """The integer x 2^B for a Dyadic x that is a multiple of 2^-B (a
    Dyadic is stored reduced, so its denominator is at most 2^B)."""
    return x.numerator << (B - x.denominator.bit_length() + 1)


def _float_up(x):
    """A float >= the nonnegative rational x, never 0."""
    return math.nextafter(float(x), math.inf)


def _dps_to_prec(digits):
    """Bits for that many decimal digits (mpmath's libmp.dps_to_prec)."""
    return max(1, round((digits + 1) * 3.3219280948873626))


def _borwein_size(digits):
    """(n, B): Borwein's term count for the working digits plus the guard,
    and the fixed-point bits, which leave room for the kernel's 2n + 1
    ulps.  Every numeric value at these digits is a multiple of 2^-B."""
    n = math.ceil((digits + _GUARD_DIGITS + math.log10(6))
                  / math.log10(3 + math.sqrt(8)))
    ulps = 2 * n + 1
    return n, _dps_to_prec(digits + _GUARD_DIGITS) + ulps.bit_length()


def _borwein_weights(n):
    """d_n and (d_n - d_k for k < n), where d_k = n sum_(i<=k) (n+i-1)! 4^i
    / ((n-i)! (2i)!) = sum_(i<=k) n 4^i C(n+i, 2i) / (n+i) are integers.
    Term i + 1 is term i times 4(n+i)(n-i) / ((2i+1)(2i+2)), starting
    from term 0 = 1."""
    d, term, partial = 0, 1, []
    for i in range(n + 1):
        d += term
        partial.append(d)
        term, rem = divmod(term * 4 * (n + i) * (n - i),
                           (2 * i + 1) * (2 * i + 2))
        if rem:
            raise PosetOperadError(
                f"Borwein weight {i + 1} of n={n} is not an integer")
    return d, tuple(d - dk for dk in partial[:n])


class _BorweinPass:
    """Borwein's alternating series for every s up to the last one asked.

    eta(s) = sum_(k<n) (-1)^k (d_n - d_k) / (d_n (k+1)^s), each term floored
    at B bits, and zeta(s) = eta(s) 2^(s-1) / (2^(s-1) - 1) with one more
    floor.  The terms of s + 1 are those of s divided by k + 1: for positive
    integers floor(floor(x/a)/b) = floor(x/(ab)), so each s gets the same
    integers as a pass of its own, from one big division per k in all.  The
    bound, one Dyadic for all s, is the truncation 2 * 3/(3+sqrt 8)^n, the 2
    covering 1/(1 - 2^(1-s)) for s >= 2, rounded up to ulps, plus 2n + 1 ulps:
    the n term floors, doubled by the same factor, and the division's own.
    """

    def __init__(self, n, B):
        dn, weights = _borwein_weights(n)
        self.one = 1 << B
        self.terms = [(w << B) // (dn * (k + 1))  # s = 1
                      for k, w in enumerate(weights)]
        self.values = []  # (zeta(s) - 1, zeta(s)) at index s - 2
        # 3 + sqrt 8 > 1457/250
        truncation = -(-(6 * 250 ** n << B) // 1457 ** n)
        self.bound = Dyadic(truncation + 2 * n + 1, self.one)

    def extend(self, s):
        one, terms = self.one, self.terms
        for s_next in range(len(self.values) + 2, s + 1):
            terms = [t // (k + 1) for k, t in enumerate(terms)]
            while terms and not terms[-1]:  # terms fall with k; zeros stay
                terms.pop()
            half = 1 << (s_next - 1)
            z = (sum(terms[::2]) - sum(terms[1::2])) * half // (half - 1)
            self.values.append((Dyadic(z - one, one), Dyadic(z, one)))
        self.terms = terms


_zeta_lock = threading.Lock()  # guards the lookup, extend and the read
ZETA_PASSES_KEPT = 4


@lru_cache(maxsize=ZETA_PASSES_KEPT)
def _zeta_pass(digits):
    """The pass for the digits, called under the lock: one build per miss."""
    return _BorweinPass(*_borwein_size(digits))


def zeta_value(s, ctx=DEFAULT_CTX, minus_one=False):
    """(value, error_bound) for zeta(s) or zeta(s) - 1, s an integer >= 2;
    both are Dyadics, and the bound is the same for every s."""
    if not isinstance(s, int) or s < 2:
        raise ValueError("zeta_value needs an integer s >= 2")
    if ctx.working_digits > MAX_DIGITS:
        raise PrecisionUnachievable(
            f"{ctx.working_digits} working digits exceed the ceiling "
            f"{MAX_DIGITS} for zeta({s})")
    with _zeta_lock:
        zp = _zeta_pass(ctx.working_digits)
        zp.extend(s)
        minus, plain = zp.values[s - 2]
    return (minus if minus_one else plain), zp.bound


def nstr(x, n):
    """The decimal string mpmath.nstr(x, n) gives for a Dyadic x, computed
    from integers (a port of mpmath's libmpf.to_str at its defaults).

    The digits are floor(floor(|x| 2^f) 10^d / 2^f), f and d as mpmath
    picks them for n + 3 digits; the string is rounded half-up at digit n,
    shown in fixed point when the leading digit's exponent lies strictly
    between min(-(n//3), -5) and n, and stripped of trailing zeros.  mpmath
    rescales by a rounded power of ten when |x| is beyond 2^(+-3500); this
    renderer stays exact there, so only there may the last digit differ.
    """
    num, den = x.numerator, x.denominator
    if not num:
        return "0.0"
    sign, num = ("-" if num < 0 else ""), abs(num)
    shift = den.bit_length() - 1
    bitprec = int((n + 3) * math.log(10, 2)) + 10
    fixprec = max(bitprec - num.bit_length() + shift, 0)
    fixdps = int(fixprec / math.log(10, 2) + 0.5)
    digits = str(((num << fixprec) >> shift) * 10 ** fixdps >> fixprec)
    exponent = len(digits) - fixdps - 1
    if len(digits) > n and digits[n] in "56789":
        head = digits[:n].rstrip("9")
        if head:
            digits = head[:-1] + str(int(head[-1]) + 1)
        else:
            digits, exponent = "1", exponent + 1
    digits = digits[:n]
    if min(-(n // 3), -5) < exponent < n:
        if exponent < 0:
            digits, split = "0" * -exponent + digits, 1
        else:
            split = exponent + 1
            digits = digits.ljust(split, "0")
        exponent = 0
    else:
        split = 1
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits.endswith("."):
        digits += "0"
    if exponent == 0:
        return sign + digits
    return f"{sign}{digits}e{exponent:+d}"


class ZetaExpr(SparseVec):
    """Exact rational constant plus rational coefficients over zeta(k+1).

    The shared sparse vector with basis "zeta": index 0 holds the constant
    and index k >= 1 the coefficient of zeta(k+1), so n_tilde keeps a
    polynomial's coefficients as they are.  Printable both directly and
    against the shifted terms zeta(k+1) - 1 - 2^-(k+1).  Provenance is
    metadata and takes no part in equality.
    """

    __slots__ = ("provenance",)
    basis = "zeta"

    def __init__(self, coeffs=None, provenance=None):
        super().__init__(coeffs)
        self.provenance = provenance

    @staticmethod
    def make(constant=0, coeffs=None, provenance=None):
        return ZetaExpr({**(coeffs or {}), 0: constant}, provenance)

    @property
    def constant(self):
        return self.coeff(0)

    def zeta_terms(self):
        """The (k, coefficient of zeta(k+1)) pairs, k >= 1, sorted by k."""
        return [(k, self.coeffs[k]) for k in sorted(self.coeffs) if k]

    def shifted_constant(self):
        """Leftover rational when the expression is written over the shifted
        basis zeta(k+1) - 1 - 2^-(k+1) with the same coefficients."""
        extra = sum((v * (1 + Fraction(1, 2 ** (k + 1)))
                     for k, v in self.zeta_terms()), Fraction(0))
        return self.constant + extra

    def render(self, style="plain"):
        if style == "plain":
            terms = [(v, f"zeta({k + 1})") for k, v in self.zeta_terms()]
            const = self.constant
        elif style == "shifted":
            terms = [(v, f"(zeta({k + 1})-1-1/{2 ** (k + 1)})")
                     for k, v in self.zeta_terms()]
            const = self.shifted_constant()
        else:
            raise ValueError(f"unknown render style {style!r}")
        if const or not terms:
            terms.append((const, "1"))
        return render_sum(terms)

    def __repr__(self):
        return f"ZetaExpr({self.render()})"

    def eval_numeric(self, ctx=DEFAULT_CTX):
        """(Dyadic value, exact error bound) at the zeta kernel's B bits:
        the constant and each coefficient v times its zeta value man / 2^B
        are floored once, the latter as the integer floor of v.numerator *
        man / v.denominator, and the bound sum |v| zb + (terms + 1) 2^-B is
        counted in ulps times L, the lcm of the denominators."""
        B = _borwein_size(ctx.working_digits)[1]
        terms = self.zeta_terms()
        total = _fixed(self.constant, B)
        L = math.lcm(*(v.denominator for _, v in terms))
        ulps = (len(terms) + 1) * L
        for k, v in terms:
            zv, zb = zeta_value(k + 1, ctx)
            total += v.numerator * _mantissa(zv, B) // v.denominator
            ulps += abs(v.numerator) * (L // v.denominator) * _mantissa(zb, B)
        return Dyadic(total, 1 << B), Fraction(ulps, L << B)

    def to_json_dict(self):
        return {"constant": str(self.constant),
                "zeta_coeffs": {str(k): str(v) for k, v in self.zeta_terms()}}


def n_tilde(p):
    """C(x,k) -> zeta(k+1) for k >= 1; the constant slot C(x,0) -> 1.

    Image of p under summing p(n)(zeta(n+1)-1) over n >= 1.
    """
    return ZetaExpr(p.coeffs)


def n_tilde2(p):
    """C(x,k) -> (-1)^(k+1)(zeta(k+1)-1-2^-(k+1)) for k >= 1, C(x,0) -> 1/2.

    Image of p under the alternating sum of p(k)(zeta(k+1)-1); the rational
    shifts are folded into the constant so the result stays exact.
    """
    out = {0: p.coeff(0) / 2}
    for i, v in p.coeffs.items():
        if i:
            out[i] = signed = (-1) ** (i + 1) * v
            out[0] += signed * (-1 - Fraction(1, 2 ** (i + 1)))
    return ZetaExpr(out)


def zeta_number(P, variant="tilde2", guard=DEFAULT_GUARD):
    """The zeta value attached to a poset: n_tilde(Omega) for "tilde", and
    (-1)^(|P|+1) n_tilde2(Omega) for "tilde2" (chains map to the shifted
    basis elements themselves)."""
    p = order_polynomial(P, "strict", guard)
    if variant == "tilde":
        expr = n_tilde(p)
    elif variant == "tilde2":
        expr = n_tilde2(p).scale((-1) ** (len(P) + 1))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return ZetaExpr(expr.coeffs, provenance=P)


def zhat(k, guard=DEFAULT_GUARD):
    """zeta(k+1) - 1 - 2^-(k+1) with chain provenance."""
    return zeta_number(chain(k), "tilde2", guard)


def operad_eval_zeta(P, args, guard=DEFAULT_GUARD):
    """Action of P on poset-provenanced zeta numbers: compose the underlying
    posets and reapply the alternating-sign map."""
    args = list(args)
    if len(args) != len(P):
        raise ArityMismatch(f"poset has {len(P)} slots, got {len(args)} values")
    for a in args:
        if a.provenance is None:
            raise MissingProvenance(
                "operad evaluation on zeta numbers needs poset provenance")
    return zeta_number(lex_sum(P, [a.provenance for a in args]), "tilde2", guard)


class IdentityRecord(Record):
    """A claimed equality between a zeta-shifted series and a finite form."""

    __slots__ = ("lhs_description", "rhs", "poset", "lhs_poly", "alternating",
                 "start_index", "lhs_numeric", "rhs_numeric", "error_bound",
                 "passed", "notes")
    _defaults = {"poset": None, "lhs_poly": None, "alternating": True,
                 "start_index": 1, "lhs_numeric": None, "rhs_numeric": None,
                 "error_bound": None, "passed": None, "notes": ()}

    def to_json_dict(self):
        return {
            "poset": self.poset.to_json_dict() if self.poset else None,
            "lhs": self.lhs_description,
            "rhs": self.rhs.to_json_dict(),
            "numeric": {
                "lhs": nstr(self.lhs_numeric, 25) if self.lhs_numeric is not None else None,
                "rhs": nstr(self.rhs_numeric, 25) if self.rhs_numeric is not None else None,
                "bound": self.error_bound,
            },
            "pass": self.passed,
            "notes": list(self.notes),
        }


def _choose_series_cap(M, D, tol, cap):
    """(N, tail): the first N tried whose exact majorant tail of
    M * sum_(k>N) k^D 2^-k falls below tol / 2.  With a = (N+1)^D and
    b = (N+2)^D the geometric ratio b / 2a is below 1 when b < 2a, and
    the tail is M a / 2^(N+1) / (1 - b / 2a) = M a^2 / (2^N (2a - b)),
    one integer quotient, compared as a float once below 2^1023 > tol / 2."""
    N = max(8, 2 * D + 2)
    while N <= cap:
        a, b = (N + 1) ** D, (N + 2) ** D
        if b < 2 * a:
            num = M.numerator * a * a
            den = M.denominator * (2 * a - b) << N
            if num < den << 1023 and num / den < tol / 2:
                return N, Fraction(num, den)
        N = N + max(4, N // 4)
    raise PrecisionUnachievable(
        f"series cap {cap} cannot push the tail below {tol / 2}")


def _verdict(lhs, rhs, bound, ctx):
    """(the exact bound rounded up to a float, PASS), both decided exactly:
    a bound above the tolerance would pass whatever it swallows, so it
    raises, and PASS is |lhs - rhs| <= bound + tolerance."""
    if bound > ctx.verify_tolerance:
        raise PrecisionUnachievable(
            f"error bound {_float_up(bound):.3e} exceeds tolerance "
            f"{ctx.verify_tolerance:.3e}; raise the working digits")
    return (_float_up(bound),
            abs(lhs - rhs) <= bound + Fraction(ctx.verify_tolerance))


def verify_identity(rec, ctx=DEFAULT_CTX):
    """Numerically referee an IdentityRecord built on a binomial-basis LHS.

    The LHS sum is truncated where the certified tail bound drops below
    half the tolerance; the pass flag compares against the accumulated
    bound plus the tolerance; a bound above the tolerance raises.

    The sum runs in integers.  With L the lcm of the polynomial's
    denominators (1 for every record the package builds), L p(k) = q is an
    integer sum of C(k, i) times integer coefficients, and zeta(k+1) - 1
    is man / 2^B, so each term adds floor(+-q man / L), which for L = 1
    is exact.  One floor per nonzero term is still counted, so the floor
    count in the bound is an upper bound.  The bound, tail + (sum |q| / L)
    zb + RHS bound + floors 2^-B, is exact until the record rounds it up.
    """
    if rec.lhs_poly is None:
        raise ValueError("record carries no summable polynomial")
    poly = rec.lhs_poly
    D = poly.max_index()
    L = math.lcm(*(v.denominator for v in poly.coeffs.values()))
    coeffs = [(i, v.numerator * (L // v.denominator))
              for i, v in poly.coeffs.items()]
    M = Fraction(sum(abs(c) for _, c in coeffs), L)
    if not rec.alternating and D > 0:
        raise DivergentParameter(
            "non-alternating zeta-shift series need a constant polynomial")
    N, tail = _choose_series_cap(M, D, ctx.verify_tolerance, ctx.series_term_cap)
    B = _borwein_size(ctx.working_digits)[1]
    total = floors = weight = zb = 0
    for k in range(rec.start_index, N + 1):
        q = sum(c * math.comb(k, i) for i, c in coeffs)
        if q == 0:
            continue
        # by its module-level name, which perfbench's tracer wraps
        zv, zb = zeta_value(k + 1, ctx, minus_one=True)
        if rec.alternating and k % 2 == 0:
            q = -q
        total += q * _mantissa(zv, B) // L
        floors += 1
        weight += abs(q)
    lhs_val = Dyadic(total, 1 << B)
    rhs_val, rhs_bound = rec.rhs.eval_numeric(ctx)
    ulps = weight * _mantissa(zb, B) + floors * L
    bound, passed = _verdict(lhs_val, rhs_val,
                             tail + Fraction(ulps, L << B) + rhs_bound, ctx)
    return rec._replace(lhs_numeric=lhs_val, rhs_numeric=rhs_val,
                        error_bound=bound, passed=passed,
                        notes=rec.notes + (f"lhs summed to k={N}",))


def finite_form_identity(P, guard=DEFAULT_GUARD):
    """Finite form of sum_(k>=r0) (-1)^(k+1) Omega_strict(P,k)(zeta(k+1)-1):
    the image of the strict order polynomial under the alternating map."""
    poly = order_polynomial(P, "strict", guard)
    r0 = max(1, max_chain_length(P))
    desc = (f"sum_{{k>={r0}}} (-1)^(k+1) Omega({P.relation_string()})(k) "
            f"(zeta(k+1)-1)")
    return IdentityRecord(lhs_description=desc, rhs=n_tilde2(poly), poset=P,
                          lhs_poly=poly, alternating=True, start_index=r0)


def inverse_power_sum_partial(P, r, terms, mode="strict", guard=DEFAULT_GUARD):
    """Direct partial sum with an exact geometric tail majorant; returns
    (partial, tail_bound).  A referee for the tests, public because
    ``scripts/ramanujan_sums.py`` checks each exact sum against it."""
    r = Fraction(r)
    if abs(r) <= 1:
        raise DivergentParameter(f"need |r| > 1, got {r}")
    total = Fraction(0)
    start = 1 if mode == "weak" else 0  # weak series sum from n = 1
    for n in range(start, terms + 1):
        total += Fraction(count_maps(P, n, mode, guard)) / r ** n
    k = len(P)
    growth = Fraction((terms + 2) ** k, (terms + 1) ** k)
    q = growth / abs(r)
    if q >= 1:
        raise DivergentParameter("not enough terms for a geometric majorant")
    first = Fraction((terms + 1) ** k) / abs(r) ** (terms + 1)
    return total, first / (1 - q)


def goldbach_record():
    """sum_{n>=2} (zeta(n)-1) = 1."""
    return IdentityRecord(
        lhs_description="sum_{n>=2} (zeta(n)-1)",
        rhs=ZetaExpr.make(1), lhs_poly=BinomialPoly({0: 1}),
        alternating=False)


def alternating_unit_record():
    """sum_{n>=1} (-1)^(n+1) (zeta(n+1)-1) = 1/2."""
    return IdentityRecord(
        lhs_description="sum_{n>=1} (-1)^(n+1) (zeta(n+1)-1)",
        rhs=ZetaExpr.make(Fraction(1, 2)), lhs_poly=BinomialPoly({0: 1}),
        alternating=True)


def binomial_shift_record(k):
    """sum_{n>=k} (-1)^(n+1) C(n,k) (zeta(n+1)-1)
    = (-1)^(k+1)(zeta(k+1)-1-2^-(k+1))."""
    poly = BinomialPoly({k: 1})
    return IdentityRecord(
        lhs_description=f"sum_{{n>={k}}} (-1)^(n+1) C(n,{k}) (zeta(n+1)-1)",
        rhs=n_tilde2(poly), lhs_poly=poly, alternating=True, start_index=k)


def _inverse_square_partial_fractions(k):
    """Exact decomposition of 1/(n^k (n+1)^k) into a_i/n^i + b_i/(n+1)^i."""
    a = {i: binomial(-k, k - i) for i in range(1, k + 1)}
    b = {k - m: Fraction(-1) ** k * binomial(k + m - 1, m) for m in range(k)}
    if a[1] != -b[1]:
        raise PosetOperadError("telescoping part must cancel")
    return a, b


def entry22_oracle(k):
    """Exact finite form of sum_n 1/(n^k (n+1)^k) via partial fractions and
    telescoping; independent of the printed formula."""
    a, b = _inverse_square_partial_fractions(k)
    constant = a[1] - sum(b[i] for i in range(2, k + 1))
    coeffs = {i - 1: a[i] + b[i] for i in range(2, k + 1)}
    return ZetaExpr.make(constant, coeffs)


def entry22_formula(k):
    """The printed closed form: sum over n of (1+(-1)^(k-n)) zeta(k-n) C(-k,n),
    with n = k-1 skipped and the convention zeta(0) = -1/2."""
    constant = Fraction(0)
    coeffs = {}
    for n in range(k + 1):
        if n == k - 1:
            continue
        weight = (1 + (-1) ** (k - n)) * binomial(-k, n)
        if weight == 0:
            continue
        s = k - n
        if s == 0:
            constant += weight * Fraction(-1, 2)
        else:
            coeffs[s - 1] = coeffs.get(s - 1, Fraction(0)) + weight
    return ZetaExpr.make(constant, coeffs)


def entry22_check(k, ctx=DEFAULT_CTX):
    """Compare the direct sum of 1/(n^k (n+1)^k), in integer fixed point,
    against the printed zeta combination; on mismatch the telescoping-oracle
    value is attached."""
    if k < 2:
        raise ValueError("entry22_check needs k >= 2")
    formula = entry22_formula(k)
    oracle = entry22_oracle(k)
    tol = ctx.verify_tolerance
    # integral tail: sum_{n>M} n^-2k < M^(1-2k)/(2k-1), at most tol/4 for
    # the least M with M^e >= need, e = 2k-1, need = ceil(4/(e tol))
    e = 2 * k - 1
    need = math.ceil(4 / (e * Fraction(tol)))
    if need > MAX_DIRECT_TERMS ** e:
        raise PrecisionUnachievable(
            f"tolerance {tol:.3e} needs more than {MAX_DIRECT_TERMS} terms "
            f"of the direct sum for k={k}")
    M = round(need ** (1 / e))  # within 1 of the root below the ceiling
    M = max(64, M + (M ** e < need) - ((M - 1) ** e >= need))
    # fixed point: one floor per term, M ulps in all
    B = _dps_to_prec(ctx.working_digits + _GUARD_DIGITS) + M.bit_length()
    one = 1 << B
    total = Dyadic(sum(one // (n * (n + 1)) ** k for n in range(1, M + 1)), one)
    tail = Fraction(1, (2 * k - 1) * M ** (2 * k - 1))
    rhs_val, rhs_bound = formula.eval_numeric(ctx)
    bound, passed = _verdict(total, rhs_val,
                             tail + Fraction(M, one) + rhs_bound, ctx)
    notes = [f"telescoping oracle: {oracle.render()}",
             f"formula matches oracle: {formula == oracle}"]
    return IdentityRecord(
        lhs_description=f"sum_{{n>=1}} 1/(n^{k} (n+1)^{k})",
        rhs=formula, lhs_numeric=total, rhs_numeric=rhs_val,
        error_bound=bound, passed=passed, notes=tuple(notes))
