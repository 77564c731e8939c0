"""High-precision zeta values, the binomial-to-zeta linear maps, finite-form
identity generation, exact inverse-power sums, and numeric verification.

Exactness split: every ZetaExpr is exact rational data.  The numeric layer
runs on Python integers only.  zeta(s) comes from Borwein's alternating
series ("An efficient algorithm for the Riemann zeta function", 2000) in
B-bit fixed point, one pass shared by every s.  The verification sums, the
direct sum in entry22_check and the decimal rendering work on the same
integers, so every value is an exact Dyadic, every bound is an exact sum
that counts its floors, rounded up to a float once, PASS is an exact
rational comparison.  The shared state is two bounded memos: the zeta
passes, read under a lock, and the identity sums' moments, pure functions
of the passes' integers built outside it; the layer is safe to call from
several threads.  mpmath is not needed; a Dyadic exposes ``_mpf_`` so that
mpmath code can read it.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul

from .counting import DEFAULT_GUARD, count_maps, order_polynomial
from .errors import (MAX_DIGITS, MAX_DIRECT_TERMS, ArityMismatch,
                     DivergentParameter, MissingProvenance, PosetOperadError,
                     PrecisionUnachievable, Record)
from .polynomials import BinomialPoly, SparseVec, binomial, render_sum
from .poset import chain, lex_sum
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


def _float_up(x):
    """A float >= the nonnegative rational x, never 0."""
    return _ratio_up(x.numerator, x.denominator)


def _ratio_up(num, den):
    """A float >= num / den, never 0: int true division rounds correctly,
    so the pair need not be in lowest terms."""
    return math.nextafter(num / den, math.inf)


def _sci_up(x):
    """The nonnegative rational x in the form ``%.3e``, rounded up: through
    a float while x fits one, and past float range read off x in integers,
    four digits rounded up, so no bound is too large to print."""
    try:
        return f"{_float_up(x):.3e}"
    except OverflowError:
        pass
    num, den = x.numerator, x.denominator
    e = int((num.bit_length() - den.bit_length()) * math.log10(2))
    while num >= den * 10 ** (e + 1):
        e += 1
    while num < den * 10 ** e:
        e -= 1
    digits = -(-num * 1000 // (den * 10 ** e))
    if digits == 10000:
        digits, e = 1000, e + 1
    return f"{digits // 1000}.{digits % 1000:03d}e+{e}"


def _dps_to_prec(digits):
    """Bits for that many decimal digits (mpmath's libmp.dps_to_prec)."""
    return max(1, round((digits + 1) * 3.3219280948873626))


@lru_cache
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
    pass keeps one integer per s, floor(zeta(s) 2^B).  The bound, the same
    for all s and kept in ulps of 2^-B, is the truncation 2 * 3/(3+sqrt 8)^n,
    the 2 covering 1/(1 - 2^(1-s)) for s >= 2, rounded up to ulps, plus
    2n + 1 ulps: the n term floors, doubled by the same factor, and the
    division's own.
    """

    def __init__(self, n, B):
        dn, weights = _borwein_weights(n)
        self.one = 1 << B
        self.terms = [(w << B) // (dn * (k + 1))  # s = 1
                      for k, w in enumerate(weights)]
        self.values = []  # floor(zeta(s) 2^B) at index s - 2
        # 3 + sqrt 8 > 1457/250
        truncation = -(-(6 * 250 ** n << B) // 1457 ** n)
        self.ulps = truncation + 2 * n + 1

    def extend(self, s):
        terms = self.terms
        for s_next in range(len(self.values) + 2, s + 1):
            terms = [t // (k + 1) for k, t in enumerate(terms)]
            while terms and not terms[-1]:  # terms fall with k; zeros stay
                terms.pop()
            half = 1 << (s_next - 1)
            self.values.append(
                (sum(terms[::2]) - sum(terms[1::2])) * half // (half - 1))
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
        z, one = zp.values[s - 2], zp.one
    return Dyadic(z - one if minus_one else z, one), Dyadic(zp.ulps, one)


def _zeta_integers(first, last, ctx):
    """(floor(zeta(s) 2^B) for s = first..last, the bound in ulps of 2^-B),
    B the pass's bits.  One zeta_value(last) call, by its module-level name,
    which perfbench's tracer wraps, checks the digits and extends the pass;
    the integers are then read under the lock once."""
    zeta_value(last, ctx)
    with _zeta_lock:
        zp = _zeta_pass(ctx.working_digits)
        zp.extend(last)  # a no-op unless another thread evicted the pass
        return zp.values[first - 2:last - 1], zp.ulps


@lru_cache
def _moments(digits, start, last, alternating, degree):
    """(U_0, ..., U_degree) with U_j = sum_(k=start..last) s_k C(k - start,
    j) (z_k - 2^B), z_k = floor(zeta(k+1) 2^B) at the digits and s_k =
    (-1)^(k+1) when alternating, else 1.  The pass is extended to
    zeta(last + 1) and its integers read under the lock once; the moments
    are built outside it.  With w the signed terms, U_j is the (j+1)-th
    iterated suffix sum of w at index j, since the t-th suffix sum at index
    a is sum_(m>=a) C(m - a + t - 1, t - 1) w_m: the suffix sums run as
    prefix sums of w reversed, each order dropping its last entry,
    additions only.  The pass's integers are a pure function of the
    digits, so the moments outlive the pass's eviction; a test that
    corrupts a pass's integers must clear this memo too.  Called only
    after ``_zeta_integers``, which checks the digits."""
    with _zeta_lock:
        zp = _zeta_pass(digits)
        zp.extend(last + 1)  # a no-op unless another thread evicted it
        zs, one = zp.values[start - 1:last], zp.one
    w = [z - one for z in reversed(zs)]
    if alternating:  # w[t] is term k = last - t, negative at even k
        w[last % 2::2] = [-x for x in w[last % 2::2]]
    sums = []
    for _ in range(degree + 1):
        w = list(accumulate(w))
        sums.append(w.pop() if w else 0)
    return tuple(sums)


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
        extra = sum(v * (1 + Fraction(1, 2 ** (k + 1)))
                    for k, v in self.zeta_terms())
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
        """(Dyadic value, exact error bound) at the zeta kernel's B bits,
        from ``fixed_point``."""
        B = _borwein_size(ctx.working_digits)[1]
        top = self.max_index()
        zetas, zb = _zeta_integers(2, top + 1, ctx) if top else ((), 0)
        total, ulps, L = self.fixed_point(zetas, zb, B)
        return Dyadic(total, 1 << B), Fraction(ulps, L << B)

    def fixed_point(self, zetas, zb, B):
        """(total, ulps, L): the value is total / 2^B and its bound ulps /
        (L 2^B), zetas[s - 2] = floor(zeta(s) 2^B) with bound zb ulps.  The
        constant and each coefficient v times its zeta value man / 2^B are
        floored once, the latter as the integer floor of v.numerator * man /
        v.denominator, and the bound sum |v| zb + (terms + 1) 2^-B is
        counted in ulps times L, the lcm of the denominators."""
        terms = self.zeta_terms()
        total = _fixed(self.constant, B)
        L = math.lcm(*(v.denominator for _, v in terms))
        ulps = (len(terms) + 1) * L
        for k, v in terms:
            total += v.numerator * zetas[k - 1] // v.denominator
            ulps += abs(v.numerator) * (L // v.denominator) * zb
        return total, ulps, L

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
    shifts are folded into the constant so the result stays exact.  The
    constant is one Fraction built from integers: with L the lcm of the
    denominators and D the top index, 2^(D+1) L times it is c_0 L 2^D minus
    (-1)^(k+1) c_k L (2^(D+1) + 2^(D-k)) for each k >= 1.
    """
    coeffs = p.coeffs
    D = max(coeffs, default=0)
    L = math.lcm(*(v.denominator for v in coeffs.values()))
    out, num = {}, 0
    for i, v in coeffs.items():
        n = v.numerator * (L // v.denominator)
        if not i:
            num += n << D
        elif i % 2:
            out[i] = v
            num -= n * ((2 << D) + (1 << D - i))
        else:
            out[i] = -v
            num += n * ((2 << D) + (1 << D - i))
    out[0] = Fraction(num, L << D + 1)
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
    compared with the exact tol / 2 in integers.  The tail is at least
    M a / 2^(N+1), so an N where that exceeds 2 tol in floats fails, the
    margin far above their rounding, and is passed over."""
    tn, td = tol.as_integer_ratio()
    floor = (math.log2(M.numerator) - math.log2(M.denominator) - 1
             - math.log2(tn) + math.log2(td) - 1) if M else -math.inf
    N = max(8, 2 * D + 2)
    while N <= cap:
        if floor + D * math.log2(N + 1) <= N:
            a, b = (N + 1) ** D, (N + 2) ** D
            num = M.numerator * a * a
            den = M.denominator * (2 * a - b) << N
            if b < 2 * a and 2 * td * num < tn * den:
                return N, Fraction(num, den)
        N = N + max(4, N // 4)
    raise PrecisionUnachievable(
        f"series cap {cap} cannot push the tail below "
        f"{_sci_up(Fraction(tn, 2 * td))}")


def _verdict(gap, num, den, ctx):
    """(the bound num / den rounded up to a float, PASS), both decided in
    integers, gap / den being |lhs - rhs|: a bound above the tolerance
    would pass whatever it swallows, so it raises, and PASS is
    |lhs - rhs| <= bound + tolerance."""
    tn, td = ctx.verify_tolerance.as_integer_ratio()
    if num * td > tn * den:
        raise PrecisionUnachievable(
            f"error bound {_sci_up(Fraction(num, den))} exceeds tolerance "
            f"{ctx.verify_tolerance:.3e}; raise the working digits")
    return _ratio_up(num, den), gap * td <= num * td + tn * den


def _bound_ratio(tail, ulps, L, rhs_ulps, rhs_L, B):
    """(num, den): num / den = tail + ulps / (L 2^B) + rhs_ulps /
    (rhs_L 2^B), with den the tail's denominator times L rhs_L 2^B."""
    tn, td = tail.numerator, tail.denominator
    return ((tn * L * rhs_L << B) + td * (ulps * rhs_L + rhs_ulps * L),
            td * L * rhs_L << B)


def _differences(coeffs, start):
    """[Delta^j q(start) for j = 0..D], q(k) = sum_i c_i C(k, i) with
    coeffs = {i: c_i} and D the top index: Delta^j q(start) = sum_i c_i
    C(start, i - j), so q(k) = sum_j Delta^j q(start) C(k - start, j)."""
    return [sum(c * math.comb(start, i - j) for i, c in coeffs.items()
                if i >= j) for j in range(max(coeffs, default=0) + 1)]


def _forward_values(diffs, count):
    """[q(start), ..., q(start + count - 1)] from diffs, the
    ``_differences`` of q at start, with no binomial per term: Delta^D q
    is constant, and each order's values are the running sums of the next
    order's."""
    if count <= 0:
        return []
    values = [diffs[-1]] * count
    for d in reversed(diffs[:-1]):
        values = list(accumulate(values[:-1], initial=d))
    return values


def verify_identity(rec, ctx=DEFAULT_CTX):
    """Numerically referee an IdentityRecord built on a binomial-basis LHS.

    The LHS sum is truncated where the certified tail bound drops below
    half the tolerance; the pass flag compares against the accumulated
    bound plus the tolerance; a bound above the tolerance raises.

    The sum runs in integers.  With L the lcm of the polynomial's
    denominators (1 for every record the package builds), L p(k) = q_k is
    an integer, and zeta(k+1) - 1 is man_k / 2^B, read from the pass.  At
    the start index, q_k = sum_j delta_j C(k - start, j) with delta_j the
    forward differences of q there.  Each record takes one flow: weight,
    bound, refusal, sum, verdict.  The weight: when L = 1, every
    delta_j >= 0 and delta_0 > 0, every q_k is positive, so sum |q_k| is
    sum_j delta_j C(T, j + 1) by the hockey stick and each of the
    T = N - start + 1 terms counts one floor; otherwise the signed q_k
    come by forward differences (``_forward_values``) and their weight and
    nonzero count are summed.  The bound, tail + (sum |q_k| / L) zb + RHS
    bound + floors 2^-B, exact until the record rounds it up, is refused
    before any sum.  The sum: when L = 1 it is sum_j delta_j U_j with the
    moments U_j (``_moments``), exact, the same for every record with these
    digits, start, N, signs and degree; when L > 1 each term adds
    floor(+-q_k man_k / L).
    """
    if rec.lhs_poly is None:
        raise ValueError("record carries no summable polynomial")
    poly = rec.lhs_poly
    D = poly.max_index()
    L = math.lcm(*(v.denominator for v in poly.coeffs.values()))
    coeffs = {i: v.numerator * (L // v.denominator)
              for i, v in poly.coeffs.items()}
    if not rec.alternating and D > 0:
        raise DivergentParameter(
            "non-alternating zeta-shift series need a constant polynomial")
    start = rec.start_index
    if start < 0 or start == 0 and coeffs.get(0):
        raise ValueError("the LHS terms start at k >= 1: zeta(1) diverges")
    start = max(start, 1)
    N, tail = _choose_series_cap(Fraction(sum(map(abs, coeffs.values())), L),
                                 D, ctx.verify_tolerance, ctx.series_term_cap)
    B = _borwein_size(ctx.working_digits)[1]
    one, T = 1 << B, N - start + 1
    zetas, zb = _zeta_integers(2, max(N, rec.rhs.max_index()) + 1, ctx)
    rhs_total, rhs_ulps, rhs_L = rec.rhs.fixed_point(zetas, zb, B)
    delta = _differences(coeffs, start)
    if L == 1 and T > 0 and delta[0] > 0 and min(delta) >= 0:
        # every q_k > 0: the weight by the hockey stick
        weight = sum(d * math.comb(T, j + 1) for j, d in enumerate(delta))
        floors = T
    else:
        q = _forward_values(delta, T)
        if rec.alternating:  # (-1)^(k+1): the terms at even k subtract
            q[start % 2::2] = [-qk for qk in q[start % 2::2]]
        weight, floors = sum(map(abs, q)), len(q) - q.count(0)
    num, den = _bound_ratio(tail, weight * zb + floors * L, L, rhs_ulps,
                            rhs_L, B)
    _verdict(0, num, den, ctx)  # refuses here, before the sum
    if L == 1:
        total = sum(map(mul, delta, _moments(ctx.working_digits, start, N,
                                             rec.alternating, D)))
    else:
        total = sum(qk * (z - one) // L
                    for qk, z in zip(q, zetas[start - 1:N]))
    bound, passed = _verdict(abs(total - rhs_total) * (den >> B), num, den,
                             ctx)
    return type(rec)(*rec._values()[:6], Dyadic(total, one),
                     Dyadic(rhs_total, one), bound, passed,
                     rec.notes + (f"lhs summed to k={N}",))


def finite_form_identity(P, guard=DEFAULT_GUARD):
    """Finite form of sum_(k>=r0) (-1)^(k+1) Omega_strict(P,k)(zeta(k+1)-1):
    the image of the strict order polynomial under the alternating map.
    r0 is the height of P, the polynomial's lowest index: d_i = 0 below it,
    and a rank map makes d_r0 >= 1."""
    poly = order_polynomial(P, "strict", guard)
    r0 = max(1, min(poly.coeffs, default=0))
    desc = (f"sum_{{k>={r0}}} (-1)^(k+1) Omega({P.relation_string()})(k) "
            f"(zeta(k+1)-1)")
    return IdentityRecord(desc, n_tilde2(poly), P, poly, True, r0, None, None,
                          None, None, ())


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
    b = {k - m: (-1) ** k * binomial(k + m - 1, m) for m in range(k)}
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
    constant = 0
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
            coeffs[s - 1] = coeffs.get(s - 1, 0) + weight
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
    gap, bound = abs(total - rhs_val), tail + Fraction(M, one) + rhs_bound
    bound, passed = _verdict(gap.numerator * bound.denominator,
                             bound.numerator * gap.denominator,
                             bound.denominator * gap.denominator, ctx)
    notes = [f"telescoping oracle: {oracle.render()}",
             f"formula matches oracle: {formula == oracle}"]
    return IdentityRecord(
        lhs_description=f"sum_{{n>=1}} 1/(n^{k} (n+1)^{k})",
        rhs=formula, lhs_numeric=total, rhs_numeric=rhs_val,
        error_bound=bound, passed=passed, notes=tuple(notes))
