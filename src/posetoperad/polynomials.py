"""The sparse rational vector shared by polynomials and order series, the
binomial and monomial polynomial bases, and the classical integer kernels
(Stirling, Eulerian, Bernoulli).

A poset's d-vector is its order polynomial over {C(x, i)}, its order
series over Z_i and, through N-tilde, its zeta expression over zeta(i+1),
so one ``SparseVec`` core serves ``BinomialPoly``, ``MonomialPoly``,
``series.SeriesVec`` and ``zeta.ZetaExpr``: cleaning, ==/hash over (basis
tag, coefficients), +/-/scale within one basis, rendering and the JSON
coefficient map.  The subclasses add evaluation, basis change and products.
The Hadamard and ordinal products of strict coefficient maps
(``cup_coeffs``, ``ordinal_coeffs``) live here too, so that the d-vector
engine in ``counting`` and the order series in ``series`` share one copy.

Everything here is exact rational arithmetic; no floats, and no memo.  A
coefficient is an ``int`` when it is integral and a ``Fraction`` otherwise,
so integer vectors, every poset's among them, stay in integer arithmetic;
divide a coefficient with ``Fraction``, as ``int / int`` is a float.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import comb, factorial

from .errors import IndexOutOfRange, ModeMismatch


def _exact(v):
    """v as an int when it is integral, else as a Fraction."""
    if type(v) is not int:
        v = Fraction(v)
        if v.denominator == 1:
            return v.numerator
    return v


def binomial(x, k):
    """C(x, k) as an exact rational, for integer or rational x: an int
    when x is an integer.

    Defined via the falling factorial, so C(q, p) = 0 for integers
    0 <= q < p, and negative or fractional upper arguments work; the
    lower argument k must be an integer (ValueError otherwise).
    """
    if k != int(k):
        raise ValueError(f"binomial needs an integer k, got {k!r}")
    k = int(k)
    if k < 0:
        return 0
    x = _exact(x)
    if type(x) is int:  # C(-y, k) = (-1)^k C(y + k - 1, k)
        return comb(x, k) if x >= 0 else (-1) ** k * comb(k - x - 1, k)
    num = Fraction(1)
    for t in range(k):
        num *= x - t
    return num / factorial(k)


def multiset_coeff(x, k):
    """((x, k)) = C(x + k - 1, k), the multiset-choose coefficient."""
    return binomial(_exact(x) + k - 1, k)


def clean_coeffs(coeffs):
    """{index: value} with int keys and nonzero exact values (``_exact``); a
    negative index names no basis element and raises IndexOutOfRange."""
    out = {}
    for i, v in (coeffs or {}).items():
        i, v = int(i), _exact(v)
        if i < 0:
            raise IndexOutOfRange(f"basis index {i} < 0")
        if v:
            out[i] = v
    return out


def _term(v, base, first, sep="*"):
    """One signed term of a rendered sum, e.g. "3*C(x,2)", "- Z_1", "+ 1/2"."""
    sign = "-" if v < 0 else ("" if first else "+")
    mag = abs(v)
    body = str(mag) if base == "1" else (
        base if mag == 1 else f"{mag}{sep}{base}")
    if first:
        return f"{sign}{body}"
    return f"{sign} {body}"


def render_sum(terms, sep="*"):
    """Render (coefficient, base) pairs as a signed sum; "0" when empty."""
    return " ".join(_term(v, base, not n, sep)
                    for n, (v, base) in enumerate(terms)) or "0"


class SparseVec:
    """Immutable finitely supported vector of exact rationals over one basis.

    ``coeffs`` maps basis index to a nonzero int or Fraction, an int when
    integral.  Subclasses name the
    basis through ``basis`` (the tag compared by ==, hash, + and -) and
    build same-basis results through ``_like``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = clean_coeffs(coeffs)

    def _like(self, coeffs):
        return type(self)(coeffs)

    def coeff(self, i):
        return self.coeffs.get(i, 0)

    def max_index(self):
        return max(self.coeffs, default=0)

    def __eq__(self, other):
        return (isinstance(other, SparseVec) and self.basis == other.basis
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.basis, frozenset(self.coeffs.items())))

    def __add__(self, other):
        if self.basis != other.basis:
            raise ModeMismatch(
                f"cannot add {self.basis} and {other.basis} coefficients")
        out = dict(self.coeffs)
        for i, v in other.coeffs.items():
            out[i] = out.get(i, 0) + v
        return self._like(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, r):
        r = _exact(r)
        return self._like({i: v * r for i, v in self.coeffs.items()})

    def _render(self, base, sep="*"):
        return render_sum([(self.coeffs[i], base(i))
                           for i in sorted(self.coeffs)], sep)

    def json_coeffs(self):
        return {str(i): str(v) for i, v in sorted(self.coeffs.items())}

    @staticmethod
    def coeffs_from_json(d):
        return {int(i): Fraction(v) for i, v in d["coeffs"].items()}

    def to_json_dict(self):
        return {"basis": self.basis, "coeffs": self.json_coeffs()}


class BinomialPoly(SparseVec):
    """Polynomial over the basis {C(x, i)}.

    The same coefficient vector can be read against the multiset basis
    {C(x+i-1, i)} by passing mode="multiset" where an eval mode is taken;
    weak order polynomials use that reading.
    """

    __slots__ = ()
    basis = "binomial"

    def eval(self, x, mode="binomial"):
        if mode == "binomial":
            return sum(v * binomial(x, i) for i, v in self.coeffs.items())
        if mode == "multiset":
            return sum(v * multiset_coeff(x, i) for i, v in self.coeffs.items())
        raise ValueError(f"unknown eval mode {mode!r}")

    def to_monomial(self, mode="binomial"):
        out = MonomialPoly({})
        for i, v in self.coeffs.items():
            shift = i - 1 if mode == "multiset" else 0
            out = out + _choose_monomial(i, shift).scale(v)
        return out

    def render(self, var="x"):
        return self._render(lambda i: f"C({var},{i})" if i else "1")


class MonomialPoly(SparseVec):
    """Plain polynomial over {x^i}."""

    __slots__ = ()
    basis = "monomial"
    # perfbench/tracer.py wraps these by name in MonomialPoly.__dict__
    __add__, __sub__, scale = (SparseVec.__add__, SparseVec.__sub__,
                               SparseVec.scale)

    def __mul__(self, other):
        return MonomialPoly(ordinal_coeffs(self.coeffs, other.coeffs))

    def eval(self, x):
        x = _exact(x)
        return sum(v * x ** i for i, v in self.coeffs.items())

    def neg_x(self):
        """p(-x)."""
        return MonomialPoly({i: v if i % 2 == 0 else -v
                             for i, v in self.coeffs.items()})

    def to_binomial(self):
        """Newton forward differences: coefficient of C(x,i) is the i-th
        difference of p at 0.  The inverse of ``BinomialPoly.to_monomial``;
        the package itself never converts this way, but as a method it
        stays public with its pair."""
        d = self.max_index()
        vals = [self.eval(j) for j in range(d + 1)]
        out = {}
        for i in range(d + 1):
            out[i] = vals[0]
            vals = [vals[t + 1] - vals[t] for t in range(len(vals) - 1)]
        return BinomialPoly(out)

    def render(self, var="x"):
        return self._render(
            lambda i: "1" if i == 0 else (var if i == 1 else f"{var}^{i}"))


def _choose_monomial(i, shift):
    """Monomial expansion of C(x + shift, i)."""
    out = MonomialPoly({0: 1})
    for t in range(i):
        out = out * MonomialPoly({1: 1, 0: shift - t})
    return out.scale(Fraction(1, factorial(i)))


def cup_coeffs(a, b):
    """Product of two binomial-basis coefficient maps: the pointwise
    product of the polynomials, which is the Hadamard product of strict
    series and the disjoint union of posets.  For s <= n,
    C(x,n) C(x,s) = sum_(n<=k<=n+s) C(k,s) C(s,k-n) C(x,k): the
    structural constants of Z_n cup Z_s."""
    out = {}
    for i, u in a.items():
        for j, v in b.items():
            n, s = (i, j) if i >= j else (j, i)
            uv = u * v
            for k in range(n, n + s + 1):
                out[k] = out.get(k, 0) + uv * (comb(k, s) * comb(s, k - n))
    return out


def ordinal_coeffs(a, b):
    """Convolution Z_i, Z_j -> Z_(i+j) of two coefficient maps: the
    ordinal product of strict series and the ordinal sum of posets."""
    out = {}
    for i, u in a.items():
        for j, v in b.items():
            out[i + j] = out.get(i + j, 0) + u * v
    return out


def weak_sign_flip(coeffs, k):
    """The sign twist c_i -> (-1)^(k-i) c_i between the strict and weak
    coordinates of a k-element poset; an involution."""
    return {i: v if (k - i) % 2 == 0 else -v for i, v in coeffs.items()}


def stirling_rows(n):
    """The rows [S(m, 0), ..., S(m, m)] for m = 0 to n, each built from the
    one before by S(m+1, k) = k S(m, k) + S(m, k-1)."""
    row = [1]
    for m in range(n + 1):
        if m:
            row = [k * a + b
                   for k, (a, b) in enumerate(zip(row + [0], [0] + row))]
        yield row


def eulerian_rows(n):
    """The rows [A(m, 0), ..., A(m, m-1)] for m = 1 to n, each built from
    the one before by A(m+1, i) = (i+1) A(m, i) + (m+1-i) A(m, i-1)."""
    row = [1]
    for m in range(1, n + 1):
        if m > 1:
            row = [(i + 1) * a + (m - i) * b
                   for i, (a, b) in enumerate(zip(row + [0], [0] + row))]
        yield row


def stirling2(n, k):
    """Stirling number of the second kind S(n, k); 0 unless 0 <= k <= n."""
    terms = ((-1) ** (k - j) * comb(k, j) * j ** n for j in range(k + 1))
    return sum(terms) // factorial(k) if 0 <= k <= n else 0


def eulerian_number(n, i):
    """A(n, i), for 1 <= n and 0 <= i <= n-1."""
    if n < 1 or i < 0 or i > n - 1:
        raise IndexOutOfRange(f"A({n},{i}) outside 0 <= i <= n-1")
    return deque(eulerian_rows(n), maxlen=1)[0][i]


def eulerian_polynomial(n):
    """Coefficient list of A_n(t); A_0 = 1.  Part of the paper's Ramanujan
    material (the h* numerators of antichains), so public though the
    package itself does not call it."""
    if n < 0:
        raise IndexOutOfRange(f"A_{n} needs n >= 0")
    return deque(eulerian_rows(n), maxlen=1)[0] if n else [1]


def bernoulli_number(m):
    """Bernoulli number B_m with the B_1 = +1/2 sign convention.

    B_0 = 1, B_1 = 1/2, B_2 = 1/6, odd values >= 3 vanish.  Only B_1
    differs between the two common conventions.  Part of the paper's
    Ramanujan material (the zeta values at even integers), so public though
    the package itself does not call it.
    """
    if m < 0:
        raise IndexOutOfRange(f"B_{m} needs m >= 0")
    if m == 1:
        return Fraction(1, 2)
    # sum_(k<=j) C(j+1, k) B_k = 0 with B_0 = 1, which gives B_1 = -1/2
    table = [Fraction(1)]
    for j in range(1, m + 1):
        acc = sum(comb(j + 1, k) * table[k] for k in range(j))
        table.append(Fraction(-acc, j + 1))
    return table[m]
