"""Order series over the inclusion-exclusion basis, with Hadamard and
ordinal products, the strict/weak involution, the operadic action, and
exact inverse-power sums.

A strict series is a coefficient vector over Z_i = x^i/(1-x)^(i+1), a weak
series over Z+_i = x/(1-x)^(i+1); index 0 holds the units 1/(1-x) and
x/(1-x).  ``SeriesVec`` is the shared ``polynomials.SparseVec`` with the
mode as its basis tag, so a strict series holds the same coefficients as
the strict order polynomial.  Vectors are never truncated: all identities
here are exact in the basis.
"""

from __future__ import annotations

from fractions import Fraction

from .counting import (DEFAULT_GUARD, check_guard, order_polynomial,
                       substitute_coeffs)
from .errors import (ArityMismatch, DivergentParameter, MissingProvenance,
                     ModeMismatch, PosetOperadError, Record, UnknownIdentity)
from .polynomials import (MonomialPoly, SparseVec, clean_coeffs, cup_coeffs,
                          ordinal_coeffs, weak_sign_flip)
from .poset import (Poset, antichain, chain, construct_poset, disjoint_union,
                    lex_sum, ordinal_sum)

STRICT = "strict"
WEAK = "weak"


class SeriesVec(SparseVec):
    """Coefficients over the strict or weak inclusion-exclusion basis, with
    optional generating poset; the basis tag is the mode."""

    __slots__ = ("mode", "provenance")

    def __init__(self, mode, coeffs=None, provenance=None):
        if mode not in (STRICT, WEAK):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.coeffs = clean_coeffs(coeffs)
        self.provenance = provenance

    # the basis tag; provenance is metadata and takes no part in ==
    @property
    def basis(self):
        return self.mode

    def _like(self, coeffs):
        return SeriesVec(self.mode, coeffs)

    def eval_at(self, x):
        """Sum of the basis functions at the rational point x (x != 1):
        Z_i = x^i/(1-x)^(i+1), Z+_i = x/(1-x)^(i+1)."""
        x = Fraction(x)
        if self.mode == STRICT:
            return sum((c * x ** i / (1 - x) ** (i + 1)
                        for i, c in self.coeffs.items()), Fraction(0))
        return sum((c * x / (1 - x) ** (i + 1)
                    for i, c in self.coeffs.items()), Fraction(0))

    def render(self):
        sym = "Z" if self.mode == STRICT else "Z+"
        return self._render(lambda i: f"{sym}_{i}", sep=" ")

    def __repr__(self):
        return f"SeriesVec({self.mode}: {self.render()})"

    def to_json_dict(self):
        return {
            "mode": self.mode,
            "coeffs": self.json_coeffs(),
            "provenance": (self.provenance.to_json_dict()
                           if self.provenance is not None else None),
        }

    @staticmethod
    def from_json_dict(d):
        prov = d.get("provenance")
        return SeriesVec(d["mode"], SparseVec.coeffs_from_json(d),
                         Poset.from_json_dict(prov) if prov else None)


def basis_series(i, mode=STRICT):
    """Z_i (strict) or Z+_i (weak); provenance chain(i), chain(0) = empty."""
    return SeriesVec(mode, {i: 1}, provenance=chain(i))


def series_of(P, mode=STRICT, guard=DEFAULT_GUARD):
    """Order series of P in basis coordinates: the coefficients of its order
    polynomial (the d-vector for strict, the signed vector (-1)^(|P|-i) d_i
    for weak); the empty poset gives the unit."""
    return SeriesVec(mode, order_polynomial(P, mode, guard).coeffs,
                     provenance=P)


def inverse_power_sum(P, r, mode=STRICT, guard=DEFAULT_GUARD):
    """Exact value of sum_n Omega(P, n) / r^n for |r| > 1, in either mode.

    Evaluates the order series basiswise at x = 1/r.
    """
    r = Fraction(r)
    if abs(r) <= 1:
        raise DivergentParameter(f"need |r| > 1, got {r}")
    return series_of(P, mode, guard).eval_at(1 / r)


class ClosedForm(Record):
    """numerator(x) / (1-x)^den_power with exact rational numerator."""

    __slots__ = ("numerator", "den_power", "mode")

    def h_star(self):
        """Numerator with a single leading x factor removed; for weak series
        of a poset this is the Ehrhart h* numerator of its order polytope."""
        if self.mode != WEAK:
            raise ModeMismatch("h* is read off the weak closed form")
        nums = list(self.numerator)
        if nums and nums[0] != 0:
            raise ValueError("weak closed form should have no constant term")
        return tuple(nums[1:])

    def to_json_dict(self):
        return {"numerator": [str(c) for c in self.numerator],
                "den_power": self.den_power}


_ONE_MINUS_X = MonomialPoly({0: 1, 1: -1})


def _horner(terms):
    """sum_j terms[j] (1-x)^(k-1-j) over k polynomial terms, by Horner's
    rule: one product by (1-x) per term and no powers."""
    out = MonomialPoly({})
    for t in terms:
        out = out * _ONE_MINUS_X + t
    return out


def closed_form(S):
    """Collect a SeriesVec over the common denominator (1-x)^(m+1), m its
    top index: the numerator is sum_i c_i x^i (1-x)^(m-i) for a strict
    series and x sum_i c_i (1-x)^(m-i) for a weak one, m + 1 products."""
    m, c = S.max_index(), S.coeff
    if S.mode == STRICT:
        num = _horner(MonomialPoly({i: c(i)}) for i in range(m + 1))
    else:
        num = _horner(MonomialPoly({0: c(i)}) for i in range(m + 1))
        num = num * MonomialPoly({1: 1})
    coeffs = tuple(num.coeff(t) for t in range(num.max_index() + 1))
    return ClosedForm(coeffs, m + 1, S.mode)


def _product(s1, s2, coeffs, join, name):
    """The strict series with coefficients coeffs(s1, s2), whose provenance
    is join of the two provenances when both have one."""
    if s1.mode != STRICT or s2.mode != STRICT:
        raise ModeMismatch(f"{name} is defined on strict series only")
    prov = None
    if s1.provenance is not None and s2.provenance is not None:
        prov = join(s1.provenance, s2.provenance)
    return SeriesVec(STRICT, coeffs(s1.coeffs, s2.coeffs), provenance=prov)


def hadamard(s1, s2):
    """Hadamard product of strict series (coefficient-wise product of the
    underlying power series); realizes disjoint union on provenance."""
    return _product(s1, s2, cup_coeffs, disjoint_union, "hadamard")


def ordinal_mul(s1, s2):
    """Ordinal product: bilinear extension of Z_a, Z_b -> Z_(a+b); realizes
    the ordinal sum (stacking s1 below s2) on provenance."""
    return _product(s1, s2, ordinal_coeffs, ordinal_sum, "ordinal product")


def iota(S):
    """Sign-twisted substitution x -> 1/x exchanging weak and strict series.

    Needs the generating poset (the sign depends on |P|); an involution.
    """
    if S.provenance is None:
        raise MissingProvenance("iota needs the generating poset")
    other = WEAK if S.mode == STRICT else STRICT
    return SeriesVec(other, weak_sign_flip(S.coeffs, len(S.provenance)),
                     provenance=S.provenance)


def operad_eval_series(P, args, guard=DEFAULT_GUARD):
    """Action of the poset P on strict order series: the series of the
    lexicographic sum P[P_1..P_q] when slot i carries the series of P_i,
    extended multilinearly to any rational vectors; Z_0 is the empty poset.

    A strict map on P[P_1..P_q] is one on each block, with the levels of
    block i below those of block j whenever i <_P j: a sum over systems of
    intervals of products of the blocks' d_k, linear in each block.  It is
    summed on the decomposition of P (``counting.substitute_coeffs``), not
    on the composite, whose size, the sum of the arguments' top indices,
    the guard bounds.  A zero argument gives the zero series.  If every
    argument carries a provenance poset, its coefficients must be that
    poset's series (else PosetOperadError), and the result's provenance is
    the lexicographic sum of the provenances.
    """
    args = list(args)
    if len(args) != len(P):
        raise ArityMismatch(
            f"poset has {len(P)} slots, got {len(args)} series")
    if any(a.mode != STRICT for a in args):
        raise ModeMismatch("operad evaluation needs strict series")
    provenance = None
    if all(a.provenance is not None for a in args):
        provenance = lex_sum(P, [a.provenance for a in args])
        check_guard(len(provenance), guard)
        for i, a in enumerate(args):
            if a.coeffs != order_polynomial(a.provenance, STRICT, guard).coeffs:
                raise PosetOperadError(
                    f"slot {i + 1} ({P.elements[i]}): {a.render()} is not "
                    f"the series of its provenance poset")
    elif not all(a.coeffs for a in args):
        return SeriesVec(STRICT, {})
    check_guard(sum(a.max_index() for a in args), guard)
    return SeriesVec(STRICT, substitute_coeffs(P, [a.coeffs for a in args]),
                     provenance=provenance)


class SeriesIdentityReport(Record):
    __slots__ = ("name", "params", "passed", "lhs", "rhs", "notes")
    _defaults = {"notes": ()}


def series_identity_check(name, params, guard=DEFAULT_GUARD):
    """Exact verification of a named series identity.  Supported names:

    - "differential_cup":   Z_s cup (Z_p * Z_q) expansion (params s, p, q)
    - "quaternary_reversal": the 4-slot zigzag evaluated on chains equals
      its reversed-argument evaluation, with unit-slot degenerations
      (params chains=(a, b, c, d); zeros denote the empty-poset unit)
    - "hstar_top":          top h* coefficient of a poset's weak closed
      form vanishes (params poset)
    - "antichain_strict_weak": strict and weak series of an antichain agree
      as power series (params n)
    """
    if name == "differential_cup":
        return _check_differential_cup(params["s"], params["p"], params["q"])
    if name == "quaternary_reversal":
        return _check_quaternary_reversal(tuple(params["chains"]), guard)
    if name == "hstar_top":
        return _check_hstar_top(params["poset"], guard)
    if name == "antichain_strict_weak":
        return _check_antichain_strict_weak(params["n"], guard)
    raise UnknownIdentity(name)


def _check_differential_cup(s, p, q):
    Z = basis_series
    lhs = hadamard(Z(s), ordinal_mul(Z(p), Z(q)))
    rhs = SeriesVec(STRICT, {})
    for a in range(s + 1):
        rhs = rhs + ordinal_mul(hadamard(Z(a), Z(p)), hadamard(Z(s - a), Z(q)))
    sub = SeriesVec(STRICT, {})
    for a in range(s):
        sub = sub + ordinal_mul(hadamard(Z(a), Z(p)), hadamard(Z(s - 1 - a), Z(q)))
    rhs = rhs - ordinal_mul(sub, Z(1))
    return SeriesIdentityReport(
        "differential_cup", (("s", s), ("p", p), ("q", q)),
        lhs == rhs, lhs.render(), rhs.render())


def zigzag_poset():
    """The 4-element zigzag {x<y, z<y, z<w} in slot order x, y, z, w."""
    return construct_poset(["x", "y", "z", "w"],
                           [("x", "y"), ("z", "y"), ("z", "w")])


def _check_quaternary_reversal(chains, guard):
    if len(chains) != 4:
        raise ArityMismatch("quaternary_reversal needs four chain lengths")
    N = zigzag_poset()
    args = [basis_series(k) for k in chains]
    fwd = operad_eval_series(N, args, guard)
    rev = operad_eval_series(N, [basis_series(k) for k in reversed(chains)],
                             guard)
    passed = fwd == rev
    notes = []
    a, b, c, d = chains
    Z = basis_series
    if a == 0:
        expect = ordinal_mul(Z(c), hadamard(Z(b), Z(d)))
        passed &= fwd == expect
        notes.append("unit in slot 1 degenerates to Z_c * (Z_b cup Z_d)")
    if b == 0:
        expect = hadamard(Z(a), ordinal_mul(Z(c), Z(d)))
        passed &= fwd == expect
        notes.append("unit in slot 2 degenerates to Z_a cup Z_(c+d)")
    if c == 0:
        expect = hadamard(ordinal_mul(Z(a), Z(b)), Z(d))
        passed &= fwd == expect
        notes.append("unit in slot 3 degenerates to Z_(a+b) cup Z_d")
    if d == 0:
        expect = ordinal_mul(hadamard(Z(a), Z(c)), Z(b))
        passed &= fwd == expect
        notes.append("unit in slot 4 degenerates to (Z_a cup Z_c) * Z_b")
    return SeriesIdentityReport(
        "quaternary_reversal", (("chains", chains),),
        passed, fwd.render(), rev.render(), tuple(notes))


def _check_hstar_top(P, guard):
    cf = closed_form(series_of(P, WEAK, guard))
    h = cf.h_star()
    passed = len(h) <= len(P)  # degree of h* stays below |P|
    return SeriesIdentityReport(
        "hstar_top", (("poset", P.relation_string()),),
        passed, f"h* coefficients {[str(c) for c in h]}",
        f"degree < {len(P)}")


def _check_antichain_strict_weak(n, guard):
    P = antichain(n)
    s = closed_form(series_of(P, STRICT, guard))
    w = closed_form(series_of(P, WEAK, guard))
    # a numerator is c_m != 0 at x = 1, so each form is in lowest terms
    passed = s.numerator == w.numerator and s.den_power == w.den_power
    return SeriesIdentityReport(
        "antichain_strict_weak", (("n", n),),
        passed, s.to_json_dict().__repr__(), w.to_json_dict().__repr__())
