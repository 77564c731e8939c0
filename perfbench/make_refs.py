#!/usr/bin/env python3
"""Generate the benchmark's job pools and expected outputs into refs/.

Run from the repository root:  python3 perfbench/make_refs.py

Every expected value is computed by perfbench/oracle.py, which does not
import posetoperad, and each is validated by a second independent route
before it is written (see the checks below).  The pools are drawn from a
fixed generator seed so the files are reproducible; a benchmark run picks
its jobs from them with its own --seed.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction
from itertools import product

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import oracle as O  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
GEN_SEED = 2205
DPS = 50            # digits of every stored reference value
CORPUS_DIGITS = 40  # fixed working precision of the corpus-warm batch
CORPUS_MAX_SIZE = 5
ENUM_GUARD = 16
# A000112: isomorphism classes of posets with n elements
CLASS_COUNTS = [1, 1, 2, 5, 16, 63, 318]
INVERSE_RATIOS = ["2", "3", "3/2", "5/2", "-2", "7/3", "4", "-3/2"]


def _fr(v):
    return str(Fraction(v))


def _coeffs(vec):
    return {str(i): _fr(v) for i, v in enumerate(vec, start=1) if v}


def _validated(below):
    """(d, w) of a small poset (|P| <= 6): d by peeling minimal elements,
    weak counts by peeling upsets, both against naive enumeration up to 5
    elements and against each other through reciprocity."""
    n = len(below)
    d = O.surjections(below)
    weak = O.weak_values(below, n)
    w = O.multiset_coeffs(weak, n)
    if n <= 5:
        if O.d_from_strict(O.naive_values(below, n), n) != d:
            raise AssertionError("naive enumeration disagrees")
        if O.naive_values(below, n, False) != weak:
            raise AssertionError("naive weak enumeration disagrees")
    _reciprocal(d, w)
    return d, w


def _reciprocal(d, w):
    n = len(d)
    if any(w[i - 1] != (-1) ** (n - i) * d[i - 1] for i in range(1, n + 1)):
        raise AssertionError("strict and weak counts violate reciprocity")


def _tree_dw(t, below, downsets):
    """(d, w) of an expression tree from the closed forms, checked through
    reciprocity and, where affordable, against the peeling route."""
    n = len(below)
    d = O.d_from_strict(O.tree_values(t, n), n)
    w = O.multiset_coeffs(O.tree_values(t, n, False), n)
    _reciprocal(d, w)
    if downsets <= 150 and d != O.surjections(below):
        raise AssertionError(f"closed form and peeling disagree on {t}")
    return d, w


def _identity(d):
    """Finite form of the alternating identity and its mpmath value,
    checked against the series summed directly with mpmath.zeta."""
    import mpmath
    const, coeffs = O.finite_form(d)
    rhs = O.zeta_rhs_value(const, coeffs, DPS)
    lhs = O.zeta_lhs_value(d, DPS)
    if abs(lhs - rhs) > 10.0 ** -(DPS - 10):
        raise AssertionError(f"identity fails numerically for d={d}")
    return {"rhs": {"constant": _fr(const),
                    "zeta_coeffs": {str(k): _fr(v) for k, v in coeffs.items()}},
            "rhs_value": mpmath.nstr(rhs, DPS)}


# -- zeta-cold ---------------------------------------------------------------

ZETA_TREES = [
    ("|", ("C", 1), ("C", 2)), ("*", ("A", 2), ("C", 1)),
    ("*", ("C", 1), ("A", 2)), ("*", ("A", 2), ("A", 2)),
    ("|", ("*", ("C", 1), ("C", 1)), ("A", 2)),
    ("N", ("C", 1), ("C", 1), ("C", 1), ("C", 1)),
    ("N", ("A", 2), ("C", 1), ("C", 1), ("C", 1)),
    ("N", ("C", 1), ("C", 2), ("C", 1), ("C", 1)),
]


def zeta_pool():
    posets = []
    for n in range(1, 5):
        for below in O.all_posets(n):
            d, _ = _validated(below)
            posets.append({"expr": O.hasse_text(below), "size": n,
                           "height": O.height(below), "d": d, **_identity(d)})
    for t in ZETA_TREES:
        below = O.below_masks(t)
        d, _ = _validated(below)
        if d != O.d_from_strict(O.tree_values(t, len(below)), len(below)):
            raise AssertionError(f"closed form disagrees on {t}")
        posets.append({"expr": O.render(t), "size": len(below),
                       "height": O.height(below), "d": d, **_identity(d)})
    return posets


# The 4-element rows of the source's table of d-vectors (index -> d_i).
QUATERNARY_TABLE = [
    ("{x<y<z<w}", {4: 1}), ("{x<y<z,w}", {3: 3, 4: 4}),
    ("{x<y,z<w}", {2: 1, 3: 6, 4: 6}), ("{x<y,x<z,x<w}", {2: 1, 3: 6, 4: 6}),
    ("{y<x,z<x,w<x}", {2: 1, 3: 6, 4: 6}), ("{x,y,z<w}", {2: 4, 3: 15, 4: 12}),
    ("{x,y,z,w}", {1: 1, 2: 14, 3: 36, 4: 24}),
    ("{x<y,y>z,w}", {2: 2, 3: 9, 4: 8}), ("{x,y>z,z<w}", {2: 2, 3: 9, 4: 8}),
    ("{x<y,z<y,z<w}", {2: 1, 3: 5, 4: 5}),
]
QUATERNARY_MASKS = [  # the same posets as down-masks over (x, y, z, w)
    [0, 1, 3, 7], [0, 1, 3, 0], [0, 1, 0, 4], [0, 1, 1, 1], [14, 0, 0, 0],
    [0, 0, 0, 4], [0, 0, 0, 0], [0, 5, 0, 0], [0, 4, 0, 4], [0, 5, 0, 4],
]
DISCREPANCY_IDS = ["points-expansion-sign", "quaternary-low-order-index",
                   "quaternary-zeta-example"]


def verify_suite_expected():
    """Case ids and statuses of `verify-suite`; every PASS is re-derived
    here (d-vectors, reciprocity, and the zeta sums via mpmath)."""
    import mpmath
    cases = {}
    for idx, ((_, row), below) in enumerate(zip(QUATERNARY_TABLE,
                                                QUATERNARY_MASKS)):
        d = O.surjections(below)
        if {i: v for i, v in enumerate(d, 1) if v} != row:
            raise AssertionError(f"quaternary row {idx} disagrees")
        cases[f"quaternary-table:{idx:02d}"] = "PASS"
    tags = [(f"C{n}", O.chain_masks(n)) for n in range(2, 7)]
    tags += [(f"A{n}", [0] * n) for n in range(2, 7)]
    tags += [(t, m) for (t, _), m in zip(QUATERNARY_TABLE[:7], QUATERNARY_MASKS)]
    for tag, below in tags:
        _validated(below)  # raises unless reciprocity holds
        cases[f"reciprocity:{tag}"] = "PASS"
    with mpmath.workdps(40):
        z = mpmath.zeta
        unit = mpmath.nsum(lambda n: z(n) - 1, [2, mpmath.inf])
        alt = mpmath.nsum(lambda n: (-1) ** (n + 1) * (z(n + 1) - 1),
                          [1, mpmath.inf])
        if abs(unit - 1) > 1e-30 or abs(alt - mpmath.mpf(1) / 2) > 1e-30:
            raise AssertionError("telescoping unit sums")
        cases["goldbach:unit"] = cases["goldbach:alternating"] = "PASS"
        for k in range(1, 7):
            lhs = mpmath.nsum(lambda n: (-1) ** (n + 1) * mpmath.binomial(n, k)
                              * (z(n + 1) - 1), [k, mpmath.inf])
            rhs = (-1) ** (k + 1) * (z(k + 1) - 1 - mpmath.mpf(2) ** -(k + 1))
            if abs(lhs - rhs) > 1e-25:
                raise AssertionError(f"binomial shift k={k}")
            cases[f"binomial-shift:k={k}"] = "PASS"
        for k in (2, 3, 4):
            direct = mpmath.nsum(lambda n: 1 / (n ** k * (n + 1) ** k),
                                 [1, mpmath.inf])
            printed = mpmath.mpf(0)
            for n in range(k + 1):
                if n == k - 1:
                    continue
                zeta_s = mpmath.mpf(-0.5) if n == k else z(k - n)
                printed += ((1 + (-1) ** (k - n)) * zeta_s
                            * mpmath.binomial(-k, n))
            if abs(direct - printed) > 1e-25:
                raise AssertionError(f"inverse product k={k}")
            cases[f"inverse-product:k={k}"] = "PASS"
    for cid in DISCREPANCY_IDS:
        cases[f"discrepancy:{cid}"] = "FLAG"
    return {"cases": dict(sorted(cases.items())), "all_pass": True}


# -- enum-cold ---------------------------------------------------------------

def _split(rng, n, parts):
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


def _fold(op, pieces):
    t = pieces[0]
    for q in pieces[1:]:
        t = (op, t, q)
    return t


def _wide(rng, n):
    pieces = [("A", s) if rng.random() < 0.6 else ("C", s)
              for s in _split(rng, n, rng.randint(2, 4))]
    if rng.random() < 0.4:  # one small stacked piece among the unions
        pieces[0] = _fold("*", [("A", 1), pieces[0]]) if pieces[0][1] > 1 else pieces[0]
    return _fold("|", pieces)


def _tall(rng, n):
    pieces = [("A", s) if s <= 3 and rng.random() < 0.35 else ("C", s)
              for s in _split(rng, n, rng.randint(2, 4))]
    return _fold("*", pieces)


def _zigzag(rng, n):
    slots = []
    for s in _split(rng, n, 4):
        r = rng.random()
        if s >= 2 and r < 0.2:
            a = rng.randint(1, s - 1)
            slots.append(("|", ("C", a), ("A", s - a)))
        else:
            slots.append(("C", s) if r < 0.6 else ("A", s))
    return ("N",) + tuple(slots)


SHAPES = {"wide": _wide, "tall": _tall, "zigzag": _zigzag}


def _transitions(below, downs):
    n = len(below)
    total = 0
    for m in downs:
        maximal = sum(1 for i in range(n) if m >> i & 1
                      and not any(m >> j & 1 and below[j] >> i & 1
                                  for j in range(n)))
        total += 1 << maximal
    return total


def dv_cost(n, transitions):
    """Rough seconds for d_vector, fitted on a 2-core machine when the pool
    was made: a 2^n downset scan plus the transition DP.  Used only to keep
    every job under about 2 s and to stratify job draws by cost."""
    return 2.1e-6 * (1 << n) + 3.5e-7 * transitions * n


def weak_cost(n, at):
    return 1.1e-7 * at * n * (1 << n)


def enum_pool(per_shape=60):
    for k in range(1, 17):  # antichain closed form d_i = i! S(k, i)
        if O.d_from_strict(O.tree_values(("A", k), k), k) != O.falling_check(k):
            raise AssertionError(f"antichain A{k}")
    rng = random.Random(GEN_SEED)
    exprs, jobs, seen = [], [], set()
    for shape, make in SHAPES.items():
        count = 0
        while count < per_shape:
            # larger posets are drawn more often, so counting dominates
            n = rng.choices(range(8, 17), weights=range(1, 10))[0]
            t = make(rng, n)
            text = O.render(t)
            n = O.size(t)
            if text in seen or n > ENUM_GUARD:
                continue
            below = O.below_masks(t)
            downs = O.downsets(below)
            trans = _transitions(below, downs)
            base = dv_cost(n, trans)
            if not 0.01 <= base <= 1.2:
                continue
            seen.add(text)
            count += 1
            d, w = _tree_dw(t, below, len(downs))
            idx = len(exprs)
            exprs.append({"expr": text, "shape": shape, "size": n,
                          "downsets": len(downs), "transitions": trans,
                          "d": d})
            g = ["--format", "json", "--guard", str(ENUM_GUARD)]
            jobs.append({"expr": idx, "cost": base, "argv": g + ["poly", text],
                         "expect": {"d": d,
                                    "strict_poly": {"basis": "binomial",
                                                    "coeffs": _coeffs(d)},
                                    "weak_poly": {"basis": "binomial",
                                                  "coeffs": _coeffs(w)},
                                    "discrepancies": []}})
            num, den = O.weak_closed_form(w, n)
            jobs.append({"expr": idx, "cost": base,
                         "argv": g + ["series", text, "--weak"],
                         "expect": {"series": {"mode": "weak",
                                               "coeffs": _coeffs(w)},
                                    "closed_form": {"numerator": [_fr(c) for c in num],
                                                    "den_power": den}}})
            at_max = max(a for a in range(1, 13)
                         if base + weak_cost(n, a) <= 1.6)
            at = rng.randint(1, at_max)
            strict_at = O.poly_eval(d, at)
            weak_at = O.poly_eval(w, at, weak=True)
            check = O.tree_values(t, at), O.tree_values(t, at, False)
            if (check[0][at], check[1][at]) != (strict_at, weak_at):
                raise AssertionError(f"eval route mismatch on {text}")
            jobs.append({"expr": idx, "cost": base + weak_cost(n, at),
                         "argv": g + ["eval", text, "--at", str(at)],
                         "expect": {"value": {"strict": strict_at,
                                              "weak": int(weak_at)},
                                    "at": at}})
            r = rng.choice(INVERSE_RATIOS)
            weak = rng.random() < 0.5
            value = O.inverse_sum(w if weak else d, r, weak)
            jobs.append({"expr": idx, "cost": base,
                         "argv": g + ["inverse-sum", text, f"--r={r}"]
                         + (["--weak"] if weak else []),
                         "expect": {"value": _fr(value),
                                    "mode": "weak" if weak else "strict"}})
    return exprs, jobs


# -- corpus-warm -------------------------------------------------------------

def corpus_refs():
    idents = {}
    for n in range(1, CORPUS_MAX_SIZE + 1):
        classes = O.all_posets(n)
        if len(classes) != CLASS_COUNTS[n]:
            raise AssertionError(f"class count for n={n}")
        for below in classes:
            d, w = _validated(below)
            num, den = O.weak_closed_form(w, n)
            idents[O.canonical_key(below)] = {
                **_identity(d),
                "closed_form": {"numerator": [_fr(c) for c in num],
                                "den_power": den}}
    outers = []
    for n in range(1, 5):
        for below in O.all_posets(n):
            lab = "abcd"
            comp = {}
            for lengths in product(range(1, 4), repeat=n):
                masks = O.lex_masks(below, [O.chain_masks(k) for k in lengths])
                comp[",".join(map(str, lengths))] = O.surjections(masks)
            outers.append({"labels": list(lab[:n]),
                           "covers": [[lab[a], lab[b]]
                                      for a, b in O.covers(below)],
                           "series": comp})
    cups = [[s, p, q] for s in range(1, 5) for p in range(1, 4)
            for q in range(1, 4) if _cup_holds(s, p, q)]
    if len(cups) != 36:
        raise AssertionError("differential cup identity")
    return {"digits": CORPUS_DIGITS, "max_size": CORPUS_MAX_SIZE,
            "class_counts": CLASS_COUNTS[1:CORPUS_MAX_SIZE + 1],
            "idents": idents, "outers": outers, "cups": cups}


def _cup_holds(s, p, q, M=16):
    """Z_s cup (Z_p * Z_q) against its expansion, on power-series values:
    Z_i has coefficients C(n, i), cup multiplies them, and the ordinal
    product adds basis indices."""
    def Z(i):
        return [O.comb(n, i) for n in range(M)]

    def basis(v):
        return [sum((-1) ** (i - j) * O.comb(i, j) * v[j] for j in range(i + 1))
                for i in range(M)]

    def cup(a, b):
        return [x * y for x, y in zip(a, b)]

    def omul(a, b):
        ca, cb = basis(a), basis(b)
        out = [0] * M
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                if x and y and i + j < M:
                    for n in range(M):
                        out[n] += x * y * O.comb(n, i + j)
        return out

    def add(a, b, sign=1):
        return [x + sign * y for x, y in zip(a, b)]

    lhs = cup(Z(s), omul(Z(p), Z(q)))
    rhs = [0] * M
    for a in range(s + 1):
        rhs = add(rhs, omul(cup(Z(a), Z(p)), cup(Z(s - a), Z(q))))
    sub = [0] * M
    for a in range(s):
        sub = add(sub, omul(cup(Z(a), Z(p)), cup(Z(s - 1 - a), Z(q))))
    rhs = add(rhs, omul(sub, Z(1)), -1)
    return lhs == rhs


def main():
    out = os.path.join(HERE, "refs")
    os.makedirs(out, exist_ok=True)
    exprs, jobs = enum_pool()
    parts = {
        "zeta.json": {"posets": zeta_pool(),
                      "verify_suite": verify_suite_expected()},
        "enum.json": {"exprs": exprs, "jobs": jobs},
        "corpus.json": corpus_refs(),
    }
    for name, data in parts.items():
        with open(os.path.join(out, name), "w") as f:
            json.dump(data, f, indent=0, sort_keys=True)
            f.write("\n")
        print(f"wrote refs/{name}")


if __name__ == "__main__":
    main()
