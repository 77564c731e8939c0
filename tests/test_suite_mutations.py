"""Every ``verify-suite`` family can fail: corrupting one input of a family
turns exactly its own case to FAIL and the exit code to 1, while every
other case keeps its status.  The case list itself is pinned here."""

import json
from fractions import Fraction

import pytest

from posetoperad import cli, counting, discrepancies, zeta
from posetoperad.counting import DVector

CASE_IDS = (
    [f"binomial-shift:k={k}" for k in range(1, 7)]
    + ["discrepancy:points-expansion-sign",
       "discrepancy:quaternary-low-order-index",
       "discrepancy:quaternary-zeta-example",
       "goldbach:alternating", "goldbach:unit"]
    + [f"inverse-product:k={k}" for k in (2, 3, 4)]
    + [f"quaternary-table:{i:02d}" for i in range(10)]
    + [f"reciprocity:{tag}" for tag in (
        "A2", "A3", "A4", "A5", "A6", "C2", "C3", "C4", "C5", "C6",
        "{x,y,z,w}", "{x,y,z<w}", "{x<y,x<z,x<w}", "{x<y,z<w}",
        "{x<y<z,w}", "{x<y<z<w}", "{y<x,z<x,w<x}")]
)

# the certified sums: what their detail reads before " ~ <lhs>"
SUM_LABELS = {"goldbach:unit": "sum(zeta(n)-1)",
              "goldbach:alternating": "alternating sum",
              **{f"binomial-shift:k={k}": f"k={k}: lhs" for k in range(1, 7)},
              **{f"inverse-product:k={k}": f"k={k}: lhs" for k in (2, 3, 4)}}

# added to a right-hand side: far above the default tolerance 1e-12
NUDGE = zeta.ZetaExpr.make(Fraction(1, 1000))


def run_suite(capsys):
    code = cli.main(["--format", "json", "verify-suite"])
    cases = json.loads(capsys.readouterr().out)["cases"]
    return code, cases


def statuses(cases):
    return {c["id"]: c["status"] for c in cases}


def baseline():
    return {i: "FLAG" if i.startswith("discrepancy:") else "PASS"
            for i in CASE_IDS}


def test_suite_case_list_is_pinned(capsys):
    code, cases = run_suite(capsys)
    assert code == 0
    assert [c["id"] for c in cases] == CASE_IDS
    assert statuses(cases) == baseline()
    details = {c["id"]: c["detail"] for c in cases}
    for case_id, label in SUM_LABELS.items():
        assert details[case_id].startswith(f"{label} ~ "), details[case_id]
    assert details["reciprocity:C3"] == "reciprocity on {1<2, 2<3}"
    assert details["quaternary-table:09"] == \
        "{x<y,z<y,z<w} -> Z_2 + 5 Z_3 + 5 Z_4"


def corrupt_unit_evaluation(monkeypatch):
    rows = list(cli._FIG2_ROWS)
    text, expected = rows[3]
    rows[3] = (text, {**expected, 4: expected[4] + 1})
    monkeypatch.setattr(cli, "_FIG2_ROWS", tuple(rows))


def corrupt_goldbach(monkeypatch):
    build = zeta.goldbach_record

    def patched():
        rec = build()
        return rec._replace(rhs=rec.rhs + NUDGE)
    monkeypatch.setattr(zeta, "goldbach_record", patched)


def corrupt_binomial_shift(monkeypatch):
    build = zeta.binomial_shift_record

    def patched(k):
        rec = build(k)
        return rec._replace(rhs=rec.rhs + NUDGE) if k == 3 else rec
    monkeypatch.setattr(zeta, "binomial_shift_record", patched)


def corrupt_entry22_formula(monkeypatch):
    formula = zeta.entry22_formula

    def patched(k):
        f = formula(k)
        if k != 3:
            return f
        c = dict(f.coeffs)  # 10 - 6 zeta(2)
        c[1] += Fraction(1, 1000)
        return zeta.ZetaExpr(c)
    monkeypatch.setattr(zeta, "entry22_formula", patched)


def corrupt_discrepancy_check(monkeypatch):
    # the reciprocity check that confirms the low-order index
    check = discrepancies.reciprocity_check
    monkeypatch.setattr(discrepancies, "reciprocity_check",
                        lambda P: check(P)._replace(passed=False))


def corrupt_stirling2(monkeypatch):
    # S(4, 2) = 7 read as 8: the corrected expansion no longer holds at n = 4
    true_stirling2 = discrepancies.stirling2
    monkeypatch.setattr(discrepancies, "stirling2",
                        lambda n, k: true_stirling2(n, k) + ((n, k) == (4, 2)))


def corrupt_d_vector(monkeypatch):
    true_d_vector = counting.d_vector

    def patched(P, guard=counting.DEFAULT_GUARD):
        if len(P) == 3 and not P.index_pairs():  # A3: truly (1, 6, 6)
            return DVector(P, (1, 6, 99))
        return true_d_vector(P, guard)
    monkeypatch.setattr(counting, "d_vector", patched)


def corrupt_operad_eval_zeta(monkeypatch):
    # one coefficient of the zigzag's zeta-side evaluation moved: zhat_4
    # read as -7, not -8
    true_eval = discrepancies.operad_eval_zeta

    def patched(P, args):
        expr = true_eval(P, args)
        return zeta.ZetaExpr({**expr.coeffs, 4: expr.coeff(4) + 1},
                             expr.provenance)
    monkeypatch.setattr(discrepancies, "operad_eval_zeta", patched)


MUTATIONS = [
    (corrupt_unit_evaluation, "quaternary-table:03"),
    (corrupt_goldbach, "goldbach:unit"),
    (corrupt_binomial_shift, "binomial-shift:k=3"),
    (corrupt_entry22_formula, "inverse-product:k=3"),
    (corrupt_discrepancy_check, "discrepancy:quaternary-low-order-index"),
    (corrupt_stirling2, "discrepancy:points-expansion-sign"),
    (corrupt_operad_eval_zeta, "discrepancy:quaternary-zeta-example"),
    (corrupt_d_vector, "reciprocity:A3"),
]


@pytest.mark.parametrize("corrupt,case_id", MUTATIONS,
                         ids=lambda v: getattr(v, "__name__", None))
def test_a_corrupted_input_fails_its_own_case(capsys, monkeypatch, corrupt,
                                              case_id):
    corrupt(monkeypatch)
    code, cases = run_suite(capsys)
    want = baseline()
    want[case_id] = "FAIL"
    assert statuses(cases) == want
    assert code == 1
