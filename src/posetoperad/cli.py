"""Command-line surface.

Subcommands: poly, series, zeta-identity, inverse-sum, eval, tropical,
tables, verify-suite.  Expressions use the DSL grammar in
:mod:`posetoperad.dsl`; pass "-" to read one expression per stdin line.

Exit codes: 0 all good, 1 verification failure (also an error bound above
the tolerance, or stdout closed early), 2 usage or parse error,
3 enumeration guard exceeded.

Start-up stays proportional to the subcommand: module scope imports what
every path needs, and each command imports the rest when it runs, so
``poly`` never loads the zeta layer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .counting import DEFAULT_GUARD, check_guard
from .dsl import element_count, parse_expr, resolve
from .errors import (MAX_DIGITS, ArityError, ArityMismatch, CycleDetected,
                     DivergentParameter, DuplicateLabel, EnumerationGuard,
                     ExprSyntaxError, PosetOperadError,
                     PrecisionUnachievable, UnknownLabel, UnknownName)

SCHEMA_VERSION = "v1"  # here, so the CLI starts without ``schema``

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

_FIG2_ROWS = (
    ("{x<y<z<w}", {4: 1}),
    ("{x<y<z,w}", {3: 3, 4: 4}),
    ("{x<y,z<w}", {2: 1, 3: 6, 4: 6}),
    ("{x<y,x<z,x<w}", {2: 1, 3: 6, 4: 6}),
    ("{y<x,z<x,w<x}", {2: 1, 3: 6, 4: 6}),
    ("{x,y,z<w}", {2: 4, 3: 15, 4: 12}),
    ("{x,y,z,w}", {1: 1, 2: 14, 3: 36, 4: 24}),
    ("{x<y,y>z,w}", {2: 2, 3: 9, 4: 8}),
    ("{x,y>z,z<w}", {2: 2, 3: 9, 4: 8}),
    ("{x<y,z<y,z<w}", {2: 1, 3: 5, 4: 5}),
)


def _arg_type(convert, ok, requirement):
    """argparse type: convert the text, then require ok(value)."""
    def parse(text):
        try:
            value = convert(text)
        except (ValueError, ZeroDivisionError):
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
        return value
    return parse


_positive = _arg_type(int, lambda v: v >= 1, "need an integer >= 1")
_nonnegative = _arg_type(int, lambda v: v >= 0, "need an integer >= 0")
_tolerance = _arg_type(float, lambda v: 0 < v < math.inf,
                       "need a finite number > 0")
_ratio = _arg_type(Fraction, lambda v: True, "need a rational number")
_digits = _arg_type(_positive, lambda v: v <= MAX_DIGITS,
                    f"need at most {MAX_DIGITS} digits")
# a table's output grows as n^3 digits, about 75 MB at this many rows
MAX_TABLE_ROWS = 500
_rows = _arg_type(_nonnegative, lambda v: v <= MAX_TABLE_ROWS,
                  f"need at most {MAX_TABLE_ROWS} rows")
# A500's d-vector has entries of 1,213 digits; its series takes about 2.4 s
MAX_GUARD = 500
_guard = _arg_type(_nonnegative, lambda v: v <= MAX_GUARD,
                   f"need at most {MAX_GUARD} elements")


def build_parser():
    p = argparse.ArgumentParser(
        prog="posetoperad",
        description="order polynomials, order series, and rational zeta "
                    "identities for finite posets")
    # a string default goes through the same type check as the flag
    p.add_argument("--digits", type=_digits,
                   default=os.environ.get("POSETOPERAD_DIGITS", "50"),
                   help="working precision in decimal digits")
    p.add_argument("--tolerance", type=_tolerance, default=1e-12,
                   help="numeric verification tolerance")
    p.add_argument("--term-cap", type=_positive, default=4000,
                   help="cap on summed series terms")
    p.add_argument("--guard", type=_guard, default=DEFAULT_GUARD,
                   help="enumeration guard on poset size")
    p.add_argument("--format", choices=("human", "json"), default="human")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("poly", help="d-vector and both order polynomials")
    s.add_argument("expr")

    s = sub.add_parser("series", help="order series and closed form")
    s.add_argument("expr")
    mode = s.add_mutually_exclusive_group()
    mode.add_argument("--strict", dest="mode", action="store_const",
                      const="strict", default="strict")
    mode.add_argument("--weak", dest="mode", action="store_const",
                      const="weak")

    s = sub.add_parser("zeta-identity",
                       help="finite-form zeta identity with verification")
    s.add_argument("expr")

    s = sub.add_parser("inverse-sum",
                       help="exact sum of Omega(P,n)/r^n")
    s.add_argument("expr")
    s.add_argument("--r", type=_ratio, required=True,
                   help="rational ratio, |r| > 1")
    s.add_argument("--weak", action="store_true")

    s = sub.add_parser("eval", help="count order-preserving maps into [n]")
    s.add_argument("expr")
    s.add_argument("--at", type=int, required=True)

    s = sub.add_parser("tropical", help="max-chain value of a composition")
    s.add_argument("expr")
    s.add_argument("--lengths", required=True,
                   help="comma-separated slot lengths")

    s = sub.add_parser("tables", help="print number-triangle rows")
    which = s.add_mutually_exclusive_group(required=True)
    which.add_argument("--eulerian", type=_rows, metavar="N")
    which.add_argument("--stirling", type=_rows, metavar="N")

    sub.add_parser("verify-suite", help="run the identity battery")
    return p


def _ctx(args):
    from .zeta import PrecisionContext
    return PrecisionContext(working_digits=args.digits,
                            verify_tolerance=args.tolerance,
                            series_term_cap=args.term_cap)


def _emit(args, human_lines, payload):
    """Write the payload as JSON, or the human lines, as they are made."""
    if args.format == "json":
        json.dump({"schema": SCHEMA_VERSION, **payload}, sys.stdout,
                  indent=2, sort_keys=True)
        print()
    else:
        for line in human_lines:
            print(line)


def _expressions(args):
    if args.expr == "-":
        return [line.strip() for line in sys.stdin if line.strip()]
    return [args.expr]


def _guarded_posets(args):
    """The posets of the expressions, each checked against the guard from
    its syntax tree before it is built."""
    for text in _expressions(args):
        ast = parse_expr(text)
        check_guard(element_count(ast), args.guard)
        yield resolve(ast)


def _cmd_poly(args):
    from .counting import enumeration_report, order_polynomial
    for P in _guarded_posets(args):
        report = enumeration_report(P, args.guard)
        dv = report["d"]
        poly = order_polynomial(P, "strict", args.guard)
        weak = order_polynomial(P, "weak", args.guard)
        _emit(args,
              [f"poset {P.relation_string()}",
               f"d = {dv}",
               f"strict: {poly.render()}",
               f"weak (multiset basis): {weak.render()}"],
              report)
    return EXIT_OK


def _cmd_series(args):
    from .series import closed_form, series_of
    for P in _guarded_posets(args):
        S = series_of(P, args.mode, args.guard)
        cf = closed_form(S)
        num = " + ".join(f"{c}*x^{i}" for i, c in enumerate(cf.numerator) if c)
        _emit(args,
              [f"series ({args.mode}): {S.render()}",
               f"closed form: ({num or '0'}) / (1-x)^{cf.den_power}"],
              {"series": S.to_json_dict(), "closed_form": cf.to_json_dict()})
    return EXIT_OK


def _cmd_zeta_identity(args):
    from .zeta import finite_form_identity, nstr, verify_identity
    ctx = _ctx(args)
    status = EXIT_OK
    for P in _guarded_posets(args):
        rec = verify_identity(finite_form_identity(P, args.guard), ctx)
        _emit(args,
              [f"lhs: {rec.lhs_description}",
               f"rhs: {rec.rhs.render('shifted')}",
               f"lhs = {nstr(rec.lhs_numeric, 20)} ± {rec.error_bound:.3e}",
               f"rhs = {nstr(rec.rhs_numeric, 20)}",
               f"pass: {rec.passed}"],
              {"record": rec.to_json_dict()})
        if not rec.passed:
            status = EXIT_FAIL
    return status


def _cmd_inverse_sum(args):
    from .series import inverse_power_sum
    mode = "weak" if args.weak else "strict"
    for P in _guarded_posets(args):
        value = inverse_power_sum(P, args.r, mode, args.guard)
        _emit(args, [str(value)], {"value": str(value), "mode": mode})
    return EXIT_OK


def _cmd_eval(args):
    from .counting import count_maps
    for P in _guarded_posets(args):
        s = count_maps(P, args.at, "strict", args.guard)
        w = count_maps(P, args.at, "weak", args.guard)
        _emit(args,
              [f"strict maps into [{args.at}]: {s}",
               f"weak maps into [{args.at}]: {w}"],
              {"value": {"strict": s, "weak": w}, "at": args.at})
    return EXIT_OK


def _cmd_tropical(args):
    from .poset import check_lengths, tropical_eval
    lengths = [int(t) for t in args.lengths.split(",") if t != ""]
    for text in _expressions(args):
        ast = parse_expr(text)
        check_lengths(element_count(ast), lengths)  # before the poset is built
        v = tropical_eval(resolve(ast), lengths)
        _emit(args, [str(v)], {"value": v, "lengths": lengths})
    return EXIT_OK


def _cmd_tables(args):
    from .polynomials import eulerian_rows, stirling_rows
    if args.eulerian is not None:
        table, name, first = "eulerian", "A", 1
        rows = eulerian_rows(args.eulerian)
    else:
        table, name, first = "stirling", "S", 0
        rows = stirling_rows(args.stirling)
    rows = enumerate(rows, first)
    if args.format == "json":  # sorted keys put "10" before "2": keep all
        _emit(args, (), {"value": {str(n): row for n, row in rows},
                         "table": table})
    else:  # one row at a time
        _emit(args, (f"{name}({n},.) = {row}" for n, row in rows), None)
    return EXIT_OK


def _suite_cases(args):
    """The identity battery as (case id, run) pairs, sorted by id, which is
    the report order."""
    from functools import partial

    from .counting import reciprocity_check
    from .discrepancies import known_discrepancies
    from .poset import antichain, chain
    from .series import series_of
    from .zeta import (alternating_unit_record, binomial_shift_record,
                       entry22_check, goldbach_record, nstr, verify_identity)
    ctx = _ctx(args)
    cases = []

    for idx, (text, expected) in enumerate(_FIG2_ROWS):
        def run(text=text, expected=expected):
            S = series_of(resolve(parse_expr(text)), "strict", args.guard)
            got = {i: int(v) for i, v in S.coeffs.items()}
            ok = got == expected
            return ("PASS" if ok else "FAIL",
                    f"{text} -> {S.render()}")
        cases.append((f"quaternary-table:{idx:02d}", run))

    # the reciprocity corpus, as (tag, poset)
    corpus = [(f"C{n}", chain(n)) for n in range(2, 7)]
    corpus += [(f"A{n}", antichain(n)) for n in range(2, 7)]
    corpus += [(t, resolve(parse_expr(t))) for t, _ in _FIG2_ROWS[:7]]
    for tag, P in corpus:
        def run(P=P):
            rep = reciprocity_check(P, args.guard)
            return ("PASS" if rep.passed else "FAIL",
                    f"reciprocity on {P.relation_string()}")
        cases.append((f"reciprocity:{tag}", run))

    # the certified sums, as (case id, check, label): check() returns a
    # verified IdentityRecord
    def verified(build, *params):
        return lambda: verify_identity(build(*params), ctx)

    sums = [("goldbach:unit", verified(goldbach_record), "sum(zeta(n)-1)"),
            ("goldbach:alternating", verified(alternating_unit_record),
             "alternating sum")]
    sums += [(f"binomial-shift:k={k}", verified(binomial_shift_record, k),
              f"k={k}: lhs") for k in range(1, 7)]
    sums += [(f"inverse-product:k={k}", partial(entry22_check, k, ctx),
              f"k={k}: lhs") for k in (2, 3, 4)]

    def certify(check, label):
        rec = check()
        return ("PASS" if rec.passed else "FAIL",
                f"{label} ~ {nstr(rec.lhs_numeric, 15)}")
    cases += [(case_id, partial(certify, check, label))
              for case_id, check, label in sums]

    for disc in known_discrepancies():
        def run(disc=disc):
            status = "FLAG" if disc.confirmed else "FAIL"
            return (status,
                    f"published: {disc.published} | derived: {disc.derived}")
        cases.append((f"discrepancy:{disc.case_id}", run))

    return sorted(cases)


def _cmd_verify_suite(args):
    results = []
    for case_id, run in _suite_cases(args):
        try:
            status, detail = run()
        except PrecisionUnachievable as e:  # this case fails; the rest run
            status, detail = "FAIL", f"not computed: {e}"
        results.append({"id": case_id, "status": status, "detail": detail})
    all_pass = all(r["status"] != "FAIL" for r in results)
    lines = [f"{r['status']:4s} {r['id']}  {r['detail']}" for r in results]
    lines.append("all passed" if all_pass else "FAILURES PRESENT")
    _emit(args, lines, {"cases": results, "all_pass": all_pass})
    return EXIT_OK if all_pass else EXIT_FAIL


_COMMANDS = {
    "poly": _cmd_poly,
    "series": _cmd_series,
    "zeta-identity": _cmd_zeta_identity,
    "inverse-sum": _cmd_inverse_sum,
    "eval": _cmd_eval,
    "tropical": _cmd_tropical,
    "tables": _cmd_tables,
    "verify-suite": _cmd_verify_suite,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # before Python 3.13 argparse reads "--flag=--" as [] and skips the
        # type check; no option here takes a list
        for dest, value in vars(args).items():
            if value == []:
                parser.error(f"argument --{dest.replace('_', '-')}: "
                             "expected one argument")
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0,) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ExprSyntaxError, ArityError, UnknownName, DuplicateLabel,
            UnknownLabel, CycleDetected, ArityMismatch,
            DivergentParameter, ValueError) as e:
        if "sys.set_int_max_str_digits" in str(e):  # Python's own words
            e = (f"a number of more than {sys.get_int_max_str_digits()} "
                 "digits cannot be read or printed")
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except EnumerationGuard as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_GUARD
    except (PrecisionUnachievable, PosetOperadError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # reader gone; devnull spares the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_FAIL
    sys.exit(code)


if __name__ == "__main__":
    entry()
