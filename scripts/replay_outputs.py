"""Replay a fixed list of CLI jobs in process and print one SHA-256 per group.

Each job runs ``posetoperad.cli.main`` with stdout and stderr captured; the
hash of a group covers every job's argv, stdout, stderr and exit code, in
order.  Run it with ``PYTHONPATH`` pointing at the ``src/`` of two trees
and diff the two outputs: equal hashes mean byte-identical command output.

    PYTHONPATH=src python scripts/replay_outputs.py            # all groups
    PYTHONPATH=src python scripts/replay_outputs.py commands   # one group
    PYTHONPATH=src python scripts/replay_outputs.py corpus8 --lines out.txt

Groups: ``readme`` (the README examples), ``commands`` (every subcommand,
usage errors, unknown names and the guard, in both formats),
``verify-suite`` (at 30, 55 and 200 digits in both formats),
``iso-classes`` (``poly`` and ``zeta-identity`` on every poset class of 1
to 5 elements, both formats), ``series`` (``series`` in both modes on
every poset class of 0 to 6 elements, both formats) and ``limits`` (inputs
at and past the size ceilings, both formats).

One group, ``corpus8``, calls the API instead of the CLI: one line per poset
class of 0 to 8 elements, in catalogue order, holding its canonical key, its
d-vector, its finite-form identity verified at 40 digits (RHS, bound and
pass), its reciprocity verdict and its weak closed form.  Its hash is the
SHA-256 of those lines; ``--lines PATH`` writes them, so that a diff of two
trees' files names the first class that moved.
"""

import argparse
import contextlib
import hashlib
import io
from pathlib import Path

from posetoperad import cli
from posetoperad.catalog import canonical_key, iso_classes
from posetoperad.counting import d_vector, reciprocity_check
from posetoperad.series import closed_form, series_of
from posetoperad.zeta import (PrecisionContext, finite_form_identity,
                              verify_identity)

FORMATS = (["--format", "human"], ["--format", "json"])

README = [
    ["poly", "{x<y,z<y,z<w}"],
    ["series", "A3", "--weak"],
    ["zeta-identity", "A3"],
    ["inverse-sum", "A5", "--r", "2"],
    ["inverse-sum", "C1*(C1|C1|C1)", "--r", "5", "--weak"],
    ["eval", "C3", "--at", "5"],
    ["tropical", "{x<y>z<w}", "--lengths", "2,3,1,4"],
    ["tables", "--eulerian", "6"],
    ["verify-suite"],
]

COMMANDS = [
    ["poly", "{x<y,z<y,z<w}(C2,A2,C1,C1)"],
    ["poly", "A0"],
    ["series", "C2|C1", "--weak"],
    ["series", "{x<y,z<y,z<w}", "--strict"],
    ["--digits", "40", "zeta-identity", "{a<b,c}"],
    ["inverse-sum", "A2", "--r=3"],
    ["inverse-sum", "C2", "--r=-7/2", "--weak"],
    ["eval", "A3", "--at", "3"],
    ["tropical", "C2*A2", "--lengths", "1,2,3,4"],
    ["tables", "--stirling", "5"],
    ["tables", "--eulerian", "0"],
    ["tables", "--eulerian", "40"],
    ["tables", "--stirling", "40"],
    ["--guard", "40", "series", "A40"],
    ["--guard", "40", "series", "A40", "--weak"],
    ["poly", "C4000"],
    ["poly", "{x<"],
    ["poly", "foo"],
    ["poly", "f(C1,C2)"],
    ["eval", "{x<y,y<x}", "--at", "2"],
    ["tropical", "C2", "--lengths", "1"],
    ["--digits", "0", "poly", "C1"],
    ["inverse-sum", "C1", "--r", "1"],
    ["--tolerance", "1e-300", "zeta-identity", "A2"],
]

# past float range (a tail, a bound to print, or a tolerance whose half
# rounds to 0.0 as a float), past a ceiling or past Python's int-str limit:
# each ends in a documented exit code within seconds
LIMITS = [
    ["--guard", "90", "zeta-identity", "A90"],
    ["--guard", "95", "zeta-identity", "A95"],
    ["--digits", "1", "--guard", "100", "zeta-identity", "A100"],
    ["--guard", "150", "--term-cap", "100000", "zeta-identity", "A150"],
    ["--digits", "400", "--tolerance", "1e-320", "verify-suite"],
    ["--tolerance", "1e-26", "verify-suite"],
    ["--guard", "2000", "poly", "A2000"],
    ["--guard", "1000", "series", "A1000", "--weak"],
    ["--guard", "501", "poly", "A2"],
    ["--guard", "500", "series", "A500"],
    ["eval", "C2", "--at", "9" * 3000],
    ["inverse-sum", "A3", "--r", "7" * 1500],
    ["--tolerance", "5e-324", "zeta-identity", "A3"],
    ["tables", "--eulerian", "500"],
    ["tables", "--stirling", "500"],
    ["tables", "--eulerian", "501"],
]


def _expr(P):
    """A DSL expression for P: its relation pairs, then its isolated
    points, on the labels x0, x1, ..."""
    pairs = sorted(P.index_pairs())
    items = [f"x{a}<x{b}" for a, b in pairs]
    touched = {i for pair in pairs for i in pair}
    items += [f"x{i}" for i in range(len(P)) if i not in touched]
    return "{" + ", ".join(items) + "}"


def groups():
    """Group name -> list of argv lists."""
    iso = [[cmd, _expr(P)] for n in range(1, 6) for P in iso_classes(n)
           for cmd in ("poly", "zeta-identity")]
    series = [["series", _expr(P), mode] for n in range(7)
              for P in iso_classes(n) for mode in ("--strict", "--weak")]
    return {
        "readme": README,
        "commands": [f + job for job in COMMANDS for f in FORMATS],
        "verify-suite": [f + ["--digits", d, "verify-suite"]
                         for d in ("30", "55", "200") for f in FORMATS],
        "iso-classes": [f + job for job in iso for f in FORMATS],
        "series": [f + job for job in series for f in FORMATS],
        "limits": [f + job for job in LIMITS for f in FORMATS],
    }


def run_job(argv):
    """stdout, stderr and exit code of one in-process CLI run; an exception
    is recorded by its type and message."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as e:  # a traceback is a difference too
            code = f"raised {type(e).__name__}: {e}"
    return out.getvalue(), err.getvalue(), code


def group_hash(jobs):
    h = hashlib.sha256()
    for argv in jobs:
        out, err, code = run_job(argv)
        h.update(repr((argv, out, err, code)).encode())
    return h.hexdigest()


CORPUS_CTX = PrecisionContext(working_digits=40)


def corpus_line(P, full=True):
    """The corpus8 line of the class P.  Without ``full``, only its below
    masks, its d-vector and its identity's pass flag: the cheap slice that
    the tests pin on the classes of 7 elements."""
    rec = verify_identity(finite_form_identity(P), CORPUS_CTX)
    d = d_vector(P).d
    if not full:
        masks = tuple(map(P.below_mask, range(len(P))))
        return f"{masks} d={d} pass={rec.passed}"
    form = closed_form(series_of(P, "weak"))
    weak = ",".join(map(str, form.numerator))
    return (f"{canonical_key(P)} d={d} rhs={rec.rhs.render()} "
            f"bound={rec.error_bound!r} pass={rec.passed} "
            f"reciprocity={reciprocity_check(P).passed} "
            f"weak=({weak})/(1-x)^{form.den_power}")


def corpus_lines(sizes, full=True):
    """The corpus lines of every class of each size, in catalogue order,
    each led by its size and index and ended by a newline."""
    for n in sizes:
        for i, P in enumerate(iso_classes(n)):
            yield f"{n}.{i} {corpus_line(P, full)}\n"


def main():
    table = groups()
    ap = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    ap.add_argument("groups", nargs="*", metavar="group",
                    help=f"groups to run (default all): {', '.join(table)}, "
                         f"corpus8")
    ap.add_argument("--lines", metavar="PATH",
                    help="write corpus8's per-class lines to PATH")
    args = ap.parse_args()
    unknown = [n for n in args.groups if n not in table and n != "corpus8"]
    if unknown:
        ap.error(f"unknown group(s) {unknown}")
    for name in args.groups or [*table, "corpus8"]:
        if name == "corpus8":
            lines = list(corpus_lines(range(9)))
            if args.lines:
                Path(args.lines).write_text("".join(lines))
            digest = hashlib.sha256("".join(lines).encode()).hexdigest()
            print(f"{digest}  corpus8 ({len(lines)} classes)")
        else:
            print(f"{group_hash(table[name])}  {name} "
                  f"({len(table[name])} jobs)")


if __name__ == "__main__":
    main()
