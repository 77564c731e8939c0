"""Replay a fixed list of CLI jobs in process and print one SHA-256 per group.

Each job runs ``posetoperad.cli.main`` with stdout and stderr captured; the
hash of a group covers every job's argv, stdout, stderr and exit code, in
order.  Run it with ``PYTHONPATH`` pointing at the ``src/`` of two trees
and diff the two outputs: equal hashes mean byte-identical command output.

    PYTHONPATH=src python scripts/replay_outputs.py            # all groups
    PYTHONPATH=src python scripts/replay_outputs.py commands   # one group

Groups: ``readme`` (the README examples), ``commands`` (every subcommand,
usage errors, unknown names and the guard, in both formats),
``verify-suite`` (at 30, 55 and 200 digits in both formats),
``iso-classes`` (``poly`` and ``zeta-identity`` on every poset class of 1
to 5 elements, both formats), ``series`` (``series`` in both modes on
every poset class of 0 to 6 elements, both formats) and ``limits`` (inputs
at and past the size ceilings, both formats).
"""

import contextlib
import hashlib
import io
import sys

from posetoperad import cli
from posetoperad.catalog import iso_classes

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

# past float range (a tail, or a bound to print), past a ceiling or past
# Python's int-str limit: each ends in a documented exit code within seconds
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


def main(names=()):
    table = groups()
    unknown = [n for n in names if n not in table]
    if unknown:
        sys.exit(f"unknown group(s) {unknown}; known: {sorted(table)}")
    for name in names or table:
        print(f"{group_hash(table[name])}  {name} ({len(table[name])} jobs)")


if __name__ == "__main__":
    main(sys.argv[1:])
