#!/usr/bin/env python3
"""Count the code lines and bytes of each ``src/posetoperad`` module.

A code line holds a token that is not a comment and does not lie in a
docstring (the first statement of a module, class or function, when it is
a string); blank lines do not count.  Give one tree to list its modules,
or two, such as a parent and a change, to list both with the change
between them.

    python scripts/code_lines.py                    # this tree
    python scripts/code_lines.py PARENT_TREE .      # parent, change, delta
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source):
    """The number of code lines in Python source."""
    docs = set()
    for scope in ast.walk(ast.parse(source)):
        body = getattr(scope, "body", None)
        if (isinstance(scope, (ast.Module, ast.ClassDef, ast.FunctionDef,
                               ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def measure(tree):
    """{module file name: (code lines, bytes)} of a tree's package."""
    out = {}
    for path in sorted((Path(tree) / "src" / "posetoperad").glob("*.py")):
        data = path.read_bytes()
        out[path.name] = code_lines(data.decode()), len(data)
    if not out:
        raise SystemExit(f"no modules under {tree}/src/posetoperad")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    ap.add_argument("trees", nargs="*", default=[str(ROOT)], metavar="tree",
                    help="one or two repository roots (default: this one)")
    args = ap.parse_args()
    if len(args.trees) > 2:
        ap.error("give one or two trees")
    counts = [measure(tree) for tree in args.trees]
    rows = [(name, [c.get(name, (0, 0)) for c in counts])
            for name in sorted(set().union(*counts))]
    rows.append(("total", [tuple(map(sum, zip(*c.values()))) for c in counts]))
    if len(counts) == 1:
        print(f"{'module':<16}{'code':>8}{'bytes':>10}")
        for name, [(lines, size)] in rows:
            print(f"{name:<16}{lines:>8}{size:>10}")
        return
    print(f"{'module':<16}{'code':>8}{'code':>8}{'delta':>7}"
          f"{'bytes':>10}{'bytes':>10}{'delta':>8}")
    for name, [(l0, b0), (l1, b1)] in rows:
        print(f"{name:<16}{l0:>8}{l1:>8}{l1 - l0:>+7}"
              f"{b0:>10}{b1:>10}{b1 - b0:>+8}")


if __name__ == "__main__":
    main()
