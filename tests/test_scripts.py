"""Smoke test for the scripts under scripts/: each runs to the end in process
and reports no failed check."""

import hashlib
import re
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


# the scoreboard lines a script prints at its defaults: the 25 classes of
# 0-4 elements, each verified under both zeta maps
SCOREBOARDS = {"zeta_identity_corpus.py": [
    r"^alternating: 25/25 identities verified at 1e-10 in ",
    r"^plain: 25/25 identities verified at 1e-10 in "]}


@pytest.mark.parametrize("name", ["ramanujan_sums.py", "quaternary_table.py",
                                  "zeta_identity_corpus.py"])
def test_script_runs_without_failures(capsys, monkeypatch, name):
    path = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out and "FAIL" not in out
    for line in SCOREBOARDS.get(name, ()):
        assert re.search(line, out, re.M), (line, out)


def test_replay_outputs_prints_a_stable_hash(capsys, monkeypatch):
    path = SCRIPTS / "replay_outputs.py"
    monkeypatch.setattr(sys, "argv", [str(path), "readme"])
    outs = []
    for _ in range(2):
        runpy.run_path(str(path), run_name="__main__")
        outs.append(capsys.readouterr().out)
    assert re.fullmatch(r"[0-9a-f]{64}  readme \(9 jobs\)\n", outs[0])
    assert outs[1] == outs[0]


def test_corpus_slice_on_seven_elements_is_pinned():
    # the corpus8 group's cheap slice: below masks, d-vector and the
    # finite-form identity's pass flag of each class of 7 elements, in
    # catalogue order
    corpus_lines = runpy.run_path(
        str(SCRIPTS / "replay_outputs.py"))["corpus_lines"]
    lines = list(corpus_lines([7], full=False))
    assert len(lines) == 2045
    assert all(line.endswith(" pass=True\n") for line in lines)
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "3514fd960df6dd80c8d2f86927f9b44cfee7076e20110848a6038d01c64e44d5")


def test_code_lines_counts_code_only(capsys, monkeypatch):
    path = SCRIPTS / "code_lines.py"
    code_lines = runpy.run_path(str(path))["code_lines"]
    source = ('"""Module docstring,\n\nover three lines."""\n\n'
              "# a comment\nx = 1  # trailing\n\n\n"
              "def f(a,\n      b):\n    '''Docstring.'''\n"
              "    return '''a string\n    that is code'''\n")
    assert code_lines(source) == 5
    # one tree, then the same tree twice: every delta is zero
    root = str(SCRIPTS.parent)
    for argv in ([str(path)], [str(path), root, root]):
        monkeypatch.setattr(sys, "argv", argv)
        runpy.run_path(str(path), run_name="__main__")
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        modules, total = rows[1:-1], rows[-1]
        assert {row[0] for row in modules} >= {"poset.py", "counting.py"}
        assert total[0] == "total" and int(total[1]) == sum(
            int(row[1]) for row in modules)
        if len(argv) == 3:
            assert all(row[3] == row[6] == "+0" for row in rows[1:])
