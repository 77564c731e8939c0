"""Smoke test for the scripts under scripts/: each runs to the end in process
and reports no failed check."""

import re
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["ramanujan_sums.py", "quaternary_table.py",
                                  "zeta_identity_corpus.py"])
def test_script_runs_without_failures(capsys, monkeypatch, name):
    path = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out and "FAIL" not in out


def test_replay_outputs_prints_a_stable_hash(capsys, monkeypatch):
    path = SCRIPTS / "replay_outputs.py"
    monkeypatch.setattr(sys, "argv", [str(path), "readme"])
    outs = []
    for _ in range(2):
        runpy.run_path(str(path), run_name="__main__")
        outs.append(capsys.readouterr().out)
    assert re.fullmatch(r"[0-9a-f]{64}  readme \(9 jobs\)\n", outs[0])
    assert outs[1] == outs[0]
