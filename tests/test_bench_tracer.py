"""The benchmark's tracer (perfbench/tracer.py) wraps package functions and
methods by name from outside.  This test installs it in a fresh process so
that moving a wrapped method fails here, not first in a traced bench run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer
tracer = Tracer()
tracer.install()
from posetoperad import counting, poset, series, zeta
P = poset.construct_poset(["x", "y", "z", "w"],
                          [("x", "y"), ("z", "y"), ("z", "w")])
counting.reciprocity_check(P)
series.closed_form(series.series_of(P, "weak"))
series.hadamard(series.basis_series(2), series.basis_series(1))
zeta.verify_identity(zeta.finite_form_identity(P))
# exact mode on blocks that are not chains
series.operad_eval_series(P, [series.series_of(poset.antichain(2)),
                              series.basis_series(1), series.basis_series(0),
                              series.series_of(P)])
summary = tracer.summary()
print(json.dumps({**summary["calls"], **summary["counts"]}))
"""


def test_tracer_installs_and_sees_vector_layer():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"),
         str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    for name in ("counting.d_vector", "polynomials.monomial", "series.product",
                 "series.closed_form", "series.operad_eval", "zeta.zeta_value",
                 "zeta.zeta_value.misses", "zeta.verify.terms"):
        assert calls.get(name, 0) > 0, (name, calls)


CLI_SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer
tracer = Tracer()
tracer.install()
from posetoperad import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["inverse-sum", "A3", "--r=3"]) == 0
    assert cli.main(["series", "{x<y,z<y,z<w}", "--weak"]) == 0
print(json.dumps(tracer.summary()["calls"]))
"""


def test_tracer_sees_the_cli_commands_imports():
    # the commands import their functions when they run, after install()
    proc = subprocess.run(
        [sys.executable, "-c", CLI_SCRIPT, str(ROOT / "perfbench"),
         str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    assert calls.get("zeta.inverse_power_sum") == 1, calls
    assert calls.get("series.series_of") == 2, calls
