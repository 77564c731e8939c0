"""The package exports its names lazily, and each CLI command loads only the
modules it uses.  Footprints are read in fresh processes, since this test
process has already imported everything."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import posetoperad

SRC = Path(posetoperad.__file__).resolve().parent.parent

# the public names, by the module that defines them
EXPORTS = {
    "counting": ["DVector", "count_maps", "d_vector", "enumeration_report",
                 "order_polynomial", "reciprocity_check"],
    "errors": ["ArityError", "ArityMismatch", "CycleDetected",
               "DivergentParameter", "DuplicateLabel", "EnumerationGuard",
               "ExprSyntaxError", "IndexOutOfRange", "MissingProvenance",
               "ModeMismatch", "PosetOperadError", "PrecisionUnachievable",
               "UnknownIdentity", "UnknownLabel", "UnknownName"],
    "polynomials": ["BinomialPoly", "MonomialPoly", "bernoulli_number",
                    "binomial", "eulerian_number", "eulerian_polynomial",
                    "multiset_coeff", "stirling2"],
    "poset": ["Poset", "antichain", "chain", "construct_poset",
              "disjoint_union", "lex_sum", "max_chain_length", "ordinal_sum",
              "tropical_eval"],
    "series": ["ClosedForm", "SeriesVec", "basis_series", "closed_form",
               "hadamard", "inverse_power_sum", "iota",
               "operad_eval_series", "ordinal_mul", "series_of",
               "series_identity_check", "zigzag_poset"],
    "suite": ["alternating_unit_record", "binomial_shift_record",
              "goldbach_record"],
    "zeta": ["IdentityRecord", "PrecisionContext", "ZetaExpr",
             "entry22_check", "finite_form_identity", "n_tilde", "n_tilde2",
             "operad_eval_zeta", "verify_identity", "zeta_number",
             "zeta_value", "zhat"],
}
NAMES = sorted(n for names in EXPORTS.values() for n in names)

NUMERIC = ["mpmath", "posetoperad.zeta", "posetoperad.suite",
           "posetoperad.catalog"]


# what `dataclasses` would load; no command needs any of it
HEAVY = {"dataclasses", "inspect", "ast", "dis"}


def _loaded_after(code):
    """The posetoperad, mpmath and HEAVY modules loaded after running code
    in a fresh interpreter."""
    roots = ("posetoperad", "mpmath", *sorted(HEAVY))
    code += ("\nimport json, sys\nprint(json.dumps(sorted(m for m in "
             f"sys.modules if m.split('.')[0] in {roots!r})))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _main(argv):
    """Code that runs the CLI on argv, which must exit 0, output muted."""
    return ("import contextlib, io\nfrom posetoperad import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n")


def test_all_lists_the_exports():
    assert len(NAMES) == 65
    assert sorted(posetoperad.__all__) == NAMES
    assert set(NAMES) <= set(dir(posetoperad))


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_export_is_the_module_attribute(module):
    mod = importlib.import_module(f"posetoperad.{module}")
    for name in EXPORTS[module]:
        assert getattr(posetoperad, name) is getattr(mod, name), name


def test_inverse_power_sum_is_still_bound_in_zeta():
    from posetoperad import series, zeta
    assert zeta.inverse_power_sum is series.inverse_power_sum


def test_star_import_binds_exactly_the_exports():
    scope = {}
    exec("from posetoperad import *", scope)
    assert sorted(k for k in scope if k != "__builtins__") == NAMES


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        posetoperad.no_such_name
    with pytest.raises(ImportError):
        exec("from posetoperad import no_such_name", {})


def test_import_loads_no_submodule():
    assert _loaded_after("import posetoperad") == {"posetoperad"}


def test_name_access_loads_its_module_only():
    loaded = _loaded_after("import posetoperad\nposetoperad.chain")
    assert loaded == {"posetoperad", "posetoperad.errors",
                      "posetoperad.poset"}
    # a submodule behind the exports is an attribute without an import
    loaded = _loaded_after("import posetoperad\nposetoperad.poset.chain")
    assert loaded == {"posetoperad", "posetoperad.errors",
                      "posetoperad.poset"}


@pytest.mark.parametrize("argv", [
    ["poly", "{x<y,z<y,z<w}"],
    ["series", "C2|C1", "--weak"],
    ["eval", "A3", "--at", "3"],
    ["inverse-sum", "A2", "--r=3"],
    ["tables", "--eulerian", "4"],
    ["tropical", "{x<y>z<w}", "--lengths", "2,3,1,4"],
])
def test_commands_without_numerics_load_no_numeric_module(argv):
    loaded = _loaded_after(_main(argv))
    assert not loaded & set(NUMERIC), loaded
    assert not loaded & HEAVY, loaded
    if argv[0] not in ("series", "inverse-sum"):
        assert "posetoperad.series" not in loaded, loaded


@pytest.mark.parametrize("argv", [
    ["--digits", "30", "zeta-identity", "A3"],
    ["--digits", "30", "verify-suite"],
])
def test_numeric_commands_load_no_mpmath(argv):
    loaded = _loaded_after(_main(argv))
    assert "posetoperad.zeta" in loaded
    assert not {m for m in loaded if m.split(".")[0] == "mpmath"}, loaded
    assert not loaded & HEAVY, loaded


BLOCK_MPMATH = """
import sys


class RefuseMpmath:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "mpmath":
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, RefuseMpmath())
"""


def test_package_runs_with_mpmath_blocked():
    code = BLOCK_MPMATH + (
        "import contextlib, io\nimport posetoperad\n"
        "for name in posetoperad.__all__:\n"
        "    getattr(posetoperad, name)\n"
        "from posetoperad import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['--digits', '30', 'zeta-identity', 'A3']) == 0\n"
        "    assert cli.main(['--digits', '30', 'verify-suite']) == 0\n"
        "try:\n"
        "    import mpmath\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('the blocker let mpmath in')\n")
    loaded = _loaded_after(code)
    assert "posetoperad.zeta" in loaded


def test_cli_import_and_parser_load_no_dataclasses():
    loaded = _loaded_after("import posetoperad.cli\n"
                           "posetoperad.cli.build_parser()\n")
    assert "posetoperad.cli" in loaded
    assert not loaded & HEAVY, loaded
    assert "posetoperad.schema" not in loaded, loaded


# the package modules each command loads, and a ceiling on the bytes of
# source they hold, which a cold process compiles: about 2 % above today's
# size, so a module that starts loading, or grows, shows here as a diff
BASE = {"posetoperad", "posetoperad.cli", "posetoperad.counting",
        "posetoperad.dsl", "posetoperad.errors", "posetoperad.polynomials",
        "posetoperad.poset"}
SERIES = BASE | {"posetoperad.series"}
CEILING_BASE, CEILING_SERIES = 67_200, 81_400
CEILING_ZETA, CEILING_SUITE = 96_700, 119_100
FOOTPRINTS = [
    pytest.param(None, BASE, CEILING_BASE, id="parser"),
    pytest.param(["poly", "{x<y,z<y,z<w}"], BASE, CEILING_BASE, id="poly"),
    pytest.param(["series", "C2|C1", "--weak"], SERIES, CEILING_SERIES,
                 id="series"),
    pytest.param(["eval", "A3", "--at", "3"], BASE, CEILING_BASE, id="eval"),
    pytest.param(["inverse-sum", "A2", "--r=3"], SERIES, CEILING_SERIES,
                 id="inverse-sum"),
    pytest.param(["tables", "--eulerian", "4"], BASE, CEILING_BASE,
                 id="tables"),
    pytest.param(["tropical", "{x<y>z<w}", "--lengths", "2,3,1,4"], BASE,
                 CEILING_BASE, id="tropical"),
    pytest.param(["--digits", "30", "zeta-identity", "A3"],
                 BASE | {"posetoperad.zeta"}, CEILING_ZETA,
                 id="zeta-identity"),
    pytest.param(["--digits", "30", "verify-suite"],
                 SERIES | {"posetoperad.suite", "posetoperad.zeta"},
                 CEILING_SUITE, id="verify-suite"),
]


@pytest.mark.parametrize("argv,modules,ceiling", FOOTPRINTS)
def test_each_command_compiles_only_what_it_runs(argv, modules, ceiling):
    # no argv: the CLI's set-up, its import and its parser
    code = ("import posetoperad.cli\nposetoperad.cli.build_parser()\n"
            if argv is None else _main(argv))
    loaded = {m for m in _loaded_after(code) if m.split(".")[0] ==
              "posetoperad"}
    assert loaded == modules
    size = sum(Path(importlib.import_module(m).__file__).stat().st_size
               for m in loaded)
    assert size <= ceiling, size


def test_the_battery_has_one_home():
    assert _loaded_after("import posetoperad.zeta") == (
        BASE - {"posetoperad.cli", "posetoperad.dsl"} | {"posetoperad.zeta"})
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("posetoperad.discrepancies")
