import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import jsonschema
import pytest

from posetoperad import schema
from posetoperad.cli import (EXIT_FAIL, EXIT_GUARD, EXIT_OK, EXIT_USAGE, main)

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    return code, json.loads(out), err


def test_poly_zigzag(capsys):
    code, out, _ = run(capsys, "poly", "{x<y,z<y,z<w}")
    assert code == EXIT_OK
    assert "d = [0, 1, 5, 5]" in out


def test_poly_json_schema(capsys):
    code, payload, _ = run_json(capsys, "poly", "{x<y,z<y,z<w}")
    assert code == EXIT_OK
    jsonschema.validate(payload, schema.ENUMERATION_REPORT)
    assert payload["d"] == [0, 1, 5, 5]
    assert payload["schema"] == "v1"


def test_inverse_sum_examples(capsys):
    code, out, _ = run(capsys, "inverse-sum", "A5", "--r", "2")
    assert code == EXIT_OK and out.strip() == "1082"
    code, out, _ = run(capsys, "inverse-sum", "A5", "--r", "3")
    assert out.strip() == "273/4"
    code, out, _ = run(capsys, "inverse-sum", "C1 * (C1 | C1 | C1)",
                       "--r", "5")
    assert out.strip() == "115/512"
    code, out, _ = run(capsys, "inverse-sum", "C1 * (C1 | C1 | C1)",
                       "--r", "5", "--weak")
    assert out.strip() == "575/512"


def test_series_weak_closed_form(capsys):
    code, payload, _ = run_json(capsys, "series", "A3", "--weak")
    assert code == EXIT_OK
    jsonschema.validate(payload, schema.SERIES_REPORT)
    assert payload["closed_form"] == {"numerator": ["0", "1", "4", "1"],
                                      "den_power": 4}


def test_zeta_identity_cube(capsys):
    code, payload, _ = run_json(capsys, "zeta-identity", "A3")
    assert code == EXIT_OK
    jsonschema.validate(payload, schema.IDENTITY_REPORT)
    rec = payload["record"]
    assert rec["pass"] is True
    assert rec["rhs"]["zeta_coeffs"] == {"1": "1", "2": "-6", "3": "6"}


def test_eval_and_tropical(capsys):
    code, out, _ = run(capsys, "eval", "C3", "--at", "5")
    assert code == EXIT_OK and "strict maps into [5]: 10" in out
    code, out, _ = run(capsys, "tropical", "{x<y>z<w}", "--lengths", "2,3,1,4")
    assert code == EXIT_OK and out.strip() == "5"


def test_eval_beyond_64(capsys):
    code, payload, _ = run_json(capsys, "eval", "C3", "--at", "65")
    assert code == EXIT_OK
    assert payload["value"] == {"strict": 43680, "weak": 47905}


def test_tables(capsys):
    code, payload, _ = run_json(capsys, "tables", "--eulerian", "4")
    assert code == EXIT_OK
    assert payload["value"]["4"] == [1, 11, 11, 1]
    code, payload, _ = run_json(capsys, "tables", "--stirling", "4")
    assert payload["value"]["4"] == [0, 1, 7, 6, 1]


@pytest.mark.parametrize("argv, value", [
    (["eval", "C3", "--at", "5"], {"strict": 10, "weak": 35}),
    (["inverse-sum", "A5", "--r", "2"], "1082"),
    (["tropical", "{x<y>z<w}", "--lengths", "2,3,1,4"], 5),
    (["tables", "--eulerian", "3"], {"1": [1], "2": [1, 1], "3": [1, 4, 1]}),
    (["tables", "--stirling", "2"], {"0": [1], "1": [0, 1], "2": [0, 1, 1]}),
])
def test_value_reports_match_the_schema(capsys, argv, value):
    code, payload, _ = run_json(capsys, *argv)
    assert code == EXIT_OK
    jsonschema.validate(payload, schema.VALUE_REPORT)
    assert payload["value"] == value


@pytest.mark.parametrize("argv, flag", [
    (["tropical", "C2", "--lengths=-1,-2"], "lengths"),
    (["tropical", "{x<y>z<w}", "--lengths", "2,0,-3,4"], "lengths"),
    (["tables", "--eulerian=-3"], "--eulerian"),
    (["tables", "--stirling=-3"], "--stirling"),
    (["tables", "--stirling", "-1"], "--stirling")])
def test_negative_values_are_usage_errors(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and flag in err and ">= 0" in err and out == ""


@pytest.mark.parametrize("flag", ["--eulerian", "--stirling"])
def test_table_size_above_the_ceiling_is_usage_error(capsys, flag):
    from posetoperad.cli import MAX_TABLE_ROWS, build_parser
    assert MAX_TABLE_ROWS == 500
    code, out, err = run(capsys, "tables", flag, "501")
    assert code == EXIT_USAGE and out == ""
    assert f"argument {flag}: need at most 500 rows, got '501'" in err
    args = build_parser().parse_args(["tables", flag, "500"])
    assert vars(args)[flag[2:]] == 500


def test_a_json_table_at_the_ceiling_streams_within_a_memory_budget():
    # the 76 MB of JSON for 500 Eulerian rows are written as they are
    # encoded, not built as one string first: the child's own peak RSS,
    # read from wait4, stays below 100 MB, and the bytes are unchanged
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "posetoperad.cli", "--format", "json",
         "tables", "--eulerian", "500"], stdout=subprocess.PIPE, env=env)
    digest = hashlib.sha256()
    for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
        digest.update(chunk)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == EXIT_OK
    assert digest.hexdigest() == ("8105a70331d6f538e14efc04f236c29e"
                                  "d0e2596865a69b4eecd2369d2042d53f")
    assert usage.ru_maxrss < 100 * 1024, usage.ru_maxrss  # KiB on Linux


def test_guard_above_the_ceiling_is_usage_error(capsys):
    from posetoperad.cli import MAX_GUARD, build_parser
    assert MAX_GUARD == 500
    code, out, err = run(capsys, "--guard", "501", "poly", "C3")
    assert code == EXIT_USAGE and out == ""
    assert "argument --guard: need at most 500 elements, got '501'" in err
    assert build_parser().parse_args(["--guard", "500", "poly", "C3"]).guard \
        == 500


INT_STR_LIMIT = ("error: a number of more than 4300 digits cannot be read "
                 "or printed")


# a tail past float range, bounds past it, a --guard over its ceiling, and
# results past Python's int-str digit limit
@pytest.mark.parametrize("argv, want, message", [
    (["--guard", "90", "zeta-identity", "A90"], EXIT_FAIL,
     "error: error bound 1.269e+231 exceeds tolerance"),
    (["--guard", "95", "zeta-identity", "A95"], EXIT_FAIL,
     "error: error bound 5.142e+249 exceeds tolerance"),
    (["--digits", "1", "--guard", "100", "zeta-identity", "A100"], EXIT_FAIL,
     "error: error bound 1.009e+317 exceeds tolerance"),
    (["--guard", "150", "--term-cap", "100000", "zeta-identity", "A150"],
     EXIT_FAIL, "error: error bound 7.549e+457 exceeds tolerance"),
    (["--guard", "2000", "poly", "A2000"], EXIT_USAGE,
     "error: argument --guard: need at most 500 elements, got '2000'"),
    (["--guard", "1000", "series", "A1000", "--weak"], EXIT_USAGE,
     "error: argument --guard: need at most 500 elements, got '1000'"),
    (["eval", "C2", "--at", "9" * 3000], EXIT_USAGE, INT_STR_LIMIT),
    (["inverse-sum", "A3", "--r", "7" * 1500], EXIT_USAGE, INT_STR_LIMIT),
    (["--tolerance", "5e-324", "zeta-identity", "A3"], EXIT_FAIL,
     "error: error bound 2.752e-49 exceeds tolerance 4.941e-324"),
], ids=["A90-bound", "A95-tail", "A100-past-float", "A150-past-float",
        "guard-2000", "guard-1000", "eval-digits", "inverse-sum-digits",
        "smallest-tolerance"])
def test_inputs_past_a_limit_end_in_their_exit_code(capsys, argv, want,
                                                    message):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 10
    assert code == want and out == ""
    assert [line for line in err.splitlines() if "error:" in line] == \
        [err.splitlines()[-1]]
    assert message in err and "Traceback" not in err


def test_a_term_cap_far_past_the_tail_refuses_within_a_time_budget():
    # A500's bound is known before its 11,656 terms, so the refusal comes
    # before the first of them, whatever the cap: the whole process ends
    # in under 2 s
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "posetoperad.cli", "--guard", "500",
         "--term-cap", "100000000", "zeta-identity", "A500"],
        capture_output=True, text=True, env=env, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == EXIT_FAIL and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: error bound 1.760e+1974 exceeds tolerance 1.000e-12; raise "
        "the working digits"]
    assert elapsed < 2, elapsed


@pytest.mark.parametrize("command", [["poly"], ["series"], ["eval", "--at=3"],
                                     ["inverse-sum", "--r=2"],
                                     ["zeta-identity"]], ids=lambda c: c[0])
def test_a_deep_tree_ends_in_a_documented_exit(command):
    # one relation per element, so the parser's nesting limit never applies,
    # but the decomposition tree is about 500 levels deep: decompose and the
    # fold over it take one frame per level, and no job ends in a
    # RecursionError
    from oracles import deep_series_parallel
    literal = deep_series_parallel(500).relation_string()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "posetoperad.cli", "--guard", "500",
         command[0], literal, *command[1:]],
        capture_output=True, text=True, env=env, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode in (EXIT_OK, EXIT_FAIL), proc.stderr[-300:]
    assert "Traceback" not in proc.stderr
    assert elapsed < 5, elapsed


def test_zeta_identity_reports_a_failed_identity(capsys, monkeypatch):
    # the finite form's constant moved by 2^-30: both formats report the
    # failed comparison, and the exit code is 1
    from fractions import Fraction
    from posetoperad import zeta
    true_n_tilde2 = zeta.n_tilde2

    def shifted(p):
        expr = true_n_tilde2(p)
        return zeta.ZetaExpr({**expr.coeffs,
                              0: expr.constant + Fraction(1, 2 ** 30)})
    monkeypatch.setattr(zeta, "n_tilde2", shifted)
    code, out, err = run(capsys, "zeta-identity", "A3")
    assert code == EXIT_FAIL and err == ""
    assert out.splitlines()[-1] == "pass: False"
    code, payload, err = run_json(capsys, "zeta-identity", "A3")
    assert code == EXIT_FAIL and err == ""
    assert payload["record"]["pass"] is False


# tolerances far below the default pass every case, fast; a case whose bound
# is refused fails alone, and the other cases still run
@pytest.mark.parametrize("argv, failed", [
    (["--tolerance", "1e-26"], []),
    (["--digits", "400", "--tolerance", "1e-320"], []),
    (["--tolerance", "1.34e-21"], []),
    (["--digits", "12"], ["FAIL binomial-shift:k=6  not computed: error bound "
                          "1.076e-12 exceeds tolerance 1.000e-12; raise the "
                          "working digits"]),
], ids=["1e-26", "1e-320", "1.34e-21", "digits-12"])
def test_suite_fails_only_its_refused_cases(capsys, argv, failed):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "verify-suite")
    assert time.perf_counter() - start < 2
    assert code == (EXIT_FAIL if failed else EXIT_OK) and err == ""
    lines = out.splitlines()
    assert len(lines) == 42
    assert [line for line in lines if not line.startswith(("PASS", "FLAG"))] \
        == failed + ["FAILURES PRESENT" if failed else "all passed"]


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "poly", "{x<}")
    assert code == EXIT_USAGE and "expected" in err


def test_guard_exit_code(capsys):
    code, out, err = run(capsys, "poly", "A13")
    assert code == EXIT_GUARD and "guard" in err


@pytest.mark.parametrize("text", ["(" * 3000 + "C1" + ")" * 3000,
                                  "|".join(["C1"] * 3000),
                                  "C1(" * 3000 + "C1" + ")" * 3000])
def test_deep_nesting_is_usage_error(capsys, text):
    code, out, err = run(capsys, "poly", text)
    assert code == EXIT_USAGE and "levels of nesting" in err and out == ""


@pytest.mark.parametrize("argv", [["poly", "C4000"], ["series", "C4000"],
                                  ["eval", "C4000", "--at", "3"],
                                  ["inverse-sum", "C4000", "--r=2"],
                                  ["zeta-identity", "C4000"],
                                  ["poly", "C1000|A1000*{a<b}(C1000,A1000)"]])
def test_guard_fires_before_the_poset_is_built(capsys, monkeypatch, argv):
    def refuse(ast):
        raise AssertionError("poset built despite the guard")
    monkeypatch.setattr("posetoperad.cli.resolve", refuse)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_GUARD and out == ""
    assert err == "error: |P| = 4000 exceeds enumeration guard 12\n"


def test_tropical_arity_checked_before_the_poset_is_built(capsys, monkeypatch):
    def refuse(ast):
        raise AssertionError("poset built despite the arity mismatch")
    monkeypatch.setattr("posetoperad.cli.resolve", refuse)
    code, out, err = run(capsys, "tropical", "C1500", "--lengths", "1")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: poset has 1500 slots, got 1 lengths\n"


@given(st.text(alphabet="CA{}()<>,*| xyz0123456789\u2294", max_size=40),
       st.sampled_from([["poly"], ["series", "--weak"], ["eval", "--at", "3"],
                        ["inverse-sum", "--r=2"], ["zeta-identity"]]))
@settings(max_examples=150, deadline=None)
def test_fuzzed_expressions_end_in_a_documented_exit_code(text, command):
    argv = ["--digits", "20", command[0], text, *command[1:]]
    assert main(argv) in (EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_GUARD)


# junk that no flag's type accepts as an in-range value; the numeric draws
# stay small (digits <= 60, --at <= 40, at most 6 lengths) so no case runs long
_JUNK = st.sampled_from(["", "x", "-", "1.5", "1e3", "1/0", "nan", "inf", "--"])


def _mostly(usual, rare):
    """Draws of usual, and of rare in about one draw in eight, so that most
    argvs get past the parser and reach a run."""
    return st.integers(0, 7).flatmap(lambda i: rare if i == 0 else usual)


def _flag(ints):
    """An in-range integer flag value, or rarely one out of range or junk."""
    return _mostly(ints.map(str),
                   st.one_of(st.integers(-3, 0).map(str), _JUNK))


_GLOBAL_FLAGS = {
    "--digits": _flag(st.integers(1, 60)),
    "--tolerance": _mostly(
        st.floats(min_value=1e-300, max_value=1e300).map(repr),
        st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                  _JUNK)),
    "--guard": _flag(st.integers(0, 16)),
    "--term-cap": _flag(st.integers(1, 5000)),
}
_EXPRESSIONS = {"A3": 3, "C2|C1": 3, "C1*(C1|C1)": 3, "{x<y,z<y,z<w}": 4}


@st.composite
def _flagged_argv(draw):
    argv = []
    for flag, values in _GLOBAL_FLAGS.items():
        if draw(st.booleans()):
            argv += [f"{flag}={draw(values)}"]
    command = draw(st.sampled_from(["poly", "series", "zeta-identity",
                                    "inverse-sum", "eval", "tropical",
                                    "verify-suite"]))
    if command == "verify-suite":  # it takes no expression
        return argv + [command]
    expr = draw(st.sampled_from(sorted(_EXPRESSIONS)))
    argv += [command, expr]
    if command == "inverse-sum":
        r = draw(_mostly(
            st.fractions(min_value=-50, max_value=50, max_denominator=50)
            .filter(lambda r: abs(r) > 1).map(str),
            st.one_of(st.fractions(min_value=-1, max_value=1,
                                   max_denominator=50).map(str), _JUNK)))
        argv += [f"--r={r}"]
    elif command == "eval":
        argv += [f"--at={draw(_flag(st.integers(0, 40)))}"]
    elif command == "tropical":
        # the poset's own arity, or in about one draw in eight any arity;
        # in range, or in about one list in eight with rare entries
        size = draw(_mostly(st.just(_EXPRESSIONS[expr]), st.integers(0, 6)))
        lengths = draw(_mostly(
            st.lists(st.integers(0, 9).map(str), min_size=size,
                     max_size=size),
            st.lists(_flag(st.integers(0, 9)), min_size=size, max_size=size)))
        argv += ["--lengths=" + ",".join(lengths)]
    return argv


@given(_flagged_argv())
@settings(max_examples=150, deadline=None)
def test_fuzzed_flags_end_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_GUARD)
    assert "Traceback" not in err.getvalue()


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == EXIT_USAGE


def test_precision_failure_exit_code(capsys):
    code, out, err = run(capsys, "--term-cap", "5", "zeta-identity", "A3")
    assert code == EXIT_FAIL


def test_env_var_digits(capsys, monkeypatch):
    monkeypatch.setenv("POSETOPERAD_DIGITS", "25")
    import posetoperad.cli as cli
    parser = cli.build_parser()
    args = parser.parse_args(["verify-suite"])
    assert args.digits == 25


def test_inverse_sum_zero_denominator_is_usage_error(capsys):
    code, out, err = run(capsys, "inverse-sum", "A3", "--r=1/0")
    assert code == EXIT_USAGE and "--r" in err and "Traceback" not in err


@pytest.mark.parametrize("digits", ["0", "-3"])
def test_digits_below_one_is_usage_error(capsys, digits):
    code, out, err = run(capsys, "--digits", digits, "zeta-identity", "C2")
    assert code == EXIT_USAGE and "--digits" in err and out == ""
    assert err.endswith(f"error: argument --digits: need an integer >= 1, "
                        f"got {digits!r}\n")


@pytest.mark.parametrize("via_env", [False, True])
def test_digits_above_the_ceiling_is_usage_error(capsys, monkeypatch,
                                                 via_env):
    from posetoperad import zeta
    from posetoperad.cli import build_parser
    from posetoperad.errors import MAX_DIGITS

    def refuse(n, B):
        raise AssertionError("a Borwein pass was built")
    monkeypatch.setattr(zeta, "_BorweinPass", refuse)
    digits = str(MAX_DIGITS + 1)
    if via_env:
        monkeypatch.setenv("POSETOPERAD_DIGITS", digits)
        argv = ["zeta-identity", "C2"]
    else:
        argv = ["--digits", digits, "zeta-identity", "C2"]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and "--digits" in err and out == ""
    assert f"need at most {MAX_DIGITS} digits" in err
    args = build_parser().parse_args(
        ["--digits", str(MAX_DIGITS), "verify-suite"])
    assert args.digits == MAX_DIGITS


def test_tolerance_below_the_smallest_float_bound_passes(capsys):
    # each zeta bound is an exact Dyadic, so at 400 digits the identity's
    # bound falls far below 1e-300 and below any float zeta bound
    code, out, err = run(capsys, "--digits", "400", "--tolerance", "1e-300",
                         "--term-cap", "100000000", "zeta-identity", "A12")
    assert (code, err) == (EXIT_OK, "") and "pass: True" in out


def test_env_var_digits_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("POSETOPERAD_DIGITS", "abc")
    code, out, err = run(capsys, "poly", "C2")
    assert code == EXIT_USAGE and "--digits" in err and out == ""


@pytest.mark.parametrize("tol", ["0", "-1e-12", "nan", "inf"])
def test_tolerance_must_be_finite_and_positive(capsys, tol):
    code, out, err = run(capsys, "--tolerance", tol, "zeta-identity", "C2")
    assert code == EXIT_USAGE and "--tolerance" in err and out == ""


@pytest.mark.parametrize("argv", [["--term-cap", "0", "zeta-identity", "A3"],
                                  ["--term-cap", "-5", "zeta-identity", "A3"],
                                  ["--guard", "-1", "poly", "C3"],
                                  ["--guard", "x", "poly", "C3"]])
def test_term_cap_and_guard_checked_at_parse_time(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and argv[0] in err and out == ""


@pytest.mark.parametrize("argv", [["--tolerance=--", "zeta-identity", "A3"],
                                  ["--guard=--", "poly", "C3"],
                                  ["eval", "C3", "--at=--"],
                                  ["tropical", "A2", "--lengths=--"],
                                  ["inverse-sum", "A3", "--r=--"]])
def test_flag_given_double_dash_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and "expected one argument" in err and out == ""


def test_guard_zero_admits_only_the_empty_poset(capsys):
    assert run(capsys, "--guard", "0", "poly", "C0")[0] == EXIT_OK
    assert run(capsys, "--guard", "0", "poly", "C1")[0] == EXIT_GUARD


def test_stdin_batch(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("A5\nC2\n"))
    code, out, _ = run(capsys, "inverse-sum", "-", "--r", "2")
    assert code == EXIT_OK
    assert out.split() == ["1082", "2"]  # C2: sum C(n,2)/2^n = 2


def test_verify_suite_passes_and_flags(capsys):
    code, payload, _ = run_json(capsys, "verify-suite")
    assert code == EXIT_OK
    jsonschema.validate(payload, schema.SUITE_REPORT)
    assert payload["all_pass"] is True
    statuses = {c["id"]: c["status"] for c in payload["cases"]}
    flagged = [cid for cid, s in statuses.items() if s == "FLAG"]
    assert sorted(flagged) == [
        "discrepancy:points-expansion-sign",
        "discrepancy:quaternary-low-order-index",
        "discrepancy:quaternary-zeta-example",
    ]
    ids = [c["id"] for c in payload["cases"]]
    assert ids == sorted(ids)


def test_verify_suite_deterministic(capsys):
    _, first, _ = run(capsys, "verify-suite")
    _, second, _ = run(capsys, "verify-suite")
    assert first == second


def test_verify_suite_human_output_has_same_cases(capsys):
    _, payload, _ = run_json(capsys, "verify-suite")
    _, human, _ = run(capsys, "verify-suite")
    for case in payload["cases"]:
        assert case["id"] in human


def test_bound_above_tolerance_is_not_a_pass(capsys):
    # 5 digits bound the zeta values near 1e-15, far above 1e-30
    code, out, err = run(capsys, "--digits", "5", "--tolerance", "1e-30",
                         "zeta-identity", "C2")
    assert code == EXIT_FAIL and "exceeds tolerance" in err
    assert "pass: True" not in out


def test_high_digit_runs_pass(capsys):
    code, payload, _ = run_json(capsys, "--digits", "200", "verify-suite")
    assert code == EXIT_OK and payload["all_pass"] is True
    code, payload, _ = run_json(capsys, "--digits", "100",
                                "zeta-identity", "A4")
    assert code == EXIT_OK and payload["record"]["pass"] is True


def test_closed_stdout_exits_without_traceback():
    # the reading end is closed before the child writes anything
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "posetoperad.cli", "--format", "json",
         "--digits", "30", "verify-suite"],
        stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        timeout=120)
    os.close(write_end)
    assert proc.returncode == EXIT_FAIL
    assert "Traceback" not in proc.stderr and "Error" not in proc.stderr
