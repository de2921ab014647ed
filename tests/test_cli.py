"""The command-line interface: outputs, exit codes, determinism."""

import dataclasses
import random
import re
import sys
import time

import pytest

from superhopf import algebra, exprs, parse, pl11, upper_triangular_subalgebra
from superhopf.catalog import BUILTINS
from superhopf.cli import main, suite_adjoint
from superhopf.liesuper import load_algebra_file
from superhopf.verify import FAIL

from test_products import gl, gl21, osp12


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_examples(capsys):
    code, out, _ = run(capsys, "normalize", "v*u")
    assert code == 0 and out == "x - u*v\n"
    code, out, _ = run(capsys, "normalize", "t^2")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "normalize", "u*y^2")
    assert code == 0 and out == "y^2*u - 2*y*u + u\n"


def test_normalize_reports_errors(capsys):
    code, _, err = run(capsys, "normalize", "u*)")
    assert code == 2
    assert "position" in err
    code, _, err = run(capsys, "normalize", "q*u")
    assert code == 2
    assert "unknown generator" in err


def test_division_by_zero_is_a_parse_error(capsys):
    code, out, err = run(capsys, "normalize", "1/0")
    assert code == 2 and out == ""
    assert err.startswith("error: division by zero") and "position 2" in err


def test_bad_integers_in_a_definition_file_are_parse_errors(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text("[generators]\nh 0 zz\n", encoding="utf-8")
    code, _, err = run(capsys, "normalize", "h", "--algebra", str(path))
    assert code == 2
    assert err.startswith("error: z-degree must be an integer") and "(at line 2)" in err
    path.write_text("[generators]\nh 0\ne 1\n[brackets]\nh e = 1/0*e\n",
                    encoding="utf-8")
    code, _, err = run(capsys, "normalize", "h", "--algebra", str(path))
    assert code == 2
    assert err.startswith("error: division by zero")


BRACKETS = "[generators]\nh 0\ne 0\n[brackets]\n"
LONG_RHS = " + ".join(["e"] * 30) + " + q"


@pytest.mark.parametrize("text, message", [
    ("[generators]\nh 0\n[relations]\n", "unknown section 'relations' (at line 3)"),
    ("[generators]\nh 0\ne\n", "bad generator line 'e' (at line 3)"),
    ("[generators]\nh 2\n", "parity must be 0 or 1, got '2' (at line 2)"),
    (BRACKETS + "h e e\n", "bracket line needs '=': 'h e e' (at line 5)"),
    (BRACKETS + "h = e\n", "bracket left side needs two names: 'h ' (at line 5)"),
    (BRACKETS + "h q = e\n", "unknown basis name 'q' (at line 5)"),
    (BRACKETS + "h e = 2*q\n", "unknown basis name 'q' on line 5, in '2*q' (at position 2)"),
    (BRACKETS + f"h e = {LONG_RHS}\n",
     f"unknown basis name 'q' on line 5, in '{LONG_RHS[:60]}...' (at position 120)"),
    ("h 0\n[generators]\n", "content before any section header (at line 1)"),
])
def test_definition_file_errors_name_their_line(tmp_path, capsys, text, message):
    path = tmp_path / "bad.alg"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, "check", "all", "--algebra", str(path)) == (2, "", f"error: {message}\n")


# Python will not convert an int of more than sys.get_int_max_str_digits()
# digits to or from text; the limit stays in force, so that no print runs for hours
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT,
                                       reason="Python sets no limit on integer digits")


@needs_digit_limit
def test_a_literal_past_the_digit_limit_is_a_parse_error(capsys):
    big = "1" * (DIGIT_LIMIT + 700)
    assert run(capsys, "normalize", f"u + {big}*v") == (
        2, "", f"error: integer has more than {DIGIT_LIMIT} digits (at position 4)\n")


@needs_digit_limit
def test_a_definition_file_literal_past_the_digit_limit_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "big.alg"
    path.write_text(f"{BRACKETS}h e = {'1' * (DIGIT_LIMIT + 700)}*e\n", encoding="utf-8")
    code, out, err = run(capsys, "check", "all", "--algebra", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: integer has more than {DIGIT_LIMIT} digits on line 5")
    assert "Traceback" not in err


@needs_digit_limit
def test_a_result_past_the_digit_limit_is_an_error(capsys):
    assert run(capsys, "normalize", f"10^{DIGIT_LIMIT}*u") == (
        2, "", f"error: a coefficient has more than {DIGIT_LIMIT} digits, "
               "Python's limit for printing an integer\n")
    code, out, _ = run(capsys, "normalize", f"10^{DIGIT_LIMIT - 1}*u")
    assert code == 0 and out == f"1{'0' * (DIGIT_LIMIT - 1)}*u\n"


@needs_digit_limit
@pytest.mark.parametrize("power", ["2^99999999999", "(2*y)^99999999999",
                                   "(1/3*y)^99999999999", "(2*t)^99999999999",
                                   "(2+u)^99999999999", f"(1/10*y)^{DIGIT_LIMIT}"])
def test_a_power_past_the_digit_limit_is_refused_before_it_is_computed(capsys, power):
    assert run(capsys, "normalize", power) == (
        2, "", f"error: a coefficient has more than {DIGIT_LIMIT} digits, "
               "Python's limit for printing an integer\n")


@pytest.mark.parametrize("power, want", [
    ("(-1)^99999999999", "-1"), ("(-1)^99999999998", "1"), ("1^99999999999", "1"),
    ("0^99999999999", "0"), ("(-y)^99999999999", "-y^99999999999"),
    ("(1/10*y)^4", "1/10000*y^4"), ("(1/10*u)^99999999999", "0")])
def test_powers_below_the_digit_limit_print(capsys, power, want):
    assert run(capsys, "normalize", power) == (0, f"{want}\n", "")


@needs_digit_limit
def test_a_power_just_inside_the_digit_limit_prints(capsys):
    code, out, _ = run(capsys, "normalize", f"(1/10*y)^{DIGIT_LIMIT - 1}")
    assert code == 0 and out == f"1/1{'0' * (DIGIT_LIMIT - 1)}*y^{DIGIT_LIMIT - 1}\n"


def test_a_definition_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_bytes(b"\xff\xfe[generators]\nh 0\n")
    code, out, err = run(capsys, "check", "all", "--algebra", str(path))
    assert code == 2 and out == ""
    assert err == "error: not UTF-8 text (at line 1)\n"
    path.write_bytes(b"[generators]\r\nh 0\r\n# caf\xe9\r\n")
    code, _, err = run(capsys, "normalize", "h", "--algebra", str(path))
    assert code == 2 and "(at line 3)" in err
    path.write_bytes("[generators]\r\nh 0 # café\r\n".encode("utf-8"))
    assert run(capsys, "normalize", "h*h", "--algebra", str(path))[:2] == (0, "h^2\n")


def test_a_definition_file_without_generators_names_no_position(tmp_path, capsys):
    path = tmp_path / "comment.alg"
    path.write_text("# only a comment\n", encoding="utf-8")
    assert run(capsys, "check", "all", "--algebra", str(path)) == (
        2, "", "error: no generators defined\n")


def test_a_bad_bracket_right_side_names_its_file_line(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text("[generators]\nh 0\ne 0\nf 0\n\n[brackets]\ne f = 2*q\n",
                    encoding="utf-8")
    code, _, err = run(capsys, "check", "hopf-axioms", "--algebra", str(path))
    assert code == 2
    assert err.startswith("error: unknown basis name 'q'")
    assert "line 7" in err and "position 2" in err


@pytest.mark.parametrize("name", ["x'", "2h", "h-e", "é"])
def test_a_generator_name_expressions_cannot_read_is_rejected(tmp_path, capsys, name):
    path = tmp_path / "bad.alg"
    path.write_text(f"[generators]\nh 0\n{name} 0\n", encoding="utf-8")
    code, out, err = run(capsys, "check", "all", "--algebra", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: generator name {name!r} is not an identifier")
    assert err.endswith("(at line 3)\n") and "Traceback" not in err


def test_a_bracket_stated_twice_is_rejected(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text("[generators]\nh 0\ne 0\n[brackets]\nh e = e\n\nh e = 2*e\n",
                    encoding="utf-8")
    assert run(capsys, "check", "all", "--algebra", str(path)) == (
        2, "", "error: bracket h e is already stated (at line 7)\n")
    # the reversed orientation is not a repeat: validation checks it agrees
    path.write_text("[generators]\nh 0\ne 0\n[brackets]\nh e = e\ne h = -e\n",
                    encoding="utf-8")
    assert run(capsys, "normalize", "e*h", "--algebra", str(path)) == (0, "h*e - e\n", "")


def test_a_generator_defined_twice_names_its_line(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text("[generators]\nx 0\n\nx 1\n", encoding="utf-8")
    assert run(capsys, "check", "all", "--algebra", str(path)) == (
        2, "", "error: generator x is defined twice (at line 4)\n")


def test_check_all_passes_on_the_bosonized_algebra(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code, _, _ = run(capsys, "check", "all", "--hopf-random", "25",
                     "--samples", "60", "--out", str(out))
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert "FAIL" not in text
    summary = (tmp_path / "report.txt.kv").read_text(encoding="utf-8")
    assert "seed=1" in summary
    assert "check.biproduct.whole=PASS" in summary


def test_check_nilpotency_on_the_triangular_algebra(capsys):
    code, out, _ = run(capsys, "check", "nilpotency", "--algebra", "b-bosonized")
    assert code == 0
    assert "CHECK nilpotency.u-power-2 PASS" in out


def test_normality_witnesses_print_basis_elements_with_pivot_one(capsys):
    # the closure stores integer rows; its basis is printed scaled to pivot 1
    code, out, err = run(capsys, "check", "normality", "--sub", "x+u,t",
                         "--max-degree", "2")
    assert code == 1 and err == ""
    assert out == (
        "CHECK normality FAIL\n"
        "    inputs: sub=<x + u, t>\n"
        "    witness: ad_r(v)(x + u) expected membership got -x*t + 2*u*v*t\n"
        "    witness: ad_l(v)(t) expected membership got 2*v*t\n"
        "    witness: ad_r(v)(t) expected membership got 2*v\n"
        "    witness: ad_r(v)(1/2*x^2 + x*u) expected membership got -x^2*t + 2*x*u*v*t\n"
        "    witness: ad_l(v)(-x*t + u*t) expected membership got -2*x*v*t + x*t - 2*u*v*t\n"
        "    witness: ad_r(v)(-x*t + u*t) expected membership got -2*x*v - x\n"
        "    witness: ad_l(v)(x*t) expected membership got 2*x*v*t\n"
        "    witness: ad_r(v)(x*t) expected membership got 2*x*v\n"
        "    params: actionsChecked=60 algebra=U(pl11)#k[t] degreeBound=2\n")


def test_check_normality_with_custom_subalgebra(capsys):
    code, out, _ = run(capsys, "check", "normality", "--sub", "t")
    assert code == 1
    assert "CHECK normality FAIL" in out
    assert "2*u*t" in out  # the canonical form of the -2tu witness
    code, out, _ = run(capsys, "check", "normality", "--sub", "x")
    assert code == 0


def test_exit_status_matches_fail_lines(tmp_path, capsys):
    out = tmp_path / "r.txt"
    code, _, _ = run(capsys, "check", "normality", "--sub", "t", "--out", str(out))
    text = out.read_text(encoding="utf-8")
    assert (code == 1) == ("FAIL" in text)
    code, _, _ = run(capsys, "check", "normality", "--sub", "x,y",
                     "--out", str(out))
    text = out.read_text(encoding="utf-8")
    assert (code == 1) == ("FAIL" in text)


def test_exit_status_reads_statuses_not_generator_names(tmp_path, capsys):
    # a generator named FAIL puts the word into a passing report
    path = tmp_path / "fail.alg"
    path.write_text("[generators]\nFAIL 0\nh 0\n[brackets]\nh FAIL = FAIL\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "check", "normality", "--algebra", str(path),
                         "--bosonize", "--sub", "FAIL", "--max-degree", "2")
    assert out.startswith("CHECK normality PASS\n") and "sub=<FAIL>" in out
    assert code == 0 and err == ""


def test_the_summary_names_the_checked_presentation(tmp_path, capsys):
    def summary(name, *flags):
        out = tmp_path / name / "report"
        code, _, _ = run(capsys, "check", "hopf-axioms", *flags, "--hopf-random", "3",
                         "--max-degree", "2", "--out", str(out))
        assert code == 0
        return (tmp_path / name / "report.kv").read_text(encoding="utf-8")

    plain = summary("plain", "--algebra", "pl11")
    flagged = summary("flagged", "--algebra", "pl11", "--bosonize")
    assert plain.splitlines()[0] == "algebra=U(pl11)"
    assert flagged.splitlines()[0] == "algebra=U(pl11)#k[t]"
    assert summary("builtin", "--algebra", "pl11-bosonized") == flagged


def test_growth_command(tmp_path, capsys):
    out = tmp_path / "growth.txt"
    code, _, _ = run(capsys, "growth", "--n-max", "12", "--out", str(out))
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert "degree: 2" in text
    code, _, _ = run(capsys, "growth", "--algebra", "b-bosonized",
                     "--n-max", "12", "--out", str(out))
    assert code == 0
    assert "degree: 1" in out.read_text(encoding="utf-8")
    code, out_text, _ = run(capsys, "growth", "--gens", "x,y", "--n-max", "12")
    assert code == 0
    assert "degree: 2" in out_text


def test_module_finite_command(capsys):
    code, out, _ = run(capsys, "module-finite", "--sub", "x,y",
                       "--module-gens", "1,u,v,u*v,t,u*t,v*t,u*v*t",
                       "--side", "both", "--n-max", "8")
    assert code == 0
    assert "CHECK module-finite.left PASS" in out
    assert "CHECK module-finite.right PASS" in out
    code, out, _ = run(capsys, "module-finite", "--sub", "x",
                       "--module-gens", "1,u,v,t", "--n-max", "8")
    assert code == 1
    assert "FAIL" in out


def test_module_finite_summary_names_only_what_the_command_read(tmp_path, capsys):
    code, _, _ = run(capsys, "module-finite", "--sub", "x,y",
                     "--module-gens", "1,u,v,u*v,t,u*t,v*t,u*v*t",
                     "--out", str(tmp_path / "report"))
    assert code == 0
    assert (tmp_path / "report.kv").read_text(encoding="utf-8") == (
        "algebra=U(pl11)#k[t]\ncheck.module-finite.left=PASS\n"
        "check.module-finite.right=PASS\n")


def test_centralizer_command(capsys):
    code, out, _ = run(capsys, "centralizer", "--max-degree", "4",
                       "--z-degree", "0")
    assert code == 0
    assert "dimension 1" in out
    assert out.splitlines()[-1] == "1"


def test_eigen_command(capsys):
    code, out, _ = run(capsys, "eigen", "--algebra", "pl11", "--h", "y",
                       "--sub", "u,v")
    assert code == 0
    assert "eigenvalue 1: u" in out
    assert "eigenvalue -1: v" in out


def test_a_wrong_default_eigenvalue_fails_with_its_witness(sess_ubar):
    defaults = dataclasses.replace(sess_ubar.defaults,
                                   eigenvalues=(("y", "u", -1), ("y", "v", -1)))
    sess = dataclasses.replace(sess_ubar, defaults=defaults)
    eigen = suite_adjoint(sess, None)[-1]
    assert (eigen.check_name, eigen.status) == ("adjoint-eigenvalues", FAIL)
    assert eigen.witnesses == [("ad_l(y)(u)", "-u", "u")]


def test_check_report_is_byte_identical_across_runs(tmp_path, capsys):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (out1, out2):
        code, _, _ = run(capsys, "check", "adjoint", "--seed", "7",
                         "--out", str(out))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.txt.kv").read_bytes() == (tmp_path / "b.txt.kv").read_bytes()


def test_round_trip_of_printed_elements(ubar):
    # printing then parsing is the identity on 200 seeded random elements
    from superhopf.verify import random_element
    rng = random.Random(99)
    monomials = ubar.enumerate_monomials(4)
    for _ in range(200):
        e = random_element(ubar, rng, 4, monomials=monomials)
        assert parse(str(e), ubar) == e


def test_unknown_suite_is_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["check", "frobnicate"])


@pytest.mark.parametrize("argv", [
    ["check", "normality", "--sub", "t", "--max-degree", "-1"],
    ["module-finite", "--sub", "x", "--module-gens", "1", "--n-max", "-1"],
    ["check", "zero-divisors", "--samples", "0"],
    ["check", "shift-identity", "--shift-n", "-1"],
    ["check", "nilpotency", "--power", "0"],
    ["growth", "--n-max", "-3"],
    ["centralizer", "--max-degree", "-1"],
    ["check", "hopf-axioms", "--hopf-random", "-5"],
    ["check", "shift-identity", "--shift-n", "0"],
])
def test_bounds_that_would_check_nothing_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "error:" in captured.err
    assert "CHECK" not in captured.out


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in {
        "normalize": ("--max-degree", "--seed"),
        "growth": ("--max-degree", "--seed"),
        "module-finite": ("--max-degree", "--seed"),
        "centralizer": ("--seed",),
        "eigen": ("--max-degree", "--seed", "--bosonize"),
    }.items() for flag in flags])
def test_an_option_a_command_does_not_read_is_rejected(capsys, command, flag):
    required = {"normalize": ["u"], "module-finite": ["--sub", "x", "--module-gens", "1"],
                "eigen": ["--h", "y"]}.get(command, [])
    argv = [command, *required, flag] + ([] if flag == "--bosonize" else ["3"])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err
    assert "Traceback" not in captured.err


def test_bosonize_adjoins_t_to_a_builtin(capsys):
    assert run(capsys, "normalize", "t", "--algebra", "pl11", "--bosonize") == (0, "t\n", "")
    argv = ["check", "all", "--max-degree", "2", "--samples", "10", "--hopf-random", "4"]
    plain = run(capsys, *argv, "--algebra", "pl11")
    bosonized = run(capsys, *argv, "--algebra", "pl11-bosonized")
    assert run(capsys, *argv, "--algebra", "pl11", "--bosonize") == bosonized != plain


@pytest.mark.parametrize("argv", [
    # degree 0 acts only on 1, and ad(h)(1) = eps(h)*1 lies in every subalgebra
    ["check", "normality", "--max-degree", "0"],
    ["check", "normality", "--sub", "x+u,t", "--max-degree", "0"],
    # degree 0 holds only nonzero scalars, whose products never vanish
    ["check", "zero-divisors", "--algebra", "b-bosonized", "--max-degree", "0"],
])
def test_suites_with_nothing_to_check_are_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert "CHECK" not in out


@pytest.mark.parametrize("algebra", sorted(BUILTINS))
def test_check_all_at_degree_zero_passes_on_every_builtin(capsys, algebra):
    # zero-divisors and the default nilpotent ideal have no case at degree 0
    code, out, err = run(capsys, "check", "all", "--algebra", algebra,
                         "--max-degree", "0", "--samples", "20", "--hopf-random", "5")
    assert code == 0 and err == ""
    assert "FAIL" not in out
    assert "zero-divisors" not in out and "nilpotency" not in out


def test_nilpotency_by_name_above_the_degree_bound_is_an_error(capsys):
    code, out, err = run(capsys, "check", "nilpotency", "--algebra", "b-bosonized",
                         "--max-degree", "0")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_deep_nesting_is_a_parse_error(tmp_path, capsys):
    nested = "(" * 3000 + "x" + ")" * 3000
    code, out, err = run(capsys, "normalize", nested)
    assert code == 2 and out == ""
    assert err.startswith("error: expression is nested too deeply")
    path = tmp_path / "deep.alg"
    path.write_text(f"[generators]\nx 0\ny 0\n[brackets]\nx y = {nested}\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "growth", "--algebra", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: expression is nested too deeply on line 5")
    assert len(err.splitlines()[0]) < 200  # the echoed right-hand side is clipped


def test_eigen_with_a_large_eigenvalue_is_quick(tmp_path, capsys):
    for names, brackets, eigenpairs in [
            ("he", "h e = 1000000007*e", ["1000000007: e", "0: h"]),
            ("he", "h e = 1000000000000000000*e", ["1000000000000000000: e", "0: h"]),
            ("hef", "h e = 1000000007*e\nh f = -1000000009*f",
             ["1000000007: e", "0: h", "-1000000009: f"])]:
        path = tmp_path / "big.alg"
        gens = "".join(f"{g} 0\n" for g in names)
        path.write_text(f"[generators]\n{gens}[brackets]\n{brackets}\n", encoding="utf-8")
        start = time.perf_counter()
        code, out, _ = run(capsys, "eigen", "--algebra", str(path), "--h", "h")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out.splitlines()[1:] == [f"eigenvalue {pair}" for pair in eigenpairs]


def test_huge_powers_and_long_nilpotent_words_are_quick(capsys):
    # a power stops at its first scalar partial power (u*u = 0, t*t = 1) or at
    # its first repeat (e*e = e for e = 1/2 + 1/2*t), and y^n passes in closed
    # form, as do x+u and 1+u (a central term plus u, u*u = 0); the nilpotency
    # walk extends no prefix whose product is zero (u*u = 0)
    start = time.perf_counter()
    for expression, normal_form in (("u^99999999999", "0"), ("t^10000001", "t"),
                                    ("(t*u)^1000000000000", "0"),
                                    ("y^99999999999", "y^99999999999"),
                                    ("(1/2+1/2*t)^99999999999", "1/2*t + 1/2"),
                                    ("(x+u)^99999999999",
                                     "x^99999999999 + 99999999999*x^99999999998*u"),
                                    ("(1+u)^99999999999", "99999999999*u + 1")):
        code, out, _ = run(capsys, "normalize", expression)
        assert code == 0 and out == normal_form + "\n"
    for power, bound in (("2000", "1"), ("12", "3")):
        code, out, err = run(capsys, "check", "nilpotency", "--algebra", "b-bosonized",
                             "--ideal-gens", "u", "--power", power, "--max-degree", bound)
        assert code == 0 and err == ""
        assert out.startswith("CHECK nilpotency PASS\n")
    assert time.perf_counter() - start < 5.0


def test_biproduct_at_degree_zero_sees_t_as_a_generator(capsys):
    code, out, err = run(capsys, "check", "biproduct", "--max-degree", "0")
    assert code == 0, err
    for label in ("y-u-t", "x-t", "whole", "K"):
        assert f"CHECK biproduct.{label} PASS" in out


def test_check_biproduct_reads_the_sub_option(capsys):
    code, out, err = run(capsys, "check", "biproduct", "--sub", "t+u,u", "--max-degree", "2")
    assert code == 2 and out == ""
    assert err == "error: biproduct decomposition needs a multiple of t as a generator\n"
    code, out, err = run(capsys, "check", "biproduct", "--sub", "x,-t", "--max-degree", "3")
    assert code == 0 and err == ""
    assert out == ("CHECK biproduct PASS\n"
                   "    inputs: sub=<x, -t>\n"
                   "    params: algebra=U(pl11)#k[t] degreeBound=3 innerDimension=4\n")
    # with no multiple of t the biproduct has no case, so `all` leaves it out
    code, out, err = run(capsys, "check", "all", "--sub", "x", "--max-degree", "2",
                         "--hopf-random", "1", "--samples", "1", "--shift-n", "1")
    assert code == 0 and err == "" and "CHECK normality PASS\n" in out
    assert "CHECK biproduct" not in out


def definition_text(g):
    """``g`` in the definition-file format: generators, then nonzero brackets."""
    lines = ["[generators]", *(f"{b.name} {b.parity}" for b in g.basis), "[brackets]"]
    lines += [f"{g.basis[i].name} {g.basis[j].name} = {g.format_vector(g.table[i][j])}"
              for i in range(g.n) for j in range(i, g.n) if any(g.table[i][j])]
    return "\n".join(lines) + "\n"


def test_no_command_runs_the_overlap_pass(tmp_path, monkeypatch, capsys):
    commands = [("check", "all", "--algebra", "pl11-bosonized"),
                ("check", "all", "--algebra", "b-bosonized"),
                ("growth", "--n-max", "8")]
    for k, g in enumerate((gl21(), osp12())):
        path = tmp_path / f"lie{k}.alg"
        path.write_text(definition_text(g), encoding="utf-8")
        commands.append(("check", "all", "--algebra", str(path), "--bosonize",
                         "--max-degree", "2"))
    unpatched = [run(capsys, *argv) for argv in commands]
    assert all(code == 0 and out and not err for code, out, err in unpatched)

    def refused(pres):
        raise AssertionError(f"an overlap pass on {pres.name}")

    monkeypatch.setattr(algebra, "check_overlaps", refused)
    assert [run(capsys, *argv) for argv in commands] == unpatched


@pytest.mark.parametrize("build", [pl11, upper_triangular_subalgebra, gl21, osp12,
                                   lambda: gl(3, 2)], ids=["pl11", "b", "gl21", "osp12", "gl32"])
def test_a_definition_file_reads_back_its_algebra(tmp_path, build):
    # pl11's [u, v] = x and osp(1|2)'s [e, f] = h have basis index 0 alone
    g = build()
    path = tmp_path / "lie.alg"
    path.write_text(definition_text(g), encoding="utf-8")
    back = load_algebra_file(path)
    assert [(b.name, b.parity) for b in back.basis] == [(b.name, b.parity) for b in g.basis]
    assert back.table == g.table
    assert [type(c) for row in back.table for vec in row for c in vec] == \
        [type(c) for row in g.table for vec in row for c in vec]


def test_a_bracket_is_read_over_the_names_it_states(tmp_path, monkeypatch):
    text = definition_text(gl(3, 2))
    path = tmp_path / "gl32.alg"
    path.write_text(text, encoding="utf-8")
    built = []

    def recorded(names):
        built.append(set(names))
        return algebra.polynomial_presentation(names)

    monkeypatch.setattr(exprs, "polynomial_presentation", recorded)
    load_algebra_file(path)
    right_sides = [line.split("=")[1] for line in text.splitlines() if "=" in line]
    assert len(built) == len(right_sides)
    for names, rhs in zip(built, right_sides):
        assert names <= set(re.findall(r"[A-Za-z_]\w*", rhs))


def test_definition_file_session(tmp_path, capsys):
    path = tmp_path / "heisenberg.alg"
    path.write_text(
        "# a three-dimensional even example\n"
        "[generators]\n"
        "z 0\n"
        "a 0\n"
        "b 0\n"
        "[brackets]\n"
        "a b = z\n",
        encoding="utf-8")
    code, out, _ = run(capsys, "normalize", "b*a", "--algebra", str(path))
    assert code == 0
    assert out == "-z + a*b\n"  # z is first in the pbw order, so it prints first
    code, out, _ = run(capsys, "growth", "--algebra", str(path), "--n-max", "10")
    assert code == 0
    assert "degree: 3" in out  # enveloping of the 3-dim Heisenberg algebra
    code, out, _ = run(capsys, "eigen", "--algebra", str(path), "--h", "a",
                       "--sub", "z,b")
    assert code == 0
    assert "eigenvalue 0" in out


def test_definition_file_with_odd_generators_and_bosonize(tmp_path, capsys):
    path = tmp_path / "odd.alg"
    path.write_text(
        "[generators]\n"
        "h 0 0\n"
        "e 1 1\n"
        "[brackets]\n"
        "h e = e\n"
        "e e = 0\n",
        encoding="utf-8")
    code, out, _ = run(capsys, "normalize", "e*h", "--algebra", str(path),
                       "--bosonize")
    assert code == 0
    assert out == "h*e - e\n"
    code, out, _ = run(capsys, "normalize", "t*e", "--algebra", str(path),
                       "--bosonize")
    assert code == 0
    assert out == "-e*t\n"


def test_invalid_definition_file_is_rejected(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text(
        "[generators]\n"
        "a 0\n"
        "b 0\n"
        "c 0\n"
        "[brackets]\n"
        "a b = c\n"
        "b a = c\n",  # violates antisymmetry
        encoding="utf-8")
    code, _, err = run(capsys, "normalize", "a", "--algebra", str(path))
    assert code == 2
    assert err.startswith(f"error: algebra file {path}:") and "antisymmetry" in err


def test_a_definition_file_is_validated_once(tmp_path, monkeypatch):
    from superhopf.catalog import load_session
    from superhopf.liesuper import LieSuperAlgebra
    path = tmp_path / "heisenberg.alg"
    path.write_text("[generators]\nz 0\na 0\nb 0\n[brackets]\na b = z\n",
                    encoding="utf-8")
    calls = []
    validate = LieSuperAlgebra.validate

    def counting(self):
        calls.append(self.name)
        return validate(self)

    monkeypatch.setattr(LieSuperAlgebra, "validate", counting)
    load_session(str(path), bosonized=True)
    assert calls == ["file-algebra"]


OSP12 = """[generators]
h 0
e 0
f 0
a 1
b 1
[brackets]
h e = 2*e
h f = -2*f
h a = a
h b = -b
e f = h
e b = a
f a = b
a a = 2*e
a b = -h
b b = -2*f
"""


def test_check_all_runs_the_generic_cases_on_a_bosonized_file(tmp_path, capsys):
    path = tmp_path / "osp12.alg"
    path.write_text(OSP12, encoding="utf-8")
    code, out, err = run(capsys, "check", "all", "--algebra", str(path), "--bosonize",
                         "--max-degree", "2", "--samples", "20", "--hopf-random", "5")
    assert code == 0 and "error:" not in err
    names = [line.split()[1] for line in out.splitlines() if line.startswith("CHECK ")]
    assert names == ["hopf.coassociativity", "hopf.counit", "hopf.antipode",
                     "hopf.bialgebra", "ad-equals-bracket", "normality.K",
                     "normality.whole", "biproduct.whole", "biproduct.K",
                     "zero-divisors"]


def test_check_all_at_degree_zero_leaves_normality_out(tmp_path, capsys):
    # degree 0 holds only 1, so normality has no case to run there
    path = tmp_path / "osp12.alg"
    path.write_text(OSP12, encoding="utf-8")
    code, out, err = run(capsys, "check", "all", "--algebra", str(path), "--bosonize",
                         "--max-degree", "0", "--samples", "20", "--hopf-random", "5")
    assert code == 0 and err == ""
    assert "normality." not in out and "FAIL" not in out
    assert "CHECK biproduct.K PASS" in out


def test_a_generator_named_x_gets_no_pl11_expectation(tmp_path, capsys):
    path = tmp_path / "xu.alg"
    path.write_text("[generators]\nx 0\nu 1\n[brackets]\nx u = u\nu u = 0\n",
                    encoding="utf-8")
    code, out, _ = run(capsys, "check", "normality", "--algebra", str(path),
                       "--bosonize", "--max-degree", "2")
    assert code == 0, out
    assert "normality.k[x]" not in out
    assert "CHECK normality.K PASS" in out


def test_k_is_expected_normal_when_there_is_no_odd_generator(tmp_path, capsys):
    path = tmp_path / "heisenberg.alg"
    path.write_text("[generators]\nz 0\na 0\nb 0\n[brackets]\na b = z\n",
                    encoding="utf-8")
    code, out, _ = run(capsys, "check", "normality", "--algebra", str(path),
                       "--bosonize", "--max-degree", "2")
    assert code == 0, out
    assert "CHECK normality.K PASS" in out  # t is central: K is normal


@pytest.mark.parametrize("suite", ["shift-identity", "nilpotency"])
def test_a_suite_without_a_default_case_is_an_error_on_a_file(tmp_path, capsys, suite):
    # the triangular algebra b written as a file: same generator names as the
    # built-in b-bosonized, but a file gets no built-in expectations
    path = tmp_path / "b.alg"
    path.write_text("[generators]\ny 0\nu 1\n[brackets]\ny u = u\nu u = 0\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "check", suite, "--algebra", str(path), "--bosonize",
                         "--max-degree", "2")
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert "CHECK" not in out


def test_pl11_nilpotency_expects_the_square_of_u_not_to_vanish(capsys):
    code, out, _ = run(capsys, "check", "nilpotency", "--algebra", "pl11",
                       "--max-degree", "4")
    assert code == 0
    assert "CHECK nilpotency.u-power-2 PASS" in out
    assert "innerStatus=fail" in out
