"""Tests for the expression grammar, spec parsers, and the CLI front end."""

import ast
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import superdeform
from superdeform import (ParseError, Scalar, SuperFunction, SymplecticContext,
                         parse_cochain, parse_deformation, parse_expression,
                         parse_t1, sf_mul)
from superdeform.cli import (MAX_EXPONENT, MAX_PRODUCT_TERMS, parse_scalar,
                             run)
from superdeform.scalars import MAX_RADICAND
from superdeform.superfunc import X_CAP
from superdeform.verify import DEFAULT_SEED

from conftest import random_superfunction, seeded


@pytest.fixture
def ctx(ctx42):
    return ctx42


def test_spec_examples(ctx):
    f = parse_expression("x1^2 * gauss(1)", ctx)
    assert f == SuperFunction.term(ctx, (2, 0, 0, 0), 1)
    g = parse_expression("xi2*xi1", ctx)
    assert g == -SuperFunction.term(ctx, xi=(1, 2))
    with pytest.raises(ParseError, match="unknown variable"):
        parse_expression("xi3", ctx)


def test_precedence_and_unary_minus(ctx):
    x1, x2 = SuperFunction.x(ctx, 1), SuperFunction.x(ctx, 2)
    assert parse_expression("1 + 2*3", ctx) == \
        SuperFunction.constant(ctx, 7)
    assert parse_expression("-x1^2", ctx) == -sf_mul(x1, x1)
    assert parse_expression("2*x1 - 3*x2", ctx) == \
        x1 * 2 - x2 * 3
    assert parse_expression("(1+2)*x1", ctx) == x1 * 3
    assert parse_expression("--1", ctx) == SuperFunction.constant(ctx, 1)


def test_division_and_fractions(ctx):
    assert parse_expression("3/2", ctx) == \
        parse_expression("3", ctx) * 0.5 if False else True
    f = parse_expression("x1/2", ctx)
    from fractions import Fraction
    assert f == SuperFunction.x(ctx, 1) * Fraction(1, 2)
    with pytest.raises(ParseError, match="division by zero"):
        parse_expression("1/0", ctx)
    with pytest.raises(ParseError, match="scalar constant"):
        parse_expression("1/x1", ctx)


def test_scalar_atoms(ctx):
    sctx = ctx.scalar_ctx
    assert parse_scalar("pi^2", ctx) == Scalar.pi(sctx, 2)
    assert parse_scalar("sqrt(pi)", ctx) == Scalar.sqrt_pi(sctx)
    assert parse_scalar("sqrt(8)", ctx) == Scalar.sqrt(sctx, 8)
    assert parse_scalar("hbar^2*th1", ctx) == \
        Scalar.hbar(sctx, 2) * Scalar.theta(sctx, 1)
    with pytest.raises(ParseError):
        parse_scalar("x1", ctx)
    with pytest.raises(ParseError, match="scalar constant"):
        parse_expression("sqrt(x1)", ctx)


def test_sqrt_and_gauss_defer_to_the_ring(ctx, capsys):
    """sqrt of a value equal to pi is sqrt(pi); any other argument must be
    rational, and Scalar.sqrt and SuperFunction.gauss own the rules on it,
    refused at the argument's position."""
    sctx = ctx.scalar_ctx
    for text in ("sqrt(pi)", "sqrt((pi))", "sqrt(pi^1)", "sqrt(2*pi/2)"):
        assert parse_scalar(text, ctx) == Scalar.sqrt_pi(sctx)
    with pytest.raises(ParseError, match="a rational constant is required "
                                         "here at position 5"):
        parse_expression("sqrt(2*pi)", ctx)
    for text, message in (
            ("sqrt(9/2)", "expected a positive integer under the root"),
            ("sqrt(0)", "expected a positive integer under the root"),
            ("gauss(-1)", "Gaussian weight must be nonnegative")):
        assert run(["eval", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: {message} at position {text.index('(') + 1}\n"


def test_parse_error_metadata(ctx):
    with pytest.raises(ParseError) as info:
        parse_expression("x1 + (x2", ctx)
    assert info.value.pos == 8
    assert info.value.expected == ")"
    with pytest.raises(ParseError, match="trailing"):
        parse_expression("x1 x2", ctx)
    with pytest.raises(ParseError, match="unexpected character"):
        parse_expression("x1 @ x2", ctx)


def test_round_trip_property(ctx):
    rng = seeded(97)
    for _ in range(25):
        f = random_superfunction(rng, ctx, terms=rng.randint(1, 3),
                                 theta=True)
        text = f.render()
        g = parse_expression(text, ctx)
        assert g == f
        assert g.render() == text


def test_parse_cochain_combos(ctx):
    from superdeform import m0_form, m3_form
    f = SuperFunction.term(ctx, c=1, xi=(1,))
    g = SuperFunction.term(ctx, c=1, xi=(1, 2))
    theta = Scalar.theta(ctx.scalar_ctx, 1)
    form = parse_cochain("m0 + th1*m3", ctx)
    expect = m0_form(ctx).evaluate(f, g) + \
        m3_form(ctx).evaluate(f, g).scale_left(theta)
    assert form.evaluate(f, g) == expect
    scaled = parse_cochain("2*m0 - m0", ctx)
    assert scaled.evaluate(f, g) == m0_form(ctx).evaluate(f, g)
    zeta_form = parse_cochain("mzeta(x1*x2)", ctx)
    assert zeta_form.evaluate(f, g) is not None
    with pytest.raises(ParseError, match="one form"):
        parse_cochain("m0*m3", ctx)
    with pytest.raises(ParseError, match="form name"):
        parse_cochain("2*3", ctx)


def test_parse_deformation_specs(ctx):
    d = parse_deformation("c3(zeta=hbar^2*x1, c3=hbar^2)", ctx)
    assert d.flavor == "C3"
    d = parse_deformation("c1(zeta=hbar^2*x1)", ctx)
    assert d.flavor == "C1"
    d = parse_deformation("c1c(c=hbar^2)", ctx)
    assert d.flavor == "C1c"
    ctx2 = SymplecticContext(2, 2, (1, 1), 1, 6)
    assert parse_deformation("antiodd()", ctx2).flavor == "ANTI_ODD"
    assert parse_deformation("antieven(c=hbar^2)", ctx2).flavor == \
        "ANTI_EVEN"
    with pytest.raises(ParseError, match="deformation name"):
        parse_deformation("bogus()", ctx)


def test_parse_t1(ctx):
    t1 = parse_t1("bar(gauss(1),-1)", ctx)
    f = SuperFunction.term(ctx, c=1, xi=(1, 2))
    value = t1.evaluate(f)
    assert value == SuperFunction.gauss(ctx, 1).scale_right(
        f.integral_bar()) * -1
    assert parse_t1("zero", ctx).evaluate(f).is_zero()
    x1 = SuperFunction.x(ctx, 1)
    assert parse_t1("euler(2)", ctx).evaluate(x1) == x1


@pytest.mark.parametrize("parse, positional, keyword", [
    (parse_deformation, "c3(hbar^2*x1, hbar^2)",
     "c3(zeta=hbar^2*x1, c3=hbar^2)"),
    (parse_deformation, "c1c(hbar^2*x1, c=hbar^2)",
     "c1c(zeta=hbar^2*x1, kappa=1, c=hbar^2)"),
    (parse_deformation, "general(0, 0, th1)", "general(h1=th1, eta=0)"),
    (parse_t1, "bar(gauss(1), -1)", "bar(scale=-1, z0=gauss(1))"),
    (parse_t1, "euler", "euler(scale=1)"),
    (parse_cochain, "moyal(2) + m0", "moyal(kappa=2) + m0()"),
    (parse_cochain, "th1*mzeta(x1*x2)", "th1*mzeta(zeta=x1*x2)"),
], ids=["c3", "c1c", "general", "bar", "euler", "moyal", "mzeta"])
def test_call_positional_and_keyword_agree(ctx, parse, positional, keyword):
    a, b = parse(positional, ctx), parse(keyword, ctx)
    f = SuperFunction.term(ctx, (1, 1, 0, 0), 1, xi=(1,))
    g = SuperFunction.term(ctx, (0, 2, 1, 0), 1, xi=(1, 2))
    if parse is parse_t1:
        assert a.evaluate(f) == b.evaluate(f)
    else:
        assert a.evaluate(f, g) == b.evaluate(f, g)
    if parse is parse_deformation:
        assert a.flavor == b.flavor and a.params == b.params


_JACOBI = ["jacobi", "--samples", "1", "--deformation"]


@pytest.mark.parametrize("argv, message", [
    (_JACOBI + ["c3(zeta=hbar^2*x1, zeta=hbar^2)"], "c3 got 'zeta' twice"),
    (_JACOBI + ["c3(hbar^2*x1, zeta=hbar^2)"], "c3 got 'zeta' twice"),
    (_JACOBI + ["c3(kappa=1)"], "c3 has no parameter 'kappa'"),
    (_JACOBI + ["c3(hbar^2*x1, hbar^2, 1)"], "c3 takes at most 2 arguments"),
    (_JACOBI + ["c3(c3=hbar^2, hbar^2*x1)"], "a positional argument follows"),
    (["equiv", "--c1", "c3", "--c2", "c3", "--t1", "bar"],
     "bar needs the argument 'z0'"),
    (["eval", "x1^x2"], "exponent must be an integer at position 3"),
], ids=["repeated", "repeated_by_position", "unknown", "too_many",
        "positional_after_keyword", "missing", "non_integer_exponent"])
def test_call_grammar_errors_exit_two(argv, message, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


# -- end-to-end command runs ------------------------------------------------

def test_cli_bracket_prints_one(capsys):
    assert run(["cochain", "m0", "x1", "x2"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_eval_and_parse_error(capsys):
    assert run(["eval", "xi2*xi1"]) == 0
    assert capsys.readouterr().out.strip() == "-1*xi1*xi2"
    assert run(["eval", "xi9"]) == 2
    assert "unknown variable" in capsys.readouterr().err
    # a generator past the context is its builder's ValueError, in its words
    for text, message in (("xi7", "unknown variable xi7 (n_minus=2)"),
                          ("x0", "unknown variable x0 (n_plus=4)"),
                          ("th2", "unknown parameter th2 (k=1)")):
        assert run(["eval", text]) == 2
        assert capsys.readouterr().err == \
            f"error: {message} at position 0\n"


def test_cli_jacobi_antiodd(capsys):
    code = run(["jacobi", "--deformation", "antiodd()", "--n", "2",
                "--samples", "10", "--seed", "7"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is True
    assert data["sample_count"] == 10


def test_cli_theorem_witness(capsys):
    code = run(["theorem", "--case", "multi", "--nplus", "4",
                "--nminus", "5", "--k", "2", "--zeta", "xi1",
                "--h1", "th2", "--h2", "1", "--samples", "5"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is True
    assert data["constraints"] == {"i": "0", "ii": "0", "iii": "0"}


def test_cli_theorem_perturbed_fails(capsys):
    code = run(["theorem", "--nplus", "4", "--nminus", "3", "--k", "2",
                "--zeta", "xi1", "--h1", "th2", "--h2", "1"])
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert data["constraints"]["i"] != "0"


def test_cli_cocycle_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["cocycle", "--form", "m3", "--samples", "5",
                "--seed", "3", "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["pass"] is True and data["check"] == "cocycle[m3]"


def test_cli_equiv_golden_and_failure(capsys):
    base = ["equiv",
            "--c1", "c3(zeta=hbar^2*x1*gauss(1) + hbar^2*gauss(1))",
            "--c2", "c3(zeta=hbar^2*x1*gauss(1))",
            "--order", "2", "--samples", "5"]
    assert run(base + ["--t1", "bar(gauss(1),-1)"]) == 0
    json.loads(capsys.readouterr().out)
    assert run(base + ["--t1", "bar(gauss(1),1)"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is False


@pytest.mark.parametrize("argv, expect", [
    (["eval", "xi2*xi1"], "-1*xi1*xi2"),
    (["cochain", "m0", "x1", "x2"], "1"),
    (["cochain", "moyal", "x1", "x2"], "1"),
], ids=["eval", "cochain", "cochain_moyal"])
def test_cli_output_file_for_every_command(argv, expect, tmp_path, capsys):
    out = tmp_path / "value.txt"
    assert run([*argv, "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == expect + "\n"


def test_cli_flags_before_or_after_subcommand(capsys):
    assert run(["--n", "2", "cochain", "anti", "x1", "xi1"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert run(["cochain", "--n", "2", "anti", "x1", "xi1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_lambda_sets_the_metric_signs(capsys):
    """--lambda reaches the context and its report; a vector that is not
    +-1 is refused by the context's own rule."""
    argv = ["jacobi", "--deformation", "c1", "--samples", "2", "--lambda"]
    assert run(argv + ["1,-1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["context"]["lambdas"] == [1, -1] and data["pass"] is True
    assert run(argv + ["1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: lambdas must be a +-1 vector of length n_minus\n"


@pytest.mark.parametrize("text", ["1,x", "1,", "x"])
def test_cli_lambda_that_is_not_ints_names_the_flag(text, capsys):
    """A --lambda entry that is not an int is one error line naming the
    flag and the text given, with exit 2."""
    assert run(["eval", "x1", "--lambda", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: --lambda takes comma-separated ints, got {text!r}\n"


def test_cli_moyal_kappa(capsys):
    assert run(["cochain", "moyal(2)", "x1^3", "x2^3"]) == 0
    text = capsys.readouterr().out.strip()
    assert "hbar^2" in text and "x1^2*x2^2" in text


def test_cli_cocycle_uses_the_bracket_of_the_form_grading(capsys):
    assert run(["cocycle", "--form", "m23", "--n", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["check"] == "cocycle[m23]" and data["pass"] is True
    assert run(["cocycle", "--form", "m0", "--n", "2", "--bracket", "anti",
                "--samples", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unrecognized arguments: --bracket anti\n"


def test_cochain_spec_name_reaches_the_report_core(ctx, capsys):
    form = parse_cochain("m0 + th1*m3", ctx)
    assert (form.name, form.parity) == ("m0+scaled(m3)", None)
    # at odd n_minus, m3 is odd and theta*m3 even, so the sum has parity 0
    assert run(["--nminus", "1", "--samples", "3", "cocycle", "--form",
                "m0 + th1*m3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["check"] == "cocycle[m0+scaled(m3)]" and data["pass"] is True


def test_every_exported_name_resolves():
    """Every name in __all__, the lazily loaded parse_* ones included, is
    an attribute of the package and arrives with a star import."""
    namespace = {}
    exec("from superdeform import *", namespace)
    for name in superdeform.__all__:
        assert namespace[name] is getattr(superdeform, name)


def test_every_import_is_used():
    """Every name a module of the package imports is used in that module,
    and every name the package's ``__init__`` imports from its modules is
    in ``__all__``, so a deletion leaves no import behind."""
    for path in sorted(Path(superdeform.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            exported = path.name == "__init__.py" and getattr(
                node, "level", 0)
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                assert name in (superdeform.__all__ if exported else used), (
                    f"{path.name} imports {name} and "
                    f"{'does not export' if exported else 'does not use'} it")


@pytest.mark.parametrize("flags", [["--samples", "0"], ["--samples", "-3"],
                                   ["--terms", "0"]])
def test_cli_rejects_counts_below_one(flags, capsys):
    code = run(["jacobi", "--deformation", "antiodd()", "--n", "2", *flags])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "at least 1" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["cocycle", "--form", "m3", "--samples", "2",
     "--output", "{tmp}/missing/r.json"],
    ["eval", "(" * 700 + "x1" + ")" * 700],
    ["jacobi"],
    ["--nplus", "x", "eval", "x1"],
    ["eval", "-x1/2"],
    ["eval", "sqrt(2305843009213693951)"],
    ["cochain", "anti", "0", "x1", "--nplus", "4", "--nminus", "2"],
    ["cochain", "moyal(th1)", "0", "x1"],
    ["jacobi", "--deformation", "antieven(c=hbar^2)", "--nplus", "4",
     "--nminus", "2"],
    ["jacobi", "--deformation", "antiodd", "--nplus", "4", "--nminus", "2"],
    ["cochain", "m23", "x1", "x2", "--nplus", "4", "--nminus", "2"],
], ids=["output_dir_missing", "deep_nesting", "missing_option",
        "bad_int_option", "leading_minus_without_dashes",
        "radicand_above_bound", "anti_form_at_unequal_dimensions",
        "moyal_form_with_theta_kappa", "antieven_at_unequal_dimensions",
        "antiodd_at_unequal_dimensions", "m23_form_at_unequal_dimensions"])
def test_cli_errors_exit_two_without_traceback(argv, tmp_path, capsys):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


_MIXED_ZETA = "hbar^2*gauss(1) + hbar^2*gauss(1)*xi1"
_WITNESS_AT_45 = ["theorem", "--nplus", "4", "--nminus", "5", "--k", "2"]


@pytest.mark.parametrize("argv, message", [
    (_WITNESS_AT_45 + ["--zeta", "xi1", "--h1", "th2 + 1", "--h2", "1"],
     "h1 must be odd"),
    (["jacobi", "--deformation", f"c3(zeta={_MIXED_ZETA})"],
     "zeta must make m_zeta even: eps(zeta) + n_minus must be even"),
    (["jacobi", "--deformation", f"c1(zeta={_MIXED_ZETA})"],
     "zeta must be even"),
    (_WITNESS_AT_45 + ["--zeta", "xi1 + gauss(1)", "--h1", "th2",
                       "--h2", "1"], "zeta must be odd"),
    (["cocycle", "--form", "m0 + th1*m0"],
     "m0+scaled(m0) has undefined parity"),
], ids=["theorem_h1", "c3_zeta", "c1_zeta", "theorem_zeta", "cocycle_form"])
def test_cli_refuses_mixed_parity_parameters(argv, message, capsys):
    """A value with parts of both parities breaks a parity rule as a value
    of the wrong parity does."""
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_theorem_refuses_a_context_without_theta1(capsys):
    """--k 0 leaves no odd parameter for the theorem: the k >= 1 rule of
    the odd-parameter brackets refuses it, not the theta constructor."""
    assert run(["theorem", "--nplus", "4", "--nminus", "5", "--k", "0",
                "--zeta", "xi1", "--h1", "0", "--h2", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: an odd parameter theta_1 is required (k >= 1)\n"


_EQUIV_WRONG_T1 = ["equiv",
                   "--c1", "c3(zeta=hbar^2*x1*gauss(1) + hbar^2*gauss(1))",
                   "--c2", "c3(zeta=hbar^2*x1*gauss(1))",
                   "--t1", "bar(gauss(1),1)", "--order", "2",
                   "--samples", "5"]


def test_cli_equiv_reports_t1_active_pairs(capsys):
    # at seed 3 no sampled pair has a nonzero bar, so no pair can tell the
    # wrong sign of T1 from the right one: not a pass, but a usage error
    assert run(_EQUIV_WRONG_T1 + ["--seed", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "t1_active_pairs 0" in captured.err
    assert run(_EQUIV_WRONG_T1 + ["--seed", "1"]) == 1
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["t1_active_pairs"] >= 1
    assert data["pass"] is False and data["sample_count"] == 5
    assert set(data["first_failure"]) == {"f", "g", "residual"}
    assert captured.err.startswith("[FAIL] equivalence: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("order, code", [("1", 2), ("0", 2), ("-1", 2),
                                         ("2", 1)])
def test_cli_equiv_counts_t1_active_pairs_within_order(order, code, capsys):
    """T = id + hbar^2 T1 changes nothing below hbar^2, so below --order 2
    no pair tells the wrong sign of T1 from the right one: a usage error
    naming --order, not a pass; at --order 2 the same samples fail."""
    argv = ["equiv", "--nplus", "4", "--nminus", "2", "--k", "1",
            "--c1", "c3(zeta=hbar^2*x1*gauss(1) + hbar^2*gauss(1))",
            "--c2", "c3(zeta=hbar^2*x1*gauss(1))",
            "--t1", "bar(gauss(1),1)", "--samples", "40", "--order", order]
    assert run(argv) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        assert captured.err == (
            "error: no sampled pair is T1-active (t1_active_pairs 0 of 40), "
            "so the pass would be vacuous; T1 acts at hbar^2, so raise "
            "--order to 2 or more\n")
    else:
        assert json.loads(captured.out)["t1_active_pairs"] == 3
        assert captured.err == \
            "[FAIL] equivalence: 40 samples, 3 failures, t1_active_pairs 3\n"


# sha256 of stdout, stderr and exit code of the golden equiv command, for
# both signs of T1 and for the usage error of a sample with no active pair
EQUIV_OUTPUT_SHA256 = {
    ("bar(gauss(1),-1)", 5, 150):
        "fc666b273ff3811a1579550fbc97c49aa22ead1557473d677a1311fdb08d22f7",
    ("bar(gauss(1),-1)", 7, 150):
        "c9743995e5a7cf18b7223b0c7435fd43fddff9e134af09cd15022db81ad72728",
    ("bar(gauss(1),1)", 5, 150):
        "2f569f2ef7cabcf014370d75d30eebafedf8f4aa75ee22363e313450c3eade1d",
    ("bar(gauss(1),1)", 7, 150):
        "af268fe7c4017a9b88578104b99bbc475487cc0cdf2a6fe24465f89f69b0dbc0",
    ("bar(gauss(1),1)", 3, 5):
        "e440ce2c96934eda7b93e0b61fdca4293f79bfff5f1c32dd8be4133ce0347617",
}


@pytest.mark.parametrize("t1, seed, samples", sorted(EQUIV_OUTPUT_SHA256))
def test_cli_equiv_output_is_pinned(t1, seed, samples, capsys):
    code = run(["equiv",
                "--c1", "c3(zeta=hbar^2*x1*gauss(1) + hbar^2*gauss(1))",
                "--c2", "c3(zeta=hbar^2*x1*gauss(1))", "--order", "2",
                "--t1", t1, "--seed", str(seed), "--samples", str(samples)])
    captured = capsys.readouterr()
    blob = f"{captured.out}\0{captured.err}\0{code}".encode()
    assert hashlib.sha256(blob).hexdigest() == \
        EQUIV_OUTPUT_SHA256[t1, seed, samples], captured.err


# sha256 of stdout, stderr and exit code of whole theorem runs: the witness
# at (4, 5), the perturbed witness at (4, 3), a constant eta (relation i and
# the D class fail) and the (0, 1) case, whose constraints and Jacobi check
# hold
_THEOREM = ["theorem", "--k", "2", "--zeta", "xi1", "--h1", "th2",
            "--h2", "1"]
THEOREM_OUTPUT_SHA256 = {
    "witness": (
        ["--nplus", "4", "--nminus", "5", "--samples", "3"],
        "b21dfbea4b9242d89a9647a404781adfd8977046d5f0a02fc0df7a4b8d2554df"),
    "perturbed": (
        ["--nplus", "4", "--nminus", "3"],
        "011cf571f323010b0728f37a40d7d7d051cc510256b60a7a0519f125ad30a07f"),
    "eta_not_d_class": (
        ["--nplus", "4", "--nminus", "5", "--eta", "1"],
        "6e27a2b247fbecc4c54e6c93c74b5787145603f7ade3fa969c9846a61422e7c9"),
    "jacobi_passes_at_0_1": (
        ["--nplus", "0", "--nminus", "1"],
        "d6f99cd15616f27edc0708b1e0af1103e58fc051ddb0f15493ca7ddd26b713c9"),
}


@pytest.mark.parametrize("case", sorted(THEOREM_OUTPUT_SHA256))
def test_cli_theorem_output_is_pinned(case, capsys):
    flags, digest = THEOREM_OUTPUT_SHA256[case]
    code = run(_THEOREM + flags)
    captured = capsys.readouterr()
    blob = f"{captured.out}\0{captured.err}\0{code}".encode()
    assert hashlib.sha256(blob).hexdigest() == digest, captured.err


def test_cli_theorem_report_keys_and_summary(capsys):
    theorem = ["theorem", "--nplus", "4", "--k", "2", "--zeta", "xi1",
               "--h1", "th2", "--h2", "1", "--samples", "1"]
    assert run(theorem + ["--nminus", "5"]) == 0
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert {"pass", "constraints", "eta_d_class", "jacobi"} <= set(data)
    assert data["jacobi"]["sample_count"] == 1
    assert captured.err.startswith("[PASS] theorem[multi]: ")
    assert captured.err.count("\n") == 1
    assert run(theorem + ["--nminus", "3"]) == 1
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert "jacobi" not in data and data["pass"] is False
    assert {"pass", "constraints", "eta_d_class"} <= set(data)
    assert captured.err.startswith("[FAIL] theorem[multi]: ")
    assert captured.err.count("\n") == 1


def test_cli_rejects_exponent_above_bound(capsys):
    assert run(["eval", "x1^99999999999"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: exponent 99999999999")
    assert captured.err.count("\n") == 1
    assert run(["eval", f"x1^{MAX_EXPONENT + 1}"]) == 2
    capsys.readouterr()
    assert run(["eval", f"x1^{MAX_EXPONENT}"]) == 0
    assert capsys.readouterr().out.strip() == f"x1^{MAX_EXPONENT}"
    assert run(["eval", f"sqrt({MAX_RADICAND + 1})"]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: radicand {MAX_RADICAND + 1} is above {MAX_RADICAND}")
    assert run(["eval", f"sqrt({MAX_RADICAND})"]) == 0
    assert capsys.readouterr().out.strip() == "1000000"
    # two square-free roots multiply through their gcd, not a factoring
    start = time.perf_counter()
    assert run(["--k", "0", "eval",
                "sqrt(999999999989)*sqrt(999999999959)"]) == 0
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().out.strip() == \
        "sqrt(999999999948000000000451)"


def test_cli_rejects_product_above_bound(capsys):
    # (x1+...+x8)^12 has 50388 terms; the bound stops it early and fast
    total = "(" + "+".join(f"x{i}" for i in range(1, 9)) + ")"
    start = time.perf_counter()
    assert run(["--nplus", "8", "eval", total + "^12"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a product of ")
    assert f"above {MAX_PRODUCT_TERMS} terms" in captured.err
    assert captured.err.count("\n") == 1
    assert run(["--nplus", "8", "eval", total + "^4"]) == 0
    assert capsys.readouterr().out.count("+") == 329  # C(11, 7) terms
    # a product of two sums is bounded by the product of their sizes too
    big = "(" + "+".join(f"x1^{a}*x2^{b}" for a in range(11)
                         for b in range(10)) + ")"
    assert run(["--nplus", "2", "eval", f"{big}*{big}"]) == 2
    assert capsys.readouterr().err.startswith("error: a product of 110 by")


# the grammar's tokens, names it refuses, exponents above its bound, and
# characters it does not know; joined with no separator they also make
# longer numbers and names
_GRAMMAR_TOKENS = ("0", "1", "2", "3", "12", "33", "99999999999",
                   "x1", "x2", "x4", "x5", "xi1", "xi2", "xi3", "th1", "th2",
                   "hbar", "pi", "sqrt", "gauss", "foo",
                   "+", "-", "*", "/", "^", "(", ")", ",", "=", " ", "@")
_LEAVES = ("0", "3", "x1", "x2", "xi1", "xi2", "th1", "hbar", "pi",
           "sqrt(pi)", "sqrt(2)", "gauss(1)", "gauss(1/2)", "gauss(0)",
           "sqrt((pi))", "sqrt(9/2)", "sqrt(0)", "gauss(-1)", "gauss(x1)")
# token soup, and well-formed expressions that reach the brackets
_EXPRESSIONS = st.one_of(
    st.lists(st.sampled_from(_GRAMMAR_TOKENS), max_size=12).map("".join),
    st.recursive(
        st.sampled_from(_LEAVES),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), inner).map(
                lambda t: f"({t[0]}{t[1]}{t[2]})"),
            st.tuples(inner, st.integers(0, 3)).map(
                lambda t: f"{t[0]}^{t[1]}"),
            inner.map(lambda e: f"-{e}/2")),
        max_leaves=6))


def test_cli_grammar_fuzz():
    codes = {"eval": [], "cochain": []}

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(_EXPRESSIONS, _EXPRESSIONS)
    def fuzz(f, g):
        # "--" hands an expression such as "-x1/2" to the grammar, not
        # argparse
        for argv in (["eval", "--", f], ["cochain", "--", "moyal", f, g]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = run(argv)
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            assert err.getvalue().count("error:") <= 1
            codes[argv[0]].append(code)

    fuzz()
    # a command that refused every input would pass the checks above
    # without running the grammar or the bracket once
    for command, seen in codes.items():
        assert seen.count(0) >= 10, (command, seen)


def test_python_m_cli_prints_one_error_line():
    src = os.path.dirname(os.path.dirname(superdeform.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "superdeform.cli", "jacobi", "--deformation",
         "antiodd()", "--n", "2", "--samples", "0"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_package_loads_cli_on_first_use():
    code = ("import sys, superdeform; "
            "assert 'superdeform.cli' not in sys.modules; "
            "from superdeform import parse_expression; "
            "assert superdeform.cli.parse_expression is parse_expression; "
            "assert superdeform.cli.run(['eval', '1']) == 0")
    src = os.path.dirname(os.path.dirname(superdeform.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


def test_import_loads_no_heavy_stdlib_module():
    """``import superdeform`` stays cheap for short CLI processes: no
    dataclasses (which brings inspect, ast, dis and tokenize), and neither
    the CLI module nor the argparse and json it uses.  The check runs in a
    fresh interpreter, as pytest itself loads inspect, and without site
    (``-S``), so that nothing an installed .pth file imports can hide a
    module the package loads."""
    budget = ("dataclasses", "inspect", "ast", "dis", "tokenize", "argparse",
              "json", "superdeform.cli")
    code = ("import sys, superdeform; "
            f"print(' '.join(m for m in {budget!r} if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(superdeform.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_cli_refuses_a_sum_of_two_gradings(capsys):
    """An odd plus an even form is a cochain of neither complex: a usage
    error, not a FAIL verdict."""
    assert run(["cocycle", "--form", "anti + m0", "--n", "2",
                "--samples", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: anti has the odd grading, but m0 the even one\n"


def test_layer_tracer_counts_the_cli_path():
    # the per-layer benchmark rebinds the parsers, builders and cli.run by
    # name; a renamed or captured function would drop out of its counts
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import contextlib, io, json\n"
            "from layertrace import Tracer\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "from superdeform import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.run(['jacobi', '--deformation', 'antiodd()',\n"
            "                    '--n', '2', '--samples', '1'])\n"
            "jacobi = dict(tracer.calls)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    theorem = cli.run(['theorem', '--nplus', '4', '--nminus',\n"
            "                       '5', '--k', '2', '--zeta', 'xi1',\n"
            "                       '--h1', 'th2', '--h2', '1',\n"
            "                       '--samples', '1'])\n"
            "print(json.dumps({'code': code, 'calls': jacobi,\n"
            "                  'theorem': theorem, 'after': tracer.calls}))\n")
    path = os.pathsep.join(os.path.join(root, d) for d in ("src", "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["code"] == 0
    calls = data["calls"]
    assert calls["cli.run"] == 1 and calls["deformations.build"] == 1
    assert calls["cli.parse"] >= 1 and calls["cochains.evaluate"] >= 1
    # the theorem command checks its constraints, once, and then its
    # Jacobi identity, both seen by the tracer
    assert data["theorem"] == 0
    after = data["after"]
    assert after["cli.run"] == 2
    assert after["deformations.check_constraints"] == 1
    assert after["verify.check"] == calls.get("verify.check", 0) + 1


def _readme_cli_examples():
    """The ``superdeform ...`` command lines of the README's CLI example
    block, backslash continuations joined, as argument lists."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Command-line interface"):]
    start = section.index("```sh\n") + len("```sh\n")
    block = section[start:section.index("```", start)]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("superdeform ")]


def test_readme_cli_examples_exit_zero(tmp_path, monkeypatch, capsys):
    """Every example command of the README runs and exits 0, so the docs
    name no removed command or option."""
    examples = _readme_cli_examples()
    assert len(examples) >= 7
    assert any(argv[0] == "cochain" for argv in examples)
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        assert run(argv) == 0, (argv, capsys.readouterr().err)
        capsys.readouterr()


def test_readme_package_layout_is_one_short_row_per_module():
    """The README's *Package layout* table has exactly one row per module
    file of the package but ``__init__``, and each row, the module's name
    included, is at most 60 words: the contracts live in the docstrings
    and the tests, and the table only maps them."""
    root = Path(__file__).resolve().parent.parent
    text = (root / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Package layout\n"):]
    section = section[:section.index("\n## ")]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    rows = lines[2:]  # after the header and its rule
    names = [re.match(r"\| `superdeform\.(\w+)` +\|", row) for row in rows]
    assert None not in names, rows
    modules = {path.stem for path in
               Path(superdeform.__file__).parent.glob("*.py")} - {"__init__"}
    assert sorted(m.group(1) for m in names) == sorted(modules)
    for row in rows:
        words = len(row.replace("|", " ").split())
        assert words <= 60, (words, row[:60])


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["jacobi", "--help"])
    assert exc.value.code == 0
    assert "--deformation" in capsys.readouterr().out


def test_one_parser_per_process_keeps_no_state(tmp_path, capsys):
    """make_parser builds the parser once; a run leaves nothing in it for
    the next: not a parsed value, not --output, not --seed."""
    from superdeform.cli import make_parser
    assert make_parser() is make_parser()
    first = make_parser().parse_args(
        ["--seed", "5", "--output", "x", "--samples", "3", "eval", "1"])
    assert (first.seed, first.output, first.samples) == (5, "x", 3)
    again = make_parser().parse_args(["eval", "1"])
    assert (again.seed, again.output, again.samples) == \
        (DEFAULT_SEED, "", 25)
    out = tmp_path / "value.txt"
    assert run(["eval", "x1", "--output", str(out)]) == 0
    assert run(["eval", "x2"]) == 0
    assert capsys.readouterr().out == "x2\n"
    assert out.read_text() == "x1\n"
    # the first failure shows sampled functions, so it shows the seed
    wrong = ["equiv", "--c1", "c3(zeta=hbar^2*x1*gauss(1) + hbar^2*gauss(1))",
             "--c2", "c3(zeta=hbar^2*x1*gauss(1))", "--order", "2",
             "--samples", "40", "--t1", "bar(gauss(1),1)"]
    reports = []
    for seed in (["--seed", "3"], [], ["--seed", str(DEFAULT_SEED)]):
        assert run(wrong + seed) == 1
        reports.append(capsys.readouterr().out)
    assert reports[1] == reports[2] != reports[0]


def test_cli_refuses_an_x_exponent_past_the_cap(capsys):
    """((x1^32)^32)^32 is x1^32768, past the packed exponent cap: one
    ``error:`` line naming the cap, exit 2 and no traceback."""
    assert run(["eval", "((x1^32)^32)^32"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: an x exponent is above the cap {X_CAP}\n"
    assert run(["eval", "(x1^32)^32"]) == 0
    assert capsys.readouterr().out.strip() == "x1^1024"
