"""Expression parsing and the command-line front end.

The expression grammar (shared by every command):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*      # division by rational constants
    unary  := '-' unary | power
    power  := atom ('^' INTEGER)*
    atom   := INTEGER | 'x<i>' | 'xi<a>' | 'th<j>' | 'hbar' | 'pi'
            | 'sqrt' '(' expr ')' | 'gauss' '(' expr ')' | '(' expr ')'

Cochain specifications are linear combinations of the named forms
(m0, anti, moyal(kappa), m1, m3, mzeta(EXPR), m23, jzeta(EXPR), mu) with
scalar (possibly theta) prefixes.  Deformation specifications are
c1(zeta=,kappa=), c1c(zeta=,kappa=,c=), c3(zeta=,c3=), antieven(c=),
antiodd(), general(zeta=,eta=,h1=,h2=).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .brackets import antibracket, moyal_bracket, poisson_bracket
from .cochains import (ScaledCochain, anti_form, jzeta_form, m0_form,
                       m1_form, m23_form, m3_form, moyal_form, mu_form,
                       mzeta_form)
from .deformations import (build_C1, build_C1c, build_C3, build_anti_even,
                           build_anti_odd, build_general_odd,
                           check_constraints, check_equivalence,
                           t1_bar_multiplier, t1_euler)
from .errors import DeformationError, ParseError
from .scalars import MAX_RADICAND, Scalar
from .superfunc import SuperFunction, SymplecticContext, sf_mul
from .verify import SampleSpec, check_cocycle, check_jacobi, sample_tuples

DEFAULT_SEED = 20240801
# the largest exponent the grammar accepts after '^'
MAX_EXPONENT = 32
# the largest term-count product |a| * |b| the grammar multiplies out
MAX_PRODUCT_TERMS = 10_000

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^(),=]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("sym", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser producing SuperFunctions over a context."""

    def __init__(self, text, ctx):
        self.text = text
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.i = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym):
        kind, value, pos = self.peek()
        if kind != "sym" or value != sym:
            raise ParseError(f"expected {sym!r}", pos, expected=sym)
        return self.take()

    def at_sym(self, *syms):
        kind, value, _ = self.peek()
        return kind == "sym" and value in syms

    def done(self):
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)

    # -- grammar -----------------------------------------------------------

    def expr(self):
        value = self.term()
        while self.at_sym("+", "-"):
            op = self.take()[1]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.at_sym("*", "/"):
            _kind, op, pos = self.take()
            rhs = self.unary()
            if op == "*":
                value = self._product(value, rhs, pos)
            else:
                q = self._rational(rhs, pos)
                if not q:
                    raise ParseError("division by zero", pos)
                value = value * (1 / q)
        return value

    def unary(self):
        if self.at_sym("-"):
            self.take()
            return -self.unary()
        return self.power()

    def power(self):
        value = self.atom()
        while self.at_sym("^"):
            _op = self.take()
            kind, exponent, pos = self.take()
            if kind != "int":
                raise ParseError("exponent must be an integer", pos)
            if exponent > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {exponent} is above {MAX_EXPONENT}", pos)
            out = SuperFunction.constant(self.ctx,
                                         Scalar.one(self.ctx.scalar_ctx))
            for _ in range(exponent):
                out = self._product(out, value, pos)
            value = out
        return value

    def _product(self, a, b, pos):
        """a * b, refused when it could hold more than MAX_PRODUCT_TERMS
        terms."""
        if len(a.terms) * len(b.terms) > MAX_PRODUCT_TERMS:
            raise ParseError(f"a product of {len(a.terms)} by "
                             f"{len(b.terms)} terms is above "
                             f"{MAX_PRODUCT_TERMS} terms", pos)
        return sf_mul(a, b)

    def atom(self):
        kind, value, pos = self.take()
        sctx = self.ctx.scalar_ctx
        if kind == "int":
            return SuperFunction.constant(
                self.ctx, Scalar.rational(sctx, value))
        if kind == "sym" and value == "(":
            inner = self.expr()
            self.expect_sym(")")
            return inner
        if kind != "name":
            raise ParseError("expected a value", pos)
        m = re.fullmatch(r"x(\d+)", value)
        if m:
            i = int(m.group(1))
            if not 1 <= i <= self.ctx.n_plus:
                raise ParseError(f"unknown variable x{i} "
                                 f"(n_plus={self.ctx.n_plus})", pos)
            return SuperFunction.x(self.ctx, i)
        m = re.fullmatch(r"xi(\d+)", value)
        if m:
            a = int(m.group(1))
            if not 1 <= a <= self.ctx.n_minus:
                raise ParseError(f"unknown variable xi{a} "
                                 f"(n_minus={self.ctx.n_minus})", pos)
            return SuperFunction.xi(self.ctx, a)
        m = re.fullmatch(r"th(\d+)", value)
        if m:
            j = int(m.group(1))
            if not 1 <= j <= sctx.k:
                raise ParseError(f"unknown parameter th{j} (k={sctx.k})", pos)
            return SuperFunction.constant(self.ctx, Scalar.theta(sctx, j))
        if value == "hbar":
            return SuperFunction.constant(self.ctx, Scalar.hbar(sctx))
        if value == "pi":
            return SuperFunction.constant(self.ctx, Scalar.pi(sctx))
        if value == "sqrt":
            self.expect_sym("(")
            kind2, inner, pos2 = self.peek()
            if kind2 == "name" and inner == "pi":
                self.take()
                self.expect_sym(")")
                return SuperFunction.constant(self.ctx,
                                              Scalar.sqrt_pi(sctx))
            arg = self.expr()
            self.expect_sym(")")
            r = self._rational(arg, pos2)
            if r.denominator != 1 or r <= 0:
                raise ParseError("sqrt takes a positive integer or pi", pos2)
            if r > MAX_RADICAND:
                raise ParseError(
                    f"radicand {r} is above {MAX_RADICAND}", pos2)
            return SuperFunction.constant(self.ctx,
                                          Scalar.sqrt(sctx, int(r)))
        if value == "gauss":
            self.expect_sym("(")
            kind2, _v, pos2 = self.peek()
            arg = self.expr()
            self.expect_sym(")")
            c = self._rational(arg, pos2)
            if c < 0:
                raise ParseError("gauss weight must be nonnegative", pos2)
            return SuperFunction.gauss(self.ctx, c)
        raise ParseError(f"unknown name {value!r}", pos)

    # -- helpers -----------------------------------------------------------

    def _rational(self, f, pos):
        scalar = self._scalar(f, pos)
        try:
            return scalar.rational_value()
        except ValueError:
            raise ParseError("a rational constant is required here", pos)

    def _scalar(self, f, pos):
        zero_x = (0,) * self.ctx.n_plus
        out = Scalar.zero(self.ctx.scalar_ctx)
        for (xexp, c, xi), s in f.terms.items():
            if (xexp, c, xi) != (zero_x, Fraction(0), ()):
                raise ParseError("a scalar constant is required here", pos)
            out = out + s
        return out


def parse_expression(text, ctx):
    """Parse the expression grammar into a canonical SuperFunction."""
    parser = _Parser(text, ctx)
    value = parser.expr()
    parser.done()
    return value


def parse_scalar(text, ctx):
    """Parse an expression that must be a scalar constant."""
    parser = _Parser(text, ctx)
    value = parser.expr()
    parser.done()
    return parser._scalar(value, 0)


# the named forms: name -> (builder, kind of its one argument or None)
_FORMS = {"m0": (m0_form, None), "anti": (anti_form, None),
          "m1": (m1_form, None), "m3": (m3_form, None),
          "m23": (m23_form, None), "mu": (mu_form, None),
          "moyal": (moyal_form, "scalar"), "mzeta": (mzeta_form, "function"),
          "jzeta": (jzeta_form, "function")}


def parse_cochain(text, ctx):
    """Parse the cochain mini-language into an evaluable 2-cochain."""
    parser = _Parser(text, ctx)
    total = None
    negate = False
    while True:
        part = _cochain_term(parser, ctx, negate)
        total = part if total is None else total + part
        if parser.at_sym("+", "-"):
            negate = parser.take()[1] == "-"
            continue
        parser.done()
        return total


def _cochain_term(parser, ctx, negate):
    scalar = Scalar.rational(ctx.scalar_ctx, -1 if negate else 1)
    form = None
    while True:
        kind, value, pos = parser.peek()
        if kind == "name" and value in _FORMS:
            if form is not None:
                raise ParseError("a term may contain only one form", pos)
            parser.take()
            form = _form_atom(parser, ctx, value)
        else:
            piece = parser.power()
            scalar = scalar * parser._scalar(piece, pos)
        if parser.at_sym("*"):
            parser.take()
            continue
        break
    if form is None:
        kind, _v, pos = parser.peek()
        raise ParseError("expected a form name", pos)
    if scalar == Scalar.one(ctx.scalar_ctx):
        return form
    return ScaledCochain(scalar, form)


def _form_atom(parser, ctx, name):
    build, argument = _FORMS[name]
    if argument is None:
        return build(ctx)
    parser.expect_sym("(")
    _kind, _v, pos = parser.peek()
    arg = parser.expr()
    parser.expect_sym(")")
    return build(ctx, parser._scalar(arg, pos) if argument == "scalar"
                 else arg)


_DEFO_NAMES = {"c1", "c1c", "c3", "antieven", "antiodd", "general"}


def parse_deformation(text, ctx):
    """Parse a deformation specification string and build it."""
    parser = _Parser(text, ctx)
    kind, name, pos = parser.take()
    if kind != "name" or name not in _DEFO_NAMES:
        raise ParseError("expected a deformation name "
                         f"({', '.join(sorted(_DEFO_NAMES))})", pos)
    kwargs = {}
    parser.expect_sym("(")
    if not parser.at_sym(")"):
        while True:
            kkind, key, kpos = parser.take()
            if kkind != "name":
                raise ParseError("expected a parameter name", kpos)
            parser.expect_sym("=")
            _vk, _vv, vpos = parser.peek()
            value = parser.expr()
            kwargs[key] = (value, vpos)
            if parser.at_sym(","):
                parser.take()
                continue
            break
    parser.expect_sym(")")
    parser.done()

    def fn_arg(key, default=None):
        if key in kwargs:
            return kwargs.pop(key)[0]
        return default if default is not None else SuperFunction.zero(ctx)

    def sc_arg(key, default=0):
        if key in kwargs:
            value, vpos = kwargs.pop(key)
            return parser._scalar(value, vpos)
        return Scalar.rational(ctx.scalar_ctx, default)

    if name == "c1":
        defo = build_C1(fn_arg("zeta"), sc_arg("kappa", 1))
    elif name == "c1c":
        defo = build_C1c(fn_arg("zeta"), sc_arg("kappa", 1), sc_arg("c"))
    elif name == "c3":
        defo = build_C3(fn_arg("zeta"), sc_arg("c3"))
    elif name == "antieven":
        defo = build_anti_even(ctx, sc_arg("c"))
    elif name == "antiodd":
        defo = build_anti_odd(ctx)
    else:
        defo = build_general_odd(fn_arg("zeta"), fn_arg("eta"),
                                 sc_arg("h1"), sc_arg("h2"))
    if kwargs:
        raise ParseError(f"unknown parameters: {sorted(kwargs)}", 0)
    return defo


def parse_t1(text, ctx):
    """T1 family specifications: zero | bar(EXPR[,SCALE]) | euler([SCALE])."""
    parser = _Parser(text, ctx)
    kind, name, pos = parser.take()
    if kind != "name" or name not in {"zero", "bar", "euler"}:
        raise ParseError("expected zero, bar(...), or euler(...)", pos)
    if name == "zero":
        parser.done()
        return t1_bar_multiplier(SuperFunction.zero(ctx))
    parser.expect_sym("(")
    if name == "euler":
        scale = Scalar.one(ctx.scalar_ctx)
        if not parser.at_sym(")"):
            _k, _v, spos = parser.peek()
            scale = parser._scalar(parser.expr(), spos)
        parser.expect_sym(")")
        parser.done()
        return t1_euler(ctx, scale)
    z0 = parser.expr()
    scale = Scalar.one(ctx.scalar_ctx)
    if parser.at_sym(","):
        parser.take()
        _k, _v, spos = parser.peek()
        scale = parser._scalar(parser.expr(), spos)
    parser.expect_sym(")")
    parser.done()
    return t1_bar_multiplier(z0, scale)


# -- command-line interface ------------------------------------------------

def _build_context(args):
    n_plus, n_minus = args.nplus, args.nminus
    if getattr(args, "n", None) is not None:
        n_plus = n_minus = args.n
    if args.lambdas:
        lambdas = tuple(int(v) for v in args.lambdas.split(","))
    else:
        lambdas = tuple([1] * n_minus)
    return SymplecticContext(n_plus, n_minus, lambdas, args.k, args.hmax)


def _default_seed():
    env = os.environ.get("SUPERDEFORM_SEED")
    return int(env) if env else DEFAULT_SEED


def _sample_spec(args):
    for flag, value in (("--samples", args.samples), ("--terms", args.terms)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    seed = args.seed if args.seed is not None else _default_seed()
    return SampleSpec(seed=seed, count=args.samples,
                      parity=args.parity, terms=args.terms)


def _emit(data, summary, args):
    """Write a JSON report to stdout or ``--output`` and its one-line
    summary to stderr; the exit status is 0 when ``data["pass"]``, else 1."""
    text = json.dumps(data, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(summary, file=sys.stderr)
    return 0 if data["pass"] else 1


def _run_equiv(args, ctx):
    defo1 = parse_deformation(args.c1, ctx)
    defo2 = parse_deformation(args.c2, ctx)
    t1 = parse_t1(args.t1, ctx)
    pairs = sample_tuples(_sample_spec(args), ctx, 2)
    report = check_equivalence(defo1, defo2, t1, pairs, order=args.order)
    if report.passed and not report.t1_active_pairs:
        # T1 changes nothing on these samples, so they cannot tell it apart
        raise ValueError(f"no sampled pair is T1-active (t1_active_pairs 0 "
                         f"of {len(pairs)}), so the pass would be vacuous; "
                         f"draw more samples")
    data = {"check": "equivalence", "pass": report.passed,
            "sample_count": len(pairs),
            "t1_active_pairs": report.t1_active_pairs}
    fail = report.first_failure()
    if fail is not None:
        (f, g), residual = fail
        data["first_failure"] = {"f": f.render(), "g": g.render(),
                                 "residual": residual.render()}
    failures = sum(not r.is_zero() for _pair, r in report.residuals)
    state = "PASS" if report.passed else "FAIL"
    return _emit(data, f"[{state}] equivalence: {len(pairs)} samples, "
                 f"{failures} failures, t1_active_pairs "
                 f"{report.t1_active_pairs}", args)


def _run_theorem(args, ctx):
    spec = _sample_spec(args)
    zeta = parse_expression(args.zeta, ctx)
    eta = parse_expression(args.eta, ctx)
    h1 = parse_scalar(args.h1, ctx)
    h2 = parse_scalar(args.h2, ctx)
    report = check_constraints(zeta, eta, h1, h2)
    data = {"check": "theorem[multi]", "constraints": {
        name: ("0" if r.is_zero() else r.render())
        for name, r in report.residuals.items()},
        "eta_d_class": report.eta_d_class,
        "pass": report.passed}
    if report.passed:
        jreport = check_jacobi(build_general_odd(zeta, eta, h1, h2), spec)
        data["jacobi"] = jreport.core_dict()
        data["pass"] = jreport.passed
        detail = (f"constraints hold, jacobi {jreport.sample_count} samples, "
                  f"{len(jreport.failures)} failures")
    else:
        detail = "constraints fail: " + ", ".join(report.failed_relations())
    state = "PASS" if data["pass"] else "FAIL"
    return _emit(data, f"[{state}] theorem[multi]: {detail}", args)


_COMMON_OPTIONS = (
    (("--nplus",), dict(type=int, default=4)),
    (("--nminus",), dict(type=int, default=2)),
    (("--n",), dict(type=int, default=None,
                    help="set n_plus = n_minus = n (antibracket contexts)")),
    (("--k",), dict(type=int, default=1,
                    help="number of odd parameters theta")),
    (("--hmax",), dict(type=int, default=6, help="hbar truncation order")),
    (("--lambda",), dict(dest="lambdas", default="",
                         help="comma-separated +-1 metric entries for xi")),
    (("--seed",), dict(type=int, default=None)),
    (("--samples",), dict(type=int, default=25)),
    (("--parity",), dict(choices=["even", "odd", "any"], default="any")),
    (("--terms",), dict(type=int, default=1,
                        help="terms per sampled function")),
    (("--output",), dict(default="",
                         help="write the JSON report to this path")),
)


def _add_common(parser, suppress):
    for flags, kwargs in _COMMON_OPTIONS:
        if suppress:
            kwargs = {**kwargs, "default": argparse.SUPPRESS}
        parser.add_argument(*flags, **kwargs)


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error raises ValueError, so ``run`` prints it as one
    ``error:`` line and returns 2."""

    def error(self, message):
        raise ValueError(message)


def make_parser():
    ap = _ArgumentParser(
        prog="superdeform",
        description="Exact checks for deformations of Poisson superalgebras")
    _add_common(ap, suppress=False)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_command(name, help):
        p = sub.add_parser(name, help=help)
        _add_common(p, suppress=True)
        return p
    sub_add = add_command

    p = sub_add("eval", help="parse and canonicalize an expression")
    p.add_argument("expr")

    p = sub_add("bracket", help="evaluate a bracket of two functions")
    p.add_argument("--type", choices=["poisson", "anti", "moyal"],
                   default="poisson")
    p.add_argument("--kappa", default="1")
    p.add_argument("f")
    p.add_argument("g")

    p = sub_add("cochain", help="evaluate a 2-cochain specification")
    p.add_argument("spec")
    p.add_argument("f")
    p.add_argument("g")

    p = sub_add("jacobi",
                       help="J(C,C) = 0 for a deformation, on samples")
    p.add_argument("--deformation", required=True)

    p = sub_add("cocycle", help="d2_ad F = 0 for a cochain")
    p.add_argument("--form", required=True)
    p.add_argument("--bracket", choices=["poisson", "anti"],
                   default="poisson")

    p = sub_add("equiv", help="match two deformations through T1")
    p.add_argument("--c1", required=True)
    p.add_argument("--c2", required=True)
    p.add_argument("--t1", required=True)
    p.add_argument("--order", type=int, default=None)

    p = sub_add("theorem",
                       help="constraint system + Jacobi for a theorem case")
    p.add_argument("--case", choices=["multi"], default="multi")
    p.add_argument("--zeta", default="0")
    p.add_argument("--eta", default="0")
    p.add_argument("--h1", default="0")
    p.add_argument("--h2", default="0")
    return ap


def run(argv=None):
    try:
        args = make_parser().parse_args(argv)
        ctx = _build_context(args)
        if args.command == "eval":
            print(parse_expression(args.expr, ctx).render())
            return 0
        if args.command == "bracket":
            f = parse_expression(args.f, ctx)
            g = parse_expression(args.g, ctx)
            if args.type == "poisson":
                value = poisson_bracket(f, g)
            elif args.type == "anti":
                value = antibracket(f, g)
            else:
                value = moyal_bracket(f, g, parse_scalar(args.kappa, ctx))
            print(value.render())
            return 0
        if args.command == "cochain":
            form = parse_cochain(args.spec, ctx)
            value = form.evaluate(parse_expression(args.f, ctx),
                                  parse_expression(args.g, ctx))
            print(value.render())
            return 0
        if args.command == "equiv":
            return _run_equiv(args, ctx)
        if args.command == "theorem":
            return _run_theorem(args, ctx)
        if args.command == "jacobi":
            defo = parse_deformation(args.deformation, ctx)
            report = check_jacobi(defo, _sample_spec(args))
        else:
            form = parse_cochain(args.form, ctx)
            bracket = anti_form(ctx) if args.bracket == "anti" else None
            report = check_cocycle(form, _sample_spec(args), bracket=bracket)
        return _emit({**report.core_dict(), "elapsed": report.elapsed},
                     report.summary(), args)
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return 2
    except (ParseError, DeformationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
