"""Expression parsing and the command-line front end.

The expression grammar (shared by every command):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*      # division by rational constants
    unary  := '-' unary | power
    power  := atom ('^' INTEGER)*
    atom   := INTEGER | 'x<i>' | 'xi<a>' | 'th<j>' | 'hbar' | 'pi'
            | 'sqrt' '(' expr ')' | 'gauss' '(' expr ')' | '(' expr ')'

Forms, deformations and T1 maps are named in one call grammar:

    call   := NAME [ '(' [ arg (',' arg)* ] ')' ]
    arg    := [ PARAM '=' ] expr

Arguments bind to parameters as in a Python call (positional ones first),
and a parameter with a default may be left out.  The names and their
parameters are the tables ``_FORMS`` (m0, anti, moyal(kappa), m1, m3,
mzeta(zeta), m23, jzeta(zeta), mu), ``_DEFORMATIONS`` (c1(zeta, kappa),
c1c(zeta, kappa, c), c3(zeta, c3), antieven(c), antiodd,
general(zeta, eta, h1, h2)) and ``_T1`` (zero, bar(z0, scale),
euler(scale)).  A cochain specification is a linear combination of forms
with scalar (possibly theta) prefixes.

The commands are eval, cochain, jacobi, cocycle, equiv and theorem.  The
three brackets are forms, so ``cochain m0|anti|moyal(kappa) F G`` prints
a bracket value; a form refuses its context or its parameters when it is
built, whatever its arguments.
"""

import argparse
import json
import re
import sys
from functools import lru_cache

from .cochains import (anti_form, jzeta_form, m0_form, m1_form, m23_form,
                       m3_form, moyal_form, mu_form, mzeta_form)
from .deformations import (_failed_relations, _general_odd_bracket,
                           build_C1, build_C1c, build_C3, build_anti_even,
                           build_anti_odd, build_general_odd,
                           check_constraints, check_equivalence,
                           t1_bar_multiplier, t1_euler)
from .errors import DeformationError, ParseError
from .scalars import Scalar
from .superfunc import SuperFunction, SymplecticContext, sf_mul
from .verify import (DEFAULT_SEED, SampleSpec, check_cocycle, check_jacobi,
                     sample_tuples)

# the largest exponent the grammar accepts after '^'
MAX_EXPONENT = 32
# the largest term-count product |a| * |b| the grammar multiplies out
MAX_PRODUCT_TERMS = 10_000

# the builders of the atoms x<i>, xi<a> and th<j>, which own their ranges
_GENERATORS = {"x": SuperFunction.x, "xi": SuperFunction.xi,
               "th": lambda ctx, j: SuperFunction.constant(
                   ctx, Scalar.theta(ctx.scalar_ctx, j))}

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^(),=]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
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
    """Recursive-descent parser producing SuperFunctions over a context.

    It holds no value rule of its own: ``x<i>``, ``xi<a>`` and ``th<j>`` go
    to their builders, ``sqrt`` and ``gauss`` to ``Scalar.sqrt`` and
    ``SuperFunction.gauss``, and a builder's ValueError becomes a
    ParseError at the atom or argument.
    """

    def __init__(self, text, ctx):
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
                q = _rational(rhs, pos)
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
            self.take()
            kind, exponent, pos = self.take()
            if kind != "int":
                raise ParseError("exponent must be an integer", pos)
            if exponent > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {exponent} is above {MAX_EXPONENT}", pos)
            out = SuperFunction.constant(self.ctx, 1)
            for _ in range(exponent):
                out = self._product(out, value, pos)
            value = out
        return value

    def _product(self, a, b, pos):
        """a * b, refused when it could hold more than MAX_PRODUCT_TERMS
        terms."""
        if len(a.coeffs) * len(b.coeffs) > MAX_PRODUCT_TERMS:
            raise ParseError(f"a product of {len(a.coeffs)} by "
                             f"{len(b.coeffs)} terms is above "
                             f"{MAX_PRODUCT_TERMS} terms", pos)
        return sf_mul(a, b)

    def atom(self):
        kind, value, pos = self.take()
        sctx = self.ctx.scalar_ctx
        if kind == "int":
            return SuperFunction.constant(self.ctx, value)
        if kind == "sym" and value == "(":
            inner = self.expr()
            self.expect_sym(")")
            return inner
        if kind != "name":
            raise ParseError("expected a value", pos)
        m = re.fullmatch(r"(x|xi|th)(\d+)", value)
        if m:
            try:
                return _GENERATORS[m.group(1)](self.ctx, int(m.group(2)))
            except ValueError as exc:
                raise ParseError(str(exc), pos)
        if value == "hbar":
            return SuperFunction.constant(self.ctx, Scalar.hbar(sctx))
        if value == "pi":
            return SuperFunction.constant(self.ctx, Scalar.pi(sctx))
        if value in ("sqrt", "gauss"):
            self.expect_sym("(")
            pos2 = self.peek()[2]
            arg = self.expr()
            self.expect_sym(")")
            if value == "sqrt" and arg == Scalar.pi(sctx):
                return SuperFunction.constant(self.ctx, Scalar.sqrt_pi(sctx))
            r = _rational(arg, pos2)
            # the ring and the constructor own the rules on r
            try:
                if value == "gauss":
                    return SuperFunction.gauss(self.ctx, r)
                return SuperFunction.constant(self.ctx, Scalar.sqrt(sctx, r))
            except ValueError as exc:
                raise ParseError(str(exc), pos2)
        raise ParseError(f"unknown name {value!r}", pos)


def _rational(f, pos):
    scalar = _scalar(f, pos)
    try:
        return scalar.rational_value()
    except ValueError:
        raise ParseError("a rational constant is required here", pos)


def _scalar(f, pos):
    s = f.constant_scalar()
    if s is None:
        raise ParseError("a scalar constant is required here", pos)
    return s


def _parse(text, ctx, rule):
    """``rule(parser)`` applied to the whole of ``text``."""
    parser = _Parser(text, ctx)
    value = rule(parser)
    parser.done()
    return value


def parse_expression(text, ctx):
    """Parse the expression grammar into a canonical SuperFunction."""
    return _parse(text, ctx, _Parser.expr)


def parse_scalar(text, ctx):
    """Parse an expression that must be a scalar constant."""
    return _scalar(_parse(text, ctx, _Parser.expr), 0)


def _call(parser, table, what):
    """Build the call ``NAME`` or ``NAME(arg, ...)`` named in ``table``.

    An argument is an expression, optionally preceded by ``param=``, and
    binds to a parameter as in a Python call.  ``table`` maps a name to
    (builder, ((param, kind, default), ...)): kind "s" takes a scalar
    constant and "f" a function, and a default of None makes the argument
    required.  The builder is called as ``builder(ctx, *values)``.
    """
    kind, name, pos = parser.take()
    if kind != "name" or name not in table:
        raise ParseError(f"expected a {what} name "
                         f"({', '.join(sorted(table))})", pos)
    build, params = table[name]
    names = [param for param, _kind, _default in params]
    bound = {}
    if parser.at_sym("("):
        parser.take()
        keyword = False
        while not parser.at_sym(")"):
            if bound:
                parser.expect_sym(",")
            kind, key, apos = parser.peek()
            if kind == "name" and \
                    parser.tokens[parser.i + 1][:2] == ("sym", "="):
                parser.i += 2
                keyword = True
                if key not in names:
                    raise ParseError(f"{name} has no parameter {key!r}", apos)
            elif keyword:
                raise ParseError("a positional argument follows a keyword "
                                 "argument", apos)
            elif len(bound) == len(names):
                raise ParseError(f"{name} takes at most {len(names)} "
                                 "arguments", apos)
            else:
                key = names[len(bound)]
            if key in bound:
                raise ParseError(f"{name} got {key!r} twice", apos)
            vpos = parser.peek()[2]
            bound[key] = (parser.expr(), vpos)
        parser.take()
    values = []
    for param, kind, default in params:
        if param in bound:
            value, vpos = bound[param]
        elif default is None:
            raise ParseError(f"{name} needs the argument {param!r}", pos)
        else:
            value, vpos = SuperFunction.constant(parser.ctx, default), pos
        values.append(_scalar(value, vpos) if kind == "s" else value)
    return build(parser.ctx, *values)


# The call tables: name -> (builder, ((param, "s" | "f", default), ...)).
# The deformation builders are looked up by name at each call, so that a
# wrapper bound over a module-level name sees the call.
_ZETA = ("zeta", "f", None)
_FORMS = {"m0": (m0_form, ()), "anti": (anti_form, ()),
          "m1": (m1_form, ()), "m3": (m3_form, ()),
          "m23": (m23_form, ()), "mu": (mu_form, ()),
          "moyal": (moyal_form, (("kappa", "s", 1),)),
          "mzeta": (mzeta_form, (_ZETA,)), "jzeta": (jzeta_form, (_ZETA,))}

_DEFORMATIONS = {
    "c1": (lambda ctx, *a: build_C1(*a),
           (("zeta", "f", 0), ("kappa", "s", 1))),
    "c1c": (lambda ctx, *a: build_C1c(*a),
            (("zeta", "f", 0), ("kappa", "s", 1), ("c", "s", 0))),
    "c3": (lambda ctx, *a: build_C3(*a), (("zeta", "f", 0), ("c3", "s", 0))),
    "antieven": (lambda *a: build_anti_even(*a), (("c", "s", 0),)),
    "antiodd": (lambda *a: build_anti_odd(*a), ()),
    "general": (lambda ctx, *a: build_general_odd(*a),
                (("zeta", "f", 0), ("eta", "f", 0), ("h1", "s", 0),
                 ("h2", "s", 0)))}

_T1 = {"zero": (lambda ctx: t1_bar_multiplier(SuperFunction.zero(ctx)), ()),
       "bar": (lambda ctx, *a: t1_bar_multiplier(*a),
               (("z0", "f", None), ("scale", "s", 1))),
       "euler": (t1_euler, (("scale", "s", 1),))}


def parse_cochain(text, ctx):
    """Parse the cochain mini-language into an evaluable 2-cochain."""
    return _parse(text, ctx, _cochain)


def _cochain(parser):
    total = _cochain_term(parser, 1)
    while parser.at_sym("+", "-"):
        sign = -1 if parser.take()[1] == "-" else 1
        total = total + _cochain_term(parser, sign)
    return total


def _cochain_term(parser, sign):
    """One term: scalar factors and exactly one form, joined by '*'."""
    sctx = parser.ctx.scalar_ctx
    scalar = Scalar.rational(sctx, sign)
    form = None
    while True:
        kind, value, pos = parser.peek()
        if kind == "name" and value in _FORMS:
            if form is not None:
                raise ParseError("a term may contain only one form", pos)
            form = _call(parser, _FORMS, "form")
        else:
            scalar = scalar * _scalar(parser.power(), pos)
        if not parser.at_sym("*"):
            break
        parser.take()
    if form is None:
        raise ParseError("expected a form name", parser.peek()[2])
    return form if scalar == Scalar.one(sctx) else form.scaled(scalar)


def parse_deformation(text, ctx):
    """Parse a deformation specification string and build it."""
    return _parse(text, ctx, lambda p: _call(p, _DEFORMATIONS, "deformation"))


def parse_t1(text, ctx):
    """Parse a T1 specification: zero, bar(z0[, scale]) or euler([scale])."""
    return _parse(text, ctx, lambda p: _call(p, _T1, "T1"))


# -- command-line interface ------------------------------------------------

def _build_context(args):
    n_plus, n_minus = args.nplus, args.nminus
    if args.n is not None:
        n_plus = n_minus = args.n
    lambdas = None
    if args.lambdas:
        try:
            lambdas = tuple(int(v) for v in args.lambdas.split(","))
        except ValueError:
            raise ValueError(f"--lambda takes comma-separated ints, got "
                             f"{args.lambdas!r}") from None
    return SymplecticContext(n_plus, n_minus, lambdas, args.k, args.hmax)


def _sample_spec(args):
    return SampleSpec(seed=args.seed, count=args.samples,
                      parity=args.parity, terms=args.terms)


def _write(text, args):
    """Write ``text`` and a newline to ``--output``, or else to stdout."""
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(data, summary, args):
    """Write a JSON report with ``_write`` and its one-line summary to
    stderr; the exit status is 0 when ``data["pass"]``, else 1."""
    _write(json.dumps(data, indent=2, sort_keys=True), args)
    print(summary, file=sys.stderr)
    return 0 if data["pass"] else 1


def _run_equiv(args, ctx):
    defo1 = parse_deformation(args.c1, ctx)
    defo2 = parse_deformation(args.c2, ctx)
    t1 = parse_t1(args.t1, ctx)
    pairs = sample_tuples(_sample_spec(args), ctx, 2)
    report = check_equivalence(defo1, defo2, t1, pairs, order=args.order)
    active = report.details["t1_active_pairs"]
    if report.passed and not active:
        # T1 changes nothing here within --order, so no sample tells it apart
        hint = ("draw more samples" if args.order is None or args.order > 1
                else "T1 acts at hbar^2, so raise --order to 2 or more")
        raise ValueError(f"no sampled pair is T1-active (t1_active_pairs 0 "
                         f"of {len(pairs)}), so the pass would be vacuous; "
                         f"{hint}")
    data = {"check": "equivalence", "pass": report.passed,
            "sample_count": report.sample_count, "t1_active_pairs": active}
    if report.failures:
        _index, (f, g), residual = report.failures[0]
        data["first_failure"] = {"f": f, "g": g, "residual": residual}
    return _emit(data, f"{report.summary()}, t1_active_pairs {active}", args)


def _run_theorem(args, ctx):
    spec = _sample_spec(args)
    zeta = parse_expression(args.zeta, ctx)
    eta = parse_expression(args.eta, ctx)
    h1 = parse_scalar(args.h1, ctx)
    h2 = parse_scalar(args.h2, ctx)
    report = check_constraints(zeta, eta, h1, h2)
    data = {"check": "theorem[multi]", **report.details,
            "pass": report.passed}
    if report.passed:
        jreport = check_jacobi(_general_odd_bracket(zeta, eta, h1, h2), spec)
        data["jacobi"] = jreport.core_dict()
        data["pass"] = jreport.passed
        detail = (f"constraints hold, jacobi {jreport.sample_count} samples, "
                  f"{len(jreport.failures)} failures")
    else:
        detail = "constraints fail: " + _failed_relations(report)
    state = "PASS" if data["pass"] else "FAIL"
    return _emit(data, f"[{state}] theorem[multi]: {detail}", args)


def _value(args, ctx):
    """The function that ``eval`` or ``cochain`` writes."""
    if args.command == "eval":
        return parse_expression(args.expr, ctx)
    form = parse_cochain(args.spec, ctx)
    return form.evaluate(parse_expression(args.f, ctx),
                         parse_expression(args.g, ctx))


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
    (("--seed",), dict(type=int, default=DEFAULT_SEED)),
    (("--samples",), dict(type=int, default=25)),
    (("--parity",), dict(choices=["even", "odd", "any"], default="any")),
    (("--terms",), dict(type=int, default=1,
                        help="terms per sampled function")),
    (("--output",), dict(default="",
                         help="write the output to this path")),
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


@lru_cache(maxsize=1)
def make_parser():
    """The command-line parser.  It is built on the first call and shared
    after it: parsing leaves it unchanged, and building it costs some
    thirty times as much as one parse."""
    ap = _ArgumentParser(
        prog="superdeform",
        description="Exact checks for deformations of Poisson superalgebras")
    _add_common(ap, suppress=False)
    sub = ap.add_subparsers(dest="command", required=True)

    def sub_add(name, help):
        p = sub.add_parser(name, help=help)
        _add_common(p, suppress=True)
        return p

    p = sub_add("eval", help="parse and canonicalize an expression")
    p.add_argument("expr")

    p = sub_add("cochain", help="evaluate a 2-cochain specification")
    p.add_argument("spec")
    p.add_argument("f")
    p.add_argument("g")

    p = sub_add("jacobi", help="J(C,C) = 0 for a deformation, on samples")
    p.add_argument("--deformation", required=True)

    p = sub_add("cocycle", help="d2_ad F = 0 for a cochain, with the "
                "bracket of its grading")
    p.add_argument("--form", required=True)

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
        if args.command == "equiv":
            return _run_equiv(args, ctx)
        if args.command == "theorem":
            return _run_theorem(args, ctx)
        if args.command == "jacobi":
            defo = parse_deformation(args.deformation, ctx)
            report = check_jacobi(defo, _sample_spec(args))
        elif args.command == "cocycle":
            report = check_cocycle(parse_cochain(args.form, ctx),
                                   _sample_spec(args))
        else:
            _write(_value(args, ctx).render(), args)
            return 0
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
