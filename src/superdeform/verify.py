"""Seeded sample generation and the exact property-check harness.

Sampling uses a self-contained 64-bit linear congruential generator,

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64,

so identical SampleSpec values yield bit-identical samples on every platform
and implementation.  All checks compare residuals against the exact zero
function; there is no tolerance anywhere.
"""

import time
from collections import namedtuple
from collections.abc import Sequence

from .brackets import poisson_bracket
from .cochains import ODD, _theta1, d_ad, grading_parity, jacobiator
from .scalars import accumulate, exact
from .superfunc import _RATIONAL, SuperFunction

LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
LCG_MASK = (1 << 64) - 1
# every sample has one xi-degree up to this, and coefficients from the pool
MAX_XI_DEGREE = 2
COEFF_POOL = (-3, -2, -1, 1, 2, 3)
DEFAULT_SEED = 20240801


class SampleSpec(namedtuple(
        "SampleSpec", "seed count max_x_degree gauss_weights parity terms",
        defaults=(DEFAULT_SEED, 50, 2, (1, 2), "any", 1))):
    """Deterministic description of a sample batch: an immutable value,
    equal and hashed by its fields.  ``parity`` is "even", "odd" or "any".

    A spec that could draw no sample, or not the samples it names, is
    refused with ValueError: a non-int ``seed``, ``count``, ``terms`` or
    ``max_x_degree``, ``count`` and ``terms`` below 1, a negative
    ``max_x_degree``, weights that are not a sequence, no Gaussian weight
    or one negative or not ``exact`` (each named as the field
    ``SampleSpec.gauss_weights``), or a ``parity`` other than "even", "odd"
    and "any".  The sampler writes keys with no constructor between, so
    this is its check, made by every way of making a spec, ``_replace``
    and ``_make`` included.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, least in (("seed", None), ("count", 1), ("terms", 1),
                            ("max_x_degree", 0)):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"SampleSpec.{name} must be an int, "
                                 f"got {value!r}")
            if least is not None and value < least:
                raise ValueError(f"SampleSpec.{name} must be at least "
                                 f"{least}, got {value}")
        weights = self.gauss_weights
        try:
            # a set or an iterator is refused: the sampler reads the
            # weights again, in order
            lowest = (min(map(exact, weights), default=-1)
                      if isinstance(weights, Sequence)
                      and not isinstance(weights, str) else -1)
        except ValueError:
            lowest = -1  # a weight that is not exact
        if lowest < 0:
            raise ValueError(f"SampleSpec.gauss_weights must be nonnegative "
                             f"exact weights, at least one, got "
                             f"{self.gauss_weights!r}")
        if self.parity not in ("even", "odd", "any"):
            raise ValueError(f"SampleSpec.parity must be 'even', 'odd' or "
                             f"'any', got {self.parity!r}")
        return self

    # the namedtuple's own _make (and so _replace) skips __new__
    _make = classmethod(lambda cls, fields: cls(*fields))


def sample_superfunctions(spec, ctx):
    """The deterministic sample list for (spec, ctx).

    Each sample is parity-homogeneous whenever a parity filter is set (and
    in fact always, since every sample uses a single xi-degree).
    """
    max_xi = min(MAX_XI_DEGREE, ctx.n_minus)
    if spec.parity == "odd" and max_xi < 1:
        raise ValueError("odd samples need at least one xi variable")
    # a sample has one xi-degree, odd exactly for an odd parity
    degrees = [d for d in range(max_xi + 1)
               if spec.parity == "any" or d % 2 == (spec.parity == "odd")]
    # with x variables every term has a Gaussian weight (class D); without
    # them every weight is 0, as the constructor stores it
    weights = tuple(map(exact, spec.gauss_weights))
    weights = weights if ctx.n_plus else (0,)
    # the generator of the module doc, with the state in a local: each
    # step is one word, and a draw from a span of s values is
    # (word >> 33) % s
    state = spec.seed & LCG_MASK
    n_plus, n_minus = ctx.n_plus, ctx.n_minus
    x_span = spec.max_x_degree + 1
    out = []
    for _ in range(spec.count):
        state = (LCG_MULT * state + LCG_INC) & LCG_MASK
        deg = degrees[(state >> 33) % len(degrees)]
        # the sum of the drawn terms, merged as the sum of functions would
        coeffs = {}
        for _t in range(spec.terms):
            xexp = []
            for _a in range(n_plus):
                state = (LCG_MULT * state + LCG_INC) & LCG_MASK
                xexp.append((state >> 33) % x_span)
            state = (LCG_MULT * state + LCG_INC) & LCG_MASK
            c = weights[(state >> 33) % len(weights)]
            xi = []
            while len(xi) < deg:
                state = (LCG_MULT * state + LCG_INC) & LCG_MASK
                a = 1 + (state >> 33) % n_minus
                if a not in xi:
                    xi.append(a)
            state = (LCG_MULT * state + LCG_INC) & LCG_MASK
            accumulate(coeffs, (tuple(xexp), c, tuple(sorted(xi)))
                       + _RATIONAL, COEFF_POOL[(state >> 33) % len(COEFF_POOL)])
        out.append(SuperFunction._of(ctx, coeffs))
    return out


def sample_tuples(spec, ctx, size):
    """Consecutive samples grouped into tuples of the given size."""
    if type(size) is not int or size < 1:
        raise ValueError(f"sample_tuples size must be an int of at least 1, "
                         f"got {size!r}")
    wide = spec._replace(count=spec.count * size)
    flat = sample_superfunctions(wide, ctx)
    return [tuple(flat[i * size + j] for j in range(size))
            for i in range(spec.count)]


class VerificationReport:
    """Outcome of one exact check over a sample batch."""

    def __init__(self, check, context, sample_count, failures=None,
                 details=None, elapsed=0.0):
        self.check = check
        self.context = context
        self.sample_count = sample_count
        self.failures = [] if failures is None else failures
        self.details = {} if details is None else details
        self.elapsed = elapsed

    @property
    def passed(self):
        return not self.failures

    def core_dict(self):
        """The reproducible part of the report (no timing)."""
        return {
            "check": self.check,
            "context": self.context,
            "sample_count": self.sample_count,
            "pass": self.passed,
            "failures": [list(f) for f in self.failures],
            "details": self.details,
        }

    def summary(self):
        state = "PASS" if self.passed else "FAIL"
        return (f"[{state}] {self.check}: {self.sample_count} samples, "
                f"{len(self.failures)} failures")

    def __repr__(self):
        return f"<VerificationReport {self.summary()}>"


def _run(check, ctx, pieces, rule, details=None):
    """Apply ``rule`` to every sample tuple and report the failures.
    ``rule(*args)`` yields one (labels, text) pair per rule the sample
    breaks; its failure record is (index, labels + the rendered arguments,
    text)."""
    t0 = time.monotonic()
    failures = []
    for index, args in enumerate(pieces):
        for labels, text in rule(*args):
            failures.append((index, [*labels, *(a.render() for a in args)],
                             text))
    context = {**ctx._asdict(), "lambdas": list(ctx.lambdas)}
    return VerificationReport(check, context, len(pieces), failures,
                              details or {}, time.monotonic() - t0)


def _vanishes(evaluate):
    """The rule that ``evaluate(*args)`` is the zero function."""
    def rule(*args):
        residual = evaluate(*args)
        if not residual.is_zero():
            yield (), residual.render()
    return rule


# -- the named checks ------------------------------------------------------

def check_jacobi(defo, spec):
    """J(C,C) = 0 on sampled triples of the bracket C = ``defo``, with the
    residual split by theta-grade so the J(C0,C0) and J(C0, theta C1)
    components are reported separately."""
    ctx = defo.ctx
    J = jacobiator(defo)
    grade_fail = {}

    def rule(f, g, h):
        residual = J.evaluate(f, g, h)
        if residual.is_zero():
            return
        for w in range(ctx.scalar_ctx.k + 1):
            if not residual.theta_grade_part(w).is_zero():
                grade_fail[str(w)] = grade_fail.get(str(w), 0) + 1
        yield (), residual.render()

    return _run(f"jacobi[{defo.name}]", ctx, sample_tuples(spec, ctx, 3),
                rule, {"theta_grade_failures": grade_fail,
                       "flavor": defo.name})


def check_cocycle(form, spec, bracket=None):
    """d2_ad form = 0 on sampled triples."""
    ctx = form.ctx
    d = d_ad(form, bracket=bracket)
    triples = sample_tuples(spec, ctx, 3)
    return _run(f"cocycle[{form.name}]", ctx, triples, _vanishes(d.evaluate))


def check_d_squared(form, spec, bracket=None):
    """d3_ad(d2_ad form) = 0 on sampled 4-tuples."""
    ctx = form.ctx
    d = d_ad(form, bracket=bracket)
    dd = d_ad(d, bracket=d.params["bracket"])
    quads = sample_tuples(spec, ctx, 4)
    return _run(f"d_squared[{form.name}]", ctx, quads, _vanishes(dd.evaluate))


def check_signs(form, spec):
    """The three factorization rules for an odd parameter theta:

        M(th f, g) = (-1)^{eps(M)} th M(f, g)
        M(f, th g) = M(f th, g)
        M(f, g th) = M(f, g) th

    The middle rule follows from the first one together with graded
    antisymmetry in the grading the form is antisymmetric in; for forms of
    the reversed-parity theory the parity shift contributes one extra sign.
    """
    ctx = form.ctx
    theta = _theta1(ctx)
    if form.parity is None:
        raise ValueError(f"{form.name} has undefined parity")
    sign = (-1) ** form.parity
    mid_sign = -1 if form.grading == ODD else 1
    M = form.evaluate

    def rule(f, g):
        fg = M(f, g)
        tf, tg = f.scale_left(theta), g.scale_left(theta)
        ft, gt = f.scale_right(theta), g.scale_right(theta)
        tf_g, f_tg = M(tf, g), M(f, tg)
        # an argument equal to one already evaluated reuses its value
        ft_g = tf_g if ft == tf else M(ft, g)
        f_gt = f_tg if gt == tg else M(f, gt)
        for name, residual in (
                ("left", tf_g - fg.scale_left(theta) * sign),
                ("middle", f_tg - ft_g * mid_sign),
                ("right", f_gt - fg.scale_right(theta))):
            if not residual.is_zero():
                yield (name,), residual.render()

    return _run(f"signs[{form.name}]", ctx, sample_tuples(spec, ctx, 2),
                rule)


def check_grading(defo, spec):
    """The bracket adds parities: in the grading of the deformation,
    parity(C(f,g)) = parity(f) + parity(g) on homogeneous samples.  A
    nonzero value of mixed parity fails."""
    ctx, grading = defo.ctx, defo.grading

    def rule(f, g):
        value = defo.evaluate(f, g)
        ef, eg = grading_parity(f, grading), grading_parity(g, grading)
        if value.is_zero() or ef is None or eg is None:
            return
        got, expect = grading_parity(value, grading), (ef + eg) % 2
        if got != expect:
            yield (), f"eps {'mixed' if got is None else got} != {expect}"

    return _run(f"grading[{defo.name}]", ctx, sample_tuples(spec, ctx, 2),
                rule)


def check_bar_vanishing(spec, ctx):
    """integral_bar annihilates Poisson brackets of D-class pairs.

    The property is specific to the even bracket: the antibracket differs
    from the odd Laplacian of a product by single-Laplacian terms whose
    integrals survive, so no analogous statement is checked for it.
    """
    def residual(f, g):
        value = poisson_bracket(f, g).integral_bar()
        return SuperFunction.constant(ctx, value)

    return _run("bar_vanishing", ctx, sample_tuples(spec, ctx, 2),
                _vanishes(residual))
