"""Seeded sample generation and the exact property-check harness.

Sampling uses a self-contained 64-bit linear congruential generator,

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64,

so identical SampleSpec values yield bit-identical samples on every platform
and implementation.  All checks compare residuals against the exact zero
function; there is no tolerance anywhere.
"""

from __future__ import annotations

import time
from collections import namedtuple

from .brackets import poisson_bracket
from .cochains import EVEN, ODD, d_ad, grading_parity, jacobiator, m0_form
from .scalars import Scalar, accumulate
from .superfunc import SuperFunction

LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
LCG_MASK = (1 << 64) - 1
# every sample has one xi-degree up to this, and coefficients from the pool
MAX_XI_DEGREE = 2
COEFF_POOL = (-3, -2, -1, 1, 2, 3)
DEFAULT_SEED = 20240801


class LCG:
    """The documented 64-bit linear congruential generator."""

    def __init__(self, seed):
        self.state = seed & LCG_MASK

    def next_word(self):
        self.state = (LCG_MULT * self.state + LCG_INC) & LCG_MASK
        return self.state

    def randint(self, lo, hi):
        """Uniform-ish integer in [lo, hi] (top bits of the next word)."""
        span = hi - lo + 1
        return lo + (self.next_word() >> 33) % span

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]


class SampleSpec(namedtuple(
        "SampleSpec", "seed count max_x_degree gauss_weights parity terms",
        defaults=(DEFAULT_SEED, 50, 2, (1, 2), "any", 1))):
    """Deterministic description of a sample batch: an immutable value,
    equal and hashed by its fields.  ``parity`` is "even", "odd" or "any".

    A spec that could draw no sample, or not the samples it names, is
    refused with ValueError: ``count`` and ``terms`` below 1, a negative
    ``max_x_degree``, no or a negative Gaussian weight, or a ``parity``
    other than "even", "odd" and "any".  Every way of making a spec checks
    this, ``_replace`` and ``_make`` included.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("count", "terms"):
            if getattr(self, name) < 1:
                raise ValueError(f"SampleSpec.{name} must be at least 1, "
                                 f"got {getattr(self, name)}")
        if self.max_x_degree < 0:
            raise ValueError(f"SampleSpec.max_x_degree must be nonnegative, "
                             f"got {self.max_x_degree}")
        if not self.gauss_weights or min(self.gauss_weights) < 0:
            raise ValueError(f"SampleSpec.gauss_weights must be nonnegative "
                             f"weights, at least one, got "
                             f"{self.gauss_weights!r}")
        if self.parity not in ("even", "odd", "any"):
            raise ValueError(f"SampleSpec.parity must be 'even', 'odd' or "
                             f"'any', got {self.parity!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        # the namedtuple's own _make (and so _replace) skips __new__
        return cls(*iterable)


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
    # with x variables every term has a Gaussian weight (class D)
    weights = tuple(spec.gauss_weights)
    weights = weights if ctx.n_plus else (0,) + weights
    rng = LCG(spec.seed)
    out = []
    for _ in range(spec.count):
        deg = rng.choice(degrees)
        # the sum of the drawn terms, merged as the sum of functions would
        terms = {}
        for _t in range(spec.terms):
            xexp = tuple(rng.randint(0, spec.max_x_degree)
                         for _ in range(ctx.n_plus))
            c = rng.choice(weights)
            xi = []
            while len(xi) < deg:
                a = rng.randint(1, ctx.n_minus)
                if a not in xi:
                    xi.append(a)
            accumulate(terms, (xexp, c, tuple(sorted(xi))),
                       rng.choice(COEFF_POOL))
        out.append(SuperFunction(ctx, terms))
    return out


def sample_tuples(spec, ctx, size):
    """Consecutive samples grouped into tuples of the given size."""
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


def _context_dict(ctx):
    return {"n_plus": ctx.n_plus, "n_minus": ctx.n_minus,
            "lambdas": list(ctx.lambdas), "k": ctx.scalar_ctx.k,
            "h_max": ctx.h_max}


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
    return VerificationReport(check, _context_dict(ctx), len(pieces),
                              failures, details or {},
                              time.monotonic() - t0)


def _vanishes(evaluate):
    """The rule that ``evaluate(*args)`` is the zero function."""
    def rule(*args):
        residual = evaluate(*args)
        if not residual.is_zero():
            yield (), residual.render()
    return rule


# -- the named checks ------------------------------------------------------

def check_jacobi(defo, spec):
    """J(C,C) = 0 on sampled triples, with the residual split by
    theta-grade so the J(C0,C0) and J(C0, theta C1) components are
    reported separately."""
    ctx = defo.bracket.ctx
    J = jacobiator(defo.bracket)
    grade_fail = {}

    def rule(f, g, h):
        residual = J.evaluate(f, g, h)
        if residual.is_zero():
            return
        for w in range(ctx.scalar_ctx.k + 1):
            if not residual.theta_grade_part(w).is_zero():
                grade_fail[str(w)] = grade_fail.get(str(w), 0) + 1
        yield (), residual.render()

    return _run(f"jacobi[{defo.flavor}]", ctx, sample_tuples(spec, ctx, 3),
                rule, {"theta_grade_failures": grade_fail,
                       "flavor": defo.flavor})


def check_cocycle(form, spec, bracket=None):
    """d2_ad form = 0 on sampled triples."""
    ctx = form.ctx
    d = d_ad(form, bracket=bracket)
    triples = sample_tuples(spec, ctx, 3)
    return _run(f"cocycle[{form.name}]", ctx, triples, _vanishes(d.evaluate))


def check_d_squared(form, spec, bracket=None):
    """d3_ad(d2_ad form) = 0 on sampled 4-tuples."""
    ctx = form.ctx
    dd = d_ad(d_ad(form, bracket=bracket), bracket=bracket)
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
    if ctx.scalar_ctx.k < 1:
        raise ValueError("sign rules need an odd parameter (k >= 1)")
    if form.parity is None:
        raise ValueError(f"{form.name} has no defined parity")
    theta = Scalar.theta(ctx.scalar_ctx, 1)
    sign = (-1) ** form.parity
    mid_sign = -1 if form.grading == ODD else 1
    M = form.evaluate

    def rule(f, g):
        for name, residual in (
                ("left", M(f.scale_left(theta), g)
                 - M(f, g).scale_left(theta) * sign),
                ("middle", M(f, g.scale_left(theta))
                 - M(f.scale_right(theta), g) * mid_sign),
                ("right", M(f, g.scale_right(theta))
                 - M(f, g).scale_right(theta))):
            if not residual.is_zero():
                yield (name,), residual.render()

    return _run(f"signs[{form.name}]", ctx, sample_tuples(spec, ctx, 2),
                rule)


def check_grading(defo, spec):
    """The bracket adds parities: in the grading of the deformation,
    parity(C(f,g)) = parity(f) + parity(g) on homogeneous samples.  A
    nonzero value of mixed parity fails."""
    ctx, grading = defo.bracket.ctx, defo.bracket.grading

    def rule(f, g):
        value = defo.evaluate(f, g)
        ef, eg = grading_parity(f, grading), grading_parity(g, grading)
        if value.is_zero() or ef is None or eg is None:
            return
        got, expect = grading_parity(value, grading), (ef + eg) % 2
        if got != expect:
            yield (), f"eps {'mixed' if got is None else got} != {expect}"

    return _run(f"grading[{defo.flavor}]", ctx, sample_tuples(spec, ctx, 2),
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
