"""Seeded sample generation and the exact property-check harness.

Sampling uses a self-contained 64-bit linear congruential generator,

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64,

so identical SampleSpec values yield bit-identical samples on every platform
and implementation.  All checks compare residuals against the exact zero
function; there is no tolerance anywhere.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .brackets import poisson_bracket
from .cochains import EVEN, ODD, d_ad, grading_parity, jacobiator, m0_form
from .scalars import Scalar, int_if_integral
from .superfunc import SuperFunction

LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
LCG_MASK = (1 << 64) - 1


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


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic description of a sample batch."""

    seed: int = 20240801
    count: int = 50
    max_x_degree: int = 2
    max_xi_degree: int = 2
    gauss_weights: tuple = (1, 2)
    coeff_pool: tuple = (-3, -2, -1, 1, 2, 3)
    parity: str = "any"      # "even" | "odd" | "any"
    klass: str = "D"         # "D" | "E"
    terms: int = 1


def sample_superfunctions(spec, ctx):
    """The deterministic sample list for (spec, ctx).

    Each sample is parity-homogeneous whenever a parity filter is set (and
    in fact always, since every sample uses a single xi-degree).
    """
    max_xi = min(spec.max_xi_degree, ctx.n_minus)
    if spec.parity == "odd" and max_xi < 1:
        raise ValueError("odd samples need at least one xi variable")
    rng = LCG(spec.seed)
    out = []
    for _ in range(spec.count):
        if spec.parity == "even":
            degrees = [d for d in range(0, max_xi + 1) if d % 2 == 0]
        elif spec.parity == "odd":
            degrees = [d for d in range(0, max_xi + 1) if d % 2 == 1]
        else:
            degrees = list(range(0, max_xi + 1))
        deg = rng.choice(degrees)
        f = SuperFunction.zero(ctx)
        for _t in range(spec.terms):
            xexp = tuple(rng.randint(0, spec.max_x_degree)
                         for _ in range(ctx.n_plus))
            if spec.klass == "D" and ctx.n_plus > 0:
                c = rng.choice(spec.gauss_weights)
            else:
                c = rng.choice((0,) + tuple(spec.gauss_weights))
            c = int_if_integral(Fraction(c))
            xi = []
            while len(xi) < deg:
                a = rng.randint(1, ctx.n_minus)
                if a not in xi:
                    xi.append(a)
            coeff = Scalar.rational(ctx.scalar_ctx, rng.choice(spec.coeff_pool))
            f = f + SuperFunction(ctx, {(xexp, c, tuple(sorted(xi))): coeff})
        out.append(f)
    return out


def sample_tuples(spec, ctx, size):
    """Consecutive samples grouped into tuples of the given size."""
    wide = SampleSpec(**{**spec.__dict__, "count": spec.count * size})
    flat = sample_superfunctions(wide, ctx)
    return [tuple(flat[i * size + j] for j in range(size))
            for i in range(spec.count)]


@dataclass
class VerificationReport:
    """Outcome of one exact check over a sample batch."""

    check: str
    context: dict
    sample_count: int
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

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

    def to_json(self, with_elapsed=True):
        data = self.core_dict()
        if with_elapsed:
            data["elapsed"] = self.elapsed
        return json.dumps(data, indent=2, sort_keys=True)

    def summary(self):
        state = "PASS" if self.passed else "FAIL"
        return (f"[{state}] {self.check}: {self.sample_count} samples, "
                f"{len(self.failures)} failures")


def _context_dict(ctx):
    return {"n_plus": ctx.n_plus, "n_minus": ctx.n_minus,
            "lambdas": list(ctx.lambdas), "k": ctx.scalar_ctx.k,
            "h_max": ctx.h_max}


def _run(check, ctx, pieces, evaluate, details=None):
    t0 = time.monotonic()
    failures = []
    for index, args in enumerate(pieces):
        residual = evaluate(*args)
        if not residual.is_zero():
            failures.append((index,
                             [a.render() for a in args],
                             residual.render()))
    return VerificationReport(check, _context_dict(ctx), len(pieces),
                              failures, details or {},
                              time.monotonic() - t0)


# -- the named checks ------------------------------------------------------

def check_jacobi(defo, spec):
    """J(C,C) = 0 on sampled triples, with the residual split by
    theta-grade so the J(C0,C0) and J(C0, theta C1) components are
    reported separately."""
    ctx = defo.ctx
    J = jacobiator(defo.bracket, grading=defo.grading)
    triples = sample_tuples(spec, ctx, 3)
    t0 = time.monotonic()
    failures = []
    grade_fail = {}
    k = ctx.scalar_ctx.k
    for index, (f, g, h) in enumerate(triples):
        residual = J.evaluate(f, g, h)
        if residual.is_zero():
            continue
        failures.append((index, [f.render(), g.render(), h.render()],
                         residual.render()))
        for w in range(k + 1):
            part = residual.theta_grade_part(w)
            if not part.is_zero():
                grade_fail[str(w)] = grade_fail.get(str(w), 0) + 1
    details = {"theta_grade_failures": grade_fail,
               "flavor": defo.flavor}
    return VerificationReport(f"jacobi[{defo.flavor}]", _context_dict(ctx),
                              len(triples), failures, details,
                              time.monotonic() - t0)


def check_cocycle(form, spec, bracket=None):
    """d2_ad form = 0 on sampled triples."""
    ctx = form.ctx
    d = d_ad(form, bracket=bracket)
    triples = sample_tuples(spec, ctx, 3)
    return _run(f"cocycle[{form.name}]", ctx, triples, d.evaluate)


def check_d_squared(form, spec, bracket=None):
    """d3_ad(d2_ad form) = 0 on sampled 4-tuples."""
    ctx = form.ctx
    dd = d_ad(d_ad(form, bracket=bracket), bracket=bracket)
    quads = sample_tuples(spec, ctx, 4)
    return _run(f"d_squared[{form.name}]", ctx, quads, dd.evaluate)


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
    pairs = sample_tuples(spec, ctx, 2)

    def rule1(f, g):
        return form.evaluate(f.scale_left(theta), g) - \
            form.evaluate(f, g).scale_left(theta) * sign

    def rule2(f, g):
        return form.evaluate(f, g.scale_left(theta)) - \
            form.evaluate(f.scale_right(theta), g) * mid_sign

    def rule3(f, g):
        return form.evaluate(f, g.scale_right(theta)) - \
            form.evaluate(f, g).scale_right(theta)

    t0 = time.monotonic()
    failures = []
    for index, (f, g) in enumerate(pairs):
        for name, rule in (("left", rule1), ("middle", rule2),
                           ("right", rule3)):
            residual = rule(f, g)
            if not residual.is_zero():
                failures.append((index, [name, f.render(), g.render()],
                                 residual.render()))
    return VerificationReport(f"signs[{form.name}]", _context_dict(ctx),
                              len(pairs), failures, {},
                              time.monotonic() - t0)


def check_grading(defo, spec):
    """The bracket adds parities: in the grading of the deformation,
    parity(C(f,g)) = parity(f) + parity(g) on homogeneous samples."""
    ctx = defo.ctx
    pairs = sample_tuples(spec, ctx, 2)
    t0 = time.monotonic()
    failures = []
    for index, (f, g) in enumerate(pairs):
        value = defo.evaluate(f, g)
        if value.is_zero():
            continue
        expect = None
        ef = grading_parity(f, defo.grading)
        eg = grading_parity(g, defo.grading)
        if ef is not None and eg is not None:
            expect = (ef + eg) % 2
        got = grading_parity(value, defo.grading)
        if expect is not None and got is not None and got != expect:
            failures.append((index, [f.render(), g.render()],
                             f"eps {got} != {expect}"))
    return VerificationReport(f"grading[{defo.flavor}]", _context_dict(ctx),
                              len(pairs), failures, {},
                              time.monotonic() - t0)


def check_bar_vanishing(spec, ctx):
    """integral_bar annihilates Poisson brackets of D-class pairs.

    The property is specific to the even bracket: the antibracket differs
    from the odd Laplacian of a product by single-Laplacian terms whose
    integrals survive, so no analogous statement is checked for it.
    """
    pairs = sample_tuples(spec, ctx, 2)

    def residual(f, g):
        value = poisson_bracket(f, g).integral_bar(mod_centralizer=True)
        return SuperFunction.constant(ctx, value)

    return _run("bar_vanishing", ctx, pairs, residual)
