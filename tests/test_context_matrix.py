"""The deformation checks beyond the default context.

Every other Jacobi test runs at h_max = 6 with lambda = +1.  This matrix
pins the same checks at mixed and negative metric signs, other truncation
orders, n_plus = 0, k = 0 and 2, and the antibracket deformations at (2, 2)
and (4, 4), each on a few seeded samples.
"""

from fractions import Fraction

import pytest

from superdeform import (SampleSpec, Scalar, SuperFunction,
                         SymplecticContext, build_anti_even, build_anti_odd,
                         build_C1, build_C3, check_cocycle, check_jacobi,
                         check_signs, m0_form, m3_form, moyal_bracket,
                         mu_form, poisson_bracket, sample_superfunctions,
                         sf_mul)

# (n_plus, n_minus, lambdas, k, h_max)
MIXED_5 = (4, 2, (1, -1), 1, 5)
MIXED_6 = (4, 2, (1, -1), 1, 6)
NEGATIVE_3 = (4, 2, (-1, -1), 1, 3)
ANTI_MIXED = (2, 2, (1, -1), 1, 6)
ANTI_44 = (4, 4, (1, -1, 1, -1), 1, 4)
NO_X = (0, 2, (1, -1), 1, 6)
K0 = (4, 2, (1, -1), 0, 6)
K2 = (4, 2, (1, -1), 2, 6)

SPEC = SampleSpec(seed=5, count=3, max_x_degree=1, terms=2)


def h2(ctx):
    return Scalar.hbar(ctx.scalar_ctx) ** 2


def zeta(ctx):
    """An even zeta in hbar^2 E: hbar^2 x1, or hbar^2 xi1 xi2 without x."""
    if ctx.n_plus:
        return SuperFunction.term(ctx, (1,) + (0,) * (ctx.n_plus - 1),
                                  scalar=h2(ctx))
    return SuperFunction.term(ctx, xi=(1, 2), scalar=h2(ctx))


def c1_jacobi(ctx):
    return check_jacobi(build_C1(zeta(ctx)), SPEC)


def c3_jacobi(ctx):
    return check_jacobi(build_C3(zeta(ctx), h2(ctx)), SPEC)


def m3_cocycle(ctx):
    return check_cocycle(m3_form(ctx), SPEC)


def m0_signs(ctx):
    return check_signs(m0_form(ctx), SPEC)


def antiodd_jacobi(ctx):
    return check_jacobi(build_anti_odd(ctx), SPEC)


def antieven_jacobi(ctx):
    return check_jacobi(build_anti_even(ctx, h2(ctx)), SPEC)


CASES = [(check, context)
         for context in (MIXED_5, MIXED_6, NEGATIVE_3)
         for check in (c1_jacobi, c3_jacobi, m3_cocycle, m0_signs)] + [
    (antiodd_jacobi, ANTI_MIXED), (antieven_jacobi, ANTI_MIXED),
    (antiodd_jacobi, ANTI_44), (antieven_jacobi, ANTI_44),
    (c1_jacobi, NO_X), (c1_jacobi, K0), (c1_jacobi, K2), (m0_signs, K2)]


def _context_id(context):
    n_plus, n_minus, lambdas, k, h_max = context
    signs = "".join("+" if s > 0 else "-" for s in lambdas)
    return f"{n_plus}_{n_minus}{signs}-k{k}-h{h_max}"


def _case_id(case):
    check, context = case
    return f"{check.__name__}-{_context_id(context)}"


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_context_matrix(case):
    check, context = case
    ctx = SymplecticContext(*context)
    report = check(ctx)
    assert report.passed, report.failures[:1]
    assert report.sample_count == SPEC.count
    assert report.context["lambdas"] == list(ctx.lambdas)
    assert report.context["h_max"] == ctx.h_max


# -- the cochain combinators against hand sums of leaf values ---------------

COMBINATOR_CONTEXTS = [(0, 2, (1, -1), 2, 4), (0, 1, (-1,), 0, 4),
                       (2, 2, (-1, 1), 0, 4), (4, 2, (1, -1), 2, 4)]


def _mixed_arguments(ctx):
    """Two mixed-parity Gaussian functions whose bars are nonzero."""
    top = SuperFunction.term(ctx, c=1, xi=tuple(range(1, ctx.n_minus + 1)))
    gauss = SuperFunction.gauss(ctx, 1)
    # a term of the other parity than the top-xi one
    other = gauss if ctx.n_minus % 2 else SuperFunction.term(ctx, c=1,
                                                             xi=(1,))
    f = top * 2 + other
    g = top - other * 3 + gauss * 5
    if ctx.scalar_ctx.k:
        # a theta in the bars, so that a scalar's side matters
        g = g + top.scale_left(Scalar.theta(ctx.scalar_ctx, 1))
    if ctx.n_plus:
        f = f + SuperFunction.term(ctx, (1,) + (0,) * (ctx.n_plus - 1), 1)
        g = g + SuperFunction.term(ctx, (0, 1) + (0,) * (ctx.n_plus - 2), 2,
                                   xi=(1,))
    assert f.eps() is None and g.eps() is None
    return f, g


def _hand(leaf, f, g):
    """sum of leaf(a, b) over the homogeneous components a of f, b of g."""
    out = SuperFunction.zero(f.ctx)
    for a in f.homogeneous_components():
        for b in g.homogeneous_components():
            out = out + leaf(a, b)
    return out


def _left(scalar, value):
    """scalar * value, as a product of functions."""
    return sf_mul(SuperFunction.constant(value.ctx, scalar), value)


@pytest.mark.parametrize("context", COMBINATOR_CONTEXTS,
                         ids=[_context_id(c) for c in COMBINATOR_CONTEXTS])
def test_combinators_match_hand_sums(context):
    ctx = SymplecticContext(*context)
    sctx = ctx.scalar_ctx
    f, g = _mixed_arguments(ctx)
    m3 = m3_form(ctx)
    brackets, pairings = _hand(poisson_bracket, f, g), _hand(m3.fn, f, g)
    assert not brackets.is_zero() and not pairings.is_zero()

    total = m0_form(ctx) + m3
    # m3 has parity n_minus, so the sum has one only for even n_minus
    odd_m3 = ctx.n_minus % 2
    assert (total.name, total.parity) == ("m0+m3", None if odd_m3 else 0)
    assert total.evaluate(f, g) == brackets + pairings

    h2 = Scalar.hbar(sctx) ** 2
    scalars = [(h2, odd_m3)]
    if sctx.k:
        theta = Scalar.theta(sctx, sctx.k)
        scalars += [(theta, 1 - odd_m3), (2 + theta, None)]
    for scalar, parity in scalars:
        scaled = m3.scaled(scalar)
        assert (scaled.name, scaled.parity) == ("scaled(m3)", parity)
        assert scaled.evaluate(f, g) == _left(scalar, pairings)

    pairing = _hand(mu_form(ctx).fn, f, g)
    assert not pairing.is_zero()
    assert mu_form(ctx).evaluate(f, g) == pairing


# -- M(zeta, zeta) = 0 for even zeta, which makes C1c's Z condition hold ----

SELF_BRACKET_CONTEXTS = [(4, 2, (1, -1), 1, 4), (4, 2, (1, -1), 2, 5),
                         (2, 2, (-1, -1), 2, 6), (2, 1, (-1,), 1, 6),
                         (0, 2, (1, -1), 2, 6), (0, 3, (1, -1, 1), 1, 4)]


def _even_functions(ctx):
    """Even sums of two-term samples: an even sample plus theta_1 times an
    odd one and, at k = 2, theta_1 theta_2 times an even one."""
    sctx = ctx.scalar_ctx
    spec = SampleSpec(seed=13, count=4, max_x_degree=2, terms=2,
                      gauss_weights=(1, 2, Fraction(1, 2)))
    even = sample_superfunctions(spec._replace(parity="even"), ctx)
    odd = sample_superfunctions(spec._replace(parity="odd"), ctx)
    out = []
    for e, o in zip(even, odd):
        zeta = e + o.scale_left(Scalar.theta(sctx, 1))
        if sctx.k == 2:
            zeta = zeta + e.scale_left(Scalar.theta(sctx, 1, 2))
        assert zeta.eps() == 0
        out += [e, zeta]
    return out


@pytest.mark.parametrize("context", SELF_BRACKET_CONTEXTS,
                         ids=[_context_id(c) for c in SELF_BRACKET_CONTEXTS])
def test_moyal_self_bracket_of_an_even_function_vanishes(context):
    """Graded antisymmetry gives M(zeta, zeta) = -M(zeta, zeta) for even
    zeta, so build_C1c needs no bracket to know that M(zeta, zeta) + c is
    the constant c; theta-carrying zeta, a negative lambda, n_plus = 0 and
    each kappa included.  The brackets of distinct pairs are not all zero,
    so the functions reach the kernel's channels."""
    ctx = SymplecticContext(*context)
    sctx = ctx.scalar_ctx
    functions = _even_functions(ctx)
    for zeta in functions:
        for kappa in (1, Scalar.hbar(sctx), Fraction(1, 2)):
            assert moyal_bracket(zeta, zeta, kappa).is_zero()
    assert any(not moyal_bracket(f, g).is_zero()
               for f, g in zip(functions, functions[1:]))
