"""The deformation checks beyond the default context.

Every other Jacobi test runs at h_max = 6 with lambda = +1.  This matrix
pins the same checks at mixed and negative metric signs, other truncation
orders, n_plus = 0, and k = 0 and 2, each on a few seeded samples.
"""

import pytest

from superdeform import (SampleSpec, Scalar, SuperFunction,
                         SymplecticContext, build_anti_even, build_anti_odd,
                         build_C1, build_C3, check_cocycle, check_jacobi,
                         check_signs, m0_form, m3_form)

# (n_plus, n_minus, lambdas, k, h_max)
MIXED_5 = (4, 2, (1, -1), 1, 5)
MIXED_6 = (4, 2, (1, -1), 1, 6)
NEGATIVE_3 = (4, 2, (-1, -1), 1, 3)
ANTI_MIXED = (2, 2, (1, -1), 1, 6)
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
    (c1_jacobi, NO_X), (c1_jacobi, K0), (c1_jacobi, K2), (m0_signs, K2)]


def _case_id(case):
    check, (n_plus, n_minus, lambdas, k, h_max) = case
    signs = "".join("+" if s > 0 else "-" for s in lambdas)
    return f"{check.__name__}-{n_plus}_{n_minus}{signs}-k{k}-h{h_max}"


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_context_matrix(case):
    check, context = case
    ctx = SymplecticContext(*context)
    report = check(ctx)
    assert report.passed, report.failures[:1]
    assert report.sample_count == SPEC.count
    assert report.context["lambdas"] == list(ctx.lambdas)
    assert report.context["h_max"] == ctx.h_max
