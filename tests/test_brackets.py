"""Unit tests for the Poisson superbracket, antibracket, and Moyal bracket."""

from fractions import Fraction

import pytest

from superdeform import (Scalar, SuperFunction, SymplecticContext,
                         antibracket, bidiff_power, moyal_bracket,
                         poisson_bracket, sf_mul)

from conftest import naive_bidiff, random_superfunction, seeded


def test_canonical_pairs(ctx42):
    x1, x2 = SuperFunction.x(ctx42, 1), SuperFunction.x(ctx42, 2)
    x3, x4 = SuperFunction.x(ctx42, 3), SuperFunction.x(ctx42, 4)
    one = SuperFunction.constant(ctx42, 1)
    assert poisson_bracket(x1, x2) == one
    assert poisson_bracket(x2, x1) == -one
    assert poisson_bracket(x3, x4) == one
    assert poisson_bracket(x1, x3).is_zero()


def test_xi_diagonal(ctx42):
    xi1 = SuperFunction.xi(ctx42, 1)
    xi2 = SuperFunction.xi(ctx42, 2)
    one = SuperFunction.constant(ctx42, 1)
    assert poisson_bracket(xi1, xi1) == one
    assert poisson_bracket(xi1, xi2).is_zero()


def test_xi_metric_signs():
    ctx = SymplecticContext(4, 2, (1, -1), 1, 6)
    xi2 = SuperFunction.xi(ctx, 2)
    assert poisson_bracket(xi2, xi2) == -SuperFunction.constant(ctx, 1)


def test_poisson_graded_antisymmetry(ctx42):
    rng = seeded(21)
    for _ in range(10):
        f = random_superfunction(rng, ctx42, xi_degree=rng.randint(0, 2))
        g = random_superfunction(rng, ctx42, xi_degree=rng.randint(0, 2))
        sign = (-1) ** (f.eps() * g.eps())
        assert poisson_bracket(f, g) == -poisson_bracket(g, f) * sign


def test_poisson_leibniz(ctx42):
    rng = seeded(22)
    for _ in range(8):
        f, g, h = (random_superfunction(rng, ctx42,
                                        xi_degree=rng.randint(0, 2))
                   for _ in range(3))
        sign = (-1) ** (g.eps() * h.eps())
        lhs = poisson_bracket(f, sf_mul(g, h))
        rhs = sf_mul(poisson_bracket(f, g), h) + \
            sf_mul(poisson_bracket(f, h), g) * sign
        assert lhs == rhs


def test_antibracket_pairing(ctx22):
    x1 = SuperFunction.x(ctx22, 1)
    xi1 = SuperFunction.xi(ctx22, 1)
    xi2 = SuperFunction.xi(ctx22, 2)
    one = SuperFunction.constant(ctx22, 1)
    assert antibracket(x1, xi1) == one
    assert antibracket(xi1, x1) == -one
    assert antibracket(x1, xi2).is_zero()


def test_antibracket_needs_square_context(ctx42):
    x1 = SuperFunction.x(ctx42, 1)
    with pytest.raises(ValueError):
        antibracket(x1, x1)


def test_epsilon_antisymmetry(ctx22):
    rng = seeded(23)
    for _ in range(10):
        f = random_superfunction(rng, ctx22, xi_degree=rng.randint(0, 2))
        g = random_superfunction(rng, ctx22, xi_degree=rng.randint(0, 2))
        sign = (-1) ** (f.epsilon() * g.epsilon())
        assert antibracket(f, g) == -antibracket(g, f) * sign


HALF = Fraction(1, 2)


@pytest.mark.parametrize("n_plus, lambdas, p_max, gauss_pool", [
    (4, (1, 1), 3, (0, 1, 2)),
    (4, (1, -1), 3, (0, HALF, 1)),
    (0, (1, 1, -1), 3, (0,)),
    (6, (1,), 3, (0, HALF, 1)),
    (2, (1,), 5, (0, HALF, 2)),
], ids=["ctx42", "lambda_mixed", "no_x_blocks", "three_x_blocks",
        "high_power"])
def test_bidiff_matches_naive_oracle(n_plus, lambdas, p_max, gauss_pool):
    ctx = SymplecticContext(n_plus, len(lambdas), lambdas, 1, 6)
    rng = seeded(7)
    for _ in range(6):
        f = random_superfunction(rng, ctx, terms=2, theta=True,
                                 gauss_pool=gauss_pool)
        g = random_superfunction(rng, ctx, terms=2, theta=True,
                                 gauss_pool=gauss_pool)
        for p in range(1, p_max + 1):
            assert bidiff_power(f, g, p) == naive_bidiff(f, g, p)


def test_bidiff_one_is_poisson(ctx42):
    rng = seeded(8)
    for _ in range(6):
        f = random_superfunction(rng, ctx42, terms=2)
        g = random_superfunction(rng, ctx42, terms=2)
        assert bidiff_power(f, g, 1) == poisson_bracket(f, g)


def test_bidiff_cubic_example(ctx42):
    # three derivatives down a single channel: 3! * 3! = 36
    f = SuperFunction.term(ctx42, (3, 0, 0, 0))
    g = SuperFunction.term(ctx42, (0, 3, 0, 0))
    assert bidiff_power(f, g, 3) == SuperFunction.constant(ctx42, 36)


def test_moyal_closed_form_example(ctx42):
    # M(x1^3, x2^3) = 9 x1^2 x2^2 + hbar^2 * 36/3!
    f = SuperFunction.term(ctx42, (3, 0, 0, 0))
    g = SuperFunction.term(ctx42, (0, 3, 0, 0))
    h2 = Scalar.hbar(ctx42.scalar_ctx, 2, 6)
    expect = SuperFunction.term(ctx42, (2, 2, 0, 0), scalar=9) + \
        SuperFunction.constant(ctx42, h2)
    assert moyal_bracket(f, g) == expect


def test_moyal_reduces_to_poisson_at_order_zero():
    ctx0 = SymplecticContext(4, 2, (1, 1), 1, 0)
    rng = seeded(31)
    for _ in range(8):
        f = random_superfunction(rng, ctx0, terms=2)
        g = random_superfunction(rng, ctx0, terms=2)
        assert moyal_bracket(f, g) == poisson_bracket(f, g)


def _series_oracle(f, g, kappa=1):
    """Truncated sum over odd p of (hbar kappa)^(p-1)/p! bidiff^p, via the
    naive word-by-word path (callers keep p small by a low h_max)."""
    sctx = f.ctx.scalar_ctx
    hk = Scalar.hbar(sctx) * kappa
    total = SuperFunction.zero(f.ctx)
    fact, power = 1, Scalar.one(sctx)
    p = 1
    while not power.is_zero():
        fact *= p
        if p % 2 == 1:
            total = total + naive_bidiff(f, g, p).scale_left(power / fact)
        power = power * hk
        p += 1
    return total


def test_moyal_matches_series_oracle():
    # the plain metric, then lambda = (1, -1) with Gaussian weight 1/2
    for lambdas, gauss_pool in (((1, 1), (1, 2)), ((1, -1), (HALF, 1))):
        ctx = SymplecticContext(4, 2, lambdas, 1, 2)
        rng = seeded(33)
        for _ in range(3):
            f = random_superfunction(rng, ctx, max_x_degree=2, terms=1,
                                     gauss_pool=gauss_pool)
            g = random_superfunction(rng, ctx, max_x_degree=2, terms=1,
                                     gauss_pool=gauss_pool)
            assert moyal_bracket(f, g) == _series_oracle(f, g)


def test_moyal_kappa_scaling():
    # coefficient of bidiff^p is (hbar*kappa)^(p-1)/p!, for kappa = 2 hbar
    # and for fractional kappa, at lambda = (1, 1) and (1, -1)
    rng = seeded(35)
    for lambdas, h_max, kappa, pool, theta in (
            ((1, 1), 4, None, (1,), False),
            ((1, -1), 2, Fraction(-3, 2), (HALF, 1), True),
            ((1, 1), 2, Fraction(2, 3), (0, HALF), True)):
        ctx = SymplecticContext(4, 2, lambdas, 1, h_max)
        if kappa is None:
            kappa = Scalar.hbar(ctx.scalar_ctx, 1, 2)
        f = random_superfunction(rng, ctx, gauss_pool=pool, theta=theta)
        g = random_superfunction(rng, ctx, gauss_pool=pool, theta=theta)
        assert moyal_bracket(f, g, kappa) == _series_oracle(f, g, kappa)


def test_moyal_rejects_theta_kappa(ctx42):
    x1 = SuperFunction.x(ctx42, 1)
    with pytest.raises(ValueError):
        moyal_bracket(x1, x1, Scalar.theta(ctx42.scalar_ctx, 1))


def test_moyal_graded_antisymmetry(ctx42):
    rng = seeded(37)
    for _ in range(4):
        f = random_superfunction(rng, ctx42, xi_degree=rng.randint(0, 2),
                                 gauss_pool=(0, 1))
        g = random_superfunction(rng, ctx42, xi_degree=rng.randint(0, 2),
                                 gauss_pool=(0, 1))
        sign = (-1) ** (f.eps() * g.eps())
        assert moyal_bracket(f, g) == -moyal_bracket(g, f) * sign
