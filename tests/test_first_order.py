"""The first-order kernels against their compositional definitions.

``poisson_bracket``, ``antibracket``, ``number_z``, ``euler_E``,
``one_minus_number_xi``, ``delta_op`` and ``integral_bar`` act term by term
in closed form.  The oracles here build the same operators the long way, one
intermediate SuperFunction at a time from per-variable derivatives and
``sf_mul`` (and the integral from products of one-dimensional
``gaussian_moment``s), over the contexts of the context matrix and a few
more: metric signs -1, n_plus = 0, k in {0, 2}, Gaussian weights 0, 1/2, 1
and 2, and theta and hbar coefficients.
"""

from fractions import Fraction

import pytest

from superdeform import (Scalar, SuperFunction, SymplecticContext,
                         antibracket, poisson_bracket, sf_mul)

from conftest import gaussian_moment, is_clean, omega_channels, seeded
from test_context_matrix import (ANTI_MIXED, K0, K2, MIXED_5, NEGATIVE_3,
                                 NO_X)

WEIGHTS = (0, Fraction(1, 2), 1, 2)
# (n_plus, n_minus, lambdas, k, h_max)
CONTEXTS = [MIXED_5, NEGATIVE_3, NO_X, K0, K2, ANTI_MIXED,
            (2, 2, (-1, -1), 2, 6), (4, 4, (1, -1, 1, -1), 0, 6),
            (6, 1, (-1,), 0, 6)]
SQUARE = [c for c in CONTEXTS if c[0] == c[1]]
# metric signs -1, n_plus = 0, k = 2 and h_max != 6, and three x-pairs
REACH = [MIXED_5, NEGATIVE_3, NO_X, K2, (6, 1, (-1,), 0, 6)]
# square contexts with a metric sign -1, k in {0, 2} and h_max 4
BV = [(2, 2, (1, -1), 0, 4), (2, 2, (-1, 1), 2, 4),
      (4, 4, (1, -1, 1, 1), 2, 4), (4, 4, (-1, 1, -1, 1), 0, 4)]


def _ids(contexts):
    return [f"{n_plus}_{n_minus}{''.join('+-'[s < 0] for s in lambdas)}"
            f"-k{k}-h{h_max}"
            for n_plus, n_minus, lambdas, k, h_max in contexts]


def sample(rng, ctx, top=False, degree=2, weights=WEIGHTS):
    """One to three terms with theta and hbar coefficients, x exponents up
    to ``degree`` and Gaussian weights from ``weights``; ``top`` puts most
    terms on the top xi monomial with even exponents and c > 0, where the
    integral is nonzero."""
    sctx = ctx.scalar_ctx
    out = SuperFunction.zero(ctx)
    for _ in range(rng.randint(1, 3)):
        if top and rng.random() < 0.7:
            xexp = tuple(2 * rng.randint(0, 1) for _ in range(ctx.n_plus))
            c, xi = rng.choice(WEIGHTS[1:]), tuple(range(1, ctx.n_minus + 1))
        else:
            xexp = tuple(rng.randint(0, degree) for _ in range(ctx.n_plus))
            c = rng.choice(WEIGHTS[1:] if top else weights)
            xi = tuple(sorted(rng.sample(range(1, ctx.n_minus + 1),
                                         rng.randint(0, ctx.n_minus))))
        s = Scalar.rational(sctx, Fraction(rng.choice([-3, -1, 1, 2]),
                                           rng.choice([1, 2])))
        if rng.random() < 0.4:
            s = s * Scalar.hbar(sctx, rng.randint(1, 2))
        for j in range(1, ctx.k + 1):
            if rng.random() < 0.4:
                s = s * Scalar.theta(sctx, j)
        if rng.random() < 0.3:
            s = s + Scalar.rational(sctx, 1)
        out = out + SuperFunction.term(ctx, xexp, c, xi, s)
    return out


# -- the compositional definitions ------------------------------------------


def z_vars(ctx):
    """The collective variables z_0..z_(n_z - 1): x_1..x_n, then xi_1..."""
    return ([SuperFunction.x(ctx, i) for i in range(1, ctx.n_plus + 1)]
            + [SuperFunction.xi(ctx, a) for a in range(1, ctx.n_minus + 1)])


def number_z_oracle(f):
    """Sum over all variables of z_a times the left derivative."""
    out = SuperFunction.zero(f.ctx)
    for a, z in enumerate(z_vars(f.ctx)):
        out = out + sf_mul(z, f.left_deriv(a))
    return out


def number_xi_oracle(f):
    out, zs = SuperFunction.zero(f.ctx), z_vars(f.ctx)
    for a in range(f.ctx.n_plus, f.ctx.n_z):
        out = out + sf_mul(zs[a], f.left_deriv(a))
    return out


def delta_oracle(f):
    """Sum over i of d/dx_i d/dxi_i."""
    n = f.ctx.n_plus
    out = SuperFunction.zero(f.ctx)
    for i in range(n):
        out = out + f.left_deriv(n + i).left_deriv(i)
    return out


def poisson_oracle(f, g):
    """Sum over the metric channels of (f <-d_a) omega^{ab} (d_b g)."""
    out = SuperFunction.zero(f.ctx)
    for a, b, w in omega_channels(f.ctx):
        out = out + sf_mul(f.right_deriv(a), g.left_deriv(b)) * w
    return out


def anti_oracle(f, g):
    """(f <-d_{x_i})(d_{xi_i} g) - (f <-d_{xi_i})(d_{x_i} g) over i."""
    n = f.ctx.n_plus
    out = SuperFunction.zero(f.ctx)
    for i in range(n):
        out = out + sf_mul(f.right_deriv(i), g.left_deriv(n + i))
        out = out - sf_mul(f.right_deriv(n + i), g.left_deriv(i))
    return out


def homogeneous(f, parity):
    """The terms of f of Grassmann parity ``parity`` (xi-degree plus
    theta-weight), read from the ``terms`` view."""
    out = {}
    for (xexp, c, xi), s in f.terms.items():
        part = s._where(lambda key: (len(xi) + key[1].bit_count()) % 2
                        == parity)
        if part:
            out[xexp, c, xi] = part
    return SuperFunction(f.ctx, out)


def integral_oracle(f):
    """Per term, the product of one-dimensional Gaussian moments."""
    ctx = f.ctx
    top = tuple(range(1, ctx.n_minus + 1))
    total = Scalar.zero(ctx.scalar_ctx)
    for (xexp, c, xi), s in f.terms.items():
        if xi == top:
            moment = Scalar.one(ctx.scalar_ctx)
            for e in xexp:
                moment = moment * gaussian_moment(e, c, ctx.scalar_ctx)
            total = total + s * moment
    return total


# -- the comparisons ---------------------------------------------------------


@pytest.mark.parametrize("context", CONTEXTS, ids=_ids(CONTEXTS))
def test_number_operators_match_oracles(context):
    """N_z, and E and 1 - N_xi (each one pass) against 1 - N_z/2 and
    1 - N_xi composed from derivatives, products and sums (no ``-``), on
    coefficients with theta, hbar, sqrt(2), pi and Fractions."""
    ctx = SymplecticContext(*context)
    sctx = ctx.scalar_ctx
    radical = Scalar.sqrt(sctx, 2) + Scalar.pi(sctx) * Fraction(1, 3)
    rng = seeded(61)
    for _ in range(12):
        f = sample(rng, ctx) + sample(rng, ctx).scale_left(radical)
        assert f.number_z() == number_z_oracle(f)
        for fast, composed in (
                (f.euler_E(), f + number_z_oracle(f) * Fraction(-1, 2)),
                (f.one_minus_number_xi(), f + number_xi_oracle(f) * -1)):
            assert fast == composed
            assert is_clean(fast)


@pytest.mark.parametrize("context", CONTEXTS, ids=_ids(CONTEXTS))
def test_poisson_matches_channel_oracle(context):
    ctx = SymplecticContext(*context)
    rng = seeded(62)
    for _ in range(12):
        f, g = sample(rng, ctx), sample(rng, ctx)
        assert poisson_bracket(f, g) == poisson_oracle(f, g)


@pytest.mark.parametrize("context", REACH, ids=_ids(REACH))
def test_poisson_matches_channel_oracle_at_degree_four(context):
    """x exponents up to 4, and f and g of one pair on different Gaussian
    weights, so the cached block rows meet c_f != c_g."""
    ctx = SymplecticContext(*context)
    rng = seeded(65)
    for _ in range(8):
        cf, cg = rng.sample(WEIGHTS, 2)
        f = sample(rng, ctx, degree=4, weights=(cf,))
        g = sample(rng, ctx, degree=4, weights=(cg, cf))
        got = poisson_bracket(f, g)
        assert got == poisson_oracle(f, g)
        assert is_clean(got)


@pytest.mark.parametrize("context", SQUARE, ids=_ids(SQUARE))
def test_antibracket_and_delta_match_oracles(context):
    ctx = SymplecticContext(*context)
    rng = seeded(63)
    for _ in range(16):
        f, g = sample(rng, ctx), sample(rng, ctx)
        assert antibracket(f, g) == anti_oracle(f, g)
        assert f.delta_op() == delta_oracle(f)


@pytest.mark.parametrize("context", BV, ids=_ids(BV))
def test_antibracket_is_the_bv_bracket_of_delta(context):
    """(-1)^{eps_f} (f, g) = Delta(fg) - (Delta f) g - (-1)^{eps_f} f (Delta g)
    and Delta^2 = 0 on homogeneous pairs with theta and hbar coefficients.
    The right side uses ``delta_op`` and ``sf_mul`` alone, so it defines
    the antibracket without the code of ``brackets``."""
    ctx = SymplecticContext(*context)
    rng = seeded(66)
    nonzero = 0
    for _ in range(16):
        ef, eg = rng.randint(0, 1), rng.randint(0, 1)
        f = homogeneous(sample(rng, ctx) + sample(rng, ctx), ef)
        g = homogeneous(sample(rng, ctx) + sample(rng, ctx), eg)
        sign = (-1) ** ef
        fg = sf_mul(f, g)
        bv = fg.delta_op() - sf_mul(f.delta_op(), g) - \
            sf_mul(f, g.delta_op()) * sign
        assert antibracket(f, g) * sign == bv
        nonzero += not bv.is_zero()
        for h in (f, g, fg):
            assert h.delta_op().delta_op().is_zero()
    assert nonzero >= 8


@pytest.mark.parametrize("context", CONTEXTS, ids=_ids(CONTEXTS))
def test_first_order_kernels_carry_radicals_and_pi(context):
    """Both brackets against their oracles on coefficients with sqrt(2),
    sqrt(3), sqrt(pi) and pi, several monomials to a term: the pair
    products meet sqrt(2) sqrt(3) = sqrt(6) (the two-root branch of
    ``mul_into``), sqrt(pi) sqrt(pi) = pi and pi^2, and the one scalar
    product of a term pair has many items."""
    ctx = SymplecticContext(*context)
    sctx = ctx.scalar_ctx
    pi, root_pi = Scalar.pi(sctx), Scalar.sqrt_pi(sctx)
    left = Scalar.sqrt(sctx, 2) + root_pi + pi * Fraction(1, 3)
    right = Scalar.sqrt(sctx, 3) * 2 + root_pi - pi
    rng = seeded(67)
    kernels = [(poisson_bracket, poisson_oracle)]
    if ctx.n_plus == ctx.n_minus:
        kernels.append((antibracket, anti_oracle))
    reached = set()
    for _ in range(8):
        f = sample(rng, ctx).scale_left(left) + sample(rng, ctx)
        g = sample(rng, ctx).scale_left(right)
        for bracket, oracle in kernels:
            got = bracket(f, g)
            assert got == oracle(f, g) and is_clean(got)
            # (p, r) of each monomial: pi^p, sqrt(r)
            reached |= {(key[5], key[7]) for key in got.coeffs}
    assert (0, 6) in reached and (2, 1) in reached


@pytest.mark.parametrize("context", CONTEXTS, ids=_ids(CONTEXTS))
def test_integral_bar_matches_moment_oracle(context):
    ctx = SymplecticContext(*context)
    rng = seeded(64)
    for _ in range(12):
        f = sample(rng, ctx, top=True)
        assert f.integral_bar() == integral_oracle(f)


def test_first_order_results_are_clean():
    """The first-order kernels' results are clean: products of halves that
    come out integral are ints (also where the half is a Gaussian weight's
    x step and the 2 a coefficient), sums that cancel leave no entry, and
    hbar powers above h_max are dropped."""
    ctx = SymplecticContext(2, 2, (1, -1), 1, 3)
    sctx = ctx.scalar_ctx
    half = Fraction(1, 2)
    h, h2 = Scalar.hbar(sctx), Scalar.hbar(sctx, 2)
    x1, x2 = SuperFunction.x(ctx, 1), SuperFunction.x(ctx, 2)
    xi1, xi2 = SuperFunction.xi(ctx, 1), SuperFunction.xi(ctx, 2)
    one = SuperFunction.constant(ctx, 1)
    halves = SuperFunction.term(ctx, (2, 0), scalar=half)
    halves_gauss = SuperFunction.term(ctx, (1, 1), half, (2,), half)
    two_gauss = SuperFunction.term(ctx, (0, 0), half, (), 2)
    minus_x1_gauss = SuperFunction.term(ctx, (1, 0), half, (), -1)
    cases = [
        (poisson_bracket, halves, x2 * 2, x1 * 2),
        (antibracket, halves, xi1 * 2, x1 * 2),
        (poisson_bracket, two_gauss, x2, minus_x1_gauss),
        (antibracket, two_gauss, xi1, minus_x1_gauss),
        (poisson_bracket, x1 * x2, x1 * x2, None),
        (poisson_bracket, x1 + x1 * x2, x1 + x1 * x2, None),
        (antibracket, x1 - x2, xi1 + xi2, None),
        (poisson_bracket, x1.scale_left(h2), x2.scale_left(h2), None),
        (poisson_bracket, x1.scale_left(h2) + x1, x2.scale_left(h2),
         one.scale_left(h2)),
        (antibracket, x1.scale_left(h2), xi1.scale_left(h2), None),
        (antibracket, x1.scale_left(h2) + x1, xi1.scale_left(h2 + h),
         one.scale_left(h2 * h + h2 + h)),
    ]
    for bracket, f, g, want in cases:
        got = bracket(f, g)
        if want is None:
            assert got.coeffs == {}
        else:
            assert got == want
            assert all(q.__class__ is int for q in got.coeffs.values())
        assert all(key[3] <= ctx.h_max for key in got.coeffs)
    for f, g in ((halves_gauss, x2 * 2 + xi2), (x2 * 2, halves_gauss),
                 (halves_gauss, halves_gauss.scale_left(h2 + 4))):
        for bracket, oracle in ((poisson_bracket, poisson_oracle),
                                (antibracket, anti_oracle)):
            got = bracket(f, g)
            assert got == oracle(f, g) and is_clean(got)
