"""Unit tests for the Poisson superbracket, antibracket, and Moyal bracket."""

import itertools
from decimal import Decimal
from fractions import Fraction
from math import factorial

import pytest

from superdeform import (ContextMismatchError, SampleSpec, Scalar,
                         SuperFunction, SymplecticContext, antibracket,
                         bidiff_power, brackets, moyal_bracket,
                         poisson_bracket, sample_tuples, sf_mul)
from superdeform.brackets import bidiff_term
from superdeform.cochains import m1
from superdeform.scalars import theta_sign
from superdeform.superfunc import _grouped, pack_x, unpack_x, xi_deriv

from conftest import (KERNEL_ROWS, clear_kernel_caches, naive_bidiff,
                      naive_merge, random_superfunction, seeded)


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


@pytest.mark.parametrize("n_plus, lambdas, gauss_pool", [
    (4, (1, -1), (0, HALF, 1)),
    (0, (1, 1, -1), (0,)),
    (2, (1,), (0, HALF, 2)),
], ids=["lambda_mixed", "no_x_blocks", "one_x_block"])
def test_m1_is_one_sixth_of_the_cubic_power(n_plus, lambdas, gauss_pool):
    """m1 takes the kernel's t^3 coefficient with weight 1: P^3/3! in one
    pass, with the coefficients P^3 * (1/6) has; ``bidiff_term`` is
    weight * P^p/p! for any rational weight."""
    ctx = SymplecticContext(n_plus, len(lambdas), lambdas, 1, 6)
    rng = seeded(17)
    for _ in range(6):
        f = random_superfunction(rng, ctx, terms=2, theta=True,
                                 gauss_pool=gauss_pool)
        g = random_superfunction(rng, ctx, terms=2, theta=True,
                                 gauss_pool=gauss_pool)
        cubic = naive_bidiff(f, g, 3)
        value = m1(f, g)
        assert value == cubic * Fraction(1, 6)
        # the same stored coefficients, of the same types
        scaled = bidiff_power(f, g, 3) * Fraction(1, 6)
        assert sorted(map(repr, value.coeffs.items())) == \
            sorted(map(repr, scaled.coeffs.items()))
        for p, weight in ((1, 1), (2, Fraction(-3, 4)), (3, 5)):
            assert bidiff_term(f, g, p, weight) == \
                naive_bidiff(f, g, p) * Fraction(weight, factorial(p))
    with pytest.raises(ValueError, match="at least 1"):
        bidiff_term(f, g, 0, 1)


def test_bidiff_one_is_poisson(ctx42):
    """P^1 of the Moyal kernel equals the Poisson bracket.  Both read the
    x-pair channels from the m = 1 ``_block_row``, whose oracle is
    ``_series_poisson_row``, and each has its own odd channels and sums;
    test_first_order.py compares the Poisson bracket with its
    compositional definition."""
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
    naive word-by-word path (callers keep p small by a low h_max or by
    hbar factors on f and g; p stops where they leave no room)."""
    sctx = f.ctx.scalar_ctx
    hk = Scalar.hbar(sctx) * kappa
    floor = Scalar.hbar(sctx, f.hbar_min_degree() + g.hbar_min_degree())
    total = SuperFunction.zero(f.ctx)
    fact, power = 1, Scalar.one(sctx)
    p = 1
    while not (power * floor).is_zero():
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


def _mixed_degree_pair(ctx):
    """f and g with terms at hbar^4, hbar^2 and hbar^0, the highest first,
    and xi monomials that share no generator or one, so that the term
    pairs of one call differ both in the number n of shared xi and in the
    room h_max - (their minimal h-degree)."""
    sctx = ctx.scalar_ctx
    th = Scalar.theta(sctx, 1)

    def side(specs):
        out = SuperFunction.zero(ctx)
        for xexp, c, xi, power, coeff, theta in specs:
            s = Scalar.hbar(sctx, power, coeff)
            out = out + SuperFunction.term(ctx, xexp, c, xi,
                                           s * th if theta else s)
        return out
    f = side([((2, 1), 0, (1,), 4, 3, False),
              ((1, 1), 1, (2,), 2, -2, True),
              ((0, 2), 0, (1,), 0, 1, False)])
    g = side([((1, 0), 0, (1,), 4, 5, True),
              ((1, 2), 0, (), 0, -1, False),
              ((2, 0), 0, (2,), 2, 2, False)])
    return f, g


@pytest.mark.parametrize("h_max", [4, 5, 6])
def test_moyal_plans_powers_per_shared_xi_and_room(h_max):
    """The kept powers of a term pair depend on n and on the room alone:
    the kernel equals the series oracle on pairs that differ in both,
    for each kappa, and ``bidiff_term`` equals the naive power."""
    ctx = SymplecticContext(2, 2, (1, -1), 1, h_max)
    sctx = ctx.scalar_ctx
    f, g = _mixed_degree_pair(ctx)
    for kappa in (1, Scalar.hbar(sctx), HALF):
        assert moyal_bracket(f, g, kappa) == _series_oracle(f, g, kappa)
    for p in (1, 2, 3):
        naive = naive_bidiff(f, g, p)
        for weight in (1, HALF):
            assert bidiff_term(f, g, p, weight) == \
                naive * Fraction(weight, factorial(p))


def test_bidiff_term_of_weight_zero_is_zero():
    """A zero weight gives zero after the context and power checks; an
    inexact zero is refused by the exact rule, as 0.5 is."""
    ctx = SymplecticContext(2, 0, (), 0, 4)
    rng = seeded(19)
    f = random_superfunction(rng, ctx, terms=2)
    g = random_superfunction(rng, ctx, terms=2)
    for p in (1, 2, 3):
        for weight in (0, Fraction(0)):
            assert bidiff_term(f, g, p, weight).is_zero()
        for weight in (0.0, Decimal(0), 0.5):
            with pytest.raises(ValueError, match="exact"):
                bidiff_term(f, g, p, weight)
    with pytest.raises(ValueError, match="at least 1"):
        bidiff_term(f, g, 0, 1)
    with pytest.raises(ValueError, match="at least 1"):
        bidiff_term(f, g, 0, 0)
    with pytest.raises(ContextMismatchError):
        bidiff_term(f, SuperFunction.zero(SymplecticContext(2, 2)), 1, 0)


@pytest.mark.parametrize("p", [2.0, "3", True, Fraction(2), 0, -1],
                         ids=["float", "str", "bool", "fraction", "zero",
                              "negative"])
def test_bidiff_power_must_be_an_int_at_least_one(p):
    # a power that is not an int, True included, is refused as one below 1
    # is, by bidiff_power and bidiff_term alike, before any other check
    ctx = SymplecticContext(2, 0, (), 0, 4)
    f = SuperFunction.x(ctx, 1)
    other = SuperFunction.x(SymplecticContext(2, 2), 1)
    for call in (lambda: bidiff_power(f, f, p),
                 lambda: bidiff_term(f, f, p, 1),
                 lambda: bidiff_term(f, other, p, 1)):
        with pytest.raises(ValueError, match="an int at least 1") as info:
            call()
        assert repr(p) in str(info.value)


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


# -- rows shared across calls -----------------------------------------------


def _reweighted(f, c):
    """f with the Gaussian weight of every term set to c."""
    out = SuperFunction.zero(f.ctx)
    for (xexp, _c, xi), s in f.terms.items():
        out = out + SuperFunction.term(f.ctx, xexp, c, xi, s)
    return out


def _misses():
    return [cached.cache_info().misses for cached in KERNEL_ROWS]


@pytest.mark.parametrize("n_plus, lambdas", [
    (0, (1, -1, 1)),
    (2, (-1, 1)),
    (4, (1, -1)),
], ids=["no_x_blocks", "one_x_block", "two_x_blocks"])
def test_shared_memo_matches_fresh(n_plus, lambdas):
    # the kernel's row caches serve Moyal brackets and bidiff_term alike,
    # of the same exponents at several pairs of Gaussian weights (a key
    # that dropped c_f or c_g would mix them up), in two contexts: the
    # given metric at h_max 6 and every lambda = -1 at h_max 4, each Moyal
    # call with its own kappa.  Each pair is first bracketed with an
    # hbar^4 factor, which keeps fewer powers and so reads rows of low q
    # only, then without it, which needs higher ones, then with it again;
    # bidiff_term follows at p = 2 and 3 with a weight.  Every value must
    # equal the one computed on cleared caches and, where the series is
    # short enough for it, the naive oracle.
    contexts = [SymplecticContext(n_plus, len(lambdas), lambdas, 1, 6),
                SymplecticContext(n_plus, len(lambdas), (-1,) * len(lambdas),
                                  1, 4)]
    per_context = []
    for shift, ctx in enumerate(contexts):
        sctx = ctx.scalar_ctx
        kappas = itertools.islice(itertools.cycle((
            1, Fraction(-3, 2), Scalar.hbar(sctx, 1, Fraction(2, 3)) - HALF,
            Fraction(5, 7))), shift, None)
        heavy = Scalar.hbar(sctx, 4)
        rng = seeded(43)
        f0 = random_superfunction(rng, ctx, terms=2, theta=True,
                                  gauss_pool=(0,))
        g0 = random_superfunction(rng, ctx, terms=2, theta=True,
                                  gauss_pool=(0,))
        calls = []
        for cf, cg in ((1, 1), (HALF, 1), (1, 2), (0, HALF), (2, 0)):
            f, g = _reweighted(f0, cf), _reweighted(g0, cg)
            # the naive oracle of the full series is slow: it checks the
            # hbar^4 calls and, at h_max 4, the first long one
            calls += [
                (moyal_bracket, (f.scale_left(heavy), g, next(kappas)), True),
                (moyal_bracket, (f, g, next(kappas)),
                 ctx.h_max < 6 and cf == cg),
                (moyal_bracket, (f.scale_left(heavy), g, next(kappas)), True),
                (bidiff_term, (f, g, 2, Fraction(-3, 4)), cf == cg),
                (bidiff_term, (f, g, 3, 5), False)]
        per_context.append(calls)
    # interleave the two contexts, so that each reads the other's rows
    # (each call of a pair with another kappa)
    calls = [call for pair in zip(*per_context) for call in pair]
    clear_kernel_caches()
    values = [fn(*args) for fn, args, _ in calls]
    used = KERNEL_ROWS if n_plus else KERNEL_ROWS[2:]
    assert all(cached.cache_info().hits for cached in used)
    for (fn, args, oracle), value in zip(calls, values):
        clear_kernel_caches()
        assert fn(*args) == value
        if not oracle:
            continue
        if fn is moyal_bracket:
            assert value == _series_oracle(*args)
        else:
            f, g, p, weight = args
            assert value == naive_bidiff(f, g, p) * (weight / factorial(p))


def test_stored_tables_are_never_extended_in_place():
    # a cached row is built once and never changed: a longer bracket of
    # the same pair builds the rows of higher order beside the short
    # bracket's, and reads those as they were, the same objects
    ctx = SymplecticContext(2, 1, (1,), 1, 6)
    f = SuperFunction.term(ctx, (2, 1), 1, (1,), 3)
    g = SuperFunction.term(ctx, (1, 2), 2, (1,), -2)
    ((fx, cf, _),), ((gx, cg, _),) = _grouped(f), _grouped(g)
    clear_kernel_caches()
    # room 2 keeps p = 1 and 3, so q = 0 and 2 with the shared xi_1
    moyal_bracket(f.scale_left(Scalar.hbar(ctx.scalar_ctx, 4)), g)

    def low_rows():
        return ([brackets._x_row(2, fx, gx, cf, cg, q) for q in range(3)]
                + [brackets._block_row(fx, gx, cf, cg, m) for m in range(3)]
                + [brackets._deriv(e, c, i) for e, c in ((2, cf), (1, cf),
                                                          (1, cg), (2, cg))
                   for i in range(3)])

    rows = low_rows()
    held = [dict(row) for row in rows]
    before = _misses()
    moyal_bracket(f, g)
    # the derivative, block and x rows of higher order are new
    assert all(now > then for now, then in zip(_misses(), before))
    assert brackets._x_row(2, fx, gx, cf, cg, 6)
    assert all(new is row for new, row in zip(low_rows(), rows))
    assert [dict(row) for row in rows] == held


def test_x_tables_are_keyed_by_n_plus():
    """Packed x exponents 0 are the zero vector at every n_plus, so the
    cached x rows hold n_plus in their key.  Moyal brackets of Gaussians
    with x exponent 0 alternate between (2, 0), one x-pair block, and
    (4, 2), two blocks, where the shared xi_1 lets the x part's P^2 term
    through; each equals the series oracle, and after the first round
    every row is read from the cache."""
    small = SymplecticContext(2, 0, (), 0, 2)
    large = SymplecticContext(4, 2, (1, -1), 0, 2)
    pairs = [(SuperFunction.gauss(small, 1), SuperFunction.gauss(small, 2)),
             (SuperFunction.term(large, c=1, xi=(1,), scalar=3),
              SuperFunction.term(large, c=2, xi=(1,)))]
    clear_kernel_caches()
    for rounds in (pairs, pairs[::-1] + pairs):
        for f, g in rounds:
            value = moyal_bracket(f, g)
            assert value == _series_oracle(f, g)
            assert not value.is_zero() or f.ctx is small
        if rounds is pairs:
            built = _misses()
    assert _misses() == built
    assert brackets._x_row(2, 0, 0, 1, 2, 2) != \
        brackets._x_row(4, 0, 0, 1, 2, 2)


def test_row_caches_evict_past_their_bound():
    # each row cache holds at most _CACHE_BOUND rows; rows no bracket reads
    # push a bracket's rows out, and the bracket then builds them afresh,
    # to the same value
    ctx = SymplecticContext(2, 1, (1,), 1, 6)
    f = SuperFunction.term(ctx, (2, 1), 1, (1,), 3)
    g = SuperFunction.term(ctx, (1, 2), 2, (1,), -2)
    h = SuperFunction.term(ctx, (0, 1), HALF, (), 5)
    clear_kernel_caches()
    first, second = moyal_bracket(f, g), moyal_bracket(g, h)
    bound = brackets._CACHE_BOUND
    for e in range(bound):
        brackets._deriv(e, 3, 0)
        brackets._block_row(e, e, 3, 3, 0)
        brackets._x_row(2, e, e, 3, 3, 0)
    for cached in KERNEL_ROWS:
        info = cached.cache_info()
        assert info.maxsize == bound and info.currsize == bound
    before = _misses()
    assert moyal_bracket(f, g) == first
    assert moyal_bracket(g, h) == second
    assert all(now > then for now, then in zip(_misses(), before))


# -- an independent sympy expansion of the even sector ----------------------


def _sympy_moyal(sp, f, g, kappas):
    """Sum over odd p <= 7 of (hbar kappa)^(p-1)/p! P^p(f, g) for hbar-free
    f and g at (n_plus, n_minus) = (2, 0), with P = d1 (x) d2 - d2 (x) d1,
    for each kappa.  A term q x1^a x2^b exp(-c|x|^2/2) is q u(x1) v(x2)
    with u = x1^a exp(-c x1^2/2), so d1^i d2^j of it is q u^(i) v^(j);
    sympy differentiates u and v and divides their Gaussians out again.
    Returns one {Gaussian weight: Poly in x1, x2, hbar} per kappa."""
    x1, x2, hbar = sp.symbols("x1 x2 hbar")
    known = {}

    def derivatives(var, a, c):
        """u^(n) / exp(-c var^2/2) for n = 0..7, u = var^a exp(-c var^2/2)."""
        if (var, a, c) not in known:
            gauss = sp.exp(-c * var ** 2 / 2)
            out = [var ** a]
            while len(out) < 8:
                out.append(sp.expand(sp.diff(out[-1] * gauss, var) / gauss))
            known[var, a, c] = [sp.Poly(d, x1, x2, hbar) for d in out]
        return known[var, a, c]

    def tables(fn):
        out = []
        for (xexp, c, _xi), s in fn.terms.items():
            c = _rational(sp, c)
            out.append((_rational(sp, s.rational_value()),
                        derivatives(x1, xexp[0], c),
                        derivatives(x2, xexp[1], c), c))
        return out

    powers = {}  # (weight, p) -> P^p summed over the term pairs of f and g
    for (qf, uf, vf, cf), (qg, ug, vg, cg) in itertools.product(tables(f),
                                                                tables(g)):
        for p in (1, 3, 5, 7):
            term = sum((uf[p - j] * vf[j] * ug[j] * vg[p - j]
                        * (sp.binomial(p, j) * (-1) ** j * qf * qg)
                        for j in range(1, p + 1)),
                       uf[p] * vf[0] * ug[0] * vg[p] * (qf * qg))
            key = (cf + cg, p)
            powers[key] = powers[key] + term if key in powers else term
    out = []
    for kappa in kappas:
        total = {}
        for (c, p), power in powers.items():
            term = power * ((hbar * kappa) ** (p - 1) / sp.factorial(p))
            total[c] = total[c] + term if c in total else term
        out.append(total)
    return out


def _rational(sp, q):
    q = Fraction(q)
    return sp.Rational(q.numerator, q.denominator)


def _as_sympy(sp, value):
    """The same {Gaussian weight: Poly} view of a bracket value."""
    x1, x2, hbar = sp.symbols("x1 x2 hbar")
    coeffs = {}
    for (xexp, c, _xi), s in value.terms.items():
        poly = coeffs.setdefault(_rational(sp, c), {})
        for (m, mask, *radical), q in s.coeffs.items():
            assert mask == 0 and radical == [0, 0, 1]
            poly[xexp[0], xexp[1], m] = _rational(sp, q)
    return {c: sp.Poly.from_dict(poly, x1, x2, hbar)
            for c, poly in coeffs.items()}


def test_moyal_matches_sympy_expansion():
    sp = pytest.importorskip("sympy")
    ctx = SymplecticContext(2, 0, (), 0, 6)
    kappas = (1, Fraction(2, 3))
    rng = seeded(47)
    for _ in range(2):
        f = random_superfunction(rng, ctx, terms=2, gauss_pool=(HALF, 1, 2))
        g = random_superfunction(rng, ctx, terms=2, gauss_pool=(HALF, 1, 2))
        refs = _sympy_moyal(sp, f, g, [_rational(sp, k) for k in kappas])
        for kappa, ref in zip(kappas, refs):
            got = _as_sympy(sp, moyal_bracket(f, g, kappa))
            assert any(not v.is_zero for v in ref.values())
            assert set(got) <= set(ref)
            for weight, poly in ref.items():
                assert (poly - got[weight]).is_zero if weight in got \
                    else poly.is_zero


# -- the cached odd factor and Moyal weights ----------------------------------

def _subsets(n):
    return [combo for size in range(n + 1)
            for combo in itertools.combinations(range(1, n + 1), size)]


def test_cached_odd_factor_equals_uncached():
    """Every pair of xi monomials at n_minus <= 4, as masks, under two
    metrics that differ on the shared indices: a cache key without the
    lambdas would hand the first metric's factor to the second."""
    brackets._odd_factor.cache_clear()
    uncached = brackets._odd_factor.__wrapped__
    for n in range(5):
        for lambdas in ((1, -1, 1, -1)[:n], (-1,) * n):
            for xf in map(_mask, _subsets(n)):
                for xg in map(_mask, _subsets(n)):
                    assert brackets._odd_factor(lambdas, xf, xg) == \
                        uncached(lambdas, xf, xg)
    assert brackets._odd_factor.cache_info().maxsize == brackets._CACHE_BOUND


# -- an independent oracle for the xi signs: Jordan-Wigner fermions ---------
#
# xi_a acts as the creation operator of mode a on Fock states, bitmasks
# with bit a - 1 for mode a, carrying the Jordan-Wigner string: the sign
# (-1)^(number of occupied modes below a).  Then xi_{i1} ... xi_{im} |0>
# = |{i1, ..., im}> for i1 < ... < im, the left derivative d_a is the
# annihilation operator of mode a, and the right derivative on a monomial
# xi^I is (-1)^(|I| - 1) times the left one.  A vector is a dict from
# bitmasks to coefficients.  Nothing here shares code with theta_sign.
#
# With k odd parameters, theta_j is mode j and xi_a mode k + a: theta
# stands left of xi in every term, so theta^alpha xi^I |0> = |alpha + I>,
# and the derivatives by xi_a, now passing the theta modes below, stay the
# annihilation operator of mode k + a and ``_jw_right``, whose sign counts
# every occupied mode.


def _mask(xi, k=0):
    """The state of xi^I, its modes past k theta modes."""
    return sum(1 << (k + a - 1) for a in xi)


def _modes(state):
    return tuple(a for a in range(1, state.bit_length() + 1)
                 if state >> (a - 1) & 1)


def _jw(a, create, vec):
    """The creation (``create``) or annihilation operator of mode a."""
    bit = 1 << (a - 1)
    out = {}
    for state, c in vec.items():
        if bool(state & bit) != create:
            string = bin(state & (bit - 1)).count("1")
            out[state ^ bit] = -c if string & 1 else c
    return out


def _jw_sum(*vecs):
    out = {}
    for vec in vecs:
        for state, c in vec.items():
            out[state] = out.get(state, 0) + c
    return {state: c for state, c in out.items() if c}


def _jw_right(a, vec):
    """d_a from the right: (-1)^(|I| - 1) times the left one on xi^I."""
    out = {}
    for state, c in vec.items():
        for new, v in _jw(a, False, {state: c}).items():
            out[new] = v if bin(state).count("1") & 1 else -v
    return out


def _jw_product(f, g):
    """f times g: each state of f applies its generators to g."""
    terms = []
    for state, c in f.items():
        vec = {s: c * v for s, v in g.items()}
        for a in reversed(_modes(state)):
            vec = _jw(a, True, vec)
        terms.append(vec)
    return _jw_sum(*terms)


def _jw_monomial(vec):
    """(coefficient, xi) of a vector of at most one state; (0, None) for
    the zero vector."""
    if not vec:
        return 0, None
    ((state, c),) = vec.items()
    return c, _modes(state)


def _theta_xi_monomials(ctx, xexp=None):
    """(3 theta^alpha x^xexp xi^I, its state) for every theta^alpha xi^I
    over ctx, x^xexp being 1 by default."""
    k, sctx = ctx.k, ctx.scalar_ctx
    for state in range(1 << (k + ctx.n_minus)):
        alpha = _modes(state & ((1 << k) - 1))
        xi = tuple(a - k for a in _modes(state >> k << k))
        yield (SuperFunction.term(ctx, xexp, xi=xi,
                                  scalar=Scalar.theta(sctx, *alpha) * 3),
               {state: 3})


def _jw_state_vector(f):
    """{(x exponents, state): coefficient} of f, read from its ``terms``
    view, whose terms must be rational theta^alpha x^e xi^I monomials
    without a Gaussian."""
    k = f.ctx.k
    out = {}
    for (xexp, c, xi), scalar in f.terms.items():
        for (m, mask, p, s, r), q in scalar.coeffs.items():
            assert (c, m, p, s, r) == (0, 0, 0, 0, 1)
            out[xexp, mask | _mask(xi, k)] = q
    return out


def _theta_contexts():
    """(0, n_minus) with k >= 1 and n_minus + k <= 6, odd n_minus and both
    metric signs included."""
    return [SymplecticContext(0, n, tuple((-1) ** a for a in range(n)), k)
            for n in range(6) for k in range(1, 7 - n)]


def test_jordan_wigner_operators_anticommute():
    """{c_a, c_b^+} = delta_ab and {c_a, c_b} = {c_a^+, c_b^+} = 0 on
    every Fock state of up to four modes, and xi^I |0> = |I>."""
    for n in range(5):
        for state in range(1 << n):
            vec = {state: 1}
            for a, b in itertools.product(range(1, n + 1), repeat=2):
                for x, y in ((False, True), (False, False), (True, True)):
                    anti = _jw_sum(_jw(a, x, _jw(b, y, vec)),
                                   _jw(b, y, _jw(a, x, vec)))
                    assert anti == (vec if (x, y, a) == (False, True, b)
                                    else {})
        for xi in _subsets(n):
            vec = {0: 1}
            for a in reversed(xi):
                vec = _jw(a, True, vec)
            assert vec == {_mask(xi): 1}


def test_xi_deriv_matches_the_jordan_wigner_oracle():
    """``xi_deriv`` on every xi mask holding xi_a at n_minus <= 4: the
    annihilation operator of mode a from the left, ``_jw_right`` from the
    right, each as (coefficient, state)."""
    for n in range(5):
        for xi in _subsets(n):
            vec = {_mask(xi): 1}
            for a in xi:
                for right, want in ((False, _jw(a, False, vec)),
                                    (True, _jw_right(a, vec))):
                    ((state, c),) = want.items()
                    assert xi_deriv(_mask(xi), a, right) == (c, state)


def test_xi_derivatives_of_functions_match_the_jordan_wigner_oracle():
    """``left_deriv`` and ``right_deriv`` by every xi_a of every theta-free
    xi monomial at (0, n_minus), n_minus <= 4, held or not, equal the
    oracle's derivative of that monomial."""
    for n in range(5):
        ctx = SymplecticContext(0, n, (1, -1, 1, -1)[:n], 1)
        for xi in _subsets(n):
            f = SuperFunction.term(ctx, xi=xi, scalar=3)
            vec = {_mask(xi): 3}
            for a in range(1, n + 1):
                for got, want in ((f.left_deriv(a - 1), _jw(a, False, vec)),
                                  (f.right_deriv(a - 1), _jw_right(a, vec))):
                    c, rest = _jw_monomial(want)
                    assert got == (SuperFunction.term(ctx, xi=rest, scalar=c)
                                   if c else SuperFunction.zero(ctx))


def test_xi_signs_match_the_jordan_wigner_oracle():
    """On every pair of xi monomials at n_minus <= 4, each as its mask: the
    product sign of ``theta_sign`` and the union of the masks;
    ``_odd_factor`` under every metric, as right d_a on f and left d_a on
    g over S = xi(f) & xi(g) in increasing order, times the product of
    lambda_a over S, then the product of the two remainders; and the
    channel lists of ``_anti_factor``."""
    for n in range(5):
        for xf in _subsets(n):
            f = {_mask(xf): 1}
            for xg in _subsets(n):
                g = {_mask(xg): 1}
                product = _jw_product(f, g)
                assert theta_sign(_mask(xf), _mask(xg)) == \
                    product.get(_mask(xf) | _mask(xg), 0)
                assert set(product) <= {_mask(xf) | _mask(xg)}
                shared = sorted(set(xf) & set(xg))
                rf, rg = f, g
                for a in shared:
                    rf, rg = _jw_right(a, rf), _jw(a, False, rg)
                c, xi = _jw_monomial(_jw_product(rf, rg))
                for lambdas in itertools.product((1, -1), repeat=n):
                    weight = c
                    for a in shared:
                        weight *= lambdas[a - 1]
                    assert brackets._odd_factor(
                        lambdas, _mask(xf), _mask(xg)) == \
                        (len(shared), weight, _mask(xi))
                g_side = [(a - 1, *_jw_monomial(
                    _jw_product(f, _jw(a, False, g)))) for a in xg]
                f_side = [(a - 1, *_jw_monomial(
                    _jw_product(_jw_right(a, f), g))) for a in xf]
                assert brackets._anti_factor(_mask(xf), _mask(xg)) == (
                    tuple((a, c, _mask(xi)) for a, c, xi in g_side if c),
                    tuple((a, -c, _mask(xi)) for a, c, xi in f_side if c))


def test_theta_xi_derivatives_match_the_jordan_wigner_oracle():
    """``left_deriv`` and ``right_deriv`` by every xi_a of every
    theta^alpha xi^I at k >= 1 and n_minus + k <= 6: the annihilation
    operator of mode k + a, and ``_jw_right``, on the theta and xi modes
    together.  From the left xi_a passes the theta part, from the right
    it does not."""
    for ctx in _theta_contexts():
        k = ctx.k
        for f, vec in _theta_xi_monomials(ctx):
            for a in range(1, ctx.n_minus + 1):
                for got, want in ((f.left_deriv(a - 1),
                                   _jw(k + a, False, vec)),
                                  (f.right_deriv(a - 1),
                                   _jw_right(k + a, vec))):
                    assert _jw_state_vector(got) == \
                        {((), state): c for state, c in want.items()}


def test_theta_xi_products_match_the_jordan_wigner_oracle():
    """``sf_mul`` of every pair of theta^alpha xi^I monomials at k >= 1 and
    n_minus + k <= 6: the product of their creation operators, so each
    theta part of the right factor passes the xi part of the left one."""
    for ctx in _theta_contexts():
        monomials = list(_theta_xi_monomials(ctx))
        for f, fvec in monomials:
            for g, gvec in monomials:
                want = _jw_product(fvec, gvec)
                assert _jw_state_vector(sf_mul(f, g)) == \
                    {((), state): c for state, c in want.items()}


def test_theta_xi_part_of_delta_matches_the_jordan_wigner_oracle():
    """``delta_op`` at (n, n), n in {2, 4} and n + k <= 6, on
    x_1...x_n theta^alpha xi^I: the sum over i of x without x_i times the
    annihilation operator of mode k + i, the left xi_i-derivative."""
    for n in (2, 4):
        ones = (1,) * n
        for k in range(1, 7 - n):
            ctx = SymplecticContext(n, n, (1, -1, -1, 1)[:n], k)
            for f, vec in _theta_xi_monomials(ctx, ones):
                want = {}
                for i in range(1, n + 1):
                    xexp = ones[:i - 1] + (0,) + ones[i:]
                    for state, c in _jw(k + i, False, vec).items():
                        want[xexp, state] = c
                assert _jw_state_vector(f.delta_op()) == want


def test_cached_moyal_weights_are_keyed_by_context():
    """The weights (h kappa)^(p-1) depend on the truncation order, which the
    cache key names as the scalar context; equal values in two contexts get
    their own weights."""
    brackets._moyal_weights.cache_clear()
    for h_max in (6, 2, 6, 0):
        sctx = SymplecticContext(2, 1, (1,), 1, h_max).scalar_ctx
        for kappa in (Scalar.one(sctx), Scalar.rational(sctx, 2),
                      Scalar.rational(sctx, 2) + Scalar.hbar(sctx)):
            got = brackets._moyal_weights(sctx, kappa)
            assert got == brackets._moyal_weights.__wrapped__(sctx, kappa)
            assert [p for p, _w, _d in got] == list(
                range(1, h_max // 2 * 2 + 2, 2))
    assert brackets._moyal_weights.cache_info().maxsize == \
        brackets._CACHE_BOUND


def test_moyal_of_zero_is_zero_after_the_checks(ctx42):
    f = SuperFunction.x(ctx42, 1)
    zero = SuperFunction.zero(ctx42)
    assert moyal_bracket(zero, f).is_zero()
    assert moyal_bracket(f, zero, 2).is_zero()
    with pytest.raises(ValueError):
        moyal_bracket(zero, f, Scalar.theta(ctx42.scalar_ctx, 1))
    with pytest.raises(ContextMismatchError):
        moyal_bracket(zero, SuperFunction.zero(SymplecticContext(2, 2)))


# -- the Moyal star product ---------------------------------------------------

def star(f, g, kappa=1):
    """f * g = sum_p (h kappa)^p P^p/p! to the truncation order: ``sf_mul``
    at p = 0 and ``bidiff_term`` above it, a definition that shares no
    weight with ``moyal_bracket``."""
    sctx = f.ctx.scalar_ctx
    hk = Scalar.hbar(sctx) * kappa
    out, weight = sf_mul(f, g), Scalar.one(sctx)
    for p in range(1, f.ctx.h_max + 1):
        weight = weight * hk
        if weight.is_zero():
            break
        out = out + bidiff_term(f, g, p, 1).scale_left(weight)
    return out


@pytest.mark.parametrize("ctx", [
    SymplecticContext(2, 0, (), 0, 6),
    SymplecticContext(0, 3, (1, -1, 1), 1, 6),
    SymplecticContext(2, 2, (1, -1), 1, 6),
    SymplecticContext(4, 1, (1,), 1, 4)],
    ids=["2_0-h6", "0_3+-+-h6", "2_2+--h6", "4_1+-h4"])
def test_star_commutator_is_the_moyal_bracket(ctx):
    """f*g - (-1)^(eps_f eps_g) g*f = 2 h kappa M(f, g): the odd powers of
    the star product are the Moyal bracket, at kappa = 1, 1/2 and h (with
    the h^2 weight of M set to 1/5 instead of 1/6, 24 of the 32 pairs of
    the four contexts fail at kappa = 1)."""
    sctx = ctx.scalar_ctx
    pairs = sample_tuples(SampleSpec(seed=5, count=8, max_x_degree=2), ctx, 2)
    active = 0
    for kappa in (1, Fraction(1, 2), Scalar.hbar(sctx)):
        two_hk = Scalar.hbar(sctx, 1, 2) * kappa
        for f, g in pairs:
            bracket = moyal_bracket(f, g, kappa)
            sign = (-1) ** (f.eps() * g.eps())
            assert star(f, g, kappa) - star(g, f, kappa) * sign == \
                bracket.scale_left(two_hk)
            active += not bracket.is_zero()
    assert active


@pytest.mark.parametrize("n_plus", [2, 4])
@pytest.mark.parametrize("a, b", [(1, 2), (1, 1), (HALF, 3)],
                         ids=["1-2", "1-1", "half-3"])
def test_star_of_gaussians_has_its_closed_form(n_plus, a, b):
    """G_a * G_b = (1 - h^2 ab)^(-n/2) exp(-(a + b)(1/(1 - h^2 ab) - 1)
    |x|^2/2) G_(a+b), with G_c = exp(-c|x|^2/2): the star product checked
    against a closed form that takes no derivative, its h-series expanded by
    sympy in u = |x|^2 (with 1 + h^2 ab instead, all six cases differ)."""
    sp = pytest.importorskip("sympy")
    ctx = SymplecticContext(n_plus, 0, (), 0, 6)
    sctx = ctx.scalar_ctx
    h, u = sp.symbols("h u")
    sa, sb = _rational(sp, a), _rational(sp, b)
    d = 1 - h ** 2 * sa * sb
    closed = d ** sp.Rational(-n_plus, 2) * sp.exp(-(sa + sb) * (1 / d - 1)
                                                 * u / 2)
    series = sp.Poly(sp.series(closed, h, 0, ctx.h_max + 1).removeO(), h, u)
    usq = SuperFunction.zero(ctx)
    for i in range(1, n_plus + 1):
        usq = usq + sf_mul(SuperFunction.x(ctx, i), SuperFunction.x(ctx, i))
    expect = SuperFunction.zero(ctx)
    for (m, k), q in series.terms():
        term = SuperFunction.gauss(ctx, a + b)
        for _ in range(k):
            term = sf_mul(term, usq)
        weight = Scalar.hbar(sctx, m, Fraction(int(q.p), int(q.q)))
        expect = expect + term.scale_left(weight)
    got = star(SuperFunction.gauss(ctx, a), SuperFunction.gauss(ctx, b))
    assert got == expect
    assert got != SuperFunction.gauss(ctx, a + b)


@pytest.mark.parametrize("ctx", [
    SymplecticContext(2, 0, (), 0, 6),
    SymplecticContext(0, 3, (1, -1, 1), 1, 6),
    SymplecticContext(2, 2, (1, -1), 1, 4),
    SymplecticContext(4, 1, (1,), 1, 4)],
    ids=["2_0-h6", "0_3+-+-h6", "2_2+--h4", "4_1+-h4"])
def test_star_product_is_associative(ctx):
    """(f*g)*h = f*(g*h) at kappa = 1 and 1/2: a second law on the Moyal
    kernel (ROADMAP item 18), sharing no code with ``jacobiator``.  All but
    two of the 24 triples of the four contexts have a nonzero correction
    to the plain product; with a weight of 2/3 on P^2 in ``star``, 22 of
    them fail, and with a weight of 2 on P^3, 18."""
    triples = sample_tuples(SampleSpec(seed=7, count=3, max_x_degree=1),
                            ctx, 3)
    deformed = 0
    for kappa in (1, Fraction(1, 2)):
        for f, g, h in triples:
            left = star(star(f, g, kappa), h, kappa)
            assert left == star(f, star(g, h, kappa), kappa)
            deformed += left != sf_mul(sf_mul(f, g), h)
    assert deformed


def _series_anti_channels(fkey, gkey):
    """The antibracket channels of a term pair, {xi: {x exponents:
    coefficient}}, with the xi merges done per pair and the scalars left
    out; the oracle of ``_anti_factor`` and of the x steps of
    ``antibracket``.  Keys are tuples, and the merges count inversions."""
    from superdeform.scalars import accumulate
    from superdeform.superfunc import x_steps
    (fx, cf, xf), (gx, cg, xg) = fkey, gkey
    ex = tuple(a + b for a, b in zip(fx, gx))
    out = {}
    for pos, gen in enumerate(xg):
        sign, xi = naive_merge(xf, xg[:pos] + xg[pos + 1:])
        w = -sign if pos & 1 else sign
        for step, u in x_steps(fx[gen - 1], cf) if sign else ():
            accumulate(out.setdefault(xi, {}), _bumped(ex, gen - 1, step),
                       w * u)
    for pos, gen in enumerate(xf):
        sign, xi = naive_merge(xf[:pos] + xf[pos + 1:], xg)
        w = sign if (len(xf) - pos) & 1 else -sign
        for step, v in x_steps(gx[gen - 1], cg) if sign else ():
            accumulate(out.setdefault(xi, {}), _bumped(ex, gen - 1, step),
                       -w * v)
    return out


def _bumped(xexp, a, step):
    """The exponent tuple xexp with entry a moved by step."""
    return xexp[:a] + (xexp[a] + step,) + xexp[a + 1:]


def test_cached_anti_factor_equals_uncached():
    """Every pair of xi masks at n_minus <= 4: the cached channel lists
    equal fresh ones.  At n_plus = n_minus in {0, 2, 4}, on x parts
    with and without a Gaussian weight, ``antibracket`` of each one-term
    pair equals the per-pair merges times the twisted scalar product: g's
    scalar 3 - 5 theta_1 moves past len(xf) + 1 odd factors, so its theta
    part changes sign when xf is even."""
    brackets._anti_factor.cache_clear()
    uncached = brackets._anti_factor.__wrapped__
    for n in range(5):
        for xf in map(_mask, _subsets(n)):
            for xg in map(_mask, _subsets(n)):
                assert brackets._anti_factor(xf, xg) == uncached(xf, xg)
    for n in (0, 2, 4):
        ctx = SymplecticContext(n, n, (1,) * n, 1, 6)
        sctx = ctx.scalar_ctx
        theta = Scalar.theta(sctx, 1)
        fs = Scalar.rational(sctx, 2) + theta * Scalar.hbar(sctx)
        gs = Scalar.rational(sctx, 3) + theta * -5
        flipped = Scalar.rational(sctx, 3) + theta * 5
        fx, gx = (0, 1, 2, 1)[:n], (1, 0, 0, 3)[:n]
        for xf in _subsets(n):
            twisted = gs if len(xf) & 1 else flipped
            for xg in _subsets(n):
                for cf, cg in ((0, 0), (1, 2), (Fraction(1, 2), 0)):
                    f = SuperFunction.term(ctx, fx, cf, xf, fs)
                    g = SuperFunction.term(ctx, gx, cg, xg, gs)
                    want = SuperFunction.zero(ctx)
                    for xi, poly in _series_anti_channels(
                            (fx, cf, xf), (gx, cg, xg)).items():
                        for xexp, w in poly.items():
                            want = want + SuperFunction.term(
                                ctx, xexp, cf + cg, xi, fs * twisted * w)
                    assert antibracket(f, g) == want
    assert brackets._anti_factor.cache_info().hits > 0
    assert brackets._anti_factor.cache_info().maxsize == \
        brackets._CACHE_BOUND


def test_first_order_brackets_form_one_product_per_term_pair(monkeypatch):
    """Each first-order bracket forms the scalar product of a term pair at
    most once, however many output terms the pair feeds: the calls of
    ``mul_into`` are counted, not timed.  On these inputs the pairs feed
    more output terms than there are pairs, so one product per output term
    would break the bound."""
    calls = []
    real = brackets.mul_into

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(brackets, "mul_into", counted)
    rng = seeded(41)
    for bracket, ctx in ((poisson_bracket, SymplecticContext(4, 2, (1, -1),
                                                            1, 6)),
                         (antibracket, SymplecticContext(2, 2, (1, 1), 1, 6))):
        pairs = outputs = 0
        for _ in range(6):
            f, g = (random_superfunction(rng, ctx, max_x_degree=3, terms=2,
                                         gauss_pool=(1, 2), theta=True)
                    for _ in range(2))
            calls.clear()
            got = bracket(f, g)
            n_pairs = len(_grouped(f)) * len(_grouped(g))
            assert len(calls) <= n_pairs
            pairs += n_pairs
            outputs += len(_grouped(got))
        assert outputs > pairs


def _series_poisson_row(f1, f2, g1, g2, cf, cg):
    """The x-pair channel of P on one block, (d1 f_B)(d2 g_B) - (d2
    f_B)(d1 g_B), straight from the derivative steps; the oracle of the
    m = 1 ``_block_row``, keyed by exponent tuples."""
    from superdeform.scalars import accumulate
    from superdeform.superfunc import x_steps
    fx, gx = (f1, f2), (g1, g2)
    ex = (f1 + g1, f2 + g2)
    poly = {}
    for a1, a2, w in ((0, 1, 1), (1, 0, -1)):
        for s1, u in x_steps(fx[a1], cf):
            for s2, v in x_steps(gx[a2], cg):
                accumulate(poly, _bumped(_bumped(ex, a1, s1), a2, s2),
                           w * u * v)
    return poly


def test_poisson_block_rows_equal_the_series():
    """Every block with exponents 0..5 per slot and Gaussian weights in
    {0, 1/2, 1, 2}: the cached m = 1 block row that ``poisson_bracket``
    reads, a miss and then a hit, equals the derivative steps and holds
    clean coefficients, with the caches as the other tests left them and
    again after clearing.  The row is keyed by packed blocks, unpacked
    here to meet the tuple oracle."""
    weights = (0, Fraction(1, 2), 1, 2)
    keys = [(pack_x(exps[:2]), pack_x(exps[2:])) + cs
            for exps in itertools.product(range(6), repeat=4)
            for cs in itertools.product(weights, repeat=2)]
    expected = [_series_poisson_row(*unpack_x(fb, 2), *unpack_x(gb, 2), *cs)
                for fb, gb, *cs in keys]
    for _ in range(2):
        for key, want in zip(keys, expected):
            row = brackets._block_row(*key, 1)
            assert brackets._block_row(*key, 1) is row
            assert {unpack_x(e, 2): w for e, w in row.items()} == want
            assert all(w and (w.__class__ is int or w.denominator != 1)
                       for w in row.values())
        info = brackets._block_row.cache_info()
        assert info.hits >= len(keys) and info.currsize == info.maxsize
        clear_kernel_caches()
