"""Unit tests for the Poisson superbracket, antibracket, and Moyal bracket."""

import itertools
from fractions import Fraction
from math import factorial

import pytest

from superdeform import (ContextMismatchError, Scalar, SuperFunction,
                         SymplecticContext, antibracket, bidiff_power,
                         brackets, moyal_bracket, poisson_bracket, sf_mul)
from superdeform.brackets import bidiff_term
from superdeform.cochains import m1

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


# -- tables shared across calls ---------------------------------------------


def _reweighted(f, c):
    """f with the Gaussian weight of every term set to c."""
    out = SuperFunction.zero(f.ctx)
    for (xexp, _c, xi), s in f.terms.items():
        out = out + SuperFunction.term(f.ctx, xexp, c, xi, s)
    return out


def _store_lengths():
    return {key: len(table) for key, table in brackets._TABLES.items()}


@pytest.mark.parametrize("n_plus, lambdas", [
    (0, (1, -1, 1)),
    (2, (-1, 1)),
    (4, (1, -1)),
], ids=["no_x_blocks", "one_x_block", "two_x_blocks"])
def test_shared_memo_matches_fresh(n_plus, lambdas):
    # brackets' one table store serves Moyal brackets of the same exponents
    # at several pairs of Gaussian weights (a key that dropped c_f or c_g
    # would mix them up) in two contexts: the given metric at h_max 6 and
    # every lambda = -1 at h_max 4, each call with its own kappa.  Each
    # pair is first bracketed with an hbar^4 factor, which keeps fewer
    # powers and so builds short tables, then without it, which needs
    # longer ones, then with it again, which must hit the longer tables and
    # keep them.  Every value must equal the one computed on a cleared
    # store and, where the series is short enough for it, the naive series
    # oracle; bidiff_power works on tables of its own and leaves the store
    # as it is.
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
            calls += [((f.scale_left(heavy), g, next(kappas)), True),
                      ((f, g, next(kappas)), ctx.h_max < 6 and cf == cg),
                      ((f.scale_left(heavy), g, next(kappas)), True)]
        per_context.append(calls)
    # interleave the two contexts, so that each reads the other's tables
    # (each call of a pair with another kappa)
    calls = [call for pair in zip(*per_context) for call in pair]
    brackets._TABLES.clear()
    values = []
    grew = False
    for args, _ in calls:
        before = _store_lengths()
        values.append(moyal_bracket(*args))
        after = _store_lengths()
        assert all(after[key] >= n for key, n in before.items())
        grew |= any(after[key] > n for key, n in before.items())
    assert grew
    for (args, oracle), value in zip(calls, values):
        brackets._TABLES.clear()
        assert moyal_bracket(*args) == value
        if oracle:
            assert value == _series_oracle(*args)
    brackets._TABLES.clear()
    bidiff_power(*calls[1][0][:2], 3)
    assert not brackets._TABLES


def test_stored_tables_are_never_extended_in_place():
    # a caller that holds a table keeps its length when a longer one is
    # stored under the same key: the store replaces, it never appends
    ctx = SymplecticContext(2, 1, (1,), 1, 6)
    f = SuperFunction.term(ctx, (2, 1), 1, (1,), 3)
    g = SuperFunction.term(ctx, (1, 2), 2, (1,), -2)
    brackets._TABLES.clear()
    moyal_bracket(f.scale_left(Scalar.hbar(ctx.scalar_ctx, 4)), g)
    held = dict(brackets._TABLES)
    lengths = _store_lengths()
    moyal_bracket(f, g)
    assert {key: len(table) for key, table in held.items()} == lengths
    longer = [key for key, n in _store_lengths().items()
              if key in held and n > lengths[key]]
    # derivative, block and x tables all grew
    assert {len(key) for key in longer} == {2, 4, 6}
    assert all(brackets._TABLES[key] is not held[key] for key in longer)


def test_table_store_is_cleared_past_its_bound(monkeypatch):
    monkeypatch.setattr(brackets, "_TABLE_BOUND", 3)
    ctx = SymplecticContext(2, 1, (1,), 1, 6)
    f = SuperFunction.term(ctx, (2, 1), 1, (1,), 3)
    g = SuperFunction.term(ctx, (1, 2), 2, (1,), -2)
    h = SuperFunction.term(ctx, (0, 1), HALF, (), 5)

    def keys_of(*args):
        brackets._TABLES.clear()
        value = moyal_bracket(*args)
        return value, set(brackets._TABLES)

    first, first_keys = keys_of(f, g)
    second, second_keys = keys_of(g, h)
    assert len(first_keys) > 3 and first_keys - second_keys
    brackets._TABLES.clear()
    assert moyal_bracket(f, g) == first
    # past the bound, the store is cleared before the next bracket
    assert moyal_bracket(g, h) == second
    assert set(brackets._TABLES) == second_keys


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
    """Every pair of xi monomials at n_minus <= 4, under two metrics that
    differ on the shared indices: a cache key without the lambdas would
    hand the first metric's factor to the second."""
    brackets._odd_factor.cache_clear()
    uncached = brackets._odd_factor.__wrapped__
    for n in range(5):
        for lambdas in ((1, -1, 1, -1)[:n], (-1,) * n):
            for xf in _subsets(n):
                for xg in _subsets(n):
                    assert brackets._odd_factor(lambdas, xf, xg) == \
                        uncached(lambdas, xf, xg)
    assert brackets._odd_factor.cache_info().maxsize == brackets._ODD_BOUND


def test_cached_moyal_weights_are_keyed_by_context():
    """The weights (h kappa)^(p-1) depend on the truncation order, which a
    kappa Scalar carries in its context; equal values in two contexts get
    their own weights."""
    brackets._moyal_weights.cache_clear()
    for h_max in (6, 2, 6, 0):
        sctx = SymplecticContext(2, 1, (1,), 1, h_max).scalar_ctx
        for kappa in (Scalar.one(sctx), Scalar.rational(sctx, 2),
                      Scalar.rational(sctx, 2) + Scalar.hbar(sctx)):
            got = brackets._moyal_weights(kappa)
            assert got == brackets._moyal_weights.__wrapped__(kappa)
            assert [p for p, _w in got] == list(range(1, h_max // 2 * 2 + 2,
                                                       2))
    assert brackets._moyal_weights.cache_info().maxsize == \
        brackets._WEIGHTS_BOUND


def test_moyal_of_zero_is_zero_after_the_checks(ctx42):
    f = SuperFunction.x(ctx42, 1)
    zero = SuperFunction.zero(ctx42)
    assert moyal_bracket(zero, f).is_zero()
    assert moyal_bracket(f, zero, 2).is_zero()
    with pytest.raises(ValueError):
        moyal_bracket(zero, f, Scalar.theta(ctx42.scalar_ctx, 1))
    with pytest.raises(ContextMismatchError):
        moyal_bracket(zero, SuperFunction.zero(SymplecticContext(2, 2)))


def _series_anti_channels(fkey, gkey):
    """The antibracket channels of a term pair with the xi merges done per
    pair, as before they were cached; the oracle of ``_anti_channels``."""
    from superdeform.scalars import accumulate, merge_odd_indices
    from superdeform.superfunc import bump, x_steps
    (fx, cf, xf), (gx, cg, xg) = fkey, gkey
    ex = tuple(a + b for a, b in zip(fx, gx))
    out = {}
    for pos, gen in enumerate(xg):
        sign, xi = merge_odd_indices(xf, xg[:pos] + xg[pos + 1:])
        w = -sign if pos & 1 else sign
        for step, u in x_steps(fx[gen - 1], cf) if sign else ():
            accumulate(out.setdefault(xi, {}), bump(ex, gen - 1, step), w * u)
    for pos, gen in enumerate(xf):
        sign, xi = merge_odd_indices(xf[:pos] + xf[pos + 1:], xg)
        w = sign if (len(xf) - pos) & 1 else -sign
        for step, v in x_steps(gx[gen - 1], cg) if sign else ():
            accumulate(out.setdefault(xi, {}), bump(ex, gen - 1, step), -w * v)
    return out


def test_cached_anti_factor_equals_uncached():
    """Every pair of xi monomials at n_minus <= 4: the cached channel
    lists equal fresh ones, and the channels built from them equal the
    per-pair merges, on x parts with and without a Gaussian weight."""
    brackets._anti_factor.cache_clear()
    uncached = brackets._anti_factor.__wrapped__
    for n in range(5):
        fx, gx = (0, 1, 2, 1)[:n], (1, 0, 0, 3)[:n]
        for xf in _subsets(n):
            for xg in _subsets(n):
                assert brackets._anti_factor(xf, xg) == uncached(xf, xg)
                for cf, cg in ((0, 0), (1, 2), (Fraction(1, 2), 0)):
                    fkey, gkey = (fx, cf, xf), (gx, cg, xg)
                    got = brackets._anti_channels(None, fkey, gkey)
                    assert (got or {}) == _series_anti_channels(fkey, gkey)
    assert brackets._anti_factor.cache_info().hits > 0
    assert brackets._anti_factor.cache_info().maxsize == \
        brackets._ANTI_BOUND
