"""The flat function layer against the per-term-Scalar path it replaced.

A SuperFunction keeps one flat coefficient dict and builds no Scalar per
term.  The oracles here are the per-term versions: each reads the
``terms`` view, works on whole Scalars with their own theta twist and
parity split (taken from the nested ``Scalar.terms`` view, not from the
flat keys), and sums the pieces per term key.  They run on seeded inputs
with theta, hbar, sqrt(r), sqrt(pi) and pi coefficients, Gaussian weights
0, 1/2, 1 and 2, metric signs -1, n_plus = 0, k in {0, 1, 2} and h_max
other than 6.  The ``terms`` view itself is pinned by its contract.
"""

import math
from fractions import Fraction

import pytest

from superdeform import (ContextMismatchError, NotIntegrableError, Scalar,
                         SuperFunction, SymplecticContext, sf_mul)

from conftest import naive_merge, seeded

WEIGHTS = (0, Fraction(1, 2), 1, 2)
# (n_plus, n_minus, lambdas, k, h_max)
CONTEXTS = [(2, 2, (1, -1), 2, 4), (0, 3, (-1, 1, -1), 2, 5),
            (4, 2, (-1, -1), 0, 3), (2, 1, (-1,), 1, 2),
            (4, 4, (1, -1, 1, -1), 2, 5)]
INPUTS = 64  # per context, so 320 in all


def _ids(contexts):
    return [f"{n_plus}_{n_minus}{''.join('+-'[s < 0] for s in lambdas)}"
            f"-k{k}-h{h_max}"
            for n_plus, n_minus, lambdas, k, h_max in contexts]


def rich_scalar(rng, sctx):
    """One to three monomials over the whole ring."""
    out = Scalar.zero(sctx)
    for _ in range(rng.randint(1, 3)):
        t = Scalar.rational(sctx, Fraction(rng.choice((-3, -1, 1, 2, 5)),
                                           rng.choice((1, 2, 3))))
        t = t * rng.choice((Scalar.one(sctx), Scalar.sqrt(sctx, 2),
                            Scalar.sqrt(sctx, 6), Scalar.sqrt_pi(sctx),
                            Scalar.pi(sctx)))
        for j in range(1, sctx.k + 1):
            if rng.random() < 0.4:
                t = t * Scalar.theta(sctx, j)
        out = out + t * Scalar.hbar(sctx, rng.randint(0, 2))
    return out


def rich_function(rng, ctx, top=False):
    """One to three terms; ``top`` puts most of them where integral_bar is
    nonzero (top xi monomial, even exponents, c > 0)."""
    out = SuperFunction.zero(ctx)
    for _ in range(rng.randint(1, 3)):
        if top and rng.random() < 0.7:
            xexp = tuple(2 * rng.randint(0, 1) for _ in range(ctx.n_plus))
            c, xi = rng.choice(WEIGHTS[1:]), tuple(range(1, ctx.n_minus + 1))
        else:
            xexp = tuple(rng.randint(0, 2) for _ in range(ctx.n_plus))
            c = rng.choice(WEIGHTS)
            xi = tuple(sorted(rng.sample(range(1, ctx.n_minus + 1),
                                         rng.randint(0, ctx.n_minus))))
        out = out + SuperFunction.term(ctx, xexp, c, xi,
                                       rich_scalar(rng, ctx.scalar_ctx))
    return out


# -- the per-term-Scalar oracles ---------------------------------------------

def _from_view(ctx, view):
    """The Scalar of a nested view {(m, alpha): theta-free, h-free Scalar},
    rebuilt by products in which only the theta factor carries theta."""
    return sum((Scalar.hbar(ctx, m) * Scalar.theta(ctx, *alpha) * rad
                for (m, alpha), rad in view.items()), Scalar.zero(ctx))


def theta_twist(s, q):
    """s with each term times (-1)^(q * theta-weight)."""
    return _from_view(s.ctx, {(m, alpha): rad * (-1) ** (q * len(alpha))
                              for (m, alpha), rad in s.terms.items()})


def split_theta_parity(s):
    """(even part, odd part) of s by theta-weight."""
    return tuple(_from_view(s.ctx, {(m, alpha): rad for (m, alpha), rad
                                    in s.terms.items()
                                    if len(alpha) % 2 == w})
                 for w in (0, 1))


def _function(ctx, pieces):
    """The SuperFunction of (term key, Scalar) pieces, summed per key."""
    out = {}
    for key, s in pieces:
        out[key] = out[key] + s if key in out else s
    return SuperFunction(ctx, out)


def _shift(xexp, a, step):
    return xexp[:a] + (xexp[a] + step,) + xexp[a + 1:]


def _x_steps(e, c):
    """d/du (u^e exp(-c u^2/2)) = e u^(e-1) - c u^(e+1), as (step, factor)."""
    return [(step, q) for step, q in ((-1, e), (1, -c)) if q]


def sf_mul_oracle(f, g):
    pieces = []
    for (xe1, c1, xi1), s1 in f.terms.items():
        for (xe2, c2, xi2), s2 in g.terms.items():
            sign, xi = naive_merge(xi1, xi2)
            if sign:
                key = (tuple(a + b for a, b in zip(xe1, xe2)), c1 + c2, xi)
                pieces.append((key, s1 * theta_twist(s2, len(xi1)) * sign))
    return _function(f.ctx, pieces)


def scale_left_oracle(f, s):
    return _function(f.ctx, [(key, s * t) for key, t in f.terms.items()])


def scale_right_oracle(f, s):
    return _function(f.ctx, [(key, t * theta_twist(s, len(key[2])))
                             for key, t in f.terms.items()])


def deriv_oracle(f, a, right):
    ctx = f.ctx
    pieces = []
    for (xexp, c, xi), s in f.terms.items():
        if a < ctx.n_plus:
            pieces += [((_shift(xexp, a, step), c, xi), s * q)
                       for step, q in _x_steps(xexp[a], c)]
            continue
        gen = a - ctx.n_plus + 1
        if gen in xi:
            pos = xi.index(gen)
            if right:
                value = s * (-1) ** (len(xi) - pos - 1)
            else:
                value = theta_twist(s, 1) * (-1) ** pos
            pieces.append(((xexp, c, xi[:pos] + xi[pos + 1:]), value))
    return _function(ctx, pieces)


def number_z_oracle(f):
    pieces = []
    for (xexp, c, xi), s in f.terms.items():
        pieces.append(((xexp, c, xi), s * (sum(xexp) + len(xi))))
        pieces += [((_shift(xexp, a, 2), c, xi), s * -c)
                   for a in range(len(xexp)) if c]
    return _function(f.ctx, pieces)


def delta_op_oracle(f):
    pieces = []
    for (xexp, c, xi), s in f.terms.items():
        twisted = theta_twist(s, 1)
        for pos, gen in enumerate(xi):
            rest = xi[:pos] + xi[pos + 1:]
            pieces += [((_shift(xexp, gen - 1, step), c, rest),
                        twisted * q * (-1) ** pos)
                       for step, q in _x_steps(xexp[gen - 1], c)]
    return _function(f.ctx, pieces)


def integral_bar_oracle(f):
    ctx = f.ctx
    sctx = ctx.scalar_ctx
    top = tuple(range(1, ctx.n_minus + 1))
    half = ctx.n_plus // 2
    total = Scalar.zero(sctx)
    for (xexp, c, xi), s in f.terms.items():
        if ctx.n_plus and c == 0:
            if not any(xexp) and xi == ():
                continue
            raise NotIntegrableError("not integrable")
        if xi != top or any(e % 2 for e in xexp):
            continue
        # prod_a (e_a - 1)!! c^(-|e|/2) (2 pi / c)^(n/2)
        moment = Fraction(2) ** half / Fraction(c) ** (sum(xexp) // 2 + half)
        for e in xexp:
            moment *= math.prod(range(e - 1, 0, -2))
        # the left Berezin integral moves theta left past n_minus xi's
        total = total + theta_twist(s, ctx.n_minus) * Scalar.pi(sctx, half) \
            * moment
    return total


def homogeneous_oracle(f):
    """[(parity, part)] for the nonzero parts, even first."""
    parts = ({}, {})
    for (xexp, c, xi), s in f.terms.items():
        for w, piece in enumerate(split_theta_parity(s)):
            if piece:
                parts[(len(xi) + w) % 2][xexp, c, xi] = piece
    return [(p, SuperFunction(f.ctx, parts[p])) for p in (0, 1) if parts[p]]


def same(got, want):
    assert got.coeffs == want.coeffs
    assert got.render() == want.render()


def same_integral(f):
    try:
        want = integral_bar_oracle(f)
    except NotIntegrableError:
        with pytest.raises(NotIntegrableError):
            f.integral_bar()
        return 0
    same(f.integral_bar(), want)
    return not want.is_zero()


@pytest.mark.parametrize("shape", CONTEXTS, ids=_ids(CONTEXTS))
def test_flat_layer_matches_per_term_scalars(shape):
    ctx = SymplecticContext(*shape)
    rng = seeded(sum(shape[:2]) * 100 + shape[3] * 10 + shape[4])
    nonzero_integrals = 0
    for _ in range(INPUTS):
        f = rich_function(rng, ctx)
        g = rich_function(rng, ctx, top=rng.random() < 0.5)
        s = rich_scalar(rng, ctx.scalar_ctx)
        same(sf_mul(f, g), sf_mul_oracle(f, g))
        same(f.scale_left(s), scale_left_oracle(f, s))
        same(f.scale_right(s), scale_right_oracle(f, s))
        for a in range(ctx.n_z):
            same(f.left_deriv(a), deriv_oracle(f, a, right=False))
            same(f.right_deriv(a), deriv_oracle(f, a, right=True))
        same(f.number_z(), number_z_oracle(f))
        if ctx.n_plus == ctx.n_minus:
            same(f.delta_op(), delta_op_oracle(f))
        for h in (f, g, f + g):
            nonzero_integrals += same_integral(h)
            parts = homogeneous_oracle(h)
            got = h.homogeneous_components()
            assert len(got) == len(parts)
            for part, (parity, want) in zip(got, parts):
                same(part, want)
                assert part.eps() == parity
            assert h.eps() == (parts[0][0] if len(parts) == 1 else None)
    assert nonzero_integrals > INPUTS // 4


@pytest.mark.parametrize("shape", CONTEXTS, ids=_ids(CONTEXTS))
def test_terms_view_contract(shape):
    """perfbench and the tests read ``terms``: it rebuilds the function,
    has one entry per distinct (xexp, c, xi), holds nonzero Scalars over
    the context's ring, and is a copy."""
    ctx = SymplecticContext(*shape)
    rng = seeded(7 + shape[4])
    for _ in range(20):
        f = rich_function(rng, ctx) + rich_function(rng, ctx, top=True)
        before = dict(f.coeffs)
        view = f.terms
        assert SuperFunction(f.ctx, view) == f
        assert len(view) == len({key[:3] for key in f.coeffs})
        assert all(isinstance(s, Scalar) and s and s.ctx == ctx.scalar_ctx
                   for s in view.values())
        for s in view.values():
            s.coeffs.clear()
        view.clear()
        assert f.coeffs == before


# -- the flat-sum core shared by Scalar and SuperFunction ---------------------

CORE_CONTEXTS = [(n_plus, n_minus, (1,) * n_minus, k, h_max)
                 for n_plus, n_minus in ((2, 1), (0, 2))
                 for k in (0, 2) for h_max in (3, 6)]


def core_scalar(rng, sctx):
    """A seeded Scalar with theta, hbar, sqrt(r) and pi terms, whose
    products may pass h_max; about half of them even series in hbar."""
    even = rng.random() < 0.5
    out = Scalar.zero(sctx)
    for _ in range(rng.randint(1, 3)):
        part = rich_scalar(rng, sctx)
        if even:
            part = part.truncate(0)
        m = rng.randrange(0, sctx.h_max + 1, 2 if even else 1)
        out = out + part * Scalar.hbar(sctx, m)
    return out


@pytest.mark.parametrize("shape", CORE_CONTEXTS, ids=_ids(CORE_CONTEXTS))
def test_flat_sum_core_agrees_on_constants(shape):
    """Sums, negation and the hbar filters are one implementation: on
    constant functions they give the constants of the Scalar results."""
    ctx = SymplecticContext(*shape)
    sctx = ctx.scalar_ctx
    one = Scalar.one(sctx)

    def const(s):
        return SuperFunction.constant(ctx, s)

    rng = seeded(11 + shape[3] + shape[4])
    evens = 0
    for _ in range(24):
        s, t = core_scalar(rng, sctx), core_scalar(rng, sctx)
        assert const(s) + const(t) == const(s + t)
        assert const(s) - const(t) == const(s - t)
        assert -const(s) == const(-s)
        assert const(s).hbar_min_degree() == s.hbar_min_degree()
        for m in range(ctx.h_max + 1):
            low = s.truncate(m)
            assert all(power <= m for power, _ in low.terms)
            assert (s - low).hbar_min_degree() in (None, *range(m + 1, 7))
            assert const(s).truncate(m) == const(low)
        for d in range(4):
            assert const(s).is_even_series(d) == s.is_even_series(d)
        evens += s.is_even_series(0)
        for u, lift in ((s, lambda v: v), (const(s), const)):
            assert 1 - u == lift(one + -s)
            assert u - 1 == lift(s + -one)
            assert u + 0 == u and 0 + u == u
    assert 0 < evens < 24
    other = SymplecticContext(*shape[:4], shape[4] + 1)
    for a, b in ((one, Scalar.one(other.scalar_ctx)),
                 (const(one), SuperFunction.constant(other, 1)),
                 (const(one), Scalar.one(other.scalar_ctx))):
        with pytest.raises(ContextMismatchError):
            a + b
        with pytest.raises(ContextMismatchError):
            a - b
