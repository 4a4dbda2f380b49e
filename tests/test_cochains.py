"""Unit tests for the cochain calculus: forms, Jacobiator, differential."""

from fractions import Fraction

import pytest

from superdeform import (ArityError, ContextMismatchError, Scalar,
                         SuperFunction, SymplecticContext, anti_form, d_ad,
                         jacobiator, jzeta_form, m0_form, m1_form, m23_form,
                         m3_form, moyal_form, mu_form, mzeta_form,
                         poisson_bracket)
from superdeform.cochains import (EVEN, ODD, Cochain, _bar_pairing, m1,
                                  grading_parity)

from conftest import random_superfunction, seeded


def rand_d(rng, ctx, terms=1):
    """A D-class sample (every term Gaussian-suppressed)."""
    return random_superfunction(rng, ctx, gauss_pool=(1, 2),
                                xi_degree=rng.randint(0, min(2, ctx.n_minus)),
                                terms=terms)


def test_leaf_metadata(ctx42):
    assert m0_form(ctx42).parity == 0
    assert m3_form(ctx42).parity == ctx42.n_minus % 2
    assert m1_form(ctx42).arity == 2
    assert mu_form(ctx42).parity == 0


def test_scaled_cochain_parity(ctx42):
    theta = Scalar.theta(ctx42.scalar_ctx, 1)
    scaled = m3_form(ctx42).scaled(theta)
    assert scaled.parity == (m3_form(ctx42).parity + 1) % 2
    f = SuperFunction.gauss(ctx42, 1)
    g = SuperFunction.term(ctx42, c=1, xi=(1, 2))
    assert scaled.evaluate(f, g) == \
        m3_form(ctx42).evaluate(f, g).scale_left(theta)


def test_sum_cochain_arity_mismatch(ctx42):
    with pytest.raises(ArityError):
        m0_form(ctx42) + jacobiator(m0_form(ctx42))


def test_sum_of_two_gradings_is_refused(ctx22):
    """A sum of an even and an odd form lies in neither complex, so it is
    refused in either order, naming both gradings; a sum of one grading
    keeps it."""
    anti, m0, m23 = anti_form(ctx22), m0_form(ctx22), m23_form(ctx22)
    with pytest.raises(ValueError,
                       match="anti has the odd grading, but m0 the even one"):
        anti + m0
    with pytest.raises(ValueError,
                       match="m0 has the even grading, but anti the odd one"):
        m0 + anti
    with pytest.raises(ValueError, match="but m23 the odd one"):
        m0.scaled(2) + m23
    assert (anti + m23).grading == ODD
    assert (m0 + m3_form(ctx22)).grading == EVEN


def test_arity_checked_on_evaluate(ctx42):
    f = SuperFunction.x(ctx42, 1)
    with pytest.raises(ArityError):
        m0_form(ctx42).evaluate(f)


def test_function_scaled_cochain(ctx42):
    eta = SuperFunction.x(ctx42, 1)
    form = mu_form(ctx42).times(eta)
    f = SuperFunction.term(ctx42, c=1, xi=(1, 2))
    g = SuperFunction.term(ctx42, c=2, xi=(1, 2))
    value = mu_form(ctx42).evaluate(f, g)
    assert len(value.terms) == 1
    scalar = next(iter(value.terms.values()))
    # the mu value is a constant; the prefactor multiplies it from the left
    assert form.evaluate(f, g) == eta.scale_right(scalar)


def test_jacobiator_of_poisson_vanishes(ctx42):
    J = jacobiator(m0_form(ctx42))
    rng = seeded(43)
    for _ in range(8):
        f, g, h = (random_superfunction(
            rng, ctx42, xi_degree=rng.randint(0, 2), theta=True)
            for _ in range(3))
        assert J.evaluate(f, g, h).is_zero()


def test_jacobiator_matches_cyclic_sum(ctx42):
    # independent expansion of the single-sum Jacobiator
    J = jacobiator(m1_form(ctx42))
    m1 = m1_form(ctx42)
    rng = seeded(45)
    for _ in range(4):
        f, g, h = (rand_d(rng, ctx42) for _ in range(3))
        expect = SuperFunction.zero(ctx42)
        for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
            sign = (-1) ** (a.eps() * c.eps())
            expect = expect + m1.evaluate(m1.evaluate(a, b), c) * sign
        assert J.evaluate(f, g, h) == expect


def test_two_argument_jacobiator_symmetry(ctx42):
    p, q = m1_form(ctx42), m3_form(ctx42)
    rng = seeded(47)
    f, g, h = (rand_d(rng, ctx42) for _ in range(3))
    assert jacobiator(p, q).evaluate(f, g, h) == \
        jacobiator(q, p).evaluate(f, g, h)


def test_m3_is_a_cocycle(ctx42):
    d = d_ad(m3_form(ctx42))
    rng = seeded(49)
    for _ in range(6):
        assert d.evaluate(rand_d(rng, ctx42), rand_d(rng, ctx42),
                          rand_d(rng, ctx42)).is_zero()


def test_mzeta_is_a_cocycle(ctx42):
    zeta = SuperFunction.term(ctx42, (1, 1, 0, 0), scalar=2)
    d = d_ad(mzeta_form(ctx42, zeta))
    rng = seeded(51)
    for _ in range(5):
        assert d.evaluate(rand_d(rng, ctx42), rand_d(rng, ctx42),
                          rand_d(rng, ctx42)).is_zero()


def test_m23_is_an_antibracket_cocycle(ctx22):
    d = d_ad(m23_form(ctx22), bracket=anti_form(ctx22))
    rng = seeded(53)
    for _ in range(6):
        args = [random_superfunction(rng, ctx22,
                                     xi_degree=rng.randint(0, 2))
                for _ in range(3)]
        assert d.evaluate(*args).is_zero()


def test_d_ad_takes_the_bracket_of_the_form_grading(ctx22):
    """The default bracket is the one of the form's grading; a bracket of
    the other grading is refused, since the signs follow the form."""
    m23, anti, m0 = m23_form(ctx22), anti_form(ctx22), m0_form(ctx22)
    for form, bracket in ((m23, m0), (m0, anti)):
        with pytest.raises(ValueError, match="grading"):
            d_ad(form, bracket=bracket)
    rng = seeded(53)
    default, explicit = d_ad(m23), d_ad(m23, bracket=anti)
    for _ in range(6):
        args = [random_superfunction(rng, ctx22,
                                     xi_degree=rng.randint(0, 2))
                for _ in range(3)]
        assert default.evaluate(*args) == explicit.evaluate(*args)
        assert default.evaluate(*args).is_zero()


def test_cross_identity_many_cochains(ctx42):
    # -(-1)^{eps(f) eps(h)} J(p, m0) = d2_ad p, for assorted 2-cochains p
    m0 = m0_form(ctx42)
    zeta = SuperFunction.term(ctx42, (0, 1, 0, 0), scalar=3)
    cochains = [m1_form(ctx42), m3_form(ctx42), mu_form(ctx42),
                mzeta_form(ctx42, zeta), jzeta_form(ctx42, zeta),
                m3_form(ctx42).scaled(Scalar.hbar(ctx42.scalar_ctx, 2))]
    rng = seeded(55)
    for p in cochains:
        J = jacobiator(p, m0)
        d = d_ad(p)
        for _ in range(4):
            f, g, h = (rand_d(rng, ctx42) for _ in range(3))
            lhs = J.evaluate(f, g, h) * (-((-1) ** (f.eps() * h.eps())))
            assert lhs == d.evaluate(f, g, h)


def test_d_squared_vanishes(ctx42):
    rng = seeded(57)
    dd = d_ad(d_ad(m3_form(ctx42)))
    for _ in range(2):
        args = [rand_d(rng, ctx42) for _ in range(4)]
        assert dd.evaluate(*args).is_zero()


def test_d_squared_vanishes_odd(ctx22):
    rng = seeded(59)
    anti = anti_form(ctx22)
    dd = d_ad(d_ad(m23_form(ctx22), bracket=anti), bracket=anti)
    for _ in range(2):
        args = [random_superfunction(rng, ctx22,
                                     xi_degree=rng.randint(0, 2))
                for _ in range(4)]
        assert dd.evaluate(*args).is_zero()


def test_moyal_form_jacobiator(ctx42):
    J = jacobiator(moyal_form(ctx42, 1))
    rng = seeded(61)
    f, g, h = (rand_d(rng, ctx42) for _ in range(3))
    assert J.evaluate(f, g, h).is_zero()


def test_grading_parity_helper(ctx42):
    f = SuperFunction.xi(ctx42, 1)
    assert grading_parity(f, EVEN) == 1
    assert grading_parity(f, ODD) == 0


def test_m23_spec_values(ctx22):
    # [xi1, x1]* contribution: (1-N_xi)xi1 = 0 so only the plain bracket
    m23 = m23_form(ctx22)
    one = SuperFunction.constant(ctx22, 1)
    assert m23.evaluate(one, one) == one
    xi1 = SuperFunction.xi(ctx22, 1)
    assert m23.evaluate(xi1, one).is_zero()


def test_evaluation_linearity(ctx42):
    rng = seeded(63)
    m3 = m3_form(ctx42)
    f, g, h = (rand_d(rng, ctx42) for _ in range(3))
    lhs = m3.evaluate(f + g * Fraction(2), h)
    assert lhs == m3.evaluate(f, h) + m3.evaluate(g, h) * 2


# -- bar pairings: op meets only a nonzero bar ------------------------------

def _bar(f):
    return f.integral_bar()


def _bar_pairing_oracle(op, n_minus, f, g):
    """op(f) gbar (-1)^{n_minus eps_f} - op(g) fbar (-1)^{eps_f eps_g +
    n_minus eps_g}, with both operator values always computed."""
    ef, eg = f.eps(), g.eps()
    return (op(f).scale_right(_bar(g)) * (-1) ** (n_minus * ef)
            - op(g).scale_right(_bar(f)) * (-1) ** (ef * eg + n_minus * eg))


def _bar_arguments(ctx):
    """Homogeneous arguments with zero, rational and theta-odd bars."""
    top = tuple(range(1, ctx.n_minus + 1))
    theta = Scalar.theta(ctx.scalar_ctx, 1)
    term = SuperFunction.term
    return [
        term(ctx, (1, 0), 1, (), 2) + term(ctx, (0, 2), 2, (), -1),
        term(ctx, (2, 0), 1, top[:1], 3),
        term(ctx, (1, 1), 2, top, 5),
        term(ctx, (2, 0), 1, top, 3) + term(ctx, (1, 0), 2, top, -2),
        term(ctx, (0, 2), 2, top, Fraction(1, 2)),
        term(ctx, (0, 0), 1, top, theta) + term(ctx, (1, 0), 1, top, theta),
    ]


@pytest.mark.parametrize("n_minus, lambdas", [(1, (-1,)), (2, (1, -1))])
def test_bar_pairings_match_unconditional_formula(n_minus, lambdas):
    ctx = SymplecticContext(2, n_minus, lambdas, 1, 6)
    zeta = (SuperFunction.term(ctx, (3, 1), 0, (), 2)
            + SuperFunction.term(ctx, (1, 1), 1, (), -1))
    forms = [(m3_form(ctx), SuperFunction.euler_E),
             (mzeta_form(ctx, zeta), lambda f: poisson_bracket(zeta, f)),
             (jzeta_form(ctx, zeta), lambda f: m1(zeta, f))]
    args = _bar_arguments(ctx)
    cases, nonzero = set(), 0
    for f in args:
        for g in args:
            cases.add((bool(_bar(f)), bool(_bar(g))))
            for form, op in forms:
                expected = _bar_pairing_oracle(op, n_minus, f, g)
                assert form.evaluate(f, g) == expected
                nonzero += not expected.is_zero()
    assert cases == {(False, False), (False, True), (True, False),
                     (True, True)}
    assert any(_bar(f).parity() == 1 for f in args)
    assert nonzero


def test_bar_pairing_calls_op_only_for_a_nonzero_bar(ctx22):
    zero_bar, bar = _bar_arguments(ctx22)[2:4]
    calls = []

    def counting_op(f):
        calls.append(f)
        return f

    for f, g, expected in ((zero_bar, zero_bar, 0), (bar, zero_bar, 1),
                           (zero_bar, bar, 1), (bar, bar, 2)):
        calls.clear()
        _bar_pairing(ctx22, counting_op, 0, "count").evaluate(f, g)
        assert len(calls) == expected


@pytest.mark.parametrize("build", [
    m3_form,
    lambda ctx: mzeta_form(ctx, SuperFunction.term(ctx, (1, 1, 0, 0),
                                                   scalar=2))])
def test_bar_pairing_rejects_mixed_contexts_with_zero_bars(ctx42, ctx22,
                                                           build):
    form = build(ctx42)
    f42 = SuperFunction.term(ctx42, (1, 0, 0, 0), 1, (1,))
    g22 = SuperFunction.term(ctx22, (1, 0), 1, (1,))
    assert not _bar(f42) and not _bar(g22)
    for f, g in ((f42, g22), (g22, f42)):
        with pytest.raises(ContextMismatchError):
            form.evaluate(f, g)


# -- the homogeneous pass-through of evaluate ------------------------------

def _recording_leaf(ctx, seen):
    """The Poisson bracket as a leaf that records its arguments and
    asserts that each is parity-homogeneous."""

    def fn(f, g):
        assert f.eps() is not None and g.eps() is not None
        seen.append((f, g))
        return poisson_bracket(f, g)

    return Cochain(ctx, 2, 0, fn, EVEN, name="recording")


def test_evaluate_with_a_zero_argument_calls_no_leaf(ctx42):
    seen = []
    form = _recording_leaf(ctx42, seen)
    f = SuperFunction.x(ctx42, 1) + SuperFunction.xi(ctx42, 1)
    zero = SuperFunction.zero(ctx42)
    for args in ((zero, f), (f, zero), (zero, zero),
                 (zero, SuperFunction.x(ctx42, 2))):
        assert form.evaluate(*args).is_zero()
    assert seen == []


def test_evaluate_splits_only_a_mixed_argument(ctx42):
    """A homogeneous pair reaches the leaf as it is; a mixed-parity
    argument is split, and the leaf sees only homogeneous pieces."""
    seen = []
    form = _recording_leaf(ctx42, seen)
    t = Scalar.theta(ctx42.scalar_ctx, 1)
    even = SuperFunction.x(ctx42, 1) + SuperFunction.xi(ctx42, 1).scale_left(t)
    odd = SuperFunction.xi(ctx42, 2) + SuperFunction.x(ctx42, 2).scale_left(t)
    g = SuperFunction.x(ctx42, 2) * SuperFunction.xi(ctx42, 1)
    assert form.evaluate(even, g) == poisson_bracket(even, g)
    assert len(seen) == 1 and seen[0][0] is even and seen[0][1] is g
    seen.clear()
    mixed = even + odd
    assert mixed.eps() is None
    assert form.evaluate(mixed, g) == poisson_bracket(even, g) + \
        poisson_bracket(odd, g)
    assert len(seen) == 2
    assert sorted(f.eps() for f, _ in seen) == [0, 1]


def test_evaluate_stores_each_miss(ctx42):
    """A miss adds one entry to ``_cache`` and a repeat finds it, which is
    how per-layer tracing counts hits."""
    form = m0_form(ctx42)
    f, g = SuperFunction.x(ctx42, 1), SuperFunction.x(ctx42, 2)
    zero = SuperFunction.zero(ctx42)
    for args in ((f, g), (f + SuperFunction.xi(ctx42, 1), g), (zero, g)):
        size = len(form._cache)
        value = form.evaluate(*args)
        assert len(form._cache) == size + 1
        assert form.evaluate(*args) is value
        assert len(form._cache) == size + 1
