"""Unit tests for the cochain calculus: forms, Jacobiator, differential."""

import gc
import weakref
from fractions import Fraction

import pytest

from superdeform import (ArityError, ContextMismatchError, NotIntegrableError,
                         SampleSpec, Scalar, ScalarContext, SuperFunction,
                         SymplecticContext,
                         anti_form, check_signs, d_ad, jacobiator,
                         jzeta_form, m0_form, m1_form, m23_form, m3_form,
                         moyal_bracket, moyal_form, mu_form, mzeta_form,
                         poisson_bracket, sample_superfunctions)
from superdeform.cochains import (EVEN, ODD, Cochain, _bar_pairing,
                                  m1, grading_parity, mu)
from superdeform.superfunc import _surviving

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


def test_sum_over_two_contexts_is_refused():
    """A sum of forms over two contexts is refused when it is built, in
    either order, naming both contexts: its m3 part would sign with the
    other context's n_minus.  Equal contexts that are distinct objects
    still sum, to the value of the sum over one context."""
    a, b = SymplecticContext(0, 1), SymplecticContext(0, 2)
    for left, right in ((m0_form(a), m3_form(b)), (m3_form(b), m0_form(a))):
        with pytest.raises(ContextMismatchError) as err:
            left + right
        assert repr(a) in str(err.value) and repr(b) in str(err.value)
    xi1 = SuperFunction.xi(a, 1)
    one = SuperFunction.constant(a, 1)
    for twin in (a, SymplecticContext(0, 1)):
        summed = m0_form(a) + m3_form(twin)
        assert summed.ctx is a
        assert summed.evaluate(xi1, xi1) == one - xi1


_A, _B = SymplecticContext(2, 1), SymplecticContext(2, 1, (-1,))
_SA, _SB = _A.scalar_ctx, ScalarContext(1, 6)


@pytest.mark.parametrize("call, a, b", [
    (lambda: Scalar.one(_SA) + Scalar.one(_SB), _SA, _SB),
    (lambda: m0_form(_A).evaluate(SuperFunction.x(_B, 1),
                                  SuperFunction.x(_B, 2)), _A, _B),
    (lambda: m0_form(_A) + m0_form(_B), _A, _B),
    (lambda: SuperFunction.x(_A, 1).scale_left(Scalar.one(_SB)), _SA, _SB),
], ids=["scalar_sum", "evaluate", "cochain_sum", "scale_left"])
def test_every_context_site_refuses_alike(call, a, b):
    """Each site that meets operands over two contexts refuses them by the
    one rule, ``scalars.check_context``, in its words: "contexts differ:"
    and both contexts."""
    with pytest.raises(ContextMismatchError) as err:
        call()
    assert str(err.value) == f"contexts differ: {a!r} vs {b!r}"


def test_arity_checked_on_evaluate(ctx42):
    f = SuperFunction.x(ctx42, 1)
    with pytest.raises(ArityError):
        m0_form(ctx42).evaluate(f)


def test_jacobiator_takes_2_cochains(ctx42):
    one = Cochain(ctx42, 1, 0, lambda f: f, EVEN, name="id")
    for args in ((one,), (m0_form(ctx42), one)):
        with pytest.raises(ArityError, match="2-cochains"):
            jacobiator(*args)


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


def test_forms_refuse_bad_parameters_when_built(ctx42):
    """A form refuses its context or kappa before any argument is seen, so
    that a zero argument, which is never passed to the kernel, cannot hide
    the refusal."""
    with pytest.raises(ValueError, match="anti requires n_plus == n_minus"):
        anti_form(ctx42)
    with pytest.raises(ValueError, match="m23 requires n_plus == n_minus"):
        m23_form(ctx42)
    theta = Scalar.theta(ctx42.scalar_ctx, 1)
    with pytest.raises(ValueError, match="kappa must be theta-free"):
        moyal_form(ctx42, theta)
    with pytest.raises(ContextMismatchError):
        moyal_form(ctx42, Scalar.one(ScalarContext(k=2)))
    f = SuperFunction.term(ctx42, (3, 0, 0, 0))
    g = SuperFunction.term(ctx42, (0, 3, 0, 0), 1, xi=(1,))
    for kappa in (1, Fraction(1, 2), Scalar.hbar(ctx42.scalar_ctx, 2)):
        assert moyal_form(ctx42, kappa).evaluate(f, g) == \
            moyal_bracket(f, g, kappa)


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


def _metrics_apart():
    """Two (2, 2) contexts that differ in one metric sign only, so their
    scalar contexts are equal."""
    return SymplecticContext(2, 2, (1, 1)), SymplecticContext(2, 2, (1, -1))


def test_evaluate_checks_the_context_of_a_zero_argument():
    """A zero argument over another context is refused, in either
    position, as a nonzero one is, before the zero shortcut; a zero over
    the form's own context still gives zero."""
    ctx, other = _metrics_apart()
    f = SuperFunction.x(ctx, 1) + SuperFunction.xi(ctx, 2)
    alien = SuperFunction.zero(other)
    for form in (m0_form(ctx), anti_form(ctx), m3_form(ctx)):
        for args in ((alien, f), (f, alien), (alien, alien),
                     (SuperFunction.zero(ctx), alien),
                     (SuperFunction.x(other, 1), SuperFunction.x(other, 2))):
            with pytest.raises(ContextMismatchError):
                form.evaluate(*args)
        assert form.evaluate(SuperFunction.zero(ctx), f).is_zero()
        assert form.evaluate(f, SuperFunction.zero(ctx)).is_zero()


def test_mu_refuses_arguments_over_two_contexts():
    """mu, mu_form and the eta*mu part of the general odd bracket refuse
    two top-xi Gaussians whose contexts differ in a metric sign only,
    whose bar product alone would be 4*pi^2."""
    ctx, other = _metrics_apart()
    f = SuperFunction.term(ctx, (0, 0), 1, (1, 2))
    g = SuperFunction.term(other, (0, 0), 1, (1, 2))
    assert str(mu(f, f)) == "4*pi^2"
    eta = SuperFunction.gauss(ctx, 1)
    eta_mu = Cochain(ctx, 2, 0, lambda f, g: eta.scale_right(mu(f, g)),
                     EVEN, name="eta*mu")
    for args in ((f, g), (g, f)):
        with pytest.raises(ContextMismatchError):
            mu(*args)
        for form in (mu_form(ctx), eta_mu):
            # fn alone, past the context check of evaluate, and evaluate
            with pytest.raises(ContextMismatchError):
                form.fn(*args)
            with pytest.raises(ContextMismatchError):
                form.evaluate(*args)


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


def test_evaluate_depends_on_argument_values_alone(ctx42):
    """Distinct but equal arguments give equal values, and a function built
    after another is freed never gets the freed one's value through a
    reused id."""
    form = m0_form(ctx42)
    g = SuperFunction.x(ctx42, 2) * SuperFunction.xi(ctx42, 1)
    a = SuperFunction.x(ctx42, 1) + SuperFunction.xi(ctx42, 2)
    b = SuperFunction.x(ctx42, 1) + SuperFunction.xi(ctx42, 2)
    assert a is not b and form.evaluate(a, g) == form.evaluate(b, g)
    for i in range(1, 50):
        # freed before the next is built, so its memory is likely reused
        f = SuperFunction.term(ctx42, xi=(1,), scalar=i)
        assert form.evaluate(f, g) == poisson_bracket(f, g)
        del f


def test_evaluate_keeps_neither_arguments_nor_value(ctx42):
    """Once the caller drops a fresh argument pair and the value, all three
    are freed, while the form lives on."""

    class Weak(SuperFunction):
        """A SuperFunction that takes weak references (no __slots__)."""

    def weak(f):
        return Weak._of(ctx42, f.coeffs)

    form = Cochain(ctx42, 2, 0, lambda f, g: weak(poisson_bracket(f, g)),
                   EVEN, name="weak")
    f = weak(SuperFunction.x(ctx42, 1) * SuperFunction.xi(ctx42, 1))
    g = weak(SuperFunction.x(ctx42, 2))
    value = form.evaluate(f, g)
    assert not value.is_zero()
    refs = [weakref.ref(obj) for obj in (f, g, value)]
    del f, g, value
    gc.collect()
    assert [ref() for ref in refs] == [None] * 3


def test_evaluate_returns_the_leaf_value_on_homogeneous_arguments(ctx42):
    """Homogeneous arguments give the very object ``fn`` returned, a zero
    argument gives zero without a call, and mixed-parity arguments call
    ``fn`` once per combination of their components."""
    seen = []
    form = _recording_leaf(ctx42, seen)
    values = []
    leaf = form.fn
    form.fn = lambda f, g: values.append(leaf(f, g)) or values[-1]
    f = SuperFunction.x(ctx42, 1) * SuperFunction.xi(ctx42, 2)
    g = SuperFunction.x(ctx42, 2) * SuperFunction.xi(ctx42, 1)
    assert form.evaluate(f, g) is values[-1]
    assert seen == [(f, g)]
    zero = SuperFunction.zero(ctx42)
    for args in ((zero, g), (f, zero)):
        assert form.evaluate(*args).is_zero()
    assert len(seen) == 1
    t = Scalar.theta(ctx42.scalar_ctx, 1)
    a = SuperFunction.x(ctx42, 1) + SuperFunction.xi(ctx42, 1)
    b = SuperFunction.x(ctx42, 2).scale_left(t) + SuperFunction.x(ctx42, 3)
    assert a.eps() is None and b.eps() is None
    seen.clear()
    value = form.evaluate(a, b)
    assert len(seen) == 4
    assert sorted((p.eps(), q.eps()) for p, q in seen) == \
        [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert value == poisson_bracket(a, b)


# -- scaled forms skip the argument terms their scalar annihilates ---------

def _named_forms(ctx):
    """Every named form a bracket scales, with the eta*mu part built as
    the general odd bracket builds it; zeta and eta carry theta."""
    sctx = ctx.scalar_ctx
    theta = Scalar.theta(sctx, 1)
    zeta = SuperFunction.xi(ctx, 1) + SuperFunction.term(
        ctx, (1, 1), 0, (), theta)
    eta = SuperFunction.term(ctx, (0, 2), 1, (), 2) + SuperFunction.term(
        ctx, (1, 0), 2, (1,), theta)
    return [m0_form(ctx), anti_form(ctx), m1_form(ctx), m3_form(ctx),
            mzeta_form(ctx, zeta), jzeta_form(ctx, zeta), m23_form(ctx),
            Cochain(ctx, 2, 0, lambda f, g: eta.scale_right(mu(f, g)),
                    EVEN, name="eta*mu")]


def _theta_carrying_arguments(ctx, seed):
    """Samples with theta-free, theta_j- and theta_1 theta_k-parts, some on
    the bar slice (top-xi, Gaussian), and one with only theta terms."""
    sctx = ctx.scalar_ctx
    k = sctx.k
    th = [Scalar.theta(sctx, j) for j in range(1, k + 1)]
    top = (SuperFunction.term(ctx, (2, 0), 1, (1, 2), 3)
           + SuperFunction.term(ctx, (0, 0), 2, (1, 2), -1))
    base = sample_superfunctions(
        SampleSpec(seed=seed, count=4, max_x_degree=1, terms=2), ctx)
    out = []
    for i, f in enumerate(base):
        g = base[i - 1]
        out.append(f + g.scale_left(th[i % k]) + top.scale_left(th[-1])
                   + f.scale_left(th[0] * th[-1]))
    out.append(top + base[0].scale_left(th[0]))
    out.append(top.scale_left(th[-1]) + base[1].scale_left(th[0]))
    return out


def _scalars_to_scale_by(sctx):
    """One theta-mask, several, and a theta-free monomial beside one."""
    th = [Scalar.theta(sctx, j) for j in range(1, sctx.k + 1)]
    hb = Scalar.hbar(sctx, 2)
    scalars = [th[0], th[-1] * hb * 3, th[0] + hb, th[-1] * 2 + 1]
    if sctx.k >= 2:
        scalars += [th[0] * th[1], th[0] + th[1] * hb]
    if sctx.k >= 3:
        scalars += [th[0] * th[1] + th[2] * 3, th[0] * th[2] + th[1] * th[2]]
    return scalars


@pytest.mark.parametrize("k, lambdas, h_max", [(1, (1, -1), 6),
                                                (2, (-1, 1), 5),
                                                (3, (-1, -1), 6)])
def test_scaled_forms_equal_the_unfiltered_product(k, lambdas, h_max):
    """form.scaled(s) on arguments whose terms s annihilates in part or
    whole equals the unscaled form's value times s on the left: dropping
    those terms first changes no value of any named form."""
    ctx = SymplecticContext(2, 2, lambdas, k, h_max)
    args = _theta_carrying_arguments(ctx, 40 + k)
    dropped = nonzero = 0
    for s in _scalars_to_scale_by(ctx.scalar_ctx):
        for f in args:
            for part in f.homogeneous_components():
                dropped += _surviving(part, {key[1] for key in s.coeffs}) \
                    is not part
        for form in _named_forms(ctx):
            scaled = form.scaled(s)
            for f in args:
                for g in args[::2]:
                    expected = form.evaluate(f, g).scale_left(s)
                    assert scaled.evaluate(f, g) == expected, \
                        (form.name, s.render())
                    nonzero += not expected.is_zero()
    assert dropped and nonzero


def test_a_theta_free_monomial_keeps_every_term(ctx22):
    """Only a scalar whose every monomial carries theta drops terms; the
    argument itself is passed on when nothing is dropped."""
    sctx = ctx22.scalar_ctx
    theta = Scalar.theta(sctx, 1)
    f = SuperFunction.term(ctx22, (1, 0), 1, (1,), theta)
    g = SuperFunction.term(ctx22, (0, 1), 2, (2,))
    seen = []
    form = Cochain(ctx22, 2, 0,
                   lambda a, b: seen.append((a, b)) or poisson_bracket(a, b),
                   EVEN, name="recording")
    form.scaled(theta + 1).evaluate(f, g)
    form.scaled(theta).evaluate(g, g)
    assert seen[0][0] is f and seen[1] == (g, g) and seen[1][0] is g
    form.scaled(theta).evaluate(f, g)
    assert seen[2][0].is_zero() and seen[2][1] is g


def _contexts_apart():
    """Two contexts that differ in h_max only, so every kernel reaches
    its context check."""
    return (SymplecticContext(2, 2, (1, -1), 1, 6),
            SymplecticContext(2, 2, (1, -1), 1, 5))


def test_scaled_forms_check_contexts_before_dropping_terms():
    """An argument whose every term theta annihilates still meets the
    context check: mixed contexts raise as they do unscaled."""
    ctx, other = _contexts_apart()
    theta = Scalar.theta(ctx.scalar_ctx, 1)
    top = SuperFunction.term(ctx, (0, 0), 1, (1, 2), 1)
    f = (top + SuperFunction.term(ctx, (1, 0), 2, (1,))).scale_left(theta)
    g = SuperFunction.term(other, (0, 0), 1, (1, 2), 1)
    for form in _named_forms(ctx):
        for args in ((f, g), (g, f)):
            with pytest.raises(ContextMismatchError):
                form.evaluate(*args)
            with pytest.raises(ContextMismatchError):
                form.scaled(theta).evaluate(*args)


def test_scaled_bar_forms_refuse_a_term_theta_annihilates():
    """A term outside the Gaussian class makes m3, m_zeta, j_zeta and
    mu refuse their argument, with the same message, even when the scalar
    would annihilate it."""
    ctx = _contexts_apart()[0]
    theta = Scalar.theta(ctx.scalar_ctx, 1)
    f = (SuperFunction.term(ctx, (1, 0), 0, (1,))
         + SuperFunction.term(ctx, (0, 0), 1, (2,))).scale_left(theta)
    g = SuperFunction.term(ctx, (0, 0), 1, (1, 2), 1)
    forms = [form for form in _named_forms(ctx)
             if form.name in ("m3", "mzeta", "jzeta", "eta*mu")]
    assert len(forms) == 4
    for form in forms:
        for args in ((f, g), (g, f)):
            with pytest.raises(NotIntegrableError) as unscaled:
                form.evaluate(*args)
            with pytest.raises(NotIntegrableError) as scaled:
                form.scaled(theta).evaluate(*args)
            assert str(scaled.value) == str(unscaled.value)


def test_mu_antisymmetry_and_sign_residuals_pinned():
    """Pinned, not claimed (ROADMAP item 17): at even n_minus mu is not
    graded antisymmetric.  With F = gauss(1) xi1 xi2 and G = gauss(2) xi1
    xi2, both even, mu(F, G) + mu(G, F) = 4 pi^2 at (2, 2); and mu's
    (-1)^{eps(f)} breaks the left sign rule at (4, 2), which five samples
    of criterion 8 do not reach."""
    ctx = SymplecticContext(2, 2, (1, 1), 1, 6)
    F = SuperFunction.term(ctx, None, 1, (1, 2))
    G = SuperFunction.term(ctx, None, 2, (1, 2))
    assert (mu(F, G) + mu(G, F)).render() == "4*pi^2"
    report = check_signs(mu_form(SymplecticContext(4, 2, (1, 1), 1, 6)),
                         SampleSpec(seed=8003, count=200))
    assert len(report.failures) == 2
    _index, labels, residual = report.failures[0]
    assert (labels[0], residual) == ("left", "-96*pi^4*th1")
