"""Unit tests for the deformation builders, constraints, and equivalence."""

import itertools
from fractions import Fraction

import pytest

from superdeform import (ContextMismatchError, DeformationError, SampleSpec,
                         Scalar, ScalarContext, SuperFunction,
                         SymplecticContext, anti_form, antibracket, build_C1,
                         build_C1c, build_C3, build_anti_even, build_anti_odd,
                         build_general_odd, check_constraints,
                         check_equivalence, check_signs, jacobiator,
                         jzeta_form, m0_form, m1_form, m23_form, m3_form,
                         moyal_bracket, moyal_form, mzeta_form,
                         poisson_bracket, sample_tuples, sf_mul, solve_eta,
                         t1_bar_multiplier, t1_euler)
from superdeform.cli import parse_expression
from superdeform.cochains import ODD, Cochain

from conftest import random_superfunction, seeded


def h2(ctx):
    return Scalar.hbar(ctx.scalar_ctx) ** 2


def rand_d(rng, ctx, terms=1):
    return random_superfunction(rng, ctx, max_x_degree=1,
                                gauss_pool=(1, 2), terms=terms,
                                xi_degree=rng.randint(0, min(2, ctx.n_minus)))


# -- C1 / C1c ---------------------------------------------------------------

def test_c1_trivial_zeta_is_moyal(ctx42):
    d = build_C1(SuperFunction.zero(ctx42))
    rng = seeded(71)
    f, g = rand_d(rng, ctx42), rand_d(rng, ctx42)
    assert d.evaluate(f, g) == moyal_bracket(f, g)


def test_c1c_kappa_zero_closed_form(ctx42):
    # with kappa = 0 the bracket is {f,g} + c * fbar * gbar
    c = h2(ctx42)
    d = build_C1c(SuperFunction.zero(ctx42), 0, c)
    f = SuperFunction.term(ctx42, (1, 0, 0, 0), Fraction(1))
    g = SuperFunction.term(ctx42, (0, 1, 0, 0), Fraction(1))
    fb = f.integral_bar()
    gb = g.integral_bar()
    expect = poisson_bracket(f, g) + \
        SuperFunction.constant(ctx42, c * (fb * gb))
    assert d.evaluate(f, g) == expect


def test_c1_jacobi(ctx42):
    zeta = SuperFunction.term(ctx42, (1, 0, 0, 0), scalar=h2(ctx42))
    J = jacobiator(build_C1(zeta))
    rng = seeded(73)
    for _ in range(2):
        assert J.evaluate(rand_d(rng, ctx42), rand_d(rng, ctx42),
                          rand_d(rng, ctx42)).is_zero()


@pytest.mark.parametrize("flavor", ["C1", "C1c"])
def test_c1_brackets_match_fresh_moyal(ctx42, flavor):
    # the brackets of a C1/C1c deformation (the C1c probe M(zeta, zeta)
    # included) draw on the Moyal kernel's process-wide table store; each
    # value must still equal a fresh Moyal bracket of the bar-extended
    # arguments, computed on a cleared store
    from superdeform import brackets, moyal_bracket
    c = h2(ctx42)
    zeta = SuperFunction.term(ctx42, (1, 1, 0, 0), 1, scalar=c) + \
        SuperFunction.term(ctx42, (0, 0, 2, 0), 2, scalar=c * 3)
    kappa = Fraction(2, 3)
    d = build_C1(zeta, kappa) if flavor == "C1" else build_C1c(zeta, kappa, c)
    rng = seeded(77)
    barred = 0
    for _ in range(6):
        f, g = rand_d(rng, ctx42, terms=2), rand_d(rng, ctx42, terms=2)
        fb = f.integral_bar()
        gb = g.integral_bar()
        barred += not (fb.is_zero() and gb.is_zero())
        got = d.evaluate(f, g)
        brackets._TABLES.clear()
        expect = moyal_bracket(f + zeta.scale_right(fb),
                               g + zeta.scale_right(gb), kappa)
        if flavor == "C1c":
            expect = expect + SuperFunction.constant(ctx42, c * (fb * gb))
        assert got == expect
    assert barred


def test_c1c_jacobi_at_4_5(ctx45):
    d = build_C1c(SuperFunction.zero(ctx45), 1, h2(ctx45))
    J = jacobiator(d)
    rng = seeded(75)
    for _ in range(2):
        assert J.evaluate(rand_d(rng, ctx45), rand_d(rng, ctx45),
                          rand_d(rng, ctx45)).is_zero()


def test_c1_preconditions(ctx42):
    with pytest.raises(DeformationError):
        build_C1(SuperFunction.x(ctx42, 1))          # no hbar^2 factor
    with pytest.raises(DeformationError):
        build_C1(SuperFunction.xi(ctx42, 1).scale_left(h2(ctx42)))  # odd
    with pytest.raises(DeformationError):
        build_C1(SuperFunction.zero(ctx42),
                 Scalar.theta(ctx42.scalar_ctx, 1))  # theta kappa
    with pytest.raises(TypeError):
        build_C1(SuperFunction.zero(ctx42), c=h2(ctx42))  # c needs C1c


def test_c1_kappa_is_an_even_or_odd_series_of_the_context(ctx42):
    sctx = ctx42.scalar_ctx
    zero = SuperFunction.zero(ctx42)
    with pytest.raises(DeformationError) as err:
        build_C1(zero, 1 + Scalar.hbar(sctx))
    assert err.value.relation == "kappa"
    for kappa in (Scalar.hbar(sctx), 1 + h2(ctx42), 0):
        assert build_C1(zero, kappa).params["kappa"] == kappa
    with pytest.raises(ContextMismatchError):
        build_C1(zero, Scalar.hbar(ScalarContext(k=1, h_max=5)))


def test_c1c_z_probe(ctx42):
    # M(zeta,zeta) + c must be Gaussian-class plus constants; for even
    # zeta the self-bracket vanishes by graded antisymmetry, so a constant
    # c and a Gaussian zeta are both accepted
    c = h2(ctx42)
    build_C1c(SuperFunction.zero(ctx42), 1, c)
    build_C1c(SuperFunction.gauss(ctx42, 1).scale_left(c), 1, c)
    with pytest.raises(DeformationError):
        build_C1c(SuperFunction.zero(ctx42), 1,
                  Scalar.hbar(ctx42.scalar_ctx))  # odd series c


# -- C3 ---------------------------------------------------------------------

def test_c3_jacobi(ctx42):
    zeta = SuperFunction.term(ctx42, (1, 0, 0, 0), scalar=h2(ctx42))
    d = build_C3(zeta, h2(ctx42))
    J = jacobiator(d)
    rng = seeded(77)
    for _ in range(3):
        assert J.evaluate(rand_d(rng, ctx42), rand_d(rng, ctx42),
                          rand_d(rng, ctx42)).is_zero()


def test_c3_parity_conditions(ctx42):
    with pytest.raises(DeformationError):
        build_C3(SuperFunction.zero(ctx42), Scalar.one(ctx42.scalar_ctx))
    with pytest.raises(DeformationError):
        build_C3(SuperFunction.xi(ctx42, 1).scale_left(h2(ctx42)))
    # odd n_minus wants odd zeta instead
    ctx = SymplecticContext(4, 3, (1, 1, 1), 1, 6)
    build_C3(SuperFunction.xi(ctx, 1).scale_left(h2(ctx)))
    with pytest.raises(DeformationError):
        build_C3(SuperFunction.gauss(ctx, 1).scale_left(h2(ctx)))


# -- antibracket deformations ----------------------------------------------

def test_anti_even_example(ctx22):
    d = build_anti_even(ctx22, h2(ctx22))
    f = SuperFunction.term(ctx22, (1, 0), Fraction(0), (1,))
    one = SuperFunction.constant(ctx22, 1)
    assert d.evaluate(f, one) == \
        -SuperFunction.constant(ctx22, h2(ctx22))


def test_anti_even_resolvent_inverts(ctx22):
    # (1 + c N_z / 2) applied to the resolvent value must give back c*u
    c = h2(ctx22)
    d = build_anti_even(ctx22, c)
    rng = seeded(79)
    for _ in range(4):
        f = random_superfunction(rng, ctx22,
                                 xi_degree=rng.randint(0, 2))
        u = f.delta_op()
        g = d.evaluate(f, SuperFunction.constant(ctx22, 1))
        # reconstruct the resolvent output r from the definition:
        # [f,1] = 0 and E(1) = 1, so d(f,1) = (-1)^eps(f) * r
        r = g * ((-1) ** f.eps())
        lhs = r + r.number_z().scale_left(c * Fraction(1, 2))
        assert lhs == u.scale_left(c)


def test_anti_even_jacobi(ctx22):
    d = build_anti_even(ctx22, h2(ctx22))
    assert d.grading == ODD
    J = jacobiator(d)
    rng = seeded(81)
    for _ in range(5):
        args = [random_superfunction(rng, ctx22,
                                     xi_degree=rng.randint(0, 2))
                for _ in range(3)]
        assert J.evaluate(*args).is_zero()


def test_anti_even_preconditions(ctx42, ctx22):
    with pytest.raises(DeformationError):
        build_anti_even(ctx42, h2(ctx42))      # n_plus != n_minus
    with pytest.raises(DeformationError):
        build_anti_even(ctx22, Scalar.one(ctx22.scalar_ctx))  # no hbar^2


def _series_anti_even(ctx, c):
    """The deformed antibracket with the resolvent summed until a term is
    zero and scaled by c at the end, and its signs as scalar products: the
    loop the stopping rule replaced, kept as the oracle."""

    def resolvent(u):
        total = SuperFunction.zero(ctx)
        term = u
        while not term.is_zero():
            total = total + term
            term = term.number_z().scale_left(c * Fraction(-1, 2))
        return total.scale_left(c)

    def fn(f, g):
        df = sf_mul(resolvent(f.delta_op()), g.euler_E())
        return (antibracket(f, g) + df.scale_right((-1) ** f.eps())
                + sf_mul(f.euler_E(), resolvent(g.delta_op())))

    return Cochain(ctx, 2, 0, fn, ODD, name="anti_even_series")


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("h_max", [2, 4, 6, 8])
def test_anti_even_stops_at_the_truncation(n, h_max):
    """The resolvent that stops at the truncation gives the values and
    the Jacobi residuals of the full geometric series, for c of lowest
    degree 2 and 4, with a higher term, and c = 0."""
    ctx = SymplecticContext(n, n, (1, -1, 1, -1)[:n], 1, h_max)
    hb = Scalar.hbar(ctx.scalar_ctx)
    # smaller samples at (4, 4), where a two-term triple takes seconds
    spec = (SampleSpec(seed=97 + h_max, count=4, terms=2) if n == 2 else
            SampleSpec(seed=97 + h_max, count=2, max_x_degree=1))
    pairs = sample_tuples(spec, ctx, 2)
    triples = sample_tuples(spec, ctx, 3)[:3 if n == 2 else 1]
    for c in (hb ** 2, hb ** 2 + hb ** 4, hb ** 4 * Fraction(3, 2),
              Scalar.zero(ctx.scalar_ctx)):
        bracket = build_anti_even(ctx, c)
        oracle = _series_anti_even(ctx, c)
        for f, g in pairs:
            assert bracket.evaluate(f, g) == oracle.evaluate(f, g)
            if c.is_zero():
                assert bracket.evaluate(f, g) == antibracket(f, g)
        J, J_oracle = jacobiator(bracket), jacobiator(oracle)
        for args in triples:
            assert J.evaluate(*args) == J_oracle.evaluate(*args)


def _untruncated_anti_even(ctx, c):
    """The deformed antibracket with no operand truncated: the resolvent
    runs on all of Delta f, and E_z on all of the other argument, so the
    products alone drop what lies above h_max."""
    half = c * Fraction(-1, 2)
    last = ctx.h_max - c.hbar_min_degree()

    def resolvent(u):
        total = term = u.scale_left(c)
        while not term.is_zero() and term.hbar_min_degree() <= last:
            term = term.number_z().scale_left(half)
            total = total + term
        return total

    def fn(f, g):
        out = antibracket(f, g)
        df = resolvent(f.delta_op())
        if not df.is_zero():
            term = sf_mul(df, g.euler_E())
            out = out - term if f.eps() else out + term
        dg = resolvent(g.delta_op())
        if not dg.is_zero():
            out = out + sf_mul(f.euler_E(), dg)
        return out

    return Cochain(ctx, 2, 0, fn, ODD, name="anti_even_untruncated")


@pytest.mark.parametrize("h_max", [4, 5, 6])
def test_anti_even_truncates_its_operands_exactly(h_max):
    """Truncating Delta's input, each series step and E_z's argument to
    the h-order their products keep changes no value: arguments with
    terms at every h-degree up to h_max give the untruncated bracket's
    values, for c = hbar^2 and c = hbar^2 + 3 hbar^4."""
    ctx = SymplecticContext(2, 2, (1, -1), 1, h_max)
    sctx = ctx.scalar_ctx
    samples = sample_tuples(SampleSpec(seed=131 + h_max, count=3, terms=2),
                            ctx, 3)
    args = []
    for f, g, u in samples:
        args.append(f + g.scale_left(Scalar.hbar(sctx, 2))
                    + u.scale_left(Scalar.hbar(sctx, h_max - 1, 3)))
        args.append(g.scale_left(Scalar.hbar(sctx, 3))
                    + u.scale_left(Scalar.hbar(sctx, h_max)))
    nonzero = 0
    for c in (Scalar.hbar(sctx, 2), Scalar.hbar(sctx, 2)
              + Scalar.hbar(sctx, 4, 3)):
        bracket = build_anti_even(ctx, c)
        oracle = _untruncated_anti_even(ctx, c)
        for f in args:
            for g in args:
                expected = oracle.evaluate(f, g)
                assert bracket.evaluate(f, g) == expected
                nonzero += not (expected - antibracket(f, g)).is_zero()
    assert nonzero


def test_anti_odd_examples(ctx22):
    d = build_anti_odd(ctx22)
    one = SuperFunction.constant(ctx22, 1)
    theta = Scalar.theta(ctx22.scalar_ctx, 1)
    assert d.evaluate(one, one) == SuperFunction.constant(ctx22, theta)
    xi1 = SuperFunction.xi(ctx22, 1)
    x1 = SuperFunction.x(ctx22, 1)
    assert d.evaluate(xi1, x1) == -one


def test_anti_odd_jacobi(ctx22):
    bracket = build_anti_odd(ctx22)
    assert bracket.grading == ODD
    J = jacobiator(bracket)
    rng = seeded(83)
    for _ in range(6):
        args = [random_superfunction(rng, ctx22,
                                     xi_degree=rng.randint(0, 2))
                for _ in range(3)]
        assert J.evaluate(*args).is_zero()


def test_anti_odd_needs_theta():
    ctx = SymplecticContext(2, 2, (1, 1), 0, 6)
    with pytest.raises(DeformationError):
        build_anti_odd(ctx)


# -- the k-odd-parameter constraint system ----------------------------------

def witness_data(ctx45):
    zeta = SuperFunction.xi(ctx45, 1)
    eta = SuperFunction.zero(ctx45)
    h1 = Scalar.theta(ctx45.scalar_ctx, 2)
    h2c = Scalar.one(ctx45.scalar_ctx)
    return zeta, eta, h1, h2c


def test_witness_constraints(ctx45):
    zeta, eta, h1, h2c = witness_data(ctx45)
    report = check_constraints(zeta, eta, h1, h2c)
    assert report.passed
    assert report.failures == []


def test_witness_jacobi(ctx45):
    zeta, eta, h1, h2c = witness_data(ctx45)
    d = build_general_odd(zeta, eta, h1, h2c)
    J = jacobiator(d)
    rng = seeded(85)
    for _ in range(3):
        assert J.evaluate(rand_d(rng, ctx45), rand_d(rng, ctx45),
                          rand_d(rng, ctx45)).is_zero()


def _witness_jacobiator(n_plus, n_minus):
    """The Jacobiator of the witness bracket, zeta = xi1, h1 = th2,
    h2 = 1 and k = 2, with eta from solve_eta (ROADMAP item 13)."""
    ctx = SymplecticContext(n_plus, n_minus, None, 2, 6)
    zeta = SuperFunction.xi(ctx, 1)
    h1 = Scalar.theta(ctx.scalar_ctx, 2)
    eta, report = solve_eta(zeta, h1, 1)
    assert report.passed and eta.is_zero()
    return ctx, jacobiator(build_general_odd(zeta, eta, h1, 1))


def test_witness_jacobiator_on_xi1_pinned():
    """J(xi1, xi1, xi1) = 0 at (0, 1).  It read 6 th1 while the bar gave
    theta no Berezin sign at odd n_minus (ROADMAP item 13)."""
    ctx, J = _witness_jacobiator(0, 1)
    xi1 = SuperFunction.xi(ctx, 1)
    assert J.evaluate(xi1, xi1, xi1).is_zero()


@pytest.mark.parametrize("n_plus, n_minus", [(4, 5), (2, 3), (6, 7)])
def test_witness_jacobiator_on_the_bar_slice_pinned(n_plus, n_minus):
    """The witness Jacobiator is zero on all 27 ordered triples of
    gauss(1) xi^top, gauss(2) xi^top and gauss(1) xi1.  20 of them held the
    grade-1 cross term of m_zeta and theta m3 that ROADMAP item 13 located,
    e.g. J(F, F, gauss(1) xi1) = 2 pi^(n_plus/2) th1 gauss(1) with
    F = gauss(2) xi^top, while the bar gave theta no Berezin sign."""
    ctx, J = _witness_jacobiator(n_plus, n_minus)
    top = tuple(range(1, n_minus + 1))
    probes = [SuperFunction.term(ctx, None, 1, top),
              SuperFunction.term(ctx, None, 2, top),
              SuperFunction.term(ctx, None, 1, (1,))]
    for triple in itertools.product(probes, repeat=3):
        assert J.evaluate(*triple).is_zero()


@pytest.mark.parametrize("n_plus, n_minus, value", [
    (2, 2, "4*pi^2*hbar^2"), (4, 2, "8*pi^4*hbar^2"),
    (2, 1, "-4*pi^2*hbar^2*th1")])
def test_c1c_antisymmetry_residual_pinned(n_plus, n_minus, value):
    """Pinned, not claimed (ROADMAP item 17): C1c with zeta = 0 and
    c = hbar^2 is not graded antisymmetric.  With F = gauss(1) xi^top and
    G = gauss(2) xi^top, the residual C(a, b) + (-1)^{eps_a eps_b} C(b, a)
    of a = F (even n_minus) or a = th1 F (odd n_minus) and b = G is the
    c fbar gbar term: symmetric on even arguments, and without mu's
    (-1)^{eps(f)} at odd n_minus."""
    ctx = SymplecticContext(n_plus, n_minus, None, 1, 6)
    sctx = ctx.scalar_ctx
    C = build_C1c(SuperFunction.zero(ctx), 1, Scalar.hbar(sctx) ** 2)
    top = tuple(range(1, n_minus + 1))
    a = SuperFunction.term(ctx, None, 1, top)
    if n_minus % 2:
        a = a.scale_left(Scalar.theta(sctx, 1))
    b = SuperFunction.term(ctx, None, 2, top)
    sign = (-1) ** (a.eps() * b.eps())
    assert (C.evaluate(a, b) + C.evaluate(b, a) * sign).render() == value


def test_perturbed_witness_residual():
    # at n_minus = 3 relation (i) picks up (n_minus - n_plus - 1) theta zeta
    ctx = SymplecticContext(4, 3, (1, 1, 1), 2, 6)
    sctx = ctx.scalar_ctx
    report = check_constraints(SuperFunction.xi(ctx, 1),
                               SuperFunction.zero(ctx),
                               Scalar.theta(sctx, 2), Scalar.one(sctx))
    assert not report.passed
    assert "i" in [labels[0] for _index, labels, _text in report.failures]
    theta = Scalar.theta(sctx, 1)
    expect = SuperFunction.xi(ctx, 1).scale_left(theta * (-2))
    assert report.details["constraints"]["i"] == expect.render()


def test_relation_one_carries_etabar_times_zeta(ctx22):
    """With zeta = xi1 and the even eta = gauss(1) xi1 xi2 at (2, 2), k = 1
    and h1 = h2 = 0, etabar = 2 pi, and relation (i) is, by hand,
    eta + theta [2E - 2] xi1 + etabar xi1 + {xi1, xi1}
    = 1 + (2 pi - th1) xi1 + gauss(1) xi1 xi2: the one tier-1 case with a
    nonzero etabar * zeta term, whose sign it pins."""
    sctx = ctx22.scalar_ctx
    xi1 = SuperFunction.xi(ctx22, 1)
    eta = sf_mul(SuperFunction.gauss(ctx22, 1),
                 sf_mul(xi1, SuperFunction.xi(ctx22, 2)))
    assert eta.integral_bar() == Scalar.pi(sctx) * 2
    report = check_constraints(xi1, eta, 0, 0)
    hand = (SuperFunction.constant(ctx22, 1) + eta + xi1.scale_left(
        Scalar.pi(sctx) * 2 - Scalar.theta(sctx, 1)))
    assert report.details["constraints"]["i"] == hand.render() == \
        "1 + (2*pi - th1)*xi1 + gauss(1)*xi1*xi2"


def test_composite_bracket_names_and_parities(ctx42, ctx22, ctx45):
    """A sum's name joins its parts' and its parity is theirs when they
    share one; the builders rename the sum to their flavor, and the name
    reaches the report core as jacobi[flavor]."""
    zeta = SuperFunction.x(ctx42, 1).scale_left(h2(ctx42))
    zero = SuperFunction.zero(ctx42)
    brackets = [(build_C3(zeta, h2(ctx42)), "C3", 0),
                (build_C3(zero), "C3", 0),
                (build_anti_odd(ctx22), "ANTI_ODD", 0),
                # theta m3 is odd at even n_minus
                (build_general_odd(zero, zero, 0, 0), "GENERAL_ODD", None),
                (build_general_odd(*witness_data(ctx45)), "GENERAL_ODD", 0)]
    for defo, name, parity in brackets:
        assert (defo.name, defo.parity) == (name, parity)


def test_build_rejects_violated_constraints():
    ctx = SymplecticContext(4, 3, (1, 1, 1), 2, 6)
    sctx = ctx.scalar_ctx
    with pytest.raises(DeformationError):
        build_general_odd(SuperFunction.xi(ctx, 1),
                          SuperFunction.zero(ctx),
                          Scalar.theta(sctx, 2), Scalar.one(sctx))


def test_solve_eta_witness(ctx45):
    zeta, _eta, h1, h2c = witness_data(ctx45)
    eta, report = solve_eta(zeta, h1, h2c)
    assert eta.is_zero()
    assert report.details["constraints"] == {"i": "0", "ii": "0", "iii": "0"}
    assert report.passed


def test_solve_eta_zeta_zero(ctx45):
    # relation (i) collapses to eta = h2; the constant is not D-class
    eta, report = solve_eta(SuperFunction.zero(ctx45),
                            Scalar.theta(ctx45.scalar_ctx, 2),
                            Scalar.one(ctx45.scalar_ctx))
    assert eta == SuperFunction.constant(ctx45, 1)
    assert (0, ["eta_class"], "1") in report.failures


def zetabar_data():
    """A (2, 3) zeta with zetabar = 2*pi, and the odd h1 = th2."""
    ctx = SymplecticContext(2, 3, (1, 1, 1), 2, 6)
    zeta = parse_expression("gauss(1)*xi1*xi2*xi3 + x1*gauss(2)*xi2", ctx)
    return ctx, zeta, Scalar.theta(ctx.scalar_ctx, 2)


def test_solve_eta_with_nonzero_zetabar():
    # zetabar = 2*pi: the etabar*zeta term of relation (i) is live, and
    # the closed-form eta still satisfies the whole system
    ctx, zeta, h1 = zetabar_data()
    assert zeta.integral_bar() == Scalar.pi(ctx.scalar_ctx) * 2
    eta, report = solve_eta(zeta, h1, 0)
    assert eta.render() == (
        "2*th1*gauss(1)*xi1*xi2*xi3 + th1*th2*gauss(2)"
        " + -th1*x2^2*gauss(1)*xi1*xi2*xi3 + 4*th1*th2*x2^2*gauss(4)"
        " + th1*x1*gauss(2)*xi2 + (2 + 8*th1*th2)*x1*gauss(3)*xi1*xi3"
        " + -2*th1*x1*x2^2*gauss(2)*xi2"
        " + -6*th1*th2*x1*x2^2*gauss(3)*xi1*xi3"
        " + -th1*x1^2*gauss(1)*xi1*xi2*xi3"
        " + (-1 - 12*th1*th2)*x1^2*gauss(4)"
        " + 8*th1*th2*x1^2*x2^2*gauss(4) + -2*th1*x1^3*gauss(2)*xi2"
        " + -6*th1*th2*x1^3*gauss(3)*xi1*xi3 + 8*th1*th2*x1^4*gauss(4)")
    assert eta.is_d_class()
    assert report.details["constraints"] == {"i": "0", "ii": "0", "iii": "0"}
    assert report.passed


def test_eta_mu_term_of_the_general_bracket():
    # with eta != 0 the bracket is the eta = 0 one, assembled here from
    # the named forms, plus eta * fbar gbar (-1)^eps(f); th2 puts an odd
    # scalar in a bar, and the last pair has a zero bar
    ctx, zeta, h1 = zetabar_data()
    eta, report = solve_eta(zeta, h1, 0)
    assert report.passed and not eta.is_zero()
    bracket = build_general_odd(zeta, eta, h1, 0)
    theta = Scalar.theta(ctx.scalar_ctx, 1)
    without_eta = (m0_form(ctx) + m1_form(ctx).scaled(theta * h1)
                   + m3_form(ctx).scaled(theta) + mzeta_form(ctx, zeta)
                   + jzeta_form(ctx, zeta).scaled(theta * h1))
    top = ["gauss(1)*xi1*xi2*xi3", "th2*x1^2*gauss(2)*xi1*xi2*xi3",
           "x2*gauss(1)*xi1"]
    pairs = [(top[0], top[1]), (top[1], top[0]), (top[0], top[2])]
    nonzero = 0
    for f, g in pairs:
        f, g = parse_expression(f, ctx), parse_expression(g, ctx)
        bars = f.integral_bar() * g.integral_bar() * (-1) ** f.eps()
        term = sf_mul(eta, SuperFunction.constant(ctx, bars))
        assert bracket.evaluate(f, g) - without_eta.evaluate(f, g) == term
        nonzero += not term.is_zero()
    assert nonzero == 2


def test_solve_eta_non_gaussian_zeta(ctx45):
    # x1*xi1 leaves non-D terms in eta: a failing report, nothing raised
    eta, report = solve_eta(parse_expression("x1*xi1", ctx45),
                            Scalar.theta(ctx45.scalar_ctx, 2), 1)
    assert not eta.is_d_class()
    assert not report.passed
    # the non-D terms h2 must cancel are the eta_class failure
    non_d = (eta - eta.d_class_part()).render()
    assert (0, ["eta_class"], non_d) in report.failures


def test_constraint_parity_checks(ctx45):
    sctx = ctx45.scalar_ctx
    with pytest.raises(DeformationError):
        check_constraints(SuperFunction.gauss(ctx45, 1),  # even zeta
                          SuperFunction.zero(ctx45),
                          Scalar.theta(sctx, 2), Scalar.one(sctx))
    with pytest.raises(DeformationError):
        check_constraints(SuperFunction.xi(ctx45, 1),
                          SuperFunction.zero(ctx45),
                          Scalar.one(sctx),          # h1 must be odd
                          Scalar.one(sctx))


# -- equivalence ------------------------------------------------------------

def rand_top(rng, ctx):
    """Full xi-degree one-term sample with even x-exponents, so that the
    bar (top Grassmann component times Gaussian moments) never vanishes."""
    xexp = tuple(2 * rng.randint(0, 1) for _ in range(ctx.n_plus))
    xi = tuple(range(1, ctx.n_minus + 1))
    return SuperFunction(ctx, {
        (xexp, Fraction(rng.choice([1, 2])), xi):
        Scalar.rational(ctx.scalar_ctx, rng.randint(1, 3))})


def test_trivial_equivalence(ctx42):
    zeta = SuperFunction.term(ctx42, (1, 0, 0, 0), scalar=h2(ctx42))
    d = build_C3(zeta, h2(ctx42))
    t1 = t1_bar_multiplier(SuperFunction.zero(ctx42))
    rng = seeded(87)
    pairs = [(rand_d(rng, ctx42), rand_d(rng, ctx42)) for _ in range(3)]
    assert check_equivalence(d, d, t1, pairs).passed


def test_golden_sign_bar_multiplier(ctx42):
    # C3(zeta + hbar^2 z0) ~ C3(zeta) via T1 f = a z0 fbar with a = -1;
    # the opposite sign must fail on full-xi-degree samples
    z0 = SuperFunction.gauss(ctx42, 1)
    zeta = SuperFunction.term(ctx42, (1, 0, 0, 0), scalar=h2(ctx42))
    dA = build_C3(zeta + z0.scale_left(h2(ctx42)), h2(ctx42))
    dB = build_C3(zeta, h2(ctx42))
    rng = seeded(89)
    pairs = [(rand_top(rng, ctx42), rand_top(rng, ctx42))
             for _ in range(4)]
    good = t1_bar_multiplier(z0, -1)
    assert check_equivalence(dA, dB, good, pairs, order=2).passed
    bad = t1_bar_multiplier(z0, 1)
    report = check_equivalence(dA, dB, bad, pairs, order=2)
    assert not report.passed
    assert report.failures
    # T1 changes f, g or C1(f, g) exactly where one of the bars is nonzero
    active = sum(any(not u.integral_bar().is_zero()
                     for u in (f, g, dA.evaluate(f, g)))
                 for f, g in pairs)
    assert active > 0
    assert report.details["t1_active_pairs"] == active


def test_equivalence_order_defaults_to_h_max(ctx42):
    """order=None truncates at h_max, where every value is truncated
    already: the same report, T1-active pairs included, as order=h_max."""
    z0 = SuperFunction.gauss(ctx42, 1)
    zeta = SuperFunction.term(ctx42, (1, 0, 0, 0), scalar=h2(ctx42))
    dA = build_C3(zeta + z0.scale_left(h2(ctx42)), h2(ctx42))
    dB = build_C3(zeta, h2(ctx42))
    rng = seeded(89)
    pairs = [(rand_top(rng, ctx42), rand_top(rng, ctx42))
             for _ in range(4)]
    for a in (-1, 1):
        t1 = t1_bar_multiplier(z0, a)
        default = check_equivalence(dA, dB, t1, pairs)
        top = check_equivalence(dA, dB, t1, pairs, order=ctx42.h_max)
        assert default.core_dict() == top.core_dict()
        assert default.details["t1_active_pairs"] == \
            top.details["t1_active_pairs"] > 0


def test_t1_bar_multiplier_skips_a_zero_bar(ctx42, monkeypatch):
    """On a zero bar T1 is zero without scaling z0; on a nonzero one it is
    a * z0 * fbar."""
    calls = []
    scale_right = SuperFunction.scale_right

    def counted(self, scalar):
        calls.append(scalar)
        return scale_right(self, scalar)

    monkeypatch.setattr(SuperFunction, "scale_right", counted)
    th1 = Scalar.theta(ctx42.scalar_ctx, 1)
    z0 = SuperFunction.gauss(ctx42, 1) * SuperFunction.xi(ctx42, 1)
    t1 = t1_bar_multiplier(z0, th1)
    flat = SuperFunction.term(ctx42, (2, 0, 0, 0), 1, (1,), 3)
    assert flat.integral_bar().is_zero()
    assert t1.evaluate(flat).is_zero() and calls == []
    top = SuperFunction.term(ctx42, (2, 0, 2, 0), Fraction(1, 2), (1, 2), 3)
    bar = top.integral_bar()
    assert not bar.is_zero()
    value = t1.evaluate(top)
    assert len(calls) == 1
    assert value == SuperFunction.constant(ctx42, th1) * z0 * \
        SuperFunction.constant(ctx42, bar)


def test_t1_euler_family(ctx42):
    t1 = t1_euler(ctx42, 2)
    f = SuperFunction.x(ctx42, 1)
    assert t1.evaluate(f) == f  # E(x1) = x1/2, scaled by 2


# -- one refusal per rule ---------------------------------------------------

_CTX42 = SymplecticContext(4, 2, (1, 1), 1, 6)
_X1 = SuperFunction.x(_CTX42, 1)
_TH1 = Scalar.theta(_CTX42.scalar_ctx, 1)
_ZERO = SuperFunction.zero(_CTX42)

# (site, call, the subject the message names, relation); every site of a
# rule raises one DeformationError, "<subject> requires n_plus == n_minus"
# at n_plus != n_minus and "kappa must be theta-free" for a theta kappa
_REFUSALS = [
    ("antibracket", lambda: antibracket(_X1, _X1),
     "antibracket requires n_plus == n_minus", "context"),
    ("delta_op", lambda: _X1.delta_op(),
     "delta operator requires n_plus == n_minus", "context"),
    ("anti_form", lambda: anti_form(_CTX42),
     "anti requires n_plus == n_minus", "context"),
    ("m23_form", lambda: m23_form(_CTX42),
     "m23 requires n_plus == n_minus", "context"),
    ("build_anti_even", lambda: build_anti_even(_CTX42, h2(_CTX42)),
     "anti requires n_plus == n_minus", "context"),
    ("build_anti_odd", lambda: build_anti_odd(_CTX42),
     "anti requires n_plus == n_minus", "context"),
    ("moyal_bracket", lambda: moyal_bracket(_X1, _X1, _TH1),
     "kappa must be theta-free", "kappa"),
    ("moyal_form", lambda: moyal_form(_CTX42, _TH1),
     "kappa must be theta-free", "kappa"),
    ("build_C1", lambda: build_C1(_ZERO, _TH1),
     "kappa must be theta-free", "kappa"),
    ("build_C1c", lambda: build_C1c(_ZERO, _TH1),
     "kappa must be theta-free", "kappa"),
]

# the parity rules refuse a value of the wrong parity and one with parts of
# both parities alike: (site, call on the value, wrong value, mixed value,
# message, relation)
_XI1, _G1 = SuperFunction.xi(_CTX42, 1), SuperFunction.gauss(_CTX42, 1)
_HB2 = h2(_CTX42)
_MIXED, _MIXED_S = _XI1 + _G1, _TH1 + 1
_C3_ZETA = "zeta must make m_zeta even: eps(zeta) + n_minus must be even"
_C3_C3 = "c3 must make c3*m3 even: parity(c3) + n_minus must be even"
_PARITY_SITES = [
    ("check_constraints-zeta", lambda v: check_constraints(v, _ZERO, _TH1, 0),
     _G1, _MIXED, "zeta must be odd", "zeta"),
    ("check_constraints-eta", lambda v: check_constraints(_XI1, v, _TH1, 0),
     _XI1, _MIXED, "eta must be even", "eta"),
    ("check_constraints-h1", lambda v: check_constraints(_XI1, _ZERO, v, 0),
     1, _MIXED_S, "h1 must be odd", "h1"),
    ("check_constraints-h2",
     lambda v: check_constraints(_XI1, _ZERO, _TH1, v),
     _TH1, _MIXED_S, "h2 must be even", "h2"),
    ("solve_eta-zeta", lambda v: solve_eta(v, _TH1, 0),
     _G1, _MIXED, "zeta must be odd", "zeta"),
    ("solve_eta-h1", lambda v: solve_eta(_XI1, v, 0),
     1, _MIXED_S, "h1 must be odd", "h1"),
    ("solve_eta-h2", lambda v: solve_eta(_XI1, _TH1, v),
     _TH1, _MIXED_S, "h2 must be even", "h2"),
    ("build_C1-zeta", lambda v: build_C1(v.scale_left(_HB2)),
     _XI1, _MIXED, "zeta must be even", "zeta"),
    ("build_C3-zeta", lambda v: build_C3(v.scale_left(_HB2)),
     _XI1, _MIXED, _C3_ZETA, "zeta"),
    ("build_C3-c3", lambda v: build_C3(_ZERO, v * _HB2),
     _TH1, _MIXED_S, _C3_C3, "c3"),
    ("build_C1c-zeta", lambda v: build_C1c(v.scale_left(_HB2)),
     _XI1, _MIXED, "zeta must be even", "zeta"),
]
_REFUSALS += [(f"{site}-{kind}", lambda call=call, v=v: call(v), message,
               relation)
              for site, call, wrong, mixed, message, relation in _PARITY_SITES
              for kind, v in (("wrong", wrong), ("mixed", mixed))]

# the k >= 1 rule: every site that needs theta_1 refuses a context without
# it with the one message of build_anti_odd, before any parity rule
_CTX_K0 = SymplecticContext(4, 5, (1,) * 5, 0, 6)
_XI1_K0, _ZERO_K0 = SuperFunction.xi(_CTX_K0, 1), SuperFunction.zero(_CTX_K0)
_THETA1 = "an odd parameter theta_1 is required (k >= 1)"
_REFUSALS += [
    ("build_anti_odd-k0",
     lambda: build_anti_odd(SymplecticContext(2, 2, (1, 1), 0, 6)),
     _THETA1, "context"),
    ("check_constraints-k0",
     lambda: check_constraints(_XI1_K0, _ZERO_K0, 0, 1), _THETA1, "context"),
    ("check_constraints-k0-even-zeta",
     lambda: check_constraints(_ZERO_K0 + 1, _ZERO_K0, 0, 1), _THETA1,
     "context"),
    ("solve_eta-k0", lambda: solve_eta(_XI1_K0, 0, 1), _THETA1, "context"),
    ("build_general_odd-k0",
     lambda: build_general_odd(_XI1_K0, _ZERO_K0, 0, 1), _THETA1, "context"),
    ("check_signs-k0",
     lambda: check_signs(m0_form(_CTX_K0), SampleSpec(seed=1, count=1)),
     _THETA1, "context"),
]

# C1c's order rules on zeta and c (with its kappa and parity rules above,
# every refusal it makes without a Z check), and ANTI_EVEN's theta-free c
_CTX22_K2 = SymplecticContext(2, 2, (1, 1), 2, 6)
_REFUSALS += [
    ("build_C1c-zeta-order", lambda: build_C1c(_G1),
     "zeta must lie in hbar^2 E[[hbar^2]]", "zeta"),
    ("build_C1c-c-odd-series",
     lambda: build_C1c(_ZERO, 1, Scalar.hbar(_CTX42.scalar_ctx)),
     "c must be an even power series in hbar", "c"),
    ("build_C1c-c-classical", lambda: build_C1c(_ZERO, 1, 1),
     "c must lie in hbar^2 K[[hbar^2]] modulo theta terms", "c"),
    ("build_anti_even-theta-c",
     lambda: build_anti_even(_CTX22_K2,
                             Scalar.theta(_CTX22_K2.scalar_ctx, 1, 2)),
     "c must be theta-free", "c"),
]


@pytest.mark.parametrize("call, message, relation",
                         [case[1:] for case in _REFUSALS],
                         ids=[case[0] for case in _REFUSALS])
def test_every_site_of_a_rule_refuses_alike(call, message, relation):
    with pytest.raises(DeformationError) as err:
        call()
    assert str(err.value) == message
    assert err.value.relation == relation
