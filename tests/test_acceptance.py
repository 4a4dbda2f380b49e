"""Acceptance gate: the eight headline properties, checked exactly.

Every check compares a residual against the exact zero element -- there is
no numeric tolerance anywhere.  Each test prints a single pass/fail line;
run with `pytest -s tests/test_acceptance.py` to see them.
"""

from fractions import Fraction

from superdeform import (SampleSpec, Scalar, SuperFunction,
                         SymplecticContext, anti_form, antibracket, build_C1,
                         build_C1c,
                         build_C3, build_anti_even, build_anti_odd,
                         build_general_odd, check_bar_vanishing,
                         check_constraints, check_cocycle, check_d_squared,
                         check_equivalence, check_jacobi, check_signs, d_ad,
                         jacobiator, jzeta_form, m0_form, m1_form, m23_form,
                         m3_form, moyal_bracket, moyal_form, mu_form,
                         mzeta_form, poisson_bracket, sample_superfunctions,
                         sample_tuples, t1_bar_multiplier)

from conftest import LCG


CTX42 = SymplecticContext(4, 2, (1, 1), 1, 6)
CTX22 = SymplecticContext(2, 2, (1, 1), 1, 6)
CTX45 = SymplecticContext(4, 5, (1, 1, 1, 1, 1), 2, 6)


def _verdict(label, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    print(line)
    assert ok, line


def _hbar2(ctx):
    return Scalar.hbar(ctx.scalar_ctx) ** 2


def _mixed_triples(ctx, count, seed):
    """Triples of total x-degree <= 3; every eighth includes a Gaussian."""
    rng = LCG(seed)
    out = []
    for i in range(count):
        tri = []
        for j in range(3):
            xexp = [0] * ctx.n_plus
            for _ in range(rng.randint(0, 3)):
                xexp[rng.randint(0, ctx.n_plus - 1)] += 1
            c = Fraction(rng.choice((1, 2))) if (i % 8 == 0 and j == 0) \
                else Fraction(0)
            deg = rng.randint(0, min(2, ctx.n_minus))
            xi = []
            while len(xi) < deg:
                a = rng.randint(1, ctx.n_minus)
                if a not in xi:
                    xi.append(a)
            coeff = Scalar.rational(ctx.scalar_ctx,
                                    rng.choice((-3, -2, -1, 1, 2, 3)))
            tri.append(SuperFunction(ctx, {(tuple(xexp), c,
                                            tuple(sorted(xi))): coeff}))
        out.append(tuple(tri))
    return out


def _full_degree_pairs(ctx, count, seed):
    """One-term pairs of full xi-degree, so integral_bar never vanishes."""
    rng = LCG(seed)
    xi = tuple(range(1, ctx.n_minus + 1))
    out = []
    for _ in range(count):
        pair = []
        for _j in range(2):
            # even exponents keep the Gaussian moments (and hence the
            # bars) nonzero
            xexp = tuple(2 * rng.randint(0, 1) for _ in range(ctx.n_plus))
            pair.append(SuperFunction(ctx, {
                (xexp, Fraction(rng.choice((1, 2))), xi):
                Scalar.rational(ctx.scalar_ctx, rng.randint(1, 3))}))
        out.append(tuple(pair))
    return out


def test_criterion_1_classical_structures():
    """Jacobi, antisymmetry, and grading for both classical brackets."""
    ok = True
    d0 = m0_form(CTX42)
    ok &= check_jacobi(d0, SampleSpec(seed=1001, count=50)).passed
    for f, g in sample_tuples(SampleSpec(seed=1002, count=50), CTX42, 2):
        residual = poisson_bracket(f, g) + \
            poisson_bracket(g, f) * ((-1) ** (f.eps() * g.eps()))
        ok &= residual.is_zero()
        value = poisson_bracket(f, g)
        if not value.is_zero():
            ok &= value.eps() == (f.eps() + g.eps()) % 2
    da = anti_form(CTX22)
    ok &= check_jacobi(da, SampleSpec(seed=1003, count=50)).passed
    for f, g in sample_tuples(SampleSpec(seed=1004, count=50), CTX22, 2):
        ef, eg = (f.eps() + 1) % 2, (g.eps() + 1) % 2
        residual = antibracket(f, g) + antibracket(g, f) * ((-1) ** (ef * eg))
        ok &= residual.is_zero()
        value = antibracket(f, g)
        if not value.is_zero():
            ok &= (value.eps() + 1) % 2 == (ef + eg) % 2
    _verdict("1. classical brackets: Jacobi, antisymmetry, grading "
             "(50 triples / 50 pairs each)", ok)


def test_criterion_2_moyal_bracket():
    """Moyal reduces to the classical bracket at order zero and satisfies
    Jacobi after truncation at hbar^6."""
    ok = True
    ctx0 = SymplecticContext(4, 2, (1, 1), 1, 0)
    for f, g in sample_tuples(SampleSpec(seed=2001, count=20), ctx0, 2):
        ok &= moyal_bracket(f, g) == poisson_bracket(f, g)
    J = jacobiator(moyal_form(CTX42, 1))
    for f, g, h in _mixed_triples(CTX42, 50, 2002):
        ok &= J.evaluate(f, g, h).is_zero()
    _verdict("2. Moyal bracket: classical limit (20 pairs) and Jacobi "
             "at order hbar^6 (50 triples)", ok)


def test_criterion_3_cocycle_suite():
    """The 2-cocycles of both differentials, plus the Jacobiator identity
    relating J(p, m0) to the adjoint differential."""
    ok = True
    spec = SampleSpec(seed=3001, count=50, max_x_degree=1)
    ok &= check_cocycle(m3_form(CTX42), spec).passed
    zeta = SuperFunction.term(CTX42, (1, 1, 0, 0), scalar=2) + \
        SuperFunction.term(CTX42, (0, 0, 2, 0), scalar=1)
    ok &= check_cocycle(mzeta_form(CTX42, zeta), spec).passed
    ok &= check_cocycle(m23_form(CTX22),
                        SampleSpec(seed=3002, count=50),
                        bracket=anti_form(CTX22)).passed
    m0 = m0_form(CTX42)
    zeta2 = SuperFunction.term(CTX42, (0, 1, 0, 0), scalar=3)
    cochains = [m1_form(CTX42), m3_form(CTX42), mu_form(CTX42),
                mzeta_form(CTX42, zeta2), jzeta_form(CTX42, zeta2),
                m3_form(CTX42).scaled(_hbar2(CTX42))]
    triples = sample_tuples(SampleSpec(seed=3003, count=20,
                                       max_x_degree=1), CTX42, 3)
    for p in cochains:
        J = jacobiator(p, m0)
        d = d_ad(p)
        for f, g, h in triples:
            lhs = J.evaluate(f, g, h) * (-((-1) ** (f.eps() * h.eps())))
            ok &= lhs == d.evaluate(f, g, h)
    _verdict("3. cocycle suite: m3, mzeta, m23 cocycles (50 triples each); "
             "cross-identity for 6 cochains on 20 triples", ok)


def test_criterion_4_even_deformations():
    """J(C,C) = 0 at order hbar^6 for the three even-parameter brackets."""
    ok = True
    zeta = SuperFunction.term(CTX42, (1, 0, 0, 0), scalar=_hbar2(CTX42))
    fast = {"max_x_degree": 0, "gauss_weights": (1,)}
    ok &= check_jacobi(build_C1(zeta),
                       SampleSpec(seed=4001, count=25, **fast)).passed
    ok &= check_jacobi(build_C1(zeta),
                       SampleSpec(seed=4002, count=5, max_x_degree=1,
                                  gauss_weights=(1,))).passed
    ok &= check_jacobi(build_C3(zeta, _hbar2(CTX42)),
                       SampleSpec(seed=4003, count=30,
                                  max_x_degree=1)).passed
    c1c = build_C1c(SuperFunction.zero(CTX45), 1, _hbar2(CTX45))
    ok &= check_jacobi(c1c, SampleSpec(seed=4004, count=25, **fast)).passed
    ok &= check_jacobi(c1c, SampleSpec(seed=4005, count=5, max_x_degree=1,
                                       gauss_weights=(1,))).passed
    _verdict("4. even deformations: Jacobi for C1, C3 at (4,2) and "
             "C1c at (4,5), 30 triples each", ok)


def test_criterion_5_antibracket_deformations():
    """The even resolvent deformation and the odd-parameter bracket of the
    antibracket both satisfy the eps-graded Jacobi identity."""
    ok = True
    ok &= check_jacobi(build_anti_even(CTX22, _hbar2(CTX22)),
                       SampleSpec(seed=5001, count=30)).passed
    ok &= check_jacobi(build_anti_odd(CTX22),
                       SampleSpec(seed=5002, count=30)).passed
    _verdict("5. antibracket deformations: eps-Jacobi through hbar^6 "
             "(even) and with theta^2 = 0 (odd), 30 triples each", ok)


def test_criterion_6_odd_parameter_theorem():
    """The two-parameter witness satisfies all three constraint relations
    and its bracket is Jacobi; the perturbed witness fails relation (i)
    with the predicted residual."""
    ok = True
    zeta = SuperFunction.xi(CTX45, 1)
    eta = SuperFunction.zero(CTX45)
    h1 = Scalar.theta(CTX45.scalar_ctx, 2)
    h2c = Scalar.one(CTX45.scalar_ctx)
    report = check_constraints(zeta, eta, h1, h2c)
    ok &= report.passed and report.failures == []
    defo = build_general_odd(zeta, eta, h1, h2c)
    ok &= check_jacobi(defo, SampleSpec(seed=6001, count=10,
                                        max_x_degree=1)).passed
    ctx3 = SymplecticContext(4, 3, (1, 1, 1), 2, 6)
    sctx3 = ctx3.scalar_ctx
    bad = check_constraints(SuperFunction.xi(ctx3, 1),
                            SuperFunction.zero(ctx3),
                            Scalar.theta(sctx3, 2), Scalar.one(sctx3))
    failed = [labels[0] for _index, labels, _text in bad.failures]
    ok &= not bad.passed and "i" in failed
    expect = SuperFunction.xi(ctx3, 1).scale_left(
        Scalar.theta(sctx3, 1) * (-2))
    ok &= bad.details["constraints"]["i"] == expect.render()
    _verdict("6. odd-parameter theorem: witness (4,5,k=2) constraints and "
             "Jacobi; perturbed witness fails (i) with residual "
             "-2 th1 xi1", ok)


def test_criterion_7_equivalence_golden():
    """Shifting zeta by a Gaussian-class z0 is matched at order hbar^2 by
    T1 f = a z0 fbar with a = -1 (golden-pinned); a = +1 must fail."""
    z0 = SuperFunction.gauss(CTX42, 1)
    zeta = SuperFunction.term(CTX42, (1, 0, 0, 0), scalar=_hbar2(CTX42))
    dA = build_C3(zeta + z0.scale_left(_hbar2(CTX42)), _hbar2(CTX42))
    dB = build_C3(zeta, _hbar2(CTX42))
    pairs = _full_degree_pairs(CTX42, 5, 7001)
    good = check_equivalence(dA, dB, t1_bar_multiplier(z0, -1),
                             pairs, order=2)
    bad = check_equivalence(dA, dB, t1_bar_multiplier(z0, 1),
                            pairs, order=2)
    _verdict("7. equivalence: C3(zeta + hbar^2 z0) ~ C3(zeta) via "
             "T1 f = -z0 fbar; opposite sign rejected (5 pairs)",
             good.passed and not bad.passed)


def test_criterion_8_infrastructure():
    """d o d = 0, the three odd-parameter sign rules (the bar-built forms at
    an even and an odd n_minus), bar-vanishing on D-class brackets, and
    bit-reproducible sampling."""
    ok = True
    ok &= check_d_squared(m1_form(CTX42),
                          SampleSpec(seed=8001, count=2)).passed
    ok &= check_d_squared(m23_form(CTX22),
                          SampleSpec(seed=8002, count=2),
                          bracket=anti_form(CTX22)).passed
    spec = SampleSpec(seed=8003, count=5)
    for form in (m0_form(CTX42), m1_form(CTX42), m3_form(CTX42),
                 mu_form(CTX42)):
        ok &= check_signs(form, spec).passed
    for form in (anti_form(CTX22), m23_form(CTX22)):
        ok &= check_signs(form, spec).passed
    # odd n_minus, where the bar moves theta past an odd xi monomial (j_zeta
    # at zeta = xi1 is left out: m1(xi1, .) is zero)
    ctx21 = SymplecticContext(2, 1, (1,), 1, 6)
    x1g = SuperFunction.term(ctx21, (1, 0), 1)
    for form in (m3_form(ctx21), mu_form(ctx21),
                 mzeta_form(ctx21, SuperFunction.xi(ctx21, 1)),
                 mzeta_form(ctx21, x1g), jzeta_form(ctx21, x1g)):
        ok &= check_signs(form, SampleSpec(seed=8008, count=40)).passed
    ok &= check_bar_vanishing(SampleSpec(seed=8004, count=10), CTX42).passed
    ok &= check_bar_vanishing(SampleSpec(seed=8005, count=10), CTX22).passed
    rerun = SampleSpec(seed=8006, count=12)
    a = sample_superfunctions(rerun, CTX42)
    b = sample_superfunctions(rerun, CTX42)
    ok &= [f.freeze() for f in a] == [g.freeze() for g in b]
    d0 = m0_form(CTX42)
    r1 = check_jacobi(d0, SampleSpec(seed=8007, count=4))
    r2 = check_jacobi(d0, SampleSpec(seed=8007, count=4))
    ok &= r1.core_dict() == r2.core_dict()
    _verdict("8. infrastructure: d o d = 0, sign rules on all built-in "
             "forms, bar-vanishing, bit-reproducible samples/reports", ok)
