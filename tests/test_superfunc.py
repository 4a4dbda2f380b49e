"""Unit tests for Gaussian-weighted polynomial superfunctions."""

import copy
import itertools
import math
import pickle
from fractions import Fraction

import mpmath
import pytest

from superdeform import (ContextMismatchError, NotIntegrableError,
                         SampleSpec, Scalar, ScalarContext, SuperFunction,
                         SymplecticContext, antibracket, build_C1c,
                         moyal_bracket, poisson_bracket,
                         sample_superfunctions, sf_mul)
from superdeform import superfunc
from superdeform.superfunc import _make, pack_x

from conftest import (gaussian_moment, is_clean, omega_channels,
                      radical_float, random_superfunction, seeded)


def test_context_validation():
    with pytest.raises(ValueError):
        SymplecticContext(3, 2)
    with pytest.raises(ValueError):
        SymplecticContext(4, 2, (1,))
    with pytest.raises(ValueError):
        SymplecticContext(4, 2, (1, 2))


@pytest.mark.parametrize("args", [
    (4.0, 2), (2, 1.0), (2, 1, None, 1.0), (2, 1, None, 1, 6.5),
    (2, 1, (1.0,)), (2, 1, (-1.0,)), (Fraction(2), 1)],
    ids=["n_plus", "n_minus", "k", "h_max", "lambda", "lambda_negative",
         "fraction"])
def test_contexts_refuse_non_int_sizes(args):
    """Sizes and metric signs are ints: a float n_plus broke the first
    SuperFunction.x, and a float k, h_max or metric sign was kept (a float
    sign made moyal_bracket write float coefficients)."""
    with pytest.raises(ValueError):
        SymplecticContext(*args)
    if len(args) > 3:
        with pytest.raises(ValueError):
            ScalarContext(*args[3:])


def test_contexts_are_values():
    """Both context types are tuples of their fields: the repr names each
    field, the hash is the hash of the plain field tuple, and a replaced k
    or h_max reaches ``scalar_ctx``."""
    ctx = SymplecticContext(4, 2, (1, -1), 1, 6)
    sctx = ScalarContext(2, 5)
    assert repr(ctx) == ("SymplecticContext(n_plus=4, n_minus=2, "
                         "lambdas=(1, -1), k=1, h_max=6)")
    assert repr(sctx) == "ScalarContext(k=2, h_max=5)"
    assert tuple(ctx) == (4, 2, (1, -1), 1, 6) and tuple(sctx) == (2, 5)
    assert hash(ctx) == hash((4, 2, (1, -1), 1, 6))
    assert hash(sctx) == hash((2, 5))
    assert ctx.scalar_ctx == ScalarContext(1, 6)
    assert ctx._replace(k=2).scalar_ctx == ScalarContext(2, 6)
    assert ctx._replace(lambdas=[1, 1]).lambdas == (1, 1)


@pytest.mark.parametrize("make, message", [
    (lambda ctx: ctx._replace(n_plus=3),
     "n_plus must be an even nonnegative int"),
    (lambda ctx: ctx._replace(lambdas=(1, 2)),
     "lambdas must be a +-1 vector of length n_minus"),
    (lambda ctx: ctx._replace(k=-1), "k and h_max must be nonnegative ints"),
    (lambda ctx: SymplecticContext._make((4, 2, (1,), 1, 6)),
     "lambdas must be a +-1 vector of length n_minus"),
    (lambda ctx: ctx.scalar_ctx._replace(h_max=6.0),
     "k and h_max must be nonnegative ints"),
    (lambda ctx: ScalarContext._make((-1, 6)),
     "k and h_max must be nonnegative ints"),
], ids=["n_plus", "lambdas", "k", "make", "scalar_h_max", "scalar_make"])
def test_replace_refuses_what_the_constructor_refuses(make, message):
    """``_replace`` and ``_make`` build a context through its constructor,
    so they refuse what it refuses, in its words."""
    with pytest.raises(ValueError) as err:
        make(SymplecticContext(4, 2, (1, -1), 1, 6))
    assert str(err.value) == message


def test_functions_refuse_inexact_numbers():
    """Every way a number enters a function (a coefficient, a Gaussian
    weight, a scalar factor, a summand, a bracket's kappa, a deformation's
    c) refuses a float or a str with the ring's exact rule."""
    ctx = SymplecticContext(2, 1, k=1)
    f = SuperFunction.x(ctx, 1)
    zeta = SuperFunction.zero(ctx)
    for bad in (0.1, 0.0, "1/3"):
        for build in (lambda: SuperFunction.gauss(ctx, bad),
                      lambda: SuperFunction.constant(ctx, bad),
                      lambda: SuperFunction(ctx, {((0, 0), bad, ()): 1}),
                      lambda: SuperFunction(ctx, {((0, 0), 1, ()): bad}),
                      lambda: f * bad, lambda: bad * f, lambda: f + bad,
                      lambda: f - bad, lambda: f.scale_left(bad),
                      lambda: f.scale_right(bad),
                      lambda: moyal_bracket(f, f, bad),
                      lambda: build_C1c(zeta, c=bad)):
            with pytest.raises(ValueError, match="exact"):
                build()
    assert SuperFunction.gauss(ctx, Fraction(4, 2)) == \
        SuperFunction.gauss(ctx, 2)
    assert not (f == 0.5)
    # a generator index is an int too: x(ctx, 1.5) was the constant 1
    with pytest.raises(ValueError, match=r"unknown variable x1\.5"):
        SuperFunction.x(ctx, 1.5)


def test_constructor_checks_its_values():
    """A Scalar over another ring is refused (it would otherwise lose its
    context silently); a rational value stands for its Scalar."""
    ctx = SymplecticContext(2, 1, k=1)
    foreign = Scalar.theta(ScalarContext(k=2, h_max=3), 2)
    with pytest.raises(ContextMismatchError):
        SuperFunction(ctx, {((0, 0), 1, ()): foreign})
    with pytest.raises(ContextMismatchError):
        SuperFunction.gauss(ctx, 1).scale_left(foreign)
    f = SuperFunction(ctx, {((0, 0), 1, ()): 3,
                            ((1, 0), 0, (1,)): Fraction(1, 2),
                            ((0, 1), 0, ()): 0})
    assert f == SuperFunction.gauss(ctx, 1) * 3 + SuperFunction.term(
        ctx, (1, 0), 0, (1,), Fraction(1, 2))
    assert f.render() == "3*gauss(1) + 1/2*x1*xi1"


def test_constructor_checks_its_keys():
    """A term key is canonical: n_plus x-exponents, none negative; a
    nonnegative weight, an integral one kept as an int; xi indices sorted,
    distinct and in 1..n_minus.  Exponents and indices are ints: a float or
    Fraction exponent would give float or Fraction powers of x."""
    ctx = SymplecticContext(2, 2, k=1)
    for key in (((3,), -1, (2, 1)), ((3,), 0, ()), ((1, 0, 0), 0, ()),
                ((1, -1), 0, ()), ((0, 0), -1, ()),
                ((0, 0), Fraction(-1, 2), ()), ((0, 0), 0, (2, 1)),
                ((0, 0), 0, (1, 1)), ((0, 0), 0, (0,)), ((0, 0), 0, (3,)),
                ((1.5, 0), 1, ()), ((Fraction(2), 0), 1, ()),
                ((0, 0), 0, (1.0,)), ((0, 0), 0, ("1",)),
                ((0, 0), 0, (1, "2")), ((0, 0), 0, (True,))):
        with pytest.raises(ValueError):
            SuperFunction(ctx, {key: 1})
        with pytest.raises(ValueError):
            SuperFunction.term(ctx, *key)
    f = SuperFunction(ctx, {((1, 0), Fraction(2), (1, 2)): 1})
    assert f == SuperFunction.term(ctx, (1, 0), 2, (1, 2))
    assert [type(key[1]) for key in f.coeffs] == [int]


def test_constant_functions_hash_as_their_scalar():
    ctx = SymplecticContext(2, 1, k=1)
    sctx = ctx.scalar_ctx
    for value in (3, Fraction(1, 2), 0, Scalar.sqrt(sctx, 2)
                  + Scalar.theta(sctx, 1)):
        f = SuperFunction.constant(ctx, value)
        assert f == value and hash(f) == hash(value)
        assert len({f, value}) == 1 and len({value, f}) == 1
    assert hash(SuperFunction.zero(ctx)) == hash(0)


def test_constant_equality_is_transitive_across_contexts():
    """f == 3 == b for the constant 3 and the rational 3 over another
    scalar context, so f == b both ways, and a set of the three has one
    member whichever is inserted first; a constant still differs from a
    Scalar over another context that is not rational."""
    ctx = SymplecticContext(2, 2, (1, 1), 0, 6)
    f = SuperFunction.constant(ctx, 3)
    b = Scalar.rational(ScalarContext(2, 6), 3)
    assert b.ctx != ctx.scalar_ctx
    assert f == 3 == b and f == b and b == f
    assert len({f, 3, b}) == len({3, f, b}) == len({b, f, 3}) == 1
    assert f != Scalar.rational(ScalarContext(2, 6), 2)
    root = SuperFunction.constant(ctx, Scalar.sqrt(ctx.scalar_ctx, 2))
    assert root != Scalar.sqrt(ScalarContext(2, 6), 2)
    assert root == Scalar.sqrt(ctx.scalar_ctx, 2)
    assert SuperFunction.x(ctx, 1) != b and b != SuperFunction.x(ctx, 1)


def test_omega_channels_canonical(ctx42):
    assert omega_channels(ctx42) == [
        (0, 1, 1), (1, 0, -1), (2, 3, 1), (3, 2, -1), (4, 4, 1), (5, 5, 1)]


def test_xi_anticommute(ctx42):
    xi1 = SuperFunction.xi(ctx42, 1)
    xi2 = SuperFunction.xi(ctx42, 2)
    assert sf_mul(xi2, xi1) == -sf_mul(xi1, xi2)
    assert sf_mul(xi1, xi1).is_zero()


def test_supercommutativity(ctx42):
    rng = seeded(5)
    for _ in range(12):
        f = random_superfunction(rng, ctx42, xi_degree=rng.randint(0, 2),
                                 theta=False)
        g = random_superfunction(rng, ctx42, xi_degree=rng.randint(0, 2),
                                 theta=False)
        sign = (-1) ** (f.eps() * g.eps())
        assert sf_mul(f, g) == sf_mul(g, f) * sign


def test_product_associativity(ctx42):
    rng = seeded(6)
    for _ in range(8):
        f, g, h = (random_superfunction(rng, ctx42, theta=True)
                   for _ in range(3))
        assert sf_mul(sf_mul(f, g), h) == sf_mul(f, sf_mul(g, h))


def test_gaussian_chain_rule(ctx42):
    # d/dx1 of x1^2 gauss(c) = (2 x1 - c x1^3) gauss(c)
    f = SuperFunction.term(ctx42, (2, 0, 0, 0), Fraction(3))
    df = f.left_deriv(0)
    expect = SuperFunction.term(ctx42, (1, 0, 0, 0), Fraction(3), (), 2) + \
        SuperFunction.term(ctx42, (3, 0, 0, 0), Fraction(3), (), -3)
    assert df == expect


# each site of scalars.check_index at ctx42 (n_plus=4, n_minus=2, k=1): its
# call, its range and its message for the index i, which names i by its repr
# (x'1' for the str "1", so that no refusal names a variable that exists)
INDEX_SITES = {
    "theta": (lambda ctx, i: Scalar.theta(ctx.scalar_ctx, i), 1, 1,
              "unknown parameter th{!r} (k=1)"),
    "x": (SuperFunction.x, 1, 4, "unknown variable x{!r} (n_plus=4)"),
    "xi": (SuperFunction.xi, 1, 2, "unknown variable xi{!r} (n_minus=2)"),
    "left_deriv": (lambda ctx, a: SuperFunction.x(ctx, 1).left_deriv(a),
                   0, 5, "variable index {!r} outside 0..5"),
    "right_deriv": (lambda ctx, a: SuperFunction.x(ctx, 1).right_deriv(a),
                    0, 5, "variable index {!r} outside 0..5"),
}


@pytest.mark.parametrize("site", list(INDEX_SITES))
def test_every_index_goes_through_one_rule(ctx42, site):
    """A generator or derivative index is an int in the site's range: one
    below or above it, a str, a float or a bool is refused with ValueError
    in the site's own words."""
    build, lo, hi, message = INDEX_SITES[site]
    for i in (lo - 1, hi + 1, "1", 1.0, True):
        with pytest.raises(ValueError) as info:
            build(ctx42, i)
        assert str(info.value) == message.format(i)
    for i in (lo, hi):
        build(ctx42, i)


def test_left_derivative_is_odd(ctx42):
    # d/dxi1 (xi1 xi2) = xi2; d/dxi2 (xi1 xi2) = -xi1
    f = SuperFunction.term(ctx42, xi=(1, 2))
    assert f.left_deriv(4) == SuperFunction.xi(ctx42, 2)
    assert f.left_deriv(5) == -SuperFunction.xi(ctx42, 1)


def test_right_vs_left_derivative_sign(ctx42):
    # on eps-homogeneous f: right = (-1)^(eps(f)+1) * left for odd variables
    rng = seeded(9)
    for _ in range(10):
        deg = rng.randint(0, 2)
        f = random_superfunction(rng, ctx42, xi_degree=deg)
        for a in (4, 5):
            sign = (-1) ** (f.eps() + 1)
            assert f.right_deriv(a) == f.left_deriv(a) * sign
    # theta coefficients count in eps; a function of mixed parity obeys the
    # rule on each homogeneous component, and x-derivatives agree
    for _ in range(20):
        f = random_superfunction(rng, ctx42, terms=rng.randint(1, 4),
                                 theta=True)
        for a in range(6):
            expect = SuperFunction.zero(ctx42)
            for part in f.homogeneous_components():
                sign = (-1) ** ((a >= ctx42.n_plus) * (part.eps() + 1))
                expect = expect + part.left_deriv(a) * sign
            assert f.right_deriv(a) == expect


def test_derivative_leibniz(ctx42):
    rng = seeded(11)
    for _ in range(8):
        f = random_superfunction(rng, ctx42, xi_degree=rng.randint(0, 2))
        g = random_superfunction(rng, ctx42, xi_degree=rng.randint(0, 2))
        for a in range(6):
            sign = (-1) ** ((a >= ctx42.n_plus) * f.eps())
            lhs = sf_mul(f, g).left_deriv(a)
            rhs = sf_mul(f.left_deriv(a), g) + \
                sf_mul(f, g.left_deriv(a)) * sign
            assert lhs == rhs


def test_gaussian_moment_closed_form():
    # against numeric quadrature, independent of the implementation
    for e in (0, 2, 4):
        for c in (Fraction(1), Fraction(2), Fraction(1, 2)):
            exact = radical_float(gaussian_moment(e, c, ScalarContext()))
            numeric = float(mpmath.quad(
                lambda x: x ** e * mpmath.exp(-float(c) * x * x / 2),
                [-mpmath.inf, mpmath.inf]))
            assert exact == pytest.approx(numeric)
    assert gaussian_moment(3, 1, ScalarContext()).is_zero()


def _product_moment(xexp, c, half):
    """prod_a (e_a - 1)!! c^(-e_a/2), times (2/c)^half: the Gaussian moment
    over 2 half coordinates without its pi^half, one slot at a time."""
    out = (Fraction(2) / c) ** half
    for e in xexp:
        out *= Fraction(math.prod(range(1, e, 2))) / Fraction(c) ** (e // 2)
    return out


def test_cached_moments_equal_the_product_formula():
    """``_moment`` equals the uncached formula for even exponents 0-8 per
    slot (each multiset, in increasing and decreasing order), int when
    integral, hit on a repeat, and bounded."""
    for half in (1, 2, 3):
        for c in (Fraction(1, 2), 1, 2, 3):
            for low in itertools.combinations_with_replacement(
                    range(0, 9, 2), 2 * half):
                for xexp in (low, low[::-1]):
                    got = superfunc._moment(xexp, c, half)
                    assert got == _product_moment(xexp, c, half)
                    assert got.__class__ is int or got.denominator != 1
    superfunc._moment.cache_clear()
    superfunc._moment((2, 0, 4, 0), 2, 2)
    superfunc._moment((2, 0, 4, 0), 2, 2)
    info = superfunc._moment.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert info.maxsize == superfunc._CACHE_BOUND


def test_integral_bar_top_component(ctx42):
    # only the top xi monomial survives, x-moments factor per coordinate
    f = SuperFunction.term(ctx42, (2, 0, 0, 0), Fraction(1), (1, 2))
    m0 = gaussian_moment(0, 1, ctx42.scalar_ctx)
    expect = gaussian_moment(2, 1, ctx42.scalar_ctx) * m0 * m0 * m0
    assert f.integral_bar() == expect
    low = SuperFunction.term(ctx42, (0, 0, 0, 0), Fraction(1), (1,))
    assert low.integral_bar().is_zero()


def test_bar_is_the_left_berezin_integral():
    """On every theta^alpha x^e G xi_1...xi_m (k <= 3, m = n_minus <= 4,
    n_plus in {0, 2}, even e, weights 1 and 2), the bar is the x-moment of
    d^L_{xi_m} ... d^L_{xi_1} of the function, d_{xi_1} first: a map of
    parity m, so at odd m an odd theta part changes sign.  The Jordan-Wigner
    tests of test_brackets certify left_deriv, and the quadrature test
    certifies gaussian_moment."""
    flipped = 0
    for n_plus, n_minus, k in itertools.product((0, 2), range(5),
                                                range(1, 4)):
        ctx = SymplecticContext(n_plus, n_minus,
                                tuple((-1) ** a for a in range(n_minus)), k)
        sctx = ctx.scalar_ctx
        top = tuple(range(1, n_minus + 1))
        shapes = ([((2, 0), 1), ((0, 0), 2), ((0, 2), 1), ((2, 2), 2)]
                  if n_plus else [((), 0)])
        for size in range(k + 1):
            for alpha in itertools.combinations(range(1, k + 1), size):
                s = Scalar.theta(sctx, *alpha) * 3
                for xexp, c in shapes:
                    f = SuperFunction.term(ctx, xexp, c, top, s)
                    g = f
                    for a in range(n_minus):
                        g = g.left_deriv(n_plus + a)
                    [(term, value)] = g.terms.items()
                    assert term == (xexp, c, ())
                    want = value
                    for e in xexp:
                        want = want * gaussian_moment(e, c, sctx)
                    assert f.integral_bar() == want
                    flipped += value != s
    # the odd theta parts at n_minus in {1, 3}: 7 per n_minus and shape
    assert flipped == 2 * 7 + 2 * 7 * 4


def test_scalar_on_the_left_of_a_function(ctx42):
    # Scalar defers to the SuperFunction's reflected methods; theta-odd s
    # and xi-odd f anticommute, so the side of the product matters
    s = Scalar.theta(ctx42.scalar_ctx, 1)
    f = SuperFunction.xi(ctx42, 1)
    assert s + f == f + s
    assert s - f == -(f - s)
    assert s * f == f.scale_left(s)
    assert s * f == -(f * s) and not (s * f).is_zero()
    with pytest.raises(TypeError):
        s + "x"


def test_integral_bar_errors_and_centralizer(ctx42):
    poly = SuperFunction.x(ctx42, 1)
    with pytest.raises(NotIntegrableError):
        poly.integral_bar()
    one = SuperFunction.constant(ctx42, 1)
    assert one.integral_bar().is_zero()


def test_euler_kernel_is_degree_two(ctx42):
    # E = 1 - (1/2) z d/dz kills exactly the quadratics
    q = sf_mul(SuperFunction.x(ctx42, 1), SuperFunction.x(ctx42, 2)) + \
        sf_mul(SuperFunction.xi(ctx42, 1), SuperFunction.xi(ctx42, 2))
    assert q.euler_E().is_zero()
    x = SuperFunction.x(ctx42, 1)
    assert x.euler_E() == x * Fraction(1, 2)


def test_number_operators(ctx42):
    f = SuperFunction.term(ctx42, (2, 1, 0, 0), Fraction(0), (1, 2))
    assert f.one_minus_number_xi() == f * -1
    assert f.number_z() == f * 5


def test_delta_op(ctx22):
    # Delta(x1 xi1) = 1
    f = SuperFunction.term(ctx22, (1, 0), Fraction(0), (1,))
    assert f.delta_op() == SuperFunction.constant(ctx22, 1)


def test_class_flags(ctx42):
    d = SuperFunction.gauss(ctx42, 1)
    e = SuperFunction.x(ctx42, 1)
    assert d.is_d_class() and d.is_z_class()
    assert not e.is_d_class() and not e.is_z_class()
    z = d + SuperFunction.constant(ctx42, 5)
    assert z.is_z_class() and not z.is_d_class()


def test_homogeneous_components(ctx42):
    t = Scalar.theta(ctx42.scalar_ctx, 1)
    f = SuperFunction.xi(ctx42, 1) + SuperFunction.x(ctx42, 1) + \
        SuperFunction.constant(ctx42, t)
    parts = f.homogeneous_components()
    assert len(parts) == 2
    assert sum(parts, SuperFunction.zero(ctx42)) == f
    assert {p.eps() for p in parts} == {0, 1}


def test_eps_with_theta(ctx42):
    t = Scalar.theta(ctx42.scalar_ctx, 1)
    f = SuperFunction.xi(ctx42, 1).scale_left(t)
    assert f.eps() == 0 and f.epsilon() == 1


def test_scale_right_koszul(ctx42):
    t = Scalar.theta(ctx42.scalar_ctx, 1)
    xi1 = SuperFunction.xi(ctx42, 1)
    assert xi1.scale_right(t) == -xi1.scale_left(t)


def test_theta_grade_part(ctx42):
    t = Scalar.theta(ctx42.scalar_ctx, 1)
    f = SuperFunction.x(ctx42, 1) + SuperFunction.x(ctx42, 2).scale_left(t)
    assert f.theta_grade_part(0) == SuperFunction.x(ctx42, 1)
    assert f.theta_grade_part(1) == SuperFunction.x(ctx42, 2).scale_left(t)


# -- the kept parity and bar --------------------------------------------------

def _fresh(f):
    """A new function on a copy of f's dict, with nothing kept yet."""
    return SuperFunction._of(f.ctx, dict(f.coeffs))


def test_kept_values_equal_fresh_ones(ctx42, ctx22):
    """eps and integral_bar are computed once per function; asked again,
    on samples, on bracket results and on the very object that a sum with
    zero returns, they and freeze give what a new computation gives."""
    for ctx in (ctx42, ctx22):
        samples = sample_superfunctions(
            SampleSpec(seed=41, count=12, terms=2), ctx)
        values = list(samples)
        values += [poisson_bracket(f, g) for f, g in zip(samples,
                                                         samples[1:])]
        values += [moyal_bracket(f, g) for f, g in zip(samples[:4],
                                                       samples[4:8])]
        values += [f + SuperFunction.zero(ctx) for f in samples[:3]]
        assert all(a is b for a, b in zip(values[-3:], samples))
        # and functions the constructor builds from terms
        values += [SuperFunction(ctx, f.terms) for f in values[:6]]
        values += [SuperFunction.term(ctx, c=1, xi=(1, 2), scalar=3),
                   SuperFunction.constant(ctx, 2),
                   SuperFunction.term(ctx, c=2, xi=(2,))]
        for f in values:
            fresh = _fresh(f)
            for _ in range(2):
                assert f.eps() == fresh.eps()
                assert f.freeze() == fresh.freeze()
                assert f.integral_bar() == fresh.integral_bar()
                assert hash(f) == hash(fresh)
            assert f.integral_bar() is f.integral_bar()
        # the zero function and a mixed-parity sum
        mixed = (samples[0] + SuperFunction.term(ctx, c=1, xi=(1,))
                 + SuperFunction.constant(ctx, 1))
        for f in (SuperFunction.zero(ctx), mixed, SuperFunction(ctx, {}),
                  SuperFunction(ctx, mixed.terms)):
            assert f.eps() == _fresh(f).eps() and f.eps() == f.eps()
            assert f.integral_bar() == _fresh(f).integral_bar()


def test_a_kept_mixed_parity_survives_copies(ctx22):
    """A mixed function's parity None is kept as a value, not taken for
    one not yet computed: asked again, and on a deep copy or a pickled
    copy made before or after it was computed, it is still None, and the
    copies give the same bar."""
    mixed = SuperFunction.gauss(ctx22, 1) + SuperFunction.term(
        ctx22, c=1, xi=(1, 2), scalar=2) + SuperFunction.term(
        ctx22, c=2, xi=(1,))
    # copies made before anything is computed, and after
    twins = [copy.deepcopy(mixed), pickle.loads(pickle.dumps(mixed))]
    bar = mixed.integral_bar()
    assert [mixed.eps() for _ in range(3)] == [None] * 3
    twins += [copy.deepcopy(mixed), pickle.loads(pickle.dumps(mixed))]
    for twin in twins:
        assert twin is not mixed and twin == mixed
        assert twin.eps() is None and twin.eps() is None
        assert twin.integral_bar() == bar
        assert twin.homogeneous_components() == \
            mixed.homogeneous_components()


def test_not_integrable_raises_on_every_call(ctx42):
    """A failed integral is not kept: the error comes on every call, and a
    later integrable function of the same terms is unaffected."""
    poly = SuperFunction.x(ctx42, 1) + SuperFunction.gauss(ctx42, 1)
    for _ in range(3):
        with pytest.raises(NotIntegrableError):
            poly.integral_bar()
    assert poly.eps() == 0
    assert (poly - SuperFunction.x(ctx42, 1)).integral_bar() == \
        SuperFunction.gauss(ctx42, 1).integral_bar()


def test_rational_values_take_the_integer_path(ctx42):
    """An int value builds the same dict as its Scalar; a zero one adds
    no term."""
    sctx = ctx42.scalar_ctx
    key = ((1, 0, 0, 0), 1, (1,))
    for value in (3, -1, 0):
        assert SuperFunction(ctx42, {key: value}).coeffs == SuperFunction(
            ctx42, {key: Scalar.rational(sctx, value)}).coeffs
    assert SuperFunction(ctx42, {key: 0}).is_zero()


def test_a_sign_is_folded_without_a_product(ctx42):
    """f * 1 is f itself and f * -1 is -f; both equal the product by the
    scalar on the right, also for a theta-carrying f of odd xi-degree."""
    t = Scalar.theta(ctx42.scalar_ctx, 1)
    f = (SuperFunction.xi(ctx42, 1).scale_left(t)
         + SuperFunction.term(ctx42, (1, 0, 0, 0), 1, (1, 2), t)
         + SuperFunction.x(ctx42, 2))
    assert f * 1 is f
    for sign in (1, -1):
        assert f * sign == f.scale_right(sign)
        assert (f * sign).coeffs == f.scale_right(sign).coeffs
    assert f * 2 == f.scale_right(2)


def test_gaussian_weight_is_zero_without_x_variables():
    """With n_plus = 0, exp(-c|x|^2/2) is 1: the weight is stored as 0,
    terms that then coincide are summed, and the zero test is sound."""
    ctx = SymplecticContext(0, 1, (1,), 2, 6)
    xi1 = SuperFunction.xi(ctx, 1)
    assert SuperFunction.gauss(ctx, 2) * xi1 == xi1
    assert (SuperFunction.gauss(ctx, 2) * xi1 - xi1).render() == "0"
    assert SuperFunction(ctx, {((), 0, (1,)): 1, ((), 2, (1,)): -1}).is_zero()
    t = Scalar.theta(ctx.scalar_ctx, 1)
    summed = SuperFunction(ctx, {((), Fraction(1, 2), (1,)): t,
                                 ((), 1, (1,)): 3})
    assert summed == xi1.scale_left(t + 3)
    summed = SuperFunction(ctx, {((), 1, (1,)): 3,
                                 ((), 2, (1,)): t + 2})
    assert summed == xi1.scale_left(t + 5)
    samples = sample_superfunctions(
        SampleSpec(seed=5, count=20, terms=3, gauss_weights=(0, 1, 2)),
        SymplecticContext(0, 2, (1, -1), 1, 6))
    assert all(key[1] == 0 for f in samples for key in f.coeffs)
    # with x variables the weight stays
    ctx22 = SymplecticContext(2, 2, (1, 1), 1, 6)
    assert SuperFunction.gauss(ctx22, 2) * SuperFunction.xi(ctx22, 1) != \
        SuperFunction.xi(ctx22, 1)


def test_subtraction_is_addition_of_the_negation(ctx42, ctx22):
    """f - g, computed in one pass, equals f + (-g) for functions, Scalars
    and rationals on either side, and refuses another context."""
    sctx = ctx42.scalar_ctx
    th = Scalar.theta(sctx, 1)
    shared = SuperFunction.term(ctx42, (1, 0, 0, 0), Fraction(1, 2), (1,),
                                th * Fraction(3, 2))
    f = shared + SuperFunction.constant(ctx42, 2) + \
        SuperFunction.gauss(ctx42, 1)
    g = shared + SuperFunction.xi(ctx42, 2).scale_left(Scalar.sqrt(sctx, 2))
    zero = SuperFunction.zero(ctx42)
    for x in (f, g, zero):
        for y in (f, g, zero, 2, 0, Fraction(-1, 3),
                  Scalar.sqrt(sctx, 2) + th, Scalar.pi(sctx) * -1):
            assert x - y == x + -y
            assert is_clean(x - y)
            assert y - x == y + -x
            assert is_clean(y - x)
    assert (f - f).is_zero()
    with pytest.raises(ContextMismatchError):
        f - SuperFunction.gauss(ctx22, 1)
    with pytest.raises(ContextMismatchError):
        f - Scalar.one(ScalarContext(0, 6))


def test_a_zero_subtrahend_gives_the_minuend_itself(ctx42, ctx22):
    """f - 0 is f itself, as f + 0 is, for functions and Scalars; 0 - f
    is -f; a zero over another context is still refused."""
    sctx = ctx42.scalar_ctx
    cases = (
        (SuperFunction.x(ctx42, 1) + SuperFunction.xi(ctx42, 2),
         SuperFunction.zero(ctx42), SuperFunction.zero(ctx22)),
        (Scalar.sqrt(sctx, 2) + Scalar.theta(sctx, 1), Scalar.zero(sctx),
         Scalar.zero(ScalarContext(0, 6))))
    for f, zero, foreign in cases:
        assert f - zero is f and f + zero is f and f - 0 is f
        assert zero - f == -f
        with pytest.raises(ContextMismatchError):
            f - foreign


def test_make_divides_each_slot_exactly(ctx42):
    """_make divides int and Fraction slots by den exactly, with negative
    and non-integral quotients, and stores an integral quotient as int."""
    x1, x0 = pack_x((1, 0, 0, 0)), 0
    h1, h2 = (1, 1), (Fraction(1, 2), 0)
    k0, kh = (0, 0, 0, 0, 1), (2, 1, 0, 0, 2)
    slots = {h1 + k0: {x1: 5040 * 3}, h1 + kh: {x1: -5040 * 2 - 7},
             h1 + (1, 0, 0, 0, 1): {x1: 0},
             h2 + k0: {x0: Fraction(-15, 2)},
             h2 + kh: {x0: Fraction(5040 * 7, 2)},
             h2 + (1, 0, 0, 0, 1): {x0: -5040}}
    for den in (1, 7, 5040):
        out = _make(ctx42, slots, den)
        assert out.coeffs == {(x,) + head: Fraction(v) / den
                              for head, slot in slots.items()
                              for x, v in slot.items() if v}
        assert is_clean(out)
    assert _make(ctx42, slots, 5040).coeffs[(x1,) + h1 + kh] == \
        Fraction(-10087, 5040)
    assert _make(ctx42, slots, 7).coeffs[(x0,) + h2 + kh] == 2520


def test_zero_bar_scan_keeps_the_integral_rules(ctx42):
    """A function without a top-xi term has bar 0 unless it has a term the
    Gaussian class cannot integrate, which still raises; the pure constant
    is still dropped, and at n_plus = 0 (where every weight is 0) the top
    term still counts."""
    sctx = ctx42.scalar_ctx
    gauss_xi1 = SuperFunction.term(ctx42, (2, 0, 0, 0), 1, (1,))
    for f in (SuperFunction.x(ctx42, 1) + gauss_xi1,
              SuperFunction.xi(ctx42, 1) + gauss_xi1):
        with pytest.raises(NotIntegrableError):
            f.integral_bar()
    const = SuperFunction.constant(ctx42, Scalar.theta(sctx, 1) + 3)
    assert (const + gauss_xi1).integral_bar().is_zero()
    assert const.integral_bar().is_zero()
    top = SuperFunction.term(ctx42, (2, 0, 0, 0), 2, (1, 2), 3)
    bar = top.integral_bar()
    # the product of the one-dimensional moments
    want = Scalar.one(sctx) * 3
    for e in (2, 0, 0, 0):
        want = want * gaussian_moment(e, 2, sctx)
    assert bar == want and not bar.is_zero()
    assert (const + top + gauss_xi1).integral_bar() == bar
    ctx = SymplecticContext(0, 2, (1, -1), 1, 6)
    xi12 = SuperFunction.term(ctx, xi=(1, 2), scalar=Fraction(3, 2))
    rest = SuperFunction.xi(ctx, 1) + SuperFunction.constant(ctx, 5)
    assert (xi12 + rest).integral_bar() == Fraction(3, 2)
    assert rest.integral_bar().is_zero()


def test_a_zero_bar_is_read_from_the_xi_degree(ctx42):
    """A function with no term of xi-degree n_minus and none outside the
    Gaussian class has a zero bar over its scalar context, whatever its
    xi-degrees; a non-Gaussian term still raises."""
    sctx = ctx42.scalar_ctx
    theta = Scalar.theta(sctx, 1)
    zero_bars = [SuperFunction.term(ctx42, (2, 0, 0, 0), 1, (1,)),
                 SuperFunction.term(ctx42, (0, 1, 0, 0), 2, (), theta),
                 SuperFunction.constant(ctx42, 3),
                 SuperFunction.zero(ctx42)]
    for f in zero_bars:
        bar = f.integral_bar()
        assert bar.is_zero() and bar.ctx is sctx
    with pytest.raises(NotIntegrableError):
        (zero_bars[0] + SuperFunction.x(ctx42, 1)).integral_bar()
    top = SuperFunction.term(ctx42, (0, 0, 0, 0), 1, (1, 2))
    assert not top.integral_bar().is_zero()


# -- the packed x exponents: the cap and the public tuple forms -------------

def _innermost(excinfo):
    """The name of the function an exception was raised in."""
    return excinfo.traceback[-1].name


def test_every_site_that_forms_an_x_exponent_refuses_one_past_the_cap():
    """An x exponent past ``X_CAP`` is refused with a ValueError that names
    the cap by the site that forms it: the constructor's packing, a
    product's sum, an x step (a derivative, Delta, E's x_a^2 bump), the
    first-order kernels' sum of both exponents and the antibracket's step
    of it, a Poisson block row and a Moyal block exponent before it is
    packed; and the sampler's spec refuses a degree past the cap."""
    cap = superfunc.X_CAP
    ctx = SymplecticContext(2, 2, (1, -1), 1, 6)

    def term(e1, e2=0, c=0, xi=()):
        return SuperFunction.term(ctx, (e1, e2), c, xi, 3)

    half = term(cap // 2 + 1, c=1)
    cases = [
        (lambda: term(cap + 1), "pack_x"),
        (lambda: SuperFunction(ctx, {((0, cap + 1), 0, ()): 1}), "pack_x"),
        (lambda: sf_mul(half, half), "sf_mul"),
        (lambda: term(0, cap, 1).left_deriv(1), "x_steps"),
        (lambda: term(cap, 0, 1).right_deriv(0), "x_steps"),
        (lambda: term(cap, 0, 1, (1,)).delta_op(), "x_steps"),
        (lambda: term(0, cap - 1, 1).euler_E(), "_degree_op"),
        (lambda: antibracket(half, term(cap // 2 + 1, xi=(2,))),
         "antibracket"),
        (lambda: antibracket(term(cap - 1, c=1), term(1, xi=(1,))),
         "antibracket"),
        (lambda: poisson_bracket(half, half), "poisson_bracket"),
        (lambda: poisson_bracket(term(cap - 1, c=1), term(1, 1)), "pack_x"),
        (lambda: moyal_bracket(half, half), "pack_x"),
    ]
    for build, site in cases:
        with pytest.raises(ValueError, match=f"above the cap {cap}") as info:
            build()
        assert _innermost(info) == site
    with pytest.raises(ValueError, match=f"at most {cap}, got"):
        SampleSpec(max_x_degree=cap + 1)
    assert SampleSpec(max_x_degree=cap).max_x_degree == cap


def test_an_x_exponent_at_the_cap_renders():
    """Exponents at ``X_CAP`` are stored, multiplied into, stepped down and
    rendered; the steps that would pass the cap are the refused ones."""
    cap = superfunc.X_CAP
    ctx = SymplecticContext(4, 1, (1,), 0, 6)
    top = SuperFunction.term(ctx, (cap, 0, 0, cap), 0, (1,), 2)
    assert top.render() == f"2*x1^{cap}*x4^{cap}*xi1"
    assert list(top.terms) == [((cap, 0, 0, cap), 0, (1,))]
    low = SuperFunction.term(ctx, (cap - 7, 0, 0, 0))
    assert sf_mul(low, SuperFunction.term(ctx, (7, 0, 0, 0))).render() == \
        f"x1^{cap}"
    assert top.left_deriv(0).render() == \
        f"{2 * cap}*x1^{cap - 1}*x4^{cap}*xi1"


def test_terms_view_keys_are_exponent_and_index_tuples():
    """``terms`` keys are (x exponent tuple, Gaussian weight, xi index
    tuple), whatever the packed layout of ``coeffs``, and rebuild the
    function through the constructor."""
    ctx = SymplecticContext(4, 3, (1, -1, 1), 1, 6)
    rng = seeded(91)
    for _ in range(10):
        f = random_superfunction(rng, ctx, max_x_degree=3, terms=3,
                                 xi_degree=rng.randint(0, 3), theta=True)
        for xexp, c, xi in f.terms:
            assert type(xexp) is tuple and len(xexp) == 4
            assert all(type(e) is int and e >= 0 for e in xexp)
            assert type(xi) is tuple and list(xi) == sorted(set(xi))
            assert all(type(a) is int and 1 <= a <= 3 for a in xi)
        assert SuperFunction(ctx, f.terms) == f
    key = ((2, 0, 1, 3), Fraction(1, 2), (1, 3))
    assert list(SuperFunction(ctx, {key: 5}).terms) == [key]


def test_render_orders_terms_by_their_tuples():
    """``render`` sorts terms by (x exponent tuple, Gaussian weight, xi
    index tuple), on a function whose packed keys sort otherwise: packed
    x puts x4 highest, so x1^2 x3^2 would come first, and the xi mask of
    xi1 xi2 sorts after that of xi2."""
    ctx = SymplecticContext(4, 2, (1, 1), 0, 6)
    x1, x2, x3, x4 = (SuperFunction.x(ctx, i) for i in range(1, 5))
    xi1, xi2 = SuperFunction.xi(ctx, 1), SuperFunction.xi(ctx, 2)
    f = (x1 * x2 * x3 * x4 + x1 * x1 * x4 * x4 + x1 * x1 * x3 * x3
         + xi2 + xi1 * xi2 + xi1)
    assert f.render() == ("xi1 + xi1*xi2 + xi2 + x1*x2*x3*x4 + x1^2*x4^2 "
                          "+ x1^2*x3^2")


def test_render_reads_no_terms_view(monkeypatch):
    """``render`` and ``str`` read the flat keys: they give the pinned text
    of a function with theta, hbar and sqrt(2) coefficients while both
    ``terms`` views raise."""
    ctx = SymplecticContext(2, 2, (1, 1), 2, 6)
    sctx = ctx.scalar_ctx
    x1, x2 = SuperFunction.x(ctx, 1), SuperFunction.x(ctx, 2)
    xi1, xi2 = SuperFunction.xi(ctx, 1), SuperFunction.xi(ctx, 2)
    th1, th2 = Scalar.theta(sctx, 1), Scalar.theta(sctx, 2)
    hbar, root2 = Scalar.hbar(sctx), Scalar.sqrt(sctx, 2)
    f = ((x1 * x2 * SuperFunction.gauss(ctx, 1)).scale_left(
            th1 * root2 - hbar * hbar)
         + (xi1 * xi2).scale_left(th1 * th2) + xi2.scale_left(hbar * 3)
         + SuperFunction.constant(ctx, root2) - x1 * x1)

    def refused(self):
        raise AssertionError("render read a terms view")
    monkeypatch.setattr(SuperFunction, "terms", property(refused))
    monkeypatch.setattr(Scalar, "terms", property(refused))
    text = ("sqrt(2) + th1*th2*xi1*xi2 + 3*hbar*xi2 "
            "+ (sqrt(2)*th1 - hbar^2)*x1*x2*gauss(1) + -1*x1^2")
    assert f.render() == text and str(f) == text
