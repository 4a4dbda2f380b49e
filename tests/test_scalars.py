"""Unit tests for the exact coefficient ring."""

import itertools
import math
import os
import random
import time
from decimal import Decimal
from fractions import Fraction

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

import superdeform
from superdeform import (ContextMismatchError, SampleSpec, Scalar,
                         ScalarContext, SuperFunction, SymplecticContext,
                         bidiff_power, moyal_bracket, poisson_bracket,
                         sample_superfunctions, sf_mul)
from superdeform.scalars import (MAX_RADICAND, RadicalNumber, exact,
                                 squarefree_decompose, theta_mask,
                                 theta_sign)

from conftest import is_clean, radical_float, scalar_float


def test_squarefree_decompose_small():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(4) == (2, 1)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(360) == (6, 10)
    with pytest.raises(ValueError):
        squarefree_decompose(0)


@given(st.integers(min_value=1, max_value=10_000))
def test_squarefree_decompose_property(n):
    outer, core = squarefree_decompose(n)
    assert outer * outer * core == n
    for d in range(2, int(math.isqrt(core)) + 1):
        assert core % (d * d) != 0


def test_ring_caches_are_bounded():
    """squarefree_decompose (one entry per radicand parsed) keeps at most
    the one cache bound, which superfunc and brackets read from here, and
    filled past it still gives its values; theta_sign, the one odd sign
    rule, keeps no cache, and no xi merge cache is left beside it."""
    from superdeform import brackets, scalars, superfunc
    bound = scalars._CACHE_BOUND
    assert superfunc._CACHE_BOUND == brackets._CACHE_BOUND == bound
    assert not hasattr(theta_sign, "cache_info")
    assert not hasattr(scalars, "merge_odd_indices")
    squarefree_decompose.cache_clear()
    for n in range(1, bound + 50):
        squarefree_decompose(n)
    info = squarefree_decompose.cache_info()
    assert info.maxsize == bound and info.currsize == bound
    assert theta_sign(0b10, 0b01) == -1
    assert squarefree_decompose(360) == (6, 10)


def test_radical_products_reduce():
    """The gcd rule of square-free roots, sqrt(2) sqrt(8) = 4, and the
    carry of sqrt(pi) sqrt(pi) into pi."""
    ctx = ScalarContext(k=0, h_max=0)
    a, b = Scalar.sqrt(ctx, 2), Scalar.sqrt(ctx, 8)
    assert (a * b).rational_value() == 4
    assert Scalar.sqrt_pi(ctx) * Scalar.sqrt_pi(ctx) == Scalar.pi(ctx)


@given(st.integers(min_value=1, max_value=50),
       st.integers(min_value=1, max_value=50),
       st.fractions(min_value=-5, max_value=5),
       st.fractions(min_value=-5, max_value=5))
@settings(max_examples=60)
def test_radical_arithmetic_matches_floats(r1, r2, q1, q2):
    ctx = ScalarContext(k=0, h_max=0)
    a = Scalar.sqrt(ctx, r1) * q1 + Scalar.pi(ctx) * q2
    b = Scalar.sqrt(ctx, r2) * q2 + Scalar.sqrt_pi(ctx) * q1
    assert radical_float(a * b) == pytest.approx(
        radical_float(a) * radical_float(b))
    assert radical_float(a + b) == pytest.approx(
        radical_float(a) + radical_float(b))
    assert radical_float(a - b) == pytest.approx(
        radical_float(a) - radical_float(b))


def test_subtraction_is_addition_of_the_negation():
    """a - b, computed in one pass, equals a + (-b) for Scalars, ints and
    Fractions on either side, keeps the dict clean, and refuses a Scalar of
    another context."""
    sctx = ScalarContext(2, 4)
    th1, th2 = Scalar.theta(sctx, 1), Scalar.theta(sctx, 2)
    a = th1 * Fraction(3, 2) + Scalar.sqrt(sctx, 2) * Scalar.hbar(sctx) + 5
    b = th1 * Fraction(3, 2) + Scalar.pi(sctx) * -1 + th2 + Fraction(1, 2)
    zero = Scalar.zero(sctx)
    for x in (a, b, zero):
        for y in (a, b, zero, 3, 0, -7, Fraction(5, 3), Fraction(11, 2),
                  Scalar.sqrt(sctx, 2) * 3,
                  Scalar.pi(sctx) * Fraction(1, 2) + 5):
            for diff, want in ((x - y, x + -y), (y - x, y + -x)):
                assert diff == want and diff.ctx == sctx
                assert is_clean(diff)
    assert (a - a).is_zero() and (a - 5).coeffs == (a + -5).coeffs
    r = Scalar.sqrt(sctx, 2) * 3 + 1
    assert 3 - r == 3 + -r == 2 - Scalar.sqrt(sctx, 18)
    with pytest.raises(ContextMismatchError):
        a - Scalar.one(ScalarContext(1, 4))


def test_rational_scalars_hash_as_their_value():
    ctx = ScalarContext(0, 6)
    for value in (3, Fraction(1, 2), 0, -7):
        for equal in (Scalar.rational(ctx, value),
                      Scalar.rational(ScalarContext(2, 3), value)):
            assert equal == value
            assert hash(equal) == hash(value)
            assert len({equal, value}) == 1
    assert hash(Scalar.zero(ctx)) == hash(0)
    assert hash(Scalar.sqrt(ctx, 9)) == hash(3)
    assert len({Scalar.sqrt(ctx, 9), 3}) == 1
    assert hash(Scalar.sqrt(ctx, 2)) == hash(Scalar.sqrt(ctx, 8) / 2)
    # Scalars over two contexts are unequal, as the Moyal weight cache keys
    # on that
    other = ScalarContext(2, 6)
    for build in (lambda c: Scalar.sqrt(c, 2), lambda c: Scalar.rational(c, 3),
                  lambda c: Scalar.sqrt_pi(c) * Fraction(1, 2) - Scalar.pi(c)):
        s, t = build(ctx), build(other)
        assert s != t and t != s


_SCALAR3 = Scalar.rational(ScalarContext(0, 6), 3)
_X1 = SuperFunction.x(SymplecticContext(2, 1, (1,), 0, 6), 1)


@pytest.mark.parametrize("value, other", [
    (_SCALAR3, None), (_SCALAR3, "x"),
    (_X1, None), (_X1, "x"),
], ids=["scalar_none", "scalar_str", "function_none", "function_str"])
def test_equality_with_a_foreign_value_is_false(value, other):
    # __eq__ leaves a value it cannot convert to the other operand
    assert (value == other) is False and (other == value) is False
    assert value != other


def test_radicand_bound_is_in_the_ring():
    prime = 2 ** 61 - 1
    start = time.perf_counter()
    with pytest.raises(ValueError):
        Scalar.sqrt(ScalarContext(1, 6), prime)
    assert time.perf_counter() - start < 1
    assert squarefree_decompose(MAX_RADICAND) == (10 ** 6, 1)
    assert Scalar.sqrt(ScalarContext(1, 6), MAX_RADICAND) == 10 ** 6
    # the root of a value that is not an integer is refused, never truncated
    sctx = ScalarContext(1, 6)
    for build in (lambda: Scalar.sqrt(sctx, Fraction(9, 2)),
                  lambda: Scalar.sqrt(sctx, 2.9),
                  lambda: squarefree_decompose(Fraction(9, 2)),
                  lambda: squarefree_decompose(8.0)):
        with pytest.raises(ValueError, match="positive integer"):
            build()
    assert squarefree_decompose(8) == (2, 2)
    assert Scalar.sqrt(sctx, Fraction(8)).coeffs == {(0, 0, 0, 0, 2): 2}


def test_outside_numbers_enter_the_ring_by_one_exact_rule():
    """``exact``: an int passes as it is, another Rational becomes an int
    when integral; a float (even 2.0), a str or a Decimal is refused by
    every way a number enters the ring, never taken at its binary value.
    An operator meets a str with TypeError, as Python's do, and comparing
    with a float stays False rather than raising."""
    sctx = ScalarContext(1, 4)
    one = Scalar.one(sctx)
    assert exact(3) == 3 and exact(Fraction(1, 3)) == Fraction(1, 3)
    assert type(exact(Fraction(4, 2))) is int and type(exact(True)) is int
    assert Scalar.rational(sctx, Fraction(4, 2)).coeffs == {
        (0, 0, 0, 0, 1): 2}
    assert (one / Fraction(2, 3)).coeffs == {(0, 0, 0, 0, 1): Fraction(3, 2)}
    for bad in (0.1, 2.0, "1/3", Decimal("0.5")):
        for build in (lambda: exact(bad),
                      lambda: Scalar.rational(sctx, bad),
                      lambda: Scalar.hbar(sctx, 1, bad),
                      lambda: one / bad):
            with pytest.raises(ValueError, match="exact"):
                build()
        for build in (lambda: one * bad, lambda: bad * one,
                      lambda: one + bad, lambda: one - bad):
            with pytest.raises(TypeError if isinstance(bad, str)
                               else ValueError):
                build()
    assert not (Scalar.rational(sctx, Fraction(1, 2)) == 0.5)
    # a radicand: a Rational by the exact rule, anything else refused
    with pytest.raises(ValueError, match="positive integer"):
        Scalar.sqrt(sctx, 2.0)
    assert Scalar.sqrt(sctx, Fraction(8)) == Scalar.sqrt(sctx, 2) * 2


def test_theta_builds_a_monomial_from_its_indices():
    """``Scalar.theta(ctx, *indices)`` is th_{i1}*...*th_{iw} for strictly
    increasing indices in 1..k, equal to the product of its generators;
    there is no other constructor that takes theta monomials."""
    ctx = ScalarContext(k=3, h_max=2)
    assert Scalar.theta(ctx, 1, 3) == Scalar.theta(ctx, 1) * \
        Scalar.theta(ctx, 3)
    assert Scalar.theta(ctx) == Scalar.one(ctx)
    for alpha in _theta_monomials(3):
        product = Scalar.one(ctx)
        for j in alpha:
            product = product * Scalar.theta(ctx, j)
        assert Scalar.theta(ctx, *alpha) == product
        assert list(Scalar.theta(ctx, *alpha).terms) == [(0, alpha)]
    for bad in ((0,), (4,), (-1,), (2, 1), (1, 1), (1, 3, 2), (1.0,)):
        with pytest.raises(ValueError):
            Scalar.theta(ctx, *bad)
    with pytest.raises(ValueError, match=r"^unknown parameter th0 \(k=3\)$"):
        Scalar.theta(ctx, 0)
    with pytest.raises(TypeError):
        Scalar(ctx, {(0, (1,)): 1})


def test_benchmark_hooks_into_the_ring():
    """perfbench/layertrace.py wraps each operator pair below as one
    function, the pair of the unexported RadicalNumber stub among them, and
    perfbench/workloads.py reads rational_value() from the values of
    Scalar.terms."""
    for cls, attrs in ((Scalar, ("__mul__", "__rmul__")),
                       (Scalar, ("__add__", "__radd__")),
                       (RadicalNumber, ("__mul__", "__rmul__"))):
        assert cls.__dict__[attrs[0]] is cls.__dict__[attrs[1]]
    assert "RadicalNumber" not in superdeform.__all__
    ctx = ScalarContext(k=1, h_max=2)
    s = (Scalar.rational(ctx, 3) + Scalar.hbar(ctx, 2, Fraction(1, 2))
         + Scalar.theta(ctx, 1))
    assert {key: rad.rational_value() for key, rad in s.terms.items()} == {
        (0, ()): 3, (2, ()): Fraction(1, 2), (0, (1,)): 1}


def test_benchmark_reads_flat_functions(monkeypatch):
    """perfbench/workloads.py reads ``_even_terms`` and ``_xi_degree`` off
    SuperFunction.terms, and perfbench/layertrace.py counts the terms in
    and out of sf_mul and the brackets with len(f.terms): one per distinct
    (xexp, c, xi), however many coefficients each holds."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    import layertrace
    import workloads
    ctx = SymplecticContext(2, 0, (), 0, 4)
    sctx = ctx.scalar_ctx
    f = (SuperFunction.term(ctx, (1, 0), 1, (), Scalar.hbar(
        sctx, 2, Fraction(1, 2)) + 3) + SuperFunction.term(ctx, (0, 2)) * 2)
    g = SuperFunction.gauss(ctx, Fraction(1, 2)) * (Scalar.hbar(sctx) + 1)
    assert sorted(workloads._even_terms(f)) == [
        [[0, 2], "0", 0, "2"], [[1, 0], "1", 0, "3"], [[1, 0], "1", 2, "1/2"]]
    value = sf_mul(f, g)
    counts = defaultdict(int)
    layertrace.TERMS.after(counts, "sf_mul", None, (f, g), value)
    assert dict(counts) == {"sf_mul.terms_in": 2, "sf_mul.terms_out": 2}
    assert len(value.coeffs) == 6
    ctx22 = SymplecticContext(2, 2, (1, 1), 1, 4)
    assert workloads._xi_degree(SuperFunction.zero(ctx22)) is None
    assert workloads._xi_degree(SuperFunction.term(
        ctx22, (1, 1), 1, (1, 2), Scalar.theta(ctx22.scalar_ctx, 1))) == 2


def test_merge_odd_indices_signs():
    """Two odd monomials, xi or theta, as index tuples converted to
    bitmasks here: ``theta_sign`` gives the Koszul sign of their product,
    and the merged monomial is the union of the masks."""
    for a, b, sign in (((1,), (2,), 1), ((2,), (1,), -1), ((1,), (1,), 0),
                       ((2, 3), (1,), 1), ((1, 3), (2,), -1)):
        assert theta_sign(theta_mask(a), theta_mask(b)) == sign
        if sign:
            assert theta_mask(a) | theta_mask(b) == theta_mask(
                tuple(sorted(a + b)))


def test_theta_square_is_zero():
    ctx = ScalarContext(k=2, h_max=6)
    t1 = Scalar.theta(ctx, 1)
    t2 = Scalar.theta(ctx, 2)
    assert (t1 * t1).is_zero()
    assert t1 * t2 == -(t2 * t1)


def test_hbar_truncation():
    ctx = ScalarContext(k=0, h_max=4)
    h = Scalar.hbar(ctx)
    assert (h ** 5).is_zero()
    assert not (h ** 4).is_zero()
    assert (h ** 3).truncate(2).is_zero()


def test_scalar_powers_are_nonnegative_integers():
    h = Scalar.hbar(ScalarContext(k=0, h_max=4))
    assert h ** 0 == 1
    for n in (-1, 1.0):
        with pytest.raises(ValueError, match="nonnegative integers"):
            h ** n


def test_parity_and_split():
    ctx = ScalarContext(k=2, h_max=6)
    s = Scalar.one(ctx) + Scalar.theta(ctx, 1) * Scalar.theta(ctx, 2)
    t = Scalar.theta(ctx, 1)
    assert s.parity() == 0
    assert t.parity() == 1
    assert (s + t).parity() is None
    # the split of a scalar by theta-weight is the parity split of a
    # constant function
    fctx = SymplecticContext(0, 1, (1,), 2, 6)
    mixed = SuperFunction.constant(fctx, s + t)
    assert mixed.homogeneous_components() == [
        SuperFunction.constant(fctx, s), SuperFunction.constant(fctx, t)]


def test_theta_twist_sign():
    """A scalar standing right of q odd factors moves left past them with
    (-1)^(q * theta-weight): th1 xi1 = -xi1 th1, th1 xi1 xi2 = xi1 xi2 th1."""
    ctx = SymplecticContext(0, 2, (1, 1), 1, 6)
    t = Scalar.theta(ctx.scalar_ctx, 1)
    xi1, xi2 = SuperFunction.xi(ctx, 1), SuperFunction.xi(ctx, 2)
    assert xi1.scale_right(t) == xi1.scale_left(-t)
    assert sf_mul(xi1, xi2).scale_right(t) == sf_mul(xi1, xi2).scale_left(t)
    assert sf_mul(xi1, SuperFunction.constant(ctx, t)) == xi1.scale_left(-t)
    one = Scalar.one(ctx.scalar_ctx)
    assert xi1.scale_right(one) == xi1.scale_left(one) == xi1


def test_is_even_series():
    ctx = ScalarContext(k=0, h_max=6)
    h = Scalar.hbar(ctx)
    assert (h ** 2 + h ** 4).is_even_series(2)
    assert not (h ** 2).is_even_series(4)
    assert not (h ** 3).is_even_series(0)
    assert Scalar.zero(ctx).is_even_series(2)


def test_scalar_float_oracle():
    ctx = ScalarContext(k=0, h_max=6)
    s = Scalar.pi(ctx) * 2 + Scalar.hbar(ctx, 2, 3) * Scalar.sqrt(ctx, 2)
    assert scalar_float(s, hbar=0.5) == pytest.approx(
        2 * math.pi + 3 * 0.25 * math.sqrt(2))


def test_rational_value_errors():
    ctx = ScalarContext(k=1, h_max=6)
    assert Scalar.rational(ctx, Fraction(3, 2)).rational_value() == \
        Fraction(3, 2)
    with pytest.raises(ValueError):
        Scalar.hbar(ctx).rational_value()
    with pytest.raises(ValueError):
        Scalar.sqrt(ctx, 2).rational_value()


def test_render_basics():
    ctx = ScalarContext(k=2, h_max=6)
    assert Scalar.zero(ctx).render() == "0"
    assert Scalar.rational(ctx, -1).render() == "-1"
    assert (Scalar.hbar(ctx, 2) * Scalar.theta(ctx, 1)).render() == \
        "hbar^2*th1"
    s = Scalar.rational(ctx, 2) - Scalar.pi(ctx)
    assert s.render() == "2 - pi"


# -- the flat ring: theta bitmasks, the nested view, int values -------------

def _naive_theta_product(a, b):
    """Sign and merged indices of th^a * th^b, by counting the inversions
    of the concatenated index tuple."""
    word = a + b
    if len(set(word)) < len(word):
        return 0, None
    inversions = sum(1 for i in range(len(word))
                     for j in range(i + 1, len(word)) if word[i] > word[j])
    return (-1) ** inversions, tuple(sorted(word))


def _theta_monomials(k):
    return [alpha for w in range(k + 1)
            for alpha in itertools.combinations(range(1, k + 1), w)]


@pytest.mark.parametrize("k", [3, 4])
def test_theta_products_match_inversion_count(k):
    ctx = ScalarContext(k=k, h_max=2)
    coeff = Scalar.sqrt(ctx, 2) * Scalar.hbar(ctx) + Fraction(1, 3)
    for a in _theta_monomials(k):
        for b in _theta_monomials(k):
            sign, merged = _naive_theta_product(a, b)
            assert theta_sign(theta_mask(a), theta_mask(b)) == sign
            product = Scalar.theta(ctx, *a) * (
                coeff * Scalar.theta(ctx, *b))
            expect = Scalar.zero(ctx) if not sign else \
                coeff * Scalar.theta(ctx, *merged) * sign
            assert product == expect


@pytest.mark.parametrize("k", [3, 4])
def test_theta_words_in_any_order(k):
    """A product of generators in any order is the sorted monomial times
    the sign of the sorting permutation."""
    ctx = ScalarContext(k=k, h_max=0)
    for word in itertools.chain(itertools.permutations(range(1, k + 1)),
                                itertools.permutations(range(1, k + 1), 3)):
        value = Scalar.one(ctx)
        for j in word:
            value = value * Scalar.theta(ctx, j)
        sign, merged = _naive_theta_product(word, ())
        assert value == Scalar.theta(ctx, *merged) * sign
        assert value.render() == ("-" if sign < 0 else "") + \
            "*".join(f"th{j}" for j in merged)


def _random_scalar(rng, ctx, terms=4):
    out = Scalar.zero(ctx)
    for _ in range(terms):
        t = Scalar.rational(ctx, rng.choice((1, -2, Fraction(3, 2))))
        for j in range(1, ctx.k + 1):
            if rng.random() < 0.4:
                t = t * Scalar.theta(ctx, j)
        t = t * rng.choice((Scalar.one(ctx), Scalar.sqrt(ctx, 2),
                            Scalar.sqrt(ctx, 6), Scalar.sqrt_pi(ctx),
                            Scalar.pi(ctx)))
        out = out + t * Scalar.hbar(ctx, rng.randint(0, 2))
    return out


def test_nested_view_round_trip():
    rng = random.Random(11)
    ctx = ScalarContext(k=3, h_max=3)
    for _ in range(40):
        s = _random_scalar(rng, ctx)
        view = s.terms
        # rebuilt by products: only the theta factor carries theta
        assert sum((Scalar.hbar(ctx, m) * Scalar.theta(ctx, *alpha) * rad
                    for (m, alpha), rad in view.items()),
                   Scalar.zero(ctx)) == s
        assert all(rad.ctx is ctx and rad.is_theta_free()
                   and rad.hbar_min_degree() == 0 for rad in view.values())
        assert all(alpha == tuple(sorted(alpha)) for _, alpha in view)


def _all_int(s):
    return all(type(q) is int for q in s.coeffs.values())


def test_integral_values_are_stored_as_int():
    ctx = ScalarContext(k=2, h_max=4)
    half = Scalar.rational(ctx, Fraction(1, 2))
    assert _all_int(Scalar.rational(ctx, Fraction(4, 2)))
    assert _all_int(half * 2) and _all_int(half + half)
    assert _all_int(half * Scalar.rational(ctx, 4))
    assert _all_int(Scalar.sqrt(ctx, 2) * Scalar.sqrt(ctx, 8))
    assert _all_int(Scalar.sqrt_pi(ctx) * Scalar.sqrt_pi(ctx))
    assert _all_int(Scalar.theta(ctx, 1) / Fraction(1, 3))
    assert _all_int((half + Scalar.theta(ctx, 2) * Fraction(3, 2)) * 2)
    assert not _all_int(half)


def test_integral_gaussian_weights_are_int():
    sctx = SymplecticContext(2, 1, (1,), 1, 4)
    g = SuperFunction.gauss(sctx, Fraction(1, 2))
    assert [type(c) for _, c, _ in SuperFunction.gauss(sctx, Fraction(
        2)).terms] == [int]
    assert [type(c) for _, c, _ in sf_mul(g, g).terms] == [int]
    for f in sample_superfunctions(SampleSpec(seed=3, count=5,
                                              gauss_weights=(1, 2)), sctx):
        assert all(type(c) is int for _, c, _ in f.terms)
    # the kernels, whose tables take the weights of their keys as they are
    x1, x2 = SuperFunction.x(sctx, 1), SuperFunction.x(sctx, 2)
    f, h = sf_mul(x1, g), sf_mul(x2, g)
    for value in (moyal_bracket(f, h), poisson_bracket(f, h),
                  bidiff_power(f, h, 2)):
        assert value and {type(key[1]) for key in value.coeffs} == {int}


def test_render_orders_theta_by_index_tuple():
    ctx = ScalarContext(k=2, h_max=6)
    t1, t2 = Scalar.theta(ctx, 1), Scalar.theta(ctx, 2)
    assert (t2 + t1 * t2 + t1).render() == "th1 + th1*th2 + th2"
    s = t2 + t1 * t2 * 3 + t1 - Scalar.hbar(ctx) + Scalar.pi(ctx) * t1
    assert s.render() == "th1 + pi*th1 + 3*th1*th2 + th2 - hbar"


@pytest.mark.parametrize("k", [2, 3])
def test_theta_twist_is_weight_parity(k):
    """Moving a theta monomial past q odd factors costs (-1)^(q * weight):
    through scale_right over one, two and three xi, and through the left
    xi-derivative, which passes the theta part of the coefficient."""
    fctx = SymplecticContext(0, 3, (1, 1, 1), k, 2)
    ctx = fctx.scalar_ctx
    xis = [SuperFunction.xi(fctx, a) for a in (1, 2, 3)]
    for alpha in _theta_monomials(k):
        mono = Scalar.hbar(ctx, 1, Fraction(2, 3)) * Scalar.theta(ctx, *alpha)
        sign = (-1) ** len(alpha)
        for q in (1, 2, 3):
            xi_q = xis[0]
            for xi in xis[1:q]:
                xi_q = sf_mul(xi_q, xi)
            assert xi_q.scale_right(mono) == xi_q.scale_left(
                mono * sign ** q)
        assert xis[0].scale_left(mono).left_deriv(0) == \
            SuperFunction.constant(fctx, mono * sign)
        const = SuperFunction.constant(fctx, mono)
        assert const.homogeneous_components() == [const]
        assert const.eps() == mono.parity() == len(alpha) % 2


def test_sf_mul_supercommutes_with_theta_coefficients():
    """f g = (-1)^(eps f * eps g) g f, with theta monomials of every weight
    at k = 3 in the coefficients."""
    ctx = SymplecticContext(2, 3, (1, -1, 1), 3, 2)
    sctx = ctx.scalar_ctx
    rng = random.Random(5)
    monomials = _theta_monomials(3)
    for _ in range(60):
        funcs = []
        for _ in range(2):
            xi = tuple(sorted(rng.sample(range(1, 4), rng.randint(0, 2))))
            alpha = rng.choice(monomials)
            funcs.append(SuperFunction.term(
                ctx, (rng.randint(0, 1), 0), rng.choice((0, 1)), xi,
                Scalar.theta(sctx, *alpha) * rng.choice((1, -2))))
        f, g = funcs
        sign = -1 if f.eps() * g.eps() else 1
        assert sf_mul(f, g) == sf_mul(g, f) * sign


def test_sqrt_pi_products_are_canonical():
    ctx = ScalarContext(k=1, h_max=3)
    root_pi = Scalar.sqrt_pi(ctx)
    assert root_pi * root_pi == Scalar.pi(ctx)
    assert (root_pi ** 3).render() == "pi*sqrt(pi)"
    assert (root_pi ** 4).render() == "pi^2"
    two = Scalar.sqrt(ctx, 2) * root_pi
    assert (two * two).render() == "2*pi"
    assert (two * Scalar.sqrt(ctx, 3) * root_pi).render() == "pi*sqrt(6)"
    rng = random.Random(7)
    for _ in range(30):
        # h-degrees up to 2 each, so nothing is truncated at h_max = 4
        a = _random_scalar(rng, ScalarContext(k=0, h_max=4))
        b = _random_scalar(rng, ScalarContext(k=0, h_max=4))
        assert scalar_float(a * b) == pytest.approx(
            scalar_float(a) * scalar_float(b))


@pytest.mark.parametrize("alpha", [(2, 1), (1, 1), (3,), (0,)])
def test_nested_constructor_rejects_malformed_theta(alpha):
    """Scalar.theta refuses a theta monomial whose indices are not
    strictly increasing in 1..k."""
    with pytest.raises(ValueError):
        Scalar.theta(ScalarContext(k=2, h_max=6), *alpha)


_CTX06 = ScalarContext(k=0, h_max=6)


@pytest.mark.parametrize("build", [
    lambda: Scalar.sqrt(_CTX06, 0),
    lambda: Scalar.hbar(_CTX06, -1),
    lambda: Scalar.pi(_CTX06, -1),
], ids=["root_0", "hbar_negative", "pi_negative"])
def test_constructors_reject_non_canonical_keys(build):
    with pytest.raises(ValueError):
        build()
