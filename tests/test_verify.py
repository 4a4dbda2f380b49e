"""Unit tests for the seeded sampler and the exact verification harness."""

import hashlib
import json
import re
from fractions import Fraction

import pytest

from superdeform import (SampleSpec, Scalar, SuperFunction,
                         SymplecticContext,
                         build_C3, build_anti_odd, check_bar_vanishing,
                         check_cocycle, check_d_squared, check_equivalence,
                         check_grading, check_jacobi, check_signs, d_ad,
                         jzeta_form, m1_form, m23_form, m3_form, mu_form,
                         mzeta_form, sample_superfunctions, sample_tuples,
                         sf_mul, t1_bar_multiplier)
from superdeform import verify
from superdeform.brackets import poisson_bracket
from superdeform.cochains import EVEN, ODD, Cochain, anti_form, m0_form
from superdeform.scalars import int_if_integral
from superdeform.verify import (DEFAULT_SEED, LCG_INC, LCG_MASK, LCG_MULT,
                                VerificationReport)

from conftest import LCG


def test_lcg_constants_and_sequence():
    rng = LCG(1)
    w1 = rng.next_word()
    assert w1 == (LCG_MULT * 1 + LCG_INC) & LCG_MASK
    w2 = rng.next_word()
    assert w2 == (LCG_MULT * w1 + LCG_INC) & LCG_MASK
    assert LCG(1).next_word() == w1


def test_lcg_randint_range():
    rng = LCG(42)
    values = [rng.randint(3, 7) for _ in range(200)]
    assert set(values) <= set(range(3, 8))
    assert len(set(values)) == 5


def test_samples_bit_reproducible(ctx42):
    spec = SampleSpec(seed=123, count=20)
    a = sample_superfunctions(spec, ctx42)
    b = sample_superfunctions(spec, ctx42)
    assert [f.freeze() for f in a] == [g.freeze() for g in b]
    other = sample_superfunctions(SampleSpec(seed=124, count=20), ctx42)
    assert [f.freeze() for f in a] != [g.freeze() for g in other]


def test_samples_respect_parity_and_class(ctx42):
    even = sample_superfunctions(SampleSpec(seed=5, parity="even"), ctx42)
    assert all(f.eps() == 0 for f in even)
    odd = sample_superfunctions(SampleSpec(seed=5, parity="odd"), ctx42)
    assert all(f.eps() == 1 for f in odd)
    d = sample_superfunctions(SampleSpec(seed=5), ctx42)
    assert all(f.is_d_class() for f in d)


def test_odd_parity_needs_xi():
    ctx = SymplecticContext(4, 0, (), 1, 6)
    with pytest.raises(ValueError):
        sample_superfunctions(SampleSpec(seed=1, parity="odd"), ctx)


def test_sample_tuples_grouping(ctx42):
    spec = SampleSpec(seed=9, count=10)
    triples = sample_tuples(spec, ctx42, 3)
    assert len(triples) == 10
    assert all(len(t) == 3 for t in triples)
    flat = sample_superfunctions(SampleSpec(seed=9, count=30), ctx42)
    assert triples[0] == (flat[0], flat[1], flat[2])


def test_report_core_is_reproducible(ctx42):
    d0 = m0_form(ctx42)
    spec = SampleSpec(seed=31, count=6)
    r1 = check_jacobi(d0, spec)
    r2 = check_jacobi(m0_form(ctx42), spec)
    assert r1.core_dict() == r2.core_dict()


def test_report_context_records_lambdas():
    spec = SampleSpec(seed=31, count=2)
    contexts = [check_jacobi(build_anti_odd(SymplecticContext(
        2, 2, lambdas, 1, 6)), spec).context
        for lambdas in ((1, 1), (1, -1))]
    assert contexts[0] != contexts[1]
    assert contexts[1]["lambdas"] == [1, -1]
    json.dumps(contexts)


def test_check_jacobi_detects_failure(ctx42):
    # the supercommutative product is not a Lie bracket
    broken = Cochain(ctx42, 2, 0, sf_mul, EVEN, name="mul")
    report = check_jacobi(broken, SampleSpec(seed=77, count=6))
    assert not report.passed
    assert report.failures
    index, rendered, residual = report.failures[0]
    assert isinstance(index, int) and len(rendered) == 3
    assert residual != "0"


def test_check_cocycle_and_d_squared(ctx42):
    spec = SampleSpec(seed=13, count=5)
    assert check_cocycle(m3_form(ctx42), spec).passed
    assert check_d_squared(m1_form(ctx42),
                           SampleSpec(seed=15, count=2)).passed


def test_check_cocycle_antibracket(ctx22):
    spec = SampleSpec(seed=17, count=5)
    report = check_cocycle(m23_form(ctx22), spec,
                           bracket=anti_form(ctx22))
    assert report.passed


def test_check_signs_all_builtins(ctx42, ctx22):
    spec = SampleSpec(seed=19, count=4)
    for form in (m0_form(ctx42), m1_form(ctx42), m3_form(ctx42)):
        assert check_signs(form, spec).passed
    for form in (anti_form(ctx22), m23_form(ctx22)):
        assert check_signs(form, spec).passed


@pytest.mark.parametrize("n_plus", [0, 2, 4])
def test_check_signs_bar_forms_at_odd_n_minus(n_plus):
    """m3, mu and m_zeta with zeta = xi1, and (for n_plus > 0) m_zeta and
    j_zeta with zeta = x1 gauss(1), keep the three sign rules at
    n_minus = 1 (j_zeta at xi1 is left out: m1(xi1, .) is zero).  They
    failed while the bar gave theta no Berezin sign.  Enough samples reach
    the bar slice that m3 and mu are nonzero on some of them."""
    ctx = SymplecticContext(n_plus, 1, (1,), 1, 6)
    spec = SampleSpec(seed=11, count=60)
    forms = [m3_form(ctx), mu_form(ctx),
             mzeta_form(ctx, SuperFunction.xi(ctx, 1))]
    if n_plus:
        x1g = SuperFunction.term(ctx, (1,) + (0,) * (n_plus - 1), 1)
        forms += [mzeta_form(ctx, x1g), jzeta_form(ctx, x1g)]
    for form in forms:
        report = check_signs(form, spec)
        assert report.passed, (form.name, report.failures[:1])
    pairs = sample_tuples(spec, ctx, 2)
    for form in forms[:2]:
        assert any(not form.evaluate(f, g).is_zero() for f, g in pairs)


# evaluate calls of each check and sha256 of the sorted-key JSON report core
EVALUATE_CALL_BOUNDS = {
    "signs_m3": (
        69, "d0799ce15e70deed8fc0a05128fbb9176fbcf6ee8d1c74fe9436cfa702b910fb"),
    "d_squared_m1": (
        411, "268e76855e084941872d7f626a6547a803947a5a0bf95439e5da849ac1e1d41a"),
}


@pytest.mark.parametrize("case", sorted(EVALUATE_CALL_BOUNDS))
def test_checks_bound_their_evaluate_calls(ctx42, monkeypatch, case):
    """check_signs evaluates M(th f, g) once and reuses it for M(f th, g)
    when the two arguments are equal, and likewise M(f, th g) for
    M(f, g th), so its calls stay within the bound with the report core
    unchanged; check_d_squared is pinned the same way."""
    calls = []
    evaluate = Cochain.evaluate

    def counting(self, *args):
        calls.append(args)
        return evaluate(self, *args)

    monkeypatch.setattr(Cochain, "evaluate", counting)
    report = {
        "signs_m3": lambda: check_signs(m3_form(ctx42),
                                        SampleSpec(seed=3, count=20)),
        "d_squared_m1": lambda: check_d_squared(m1_form(ctx42),
                                                SampleSpec(seed=3, count=3)),
    }[case]()
    bound, digest = EVALUATE_CALL_BOUNDS[case]
    assert report.passed and 0 < len(calls) <= bound
    text = json.dumps(report.core_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_check_signs_needs_theta(ctx42):
    ctx = SymplecticContext(4, 2, (1, 1), 0, 6)
    with pytest.raises(ValueError):
        check_signs(m0_form(ctx), SampleSpec(seed=1, count=1))


def test_check_signs_needs_a_parity(ctx42):
    """A sum of an even and an odd form has no parity to take signs from;
    it is refused in the words of ``d_ad``, which needs a parity too."""
    m0 = m0_form(ctx42)
    form = m0 + m0.scaled(Scalar.theta(ctx42.scalar_ctx, 1))
    with pytest.raises(ValueError) as err:
        check_signs(form, SampleSpec(seed=1, count=1))
    assert str(err.value) == "m0+scaled(m0) has undefined parity"
    with pytest.raises(ValueError) as err_d:
        d_ad(form)
    assert str(err_d.value) == str(err.value)


def test_check_grading(ctx42, ctx22):
    d0 = m0_form(ctx42)
    assert check_grading(d0, SampleSpec(seed=21, count=6)).passed
    assert check_grading(build_anti_odd(ctx22),
                         SampleSpec(seed=23, count=6)).passed


def test_check_bar_vanishing(ctx42, ctx22):
    assert check_bar_vanishing(SampleSpec(seed=25, count=6), ctx42).passed
    assert check_bar_vanishing(SampleSpec(seed=27, count=6), ctx22).passed


def test_summary_line(ctx42):
    d0 = m0_form(ctx42)
    report = check_jacobi(d0, SampleSpec(seed=29, count=3))
    assert report.summary() == "[PASS] jacobi[m0]: 3 samples, 0 failures"


def _failing_checks(ctx, monkeypatch):
    """One failing report per check, keyed by case name."""
    mul = Cochain(ctx, 2, 0, sf_mul, EVEN, name="mul")
    xi1 = SuperFunction.xi(ctx, 1)

    def defo(name, fn):
        return Cochain(ctx, 2, 0, fn, EVEN, name)

    def bar_of_products():
        # unlike a Poisson bracket, a product can have a nonzero bar
        monkeypatch.setattr(verify, "poisson_bracket", sf_mul)
        return check_bar_vanishing(
            SampleSpec(seed=28, count=4, max_x_degree=0), ctx)

    theta = Scalar.theta(ctx.scalar_ctx, 1)
    h2 = Scalar.hbar(ctx.scalar_ctx) ** 2
    theta_mul = m0_form(ctx) + mul.scaled(theta)
    theta_mul.name = "m0+th*mul"
    z0 = SuperFunction.gauss(ctx, 1)
    zeta = SuperFunction.x(ctx, 1).scale_left(h2)
    return {
        "jacobi_mul": lambda: check_jacobi(
            defo("mul", sf_mul), SampleSpec(seed=77, count=6)),
        "jacobi_theta_mul": lambda: check_jacobi(
            theta_mul, SampleSpec(seed=78, count=6)),
        "cocycle_mul": lambda: check_cocycle(
            mul, SampleSpec(seed=13, count=4)),
        "d_squared_mul_bracket": lambda: check_d_squared(
            m0_form(ctx), SampleSpec(seed=15, count=2), bracket=mul),
        "signs_wrong_parity": lambda: check_signs(
            Cochain(ctx, 2, 1, poisson_bracket, ODD, name="bad"),
            SampleSpec(seed=19, count=4)),
        "grading_odd_value": lambda: check_grading(
            defo("xi1*mul", lambda f, g: sf_mul(xi1, sf_mul(f, g))),
            SampleSpec(seed=23, count=6)),
        "grading_mixed_value": lambda: check_grading(
            defo("mixed", lambda f, g: poisson_bracket(f, g)
                 + sf_mul(xi1, sf_mul(f, g))),
            SampleSpec(seed=23, count=6)),
        "bar_vanishing_products": bar_of_products,
        # C3(zeta + hbar^2 z0) ~ C3(zeta) needs T1 f = -z0 fbar, not +z0 fbar
        "equivalence_wrong_sign": lambda: check_equivalence(
            build_C3(zeta + z0.scale_left(h2), h2), build_C3(zeta, h2),
            t1_bar_multiplier(z0, 1),
            sample_tuples(SampleSpec(seed=84, count=8), ctx, 2), order=2),
    }


# failure count and sha256 of the sorted-key JSON core of each report
GOLDEN_FAILURE_CORES = {
    "jacobi_mul": (
        1, "f0600553c1db38496c527b8bc6b4d88a5e2a26ee1b67a8809795113f27aec4b5"),
    "jacobi_theta_mul": (
        3, "1fd48887db6b52444890df7c6c42c7e3b75161f1f12fcd972fcd49ae5913b8bc"),
    "cocycle_mul": (
        2, "afdf350400a2a0dab58e1d376f8bafed277b9686875162cadd839984daa2ad55"),
    "d_squared_mul_bracket": (
        2, "ab7054c79f22a2b84ae2473551131f7ac613cf9bf057bc159b107ae438e76cb3"),
    "signs_wrong_parity": (
        8, "8e824f99f4593f1bf954e4f389eff22ed20d20c148991d7d7d869f4d22972171"),
    "grading_odd_value": (
        2, "7b6fb1ef148401516e29393b2c7ec0d5dca74fddaa9fa91510b2571221566265"),
    # a value of mixed parity on homogeneous arguments is a failure
    "grading_mixed_value": (
        2, "0cb1c8263a9c1359337339eb513df42451a3b5e1b832f508c2cd52b42a549263"),
    "bar_vanishing_products": (
        2, "0e6250e5b78f4bcbafdbe43338e0eb629ab8fd1ad4d9dc781faab20d3159e542"),
    "equivalence_wrong_sign": (
        3, "0fa5d8a0dfaacdacb197cb2930b4906d8c795a97ec30d990fd547fe34f78e789"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_FAILURE_CORES))
def test_failure_cores_are_pinned(ctx42, monkeypatch, case):
    report = _failing_checks(ctx42, monkeypatch)[case]()
    core = report.core_dict()
    count, digest = GOLDEN_FAILURE_CORES[case]
    assert not report.passed and len(report.failures) == count
    for index, rendered, text in core["failures"]:
        assert 0 <= index < report.sample_count and text != "0"
        if case.startswith("signs"):
            assert rendered[0] in ("left", "middle", "right")
        if case.startswith("grading"):
            assert re.fullmatch(r"eps (0|1|mixed) != (0|1)", text)
    if case.startswith("jacobi"):
        tally = core["details"]["theta_grade_failures"]
        assert tally and sum(tally.values()) >= count
    if case.startswith("equivalence"):
        assert core["details"]["t1_active_pairs"] >= count
    text = json.dumps(core, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text[:400]


# -- the sampler against the term-by-term sum it replaced ---------------------

def _summed_samples(spec, ctx):
    """The samples as the sum of one SuperFunction per term, each with its
    own Scalar: the loop the sampler replaced, in the same draw order."""
    max_xi = min(verify.MAX_XI_DEGREE, ctx.n_minus)
    rng = LCG(spec.seed)
    out = []
    for _ in range(spec.count):
        degrees = [d for d in range(max_xi + 1)
                   if spec.parity == "any"
                   or d % 2 == {"even": 0, "odd": 1}[spec.parity]]
        deg = rng.choice(degrees)
        f = SuperFunction.zero(ctx)
        for _t in range(spec.terms):
            xexp = tuple(rng.randint(0, spec.max_x_degree)
                         for _ in range(ctx.n_plus))
            c = rng.choice(tuple(spec.gauss_weights) if ctx.n_plus
                           else (0,) + tuple(spec.gauss_weights))
            c = int_if_integral(Fraction(c))
            xi = []
            while len(xi) < deg:
                a = rng.randint(1, ctx.n_minus)
                if a not in xi:
                    xi.append(a)
            coeff = Scalar.rational(ctx.scalar_ctx,
                                    rng.choice(verify.COEFF_POOL))
            f = f + SuperFunction(ctx, {(xexp, c, tuple(sorted(xi))): coeff})
        out.append(f)
    return out


@pytest.mark.parametrize("shape", [(4, 2, (1, 1), 1, 6), (2, 2, (1, -1), 1, 3),
                                   (0, 3, (1, 1, 1), 2, 6)],
                         ids=["ctx42", "ctx22", "n_plus_0"])
def test_samples_equal_the_summed_terms(shape):
    """Bit for bit, insertion order of ``coeffs`` included, with repeated
    terms merged or cancelled as the sum of functions does."""
    ctx = SymplecticContext(*shape)
    for terms in (1, 2, 3):
        for parity in ("even", "odd", "any"):
            for weights in ((1, 2), (Fraction(1, 2),)):
                spec = SampleSpec(seed=97 + terms, count=40, terms=terms,
                                  parity=parity, gauss_weights=weights,
                                  max_x_degree=1)
                got = sample_superfunctions(spec, ctx)
                want = _summed_samples(spec, ctx)
                assert [list(f.coeffs.items()) for f in got] == \
                    [list(f.coeffs.items()) for f in want]


def _lcg_samples(spec, ctx):
    """The sampler's loop drawing through ``LCG.randint`` and
    ``LCG.choice`` only, as it was before the state moved into a local."""
    max_xi = min(verify.MAX_XI_DEGREE, ctx.n_minus)
    degrees = [d for d in range(max_xi + 1)
               if spec.parity == "any" or d % 2 == (spec.parity == "odd")]
    weights = tuple(spec.gauss_weights)
    weights = weights if ctx.n_plus else (0,) + weights
    rng = LCG(spec.seed)
    out = []
    for _ in range(spec.count):
        deg = rng.choice(degrees)
        terms = {}
        for _t in range(spec.terms):
            xexp = tuple(rng.randint(0, spec.max_x_degree)
                         for _ in range(ctx.n_plus))
            c = rng.choice(weights)
            xi = []
            while len(xi) < deg:
                a = rng.randint(1, ctx.n_minus)
                if a not in xi:
                    xi.append(a)
            key = (xexp, c, tuple(sorted(xi)))
            q = terms.get(key, 0) + rng.choice(verify.COEFF_POOL)
            if q:
                terms[key] = q
            else:
                terms.pop(key, None)
        out.append(SuperFunction(ctx, terms))
    return out


@pytest.mark.parametrize("shape", [
    (4, 2, (1, 1), 1, 6), (0, 3, (1, 1, 1), 1, 6), (2, 2, (1, -1), 1, 6),
    (4, 2, (1, 1), 0, 6), (2, 2, (1, 1), 2, 6), (2, 2, (1, 1), 1, 4),
    (4, 5, (1, 1, 1, 1, 1), 2, 6)],
    ids=["ctx42", "n_plus_0", "lambda_minus_1", "k0", "k2", "h_max_4",
         "ctx45"])
def test_sampler_draws_the_lcg_stream(shape):
    """The sampler draws the documented LCG stream: bit for bit the lists
    that ``LCG.randint`` and ``LCG.choice`` give, at n_plus = 0 (where
    every weight merges to 0) and with a weight of 1/2 included."""
    ctx = SymplecticContext(*shape)
    for terms in (1, 2, 3):
        for parity in ("even", "odd", "any"):
            for degree in (0, 3):
                for weights in ((1, 2), (Fraction(1, 2), 1, 3)):
                    spec = SampleSpec(seed=1000 * terms + 10 * degree + 7,
                                      count=12, terms=terms, parity=parity,
                                      gauss_weights=weights,
                                      max_x_degree=degree)
                    got = sample_superfunctions(spec, ctx)
                    want = _lcg_samples(spec, ctx)
                    assert [f.freeze() for f in got] == \
                        [f.freeze() for f in want]
                    assert [list(f.coeffs) for f in got] == \
                        [list(f.coeffs) for f in want]


@pytest.mark.parametrize("fields", [
    {"count": 0}, {"count": -2}, {"terms": 0}, {"parity": "evn"},
    {"gauss_weights": ()}, {"gauss_weights": (1, -1)},
    {"max_x_degree": -1}],
    ids=["count_0", "count_negative", "terms_0", "parity_typo",
         "no_weights", "negative_weight", "negative_x_degree"])
def test_sample_spec_refuses_invalid_fields(fields, ctx22):
    """A spec that would draw nothing, or not what it names, is refused
    before any check runs: none passes vacuously or divides by zero."""
    (name,) = fields
    with pytest.raises(ValueError, match=name):
        SampleSpec(**fields)
    with pytest.raises(ValueError, match=name):
        check_jacobi(build_anti_odd(ctx22), SampleSpec(**fields))
    # sample_tuples refuses a size that would widen the spec to nothing,
    # naming its own argument
    with pytest.raises(ValueError, match="size"):
        sample_tuples(SampleSpec(count=1), ctx22, 0)


SPEC_FIELDS = ("seed", "count", "max_x_degree", "gauss_weights", "parity",
               "terms")


def test_sample_spec_is_an_immutable_value():
    """Built from keywords or positions with the same defaults, equal and
    hashed by value, printed with every field, and refusing assignment."""
    default = SampleSpec()
    assert tuple(getattr(default, name) for name in SPEC_FIELDS) == \
        (DEFAULT_SEED, 50, 2, (1, 2), "any", 1)
    assert SampleSpec(DEFAULT_SEED, 50, 2, (1, 2), "any", 1) == default
    assert SampleSpec(5, 7, parity="odd") == \
        SampleSpec(parity="odd", count=7, seed=5)
    assert repr(default) == (
        "SampleSpec(seed=20240801, count=50, max_x_degree=2, "
        "gauss_weights=(1, 2), parity='any', terms=1)")
    assert hash(SampleSpec(seed=3, terms=2)) == hash(SampleSpec(3, terms=2))
    assert SampleSpec(seed=3) != SampleSpec(seed=4)
    assert len({SampleSpec(seed=3), SampleSpec(3), SampleSpec(4)}) == 2
    for name in SPEC_FIELDS:
        with pytest.raises(AttributeError):
            setattr(default, name, 1)
    with pytest.raises(AttributeError):
        default.extra = 1
    with pytest.raises(TypeError):
        SampleSpec(samples=3)
    assert default == SampleSpec()


@pytest.mark.parametrize("fields", [
    {"count": 0}, {"terms": -1}, {"parity": "evn"}, {"gauss_weights": ()},
    {"max_x_degree": -1}],
    ids=["count_0", "terms_negative", "parity_typo", "no_weights",
         "negative_x_degree"])
def test_every_way_to_make_a_spec_validates(fields, ctx22):
    """``_replace`` and ``_make`` build a spec without ``__new__`` in a
    plain namedtuple; here they check like the constructor does."""
    (name,) = fields
    valid = SampleSpec(seed=2)
    values = [fields.get(field, getattr(valid, field))
              for field in SPEC_FIELDS]
    for make in (lambda: SampleSpec(*values),
                 lambda: SampleSpec._make(values),
                 lambda: valid._replace(**fields)):
        with pytest.raises(ValueError, match=name):
            make()


@pytest.mark.parametrize("fields", [
    {"max_x_degree": 1.5}, {"count": 2.5}, {"terms": 1.5}, {"seed": 1.5},
    {"count": True}, {"gauss_weights": (0.1,)}, {"gauss_weights": (1, "2")}],
    ids=["max_x_degree", "count", "terms", "seed", "count_bool",
         "float_weight", "str_weight"])
def test_sample_spec_takes_ints_and_exact_weights(fields):
    """The sampler writes flat keys with no constructor between, so the
    spec is its check: the int fields are ints, the weights exact (a float
    max_x_degree drew keys with exponents 0.5 and 1.5), by every way of
    making a spec."""
    with pytest.raises(ValueError):
        SampleSpec(**fields)
    with pytest.raises(ValueError):
        SampleSpec()._replace(**fields)
    with pytest.raises(ValueError):
        SampleSpec._make({**SampleSpec()._asdict(), **fields}.values())
    spec = SampleSpec(seed=3, count=3, gauss_weights=(Fraction(4, 2),))
    assert spec.gauss_weights == (Fraction(4, 2),)
    ctx = SymplecticContext(2, 1)
    assert [f.freeze() for f in sample_superfunctions(spec, ctx)] == \
        [f.freeze() for f in sample_superfunctions(
            spec._replace(gauss_weights=(2,)), ctx)]


@pytest.mark.parametrize("weights", [5, None, (0.1,), (1, 2.0), "1",
                                     {1}, iter([1])],
                         ids=["int", "none", "float", "float_beside_int",
                              "str", "set", "iterator"])
def test_sample_spec_names_the_field_of_a_bad_weight(weights):
    """A weight list that is not a sequence of exact numbers is refused
    with a ValueError naming SampleSpec.gauss_weights, never a bare
    TypeError."""
    with pytest.raises(ValueError, match=r"SampleSpec\.gauss_weights"):
        SampleSpec(gauss_weights=weights)
    with pytest.raises(ValueError, match=r"SampleSpec\.gauss_weights"):
        SampleSpec()._replace(gauss_weights=weights)


def test_sample_tuples_widens_the_spec_it_is_given(ctx22):
    """The widened spec keeps every field but the count; a tuple size
    below 1 or not an int is refused by a message that names ``size``, not
    the count it would make."""
    spec = SampleSpec(seed=11, count=4, max_x_degree=1, gauss_weights=(2,),
                      parity="odd", terms=2)
    flat = sample_superfunctions(spec._replace(count=12), ctx22)
    got = sample_tuples(spec, ctx22, 3)
    assert [f for group in got for f in group] == flat
    for size in (-1, -2, 0, 1.5, 2.0):
        with pytest.raises(ValueError, match="size"):
            sample_tuples(spec, ctx22, size)


def test_reports_and_deformations_get_fresh_containers(ctx22):
    """Each report starts with its own empty failures and details, and
    each cochain with its own empty params; a given container is kept,
    not copied."""
    first = VerificationReport("a", {}, 0)
    second = VerificationReport(check="b", context={}, sample_count=0)
    first.failures.append((0, [], "x"))
    first.details["k"] = 1
    assert (second.failures, second.details, second.elapsed) == ([], {}, 0.0)
    assert not first.passed and second.passed
    assert repr(first) == "<VerificationReport [FAIL] a: 0 samples, 1 failures>"
    failures = [(1, ["f"], "r")]
    kept = VerificationReport("c", {}, 2, failures, elapsed=0.5)
    assert kept.failures is failures and kept.elapsed == 0.5
    one, two = anti_form(ctx22), anti_form(ctx22)
    one.params["c"] = 1
    assert two.params == {} and m0_form(ctx22).params == {}
