"""Gaussian-weighted polynomial superfunctions over a symplectic context.

A SuperFunction is a finite sum of terms

    s * x1^e1 ... xn^en * exp(-(c/2)|x|^2) * xi_{i1}*...*xi_{ip}

with s an exact Scalar (which may carry theta generators), nonnegative
rational Gaussian weight c (always 0 when n_plus = 0, where the factor is
1), and the xi monomial stored in increasing index order with all signs
absorbed into s.  Theta factors stand to the left of the xi monomial;
Koszul signs for moving odd objects past each other are applied explicitly
by every operation.

The derivative d_a by an odd variable xi_a acts on a term s * x^e * xi^I
by deleting xi_a: ``xi_deriv`` gives the rest of I and the sign that
``scalars.theta_sign``, the one Koszul sign rule for xi and theta alike,
gives xi_a * rest (from the left) or rest * xi_a (from the right).  From
the left, xi_a also passes the theta part of s: the derivative writes the
sign times s through ``scalars.mul_into`` with a twist of one, so that
sign comes from the one theta rule of every product.

On x-variables both derivatives are the ordinary one:
d_a (x^e G) = e_a x^(e - 1_a) G - c x^(e + 1_a) G, with G = exp(-c|x|^2/2).

Closed forms on a term s * x^e * G * xi^I, where putting xi_a back in front
undoes the twist and the sign of its left derivative: N_z = sum_a z_a d^L_a
gives (|e| + |I|) times the term minus c sum_a x_a^2 times it; N_xi gives
|I| times it; so E = 1 - N_z/2 and 1 - N_xi are one pass each, with the
factors 1 - (|e| + |I|)/2 (and c/2 per x_a^2) and 1 - |I|.  Delta =
sum_i d_{x_i} d^L_{xi_i} is the left xi_i-derivative, then d/dx_i.  For
even e, the integral over the n = n_plus x-coordinates is
prod_a (e_a - 1)!! c^(-|e|/2) (2 pi/c)^(n/2), a rational times pi^(n/2) as
n is even; only top-xi terms add to the bar, whose xi part is the left
Berezin integral d^L_{xi_m}...d^L_{xi_1} (m = n_minus, d_{xi_1} first), of
parity m: s * xi_1...xi_m goes to s, its odd theta part times (-1)^m.

Compactly supported functions are modeled by the terms with c > 0, smooth
functions by arbitrary terms, and the centralizer of the compactly
supported class consists of the constants.

A SuperFunction keeps its terms in one flat dict, ``coeffs``, keyed

    (x, gauss_weight, xi_mask, m, theta_mask, p, s, r):

the term key followed by the key of ``Scalar.coeffs``, kept clean as
``scalars.FlatSum`` states, which also holds the sums, negation and h
filters.  ``xi_mask`` has bit a - 1 for xi_a, as theta masks do; the int
``x`` holds the exponent of x_a in field a - 1, X_BITS wide, whose top bit
is a guard: with exponents at most X_CAP (16383), a product or a step (of at
most +2) is an int add that carries into no other field, and a test of
``ctx.x_guard`` refuses an exponent formed past the cap with ValueError.
This module owns the format (``pack_x``, ``unpack_x``, ``x_field``); the
constructor, ``terms`` and ``render`` speak tuples.  So an entry is one
rational times a monomial, and every operation works on rationals: products
of coefficient lists go through ``scalars.mul_into``, and no per-term Scalar
is built, not even to render.  ``terms`` is the view {term key: Scalar},
built on each access for readers of whole coefficients.  Only this module and
scalars know the layout of the scalar part of a key (the Moyal kernel reads
that it leads with the h-degree); the bracket kernels read terms through
``_grouped`` and, like ``sf_mul``, write products under a term key prefix
with ``mul_into``, or, in the Moyal kernel, build results through ``_make``;
the sampler writes its rational terms under ``scalars._RATIONAL`` and
the parity it drew into ``_eps``.

A SymplecticContext is a namedtuple value, as a ScalarContext is, with its
ScalarContext as ``scalar_ctx`` and its x fields' guard bits as ``x_guard``;
``scalars.check_context`` refuses operands over two contexts.

A function never changes after it is built (the ``FlatSum`` rule), so it
keeps its parity and its bar integral once asked for them: a check asks
for each of them many times on the same arguments.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import prod
from numbers import Rational
from operator import lt

from .errors import DeformationError, NotIntegrableError
from .scalars import (_CACHE_BOUND, _RATIONAL, FlatSum, Scalar, ScalarContext,
                      accumulate, check_context, check_index, exact,
                      int_if_integral, mul_into, render_sum, theta_indices,
                      theta_mask, theta_sign)

X_BITS = 15  # the packed x exponents of the module doc
X_CAP = (1 << X_BITS - 1) - 1
_X_FIELD = (1 << X_BITS) - 1
# the value of SuperFunction._eps before eps() has run: not a parity (None
# is one, of a mixed function), and equal to itself after a copy
_NO_EPS = -1
OVER_CAP = f"an x exponent is above the cap {X_CAP}"


def pack_x(exps):
    """The packed x of the exponent tuple ``exps``, each at most X_CAP."""
    x = 0
    for e in reversed(exps):
        if e > X_CAP:
            raise ValueError(OVER_CAP)
        x = x << X_BITS | e
    return x


def unpack_x(x, n):
    """The tuple of the n exponents packed in x."""
    return tuple([x >> X_BITS * a & _X_FIELD for a in range(n)])


def x_field(x, a):
    """The exponent of x_(a+1) in the packed x."""
    return x >> X_BITS * a & _X_FIELD


class SymplecticContext(namedtuple("SymplecticContext",
                                   "n_plus n_minus lambdas k h_max")):
    """Fixed data of the algebra: dimensions, metric signs, truncation; a
    value checked as ScalarContext is, whose ``__new__`` keeps the
    ScalarContext of k and h_max, and ``x_guard``, once in its __dict__."""

    def __new__(cls, n_plus, n_minus, lambdas=None, k=0, h_max=6):
        if type(n_plus) is not int or n_plus % 2 != 0 or n_plus < 0:
            raise ValueError("n_plus must be an even nonnegative int")
        if type(n_minus) is not int or n_minus < 0:
            raise ValueError("n_minus must be a nonnegative int")
        lambdas = (1,) * n_minus if lambdas is None else tuple(lambdas)
        if len(lambdas) != n_minus or any(
                type(s) is not int or s not in (1, -1) for s in lambdas):
            raise ValueError("lambdas must be a +-1 vector of length n_minus")
        self = super().__new__(cls, n_plus, n_minus, lambdas, k, h_max)
        self.scalar_ctx = ScalarContext(k, h_max)
        self.x_guard = ((1 << X_BITS * n_plus) - 1) // _X_FIELD << X_BITS - 1
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def n_z(self):
        return self.n_plus + self.n_minus


def x_steps(e, c):
    """d/du of u^e exp(-c u^2/2): e at step -1, -c at +1, zeros left out."""
    if not c:
        return ((-1, e),) if e else ()
    if e >= X_CAP:
        raise ValueError(OVER_CAP)
    return ((-1, e), (1, -c)) if e else ((1, -c),)


def xi_deriv(xi, gen, right):
    """d/dxi_gen of the xi mask ``xi``, which holds gen, as (sign, rest):
    rest is xi without xi_gen, and sign the one ``theta_sign`` gives
    xi_gen * rest = sign * xi (from the left) or rest * xi_gen = sign * xi
    (from the right), so the derivative is sign * rest.  The sign a theta
    part picks up is the caller's ``mul_into`` twist."""
    bit = 1 << gen - 1
    rest = xi ^ bit
    return (theta_sign(rest, bit) if right else theta_sign(bit, rest)), rest


class SuperFunction(FlatSum):
    """Exact superfunction over a SymplecticContext.

    ``coeffs`` is the flat dict of the module doc.  The constructor takes
    the form of ``terms``, {(x_exponents, gauss_weight, xi_indices):
    Scalar}, where a rational value stands for its Scalar (an int is
    stored without building one), and refuses a term key that is not
    canonical or has an exponent past X_CAP; it sets the Gaussian weight to
    0 when n_plus = 0 and sums the terms that then coincide.  Gaussian
    weights, values and scalar operands enter by ``scalars.exact``, so a
    float is refused.  ``terms`` is that view, built on each access.  The
    slots ``_eps`` and ``_bar`` are set when the function is made, by the
    constructor or ``_of``, to the unset values ``_NO_EPS`` and None, and
    filled with the values of ``eps`` and ``integral_bar`` on first use; a
    raised NotIntegrableError is not kept, so it is raised on every call.
    """

    __slots__ = ("_eps", "_bar")

    _HBAR = 3

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        self.coeffs = {}
        self._eps = _NO_EPS
        self._bar = None
        for (xexp, c, xi), s in (terms or {}).items():
            if len(xexp) != ctx.n_plus or any(
                    e.__class__ is not int or e < 0 for e in xexp):
                raise ValueError("bad x-exponent vector")
            if c.__class__ is not int:
                c = exact(c)
            if c < 0:
                raise ValueError("Gaussian weight must be nonnegative")
            if not ctx.n_plus:
                c = 0  # with no x variables exp(-c|x|^2/2) is 1
            # ints, strictly increasing from at least 1 to at most n_minus
            if xi and not (all(a.__class__ is int for a in xi)
                           and 1 <= xi[0] and xi[-1] <= ctx.n_minus
                           and all(map(lt, xi, xi[1:]))):
                raise ValueError("xi monomial must be sorted distinct indices")
            term = (pack_x(xexp), c, theta_mask(xi))
            if s.__class__ is not int:
                for k, q in _own_scalar(ctx, s).coeffs.items():
                    accumulate(self.coeffs, term + k, q)
            else:
                accumulate(self.coeffs, term + _RATIONAL, s)

    @classmethod
    def _of(cls, ctx, coeffs):
        """The function on ``coeffs``, a dict that is already clean, with
        its parity and bar not yet computed."""
        obj = cls.__new__(cls)
        obj.ctx = ctx
        obj.coeffs = coeffs
        obj._eps = _NO_EPS
        obj._bar = None
        return obj

    @property
    def terms(self):
        """The view {(x_exponents, gauss_weight, xi_indices): Scalar}."""
        ctx = self.ctx
        return {(unpack_x(x, ctx.n_plus), c, theta_indices(xi)):
                Scalar._of(ctx.scalar_ctx, dict(items))
                for (x, c, xi), items in _grouped(self).items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls._of(ctx, {})

    @classmethod
    def term(cls, ctx, xexp=None, c=0, xi=(), scalar=1):
        return cls(ctx, {((0,) * ctx.n_plus if xexp is None else tuple(xexp),
                          c, tuple(xi)): scalar})

    @classmethod
    def constant(cls, ctx, value):
        return cls.term(ctx, scalar=value)

    @classmethod
    def x(cls, ctx, i):
        """x_i, refused unless i is in 1..n_plus."""
        check_index(i, 1, ctx.n_plus,
                    f"unknown variable x{i!r} (n_plus={ctx.n_plus})")
        xexp = tuple(1 if j == i - 1 else 0 for j in range(ctx.n_plus))
        return cls.term(ctx, xexp=xexp)

    @classmethod
    def xi(cls, ctx, a):
        """xi_a, refused unless a is in 1..n_minus."""
        check_index(a, 1, ctx.n_minus,
                    f"unknown variable xi{a!r} (n_minus={ctx.n_minus})")
        return cls.term(ctx, xi=(a,))

    @classmethod
    def gauss(cls, ctx, c):
        return cls.term(ctx, c=c)

    # -- basics ------------------------------------------------------------

    def _lift(self, value):
        return SuperFunction.constant(self.ctx, value)

    def constant_scalar(self):
        """The Scalar s when the function is the constant s, else None."""
        if any(key[:3] != (0, 0, 0) for key in self.coeffs):
            return None
        return Scalar._of(self.ctx.scalar_ctx,
                          {key[3:]: q for key, q in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, SuperFunction):
            return sf_mul(self, other)
        if other.__class__ is int and other in (1, -1):
            # a sign carries no theta: no copy for 1, one negation for -1
            return self if other == 1 else -self
        return self.scale_right(other)

    def __rmul__(self, other):
        return self.scale_left(other)

    def scale_left(self, scalar):
        """Multiply by a scalar standing to the left of every term."""
        items = _own_scalar(self.ctx, scalar).coeffs.items()
        out = {}
        for term, own in _grouped(self).items():
            mul_into(out, term, items, own, self.ctx.h_max)
        return SuperFunction._of(self.ctx, out)

    def scale_right(self, scalar):
        """Multiply by a scalar standing to the right of every term.

        Moving the scalar's odd theta part past the xi monomial costs the
        Koszul sign.
        """
        items = _own_scalar(self.ctx, scalar).coeffs.items()
        out = {}
        for term, own in _grouped(self).items():
            mul_into(out, term, own, items, self.ctx.h_max, 1,
                     term[2].bit_count())
        return SuperFunction._of(self.ctx, out)

    def __eq__(self, other):
        if isinstance(other, Scalar) and other.ctx != self.ctx.scalar_ctx:
            return False
        if isinstance(other, (Rational, Scalar)):
            other = SuperFunction.constant(self.ctx, other)
        elif not isinstance(other, SuperFunction):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its Scalar, so it hashes as that Scalar
        s = self.constant_scalar()
        return hash((self.ctx, self.freeze())) if s is None else hash(s)

    # -- grading -----------------------------------------------------------

    def eps(self):
        """Total Grassmann parity (xi-degree + theta-weight), or None."""
        e = self._eps
        if e != _NO_EPS:
            return e
        parities = {(key[2].bit_count() + key[4].bit_count()) & 1
                    for key in self.coeffs}  # _parity, inlined
        self._eps = (0 if not parities else
                     parities.pop() if len(parities) == 1 else None)
        return self._eps

    def epsilon(self):
        """The reversed parity used by the odd bracket."""
        e = self.eps()
        return None if e is None else (e + 1) % 2

    def homogeneous_components(self):
        """Split into a list of nonzero parity-homogeneous functions; a
        homogeneous function is its own list.

        The split is by total parity, so it serves both gradings.
        """
        if self.eps() is not None:
            return [self] if self.coeffs else []
        return [self._where(lambda key, e=e: _parity(key) == e)
                for e in (0, 1)]

    # -- class flags -------------------------------------------------------

    def is_d_class(self):
        """True when every term is Gaussian-suppressed (for n_plus > 0)."""
        if self.ctx.n_plus == 0:
            return True
        return all(key[1] > 0 for key in self.coeffs)

    def is_z_class(self):
        """True when the function is Gaussian-class plus a constant."""
        if self.ctx.n_plus == 0:
            return True
        return all(key[1] > 0 or not (key[0] or key[2])
                   for key in self.coeffs)

    def d_class_part(self):
        """The Gaussian-suppressed terms (all of them for n_plus == 0)."""
        if self.ctx.n_plus == 0:
            return self
        return self._where(lambda key: key[1] > 0)

    def theta_grade_part(self, weight):
        """Terms whose scalar theta-monomials have the given weight."""
        return self._where(lambda key: key[4].bit_count() == weight)

    # -- differentiation ---------------------------------------------------

    def left_deriv(self, a):
        """Left derivative with respect to the collective variable z_a."""
        return self._deriv(a, right=False)

    def right_deriv(self, a):
        """Right derivative with respect to the collective variable z_a."""
        return self._deriv(a, right=True)

    def _deriv(self, a, right):
        """Derivative by z_a from one side; signs as in the module doc."""
        ctx = self.ctx
        check_index(a, 0, ctx.n_z - 1,
                    f"variable index {a!r} outside 0..{ctx.n_z - 1}")
        out = {}
        if a < ctx.n_plus:
            for (x, c, xi), items in _grouped(self).items():
                for step, u in x_steps(x_field(x, a), c):
                    term = (x + (step << X_BITS * a), c, xi)
                    for k, q in items:
                        accumulate(out, term + k, q * u)
            return SuperFunction._of(ctx, out)
        gen = a - ctx.n_plus + 1
        for (x, c, xi), items in _grouped(self).items():
            if xi >> gen - 1 & 1:
                sign, rest = xi_deriv(xi, gen, right)
                # from the left, xi_gen also passes the theta part
                mul_into(out, (x, c, rest), ((_RATIONAL, sign),), items,
                         ctx.h_max, 1, not right)
        return SuperFunction._of(ctx, out)

    # -- integration -------------------------------------------------------

    def integral_bar(self):
        """Exact integral over x and xi, in one pass over the terms: the pure
        constant is dropped at n_plus > 0 (the natural extension to the
        centralizer), any other term outside the Gaussian class raises
        NotIntegrableError naming that term, and a top-xi term with even
        x-exponents adds its moment times pi^(n_plus/2), its theta part
        moved left past n_minus odd factors (the left Berezin integral of the
        module doc)."""
        bar = self._bar
        if bar is not None:
            return bar
        ctx = self.ctx
        n_plus, n_minus, h_max = ctx.n_plus, ctx.n_minus, ctx.h_max
        half = n_plus // 2
        odd = ctx.x_guard >> X_BITS - 1  # the low bit of every x field
        total = {}
        for key, q in self.coeffs.items():
            x = key[0]
            c = key[1]
            if n_plus and not c:
                if x or key[2]:
                    term = key[:3]
                    raise NotIntegrableError(
                        "term without Gaussian suppression is not integrable"
                        ": " + self._where(lambda k: k[:3] == term).render())
                continue
            if key[2].bit_count() != n_minus or x & odd:
                continue  # not top-xi, or an odd exponent
            # the scalar moment * pi^half, from the left, past n_minus xi's
            weight = ((0, 0, half, 0, 1),
                      _moment(unpack_x(x, n_plus), c, half))
            mul_into(total, (), (weight,), ((key[3:], q),), h_max, 1, n_minus)
        self._bar = Scalar._of(ctx.scalar_ctx, total)
        return self._bar

    # -- first-order operators (closed forms of the module doc) -----------

    def number_z(self):
        """Sum over all variables of z_a times the left derivative."""
        return self._degree_op(0, 1)

    def euler_E(self):
        """1 - (1/2) z d/dz, the operator whose kernel is degree two."""
        return self._degree_op(1, Fraction(-1, 2))

    def _degree_op(self, a, b):
        """a + b N_z in one pass: a term s x^e G xi^I gets the factor
        a + b (|e| + |I|), and each of its bumps x_i^2 the factor -b c."""
        n, guard = self.ctx.n_plus, self.ctx.x_guard
        out = {}
        for term, items in _grouped(self).items():
            x, c, xi = term
            w = int_if_integral(a + b * (sum(unpack_x(x, n)) + xi.bit_count()))
            u = int_if_integral(-b * c)
            bumped = [(x + (2 << X_BITS * i), c, xi)
                      for i in range(n if c else 0)]
            if c and x + (guard >> X_BITS - 2) & guard:  # x_i^2 past the cap
                raise ValueError(OVER_CAP)
            for k, q in items:
                accumulate(out, term + k, q * w)
                for t in bumped:
                    accumulate(out, t + k, q * u)
        return SuperFunction._of(self.ctx, out)

    def one_minus_number_xi(self):
        """1 - N_xi, N_xi the sum over the xi_a of xi_a times the left
        derivative: a term of xi-degree |I| gets the factor 1 - |I|."""
        return SuperFunction._of(self.ctx, {
            key: int_if_integral(q * (1 - key[2].bit_count()))
            for key, q in self.coeffs.items() if key[2].bit_count() != 1})

    def delta_op(self):
        """Sum over i of d/dx_i d/dxi_i; needs n_plus == n_minus."""
        ctx = self.ctx
        _require_square(ctx, "delta operator")
        out = {}
        for (x, c, xi), items in _grouped(self).items():
            for gen in theta_indices(xi):
                sign, rest = xi_deriv(xi, gen, False)
                for step, u in x_steps(x_field(x, gen - 1), c):
                    # the left xi-derivative passes the theta part
                    mul_into(out, (x + (step << X_BITS * (gen - 1)), c, rest),
                             ((_RATIONAL, sign * u),), items, ctx.h_max, 1, 1)
        return SuperFunction._of(ctx, out)

    # -- rendering ---------------------------------------------------------

    def _render_term(self, key, items):
        xexp, c, xi = key
        factors = []
        text = render_sum(items)
        if text != "1" or not (any(xexp) or c or xi):
            if " " in text:
                text = f"({text})"
            factors.append(text)
        for i, e in enumerate(xexp):
            if e == 1:
                factors.append(f"x{i + 1}")
            elif e > 1:
                factors.append(f"x{i + 1}^{e}")
        if c > 0:
            factors.append(f"gauss({c})")
        factors.extend(f"xi{a}" for a in xi)
        return "*".join(factors)

    def render(self):
        n = self.ctx.n_plus
        # terms in the order of their tuples (x exponents, weight, xi indices)
        terms = sorted(((unpack_x(x, n), c, theta_indices(xi)), items)
                       for (x, c, xi), items in _grouped(self).items())
        return " + ".join(self._render_term(key, items)
                          for key, items in terms) or "0"


def _parity(key):
    """Total parity of a flat key: xi-degree plus theta-weight, mod 2."""
    return (key[2].bit_count() + key[4].bit_count()) & 1


@lru_cache(maxsize=_CACHE_BOUND)
def _moment(xexp, c, half):
    """The Gaussian moment prod_a (e_a - 1)!! 2^half / c^(|e|/2 + half) of
    even exponents ``xexp`` and weight c > 0, an int when integral; times
    pi^half it is the integral of x^e exp(-c|x|^2/2) over the 2 * half
    x-coordinates."""
    moment = Fraction(2) ** half / Fraction(c) ** (sum(xexp) // 2 + half)
    for e in xexp:
        moment *= prod(range(1, e, 2))  # (e - 1)!!
    return int_if_integral(moment)


def _own_scalar(ctx, value):
    """``value`` as a Scalar over ctx.scalar_ctx: a rational is converted,
    a Scalar over another context refused."""
    sctx = ctx.scalar_ctx
    if not isinstance(value, Scalar):
        return Scalar.rational(sctx, value)
    if value.ctx is not sctx:
        check_context(sctx, value.ctx)
    return value


def _surviving(f, masks):
    """f without the terms that a scalar of the theta-masks ``masks``
    annihilates from the left, those whose theta-mask meets every one of
    them; f itself when it has none, or when it is outside Z (its bar
    refuses a term)."""
    dead = {t for t in {key[4] for key in f.coeffs}
            if all(map(t.__and__, masks))}
    if not dead or not f.is_z_class():
        return f
    return f._of(f.ctx, {key: q for key, q in f.coeffs.items()
                         if key[4] not in dead})


def _require_square(ctx, name):
    """Refuse a context with n_plus != n_minus, which has no antibracket:
    the one refusal of that rule, for ``antibracket``, ``delta_op``, the
    forms anti and m23 and the antibracket deformations."""
    if ctx.n_plus != ctx.n_minus:
        raise DeformationError(f"{name} requires n_plus == n_minus",
                               relation="context")


def _grouped(f):
    """The terms of f as {(x, gauss_weight, xi_mask): [(scalar key,
    coefficient), ...]}, in the order of ``f.coeffs``."""
    groups = {}
    for key, q in f.coeffs.items():
        term = key[:3]
        items = groups.get(term)
        if items is None:
            groups[term] = [(key[3:], q)]
        else:
            items.append((key[3:], q))
    return groups


def _make(ctx, slots, den):
    """The SuperFunction of {(x, gauss_weight, xi_mask): {scalar key:
    coefficient}} over the common denominator ``den``, zero coefficients
    dropped."""
    coeffs = {}
    for term, slot in slots.items():
        for k, v in slot.items():
            if not v:
                continue
            if v.__class__ is int:
                # a Fraction only when den does not divide v
                q, r = divmod(v, den)
                coeffs[term + k] = Fraction(v, den) if r else q
            else:
                coeffs[term + k] = int_if_integral(v / den)
    return SuperFunction._of(ctx, coeffs)


def sf_mul(f, g):
    """Supercommutative product with all Koszul signs: xi masks merge by
    union, with the sign of ``theta_sign``."""
    f._check(g)
    h_max, guard = f.ctx.h_max, f.ctx.x_guard
    out = {}
    gterms = list(_grouped(g).items())
    for (x1, c1, xi1), items1 in _grouped(f).items():
        for (x2, c2, xi2), items2 in gterms:
            sign = theta_sign(xi1, xi2) if xi1 and xi2 else 1
            if sign:
                if x1 + x2 & guard:
                    raise ValueError(OVER_CAP)
                # the theta part of g's scalar moves left past xi1
                mul_into(out, (x1 + x2, int_if_integral(c1 + c2), xi1 | xi2),
                         items1, items2, h_max, sign, xi1.bit_count())
    return SuperFunction._of(f.ctx, out)
