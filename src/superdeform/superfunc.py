"""Gaussian-weighted polynomial superfunctions over a symplectic context.

A SuperFunction is a finite sum of terms

    s * x1^e1 ... xn^en * exp(-(c/2)|x|^2) * xi_{i1}*...*xi_{ip}

with s an exact Scalar (which may carry theta generators), nonnegative
rational Gaussian weight c, and the xi monomial stored in increasing index
order with all signs absorbed into s.  Theta factors stand to the left of
the xi monomial; Koszul signs for moving odd objects past each other are
applied explicitly by every operation.

The derivative d_a by an odd variable xi_a acts on a term s * x^e * xi^I
(xi_a at 0-based position pos of the len factors of I) by deleting xi_a,
with the sign of moving xi_a next to the operator:

* from the left, past the theta part of s and the pos factors before it:
  the theta twist of s by one, times (-1)^pos;
* from the right, past the len - pos - 1 factors after it:
  (-1)^(len - pos - 1), independent of theta.

On x-variables both derivatives are the ordinary one:
d_a (x^e G) = e_a x^(e - 1_a) G - c x^(e + 1_a) G, with G = exp(-c|x|^2/2).

Closed forms on a term s * x^e * G * xi^I, where putting xi_a back in front
undoes the twist and the sign of its left derivative: N_z = sum_a z_a d^L_a
gives (|e| + |I|) times the term minus c sum_a x_a^2 times it; N_xi gives
|I| times it; E = 1 - N_z/2; Delta = sum_i d_{x_i} d^L_{xi_i} is the left
xi_i-derivative, then d/dx_i.  For even e, the integral over the n = n_plus
x-coordinates is prod_a (e_a - 1)!! c^(-|e|/2) (2 pi/c)^(n/2), a rational
times pi^(n/2) as n is even.

Compactly supported functions are modeled by the terms with c > 0, smooth
functions by arbitrary terms, and the centralizer of the compactly
supported class consists of the constants.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

from .errors import ContextMismatchError, NotIntegrableError
from .scalars import (RadicalNumber, Scalar, ScalarContext, _with_coeffs,
                      _with_terms, accumulate, int_if_integral,
                      merge_odd_indices, squarefree_decompose)


class SymplecticContext:
    """Fixed data of the algebra: dimensions, metric signs, truncation."""

    __slots__ = ("n_plus", "n_minus", "lambdas", "k", "h_max", "scalar_ctx")

    def __init__(self, n_plus, n_minus, lambdas=None, k=0, h_max=6):
        if n_plus % 2 != 0 or n_plus < 0:
            raise ValueError("n_plus must be even and nonnegative")
        if n_minus < 0:
            raise ValueError("n_minus must be nonnegative")
        if lambdas is None:
            lambdas = (1,) * n_minus
        lambdas = tuple(lambdas)
        if len(lambdas) != n_minus or any(s not in (1, -1) for s in lambdas):
            raise ValueError("lambdas must be a +-1 vector of length n_minus")
        self.n_plus = n_plus
        self.n_minus = n_minus
        self.lambdas = lambdas
        self.k = k
        self.h_max = h_max
        self.scalar_ctx = ScalarContext(k=k, h_max=h_max)

    @property
    def n_z(self):
        return self.n_plus + self.n_minus

    def eps_var(self, a):
        """Grassmann parity of the collective variable z_a (0-based)."""
        return 0 if a < self.n_plus else 1

    def __eq__(self, other):
        return (isinstance(other, SymplecticContext)
                and self.n_plus == other.n_plus
                and self.n_minus == other.n_minus
                and self.lambdas == other.lambdas
                and self.k == other.k
                and self.h_max == other.h_max)

    def __hash__(self):
        return hash((self.n_plus, self.n_minus, self.lambdas,
                     self.k, self.h_max))

    def __repr__(self):
        return (f"SymplecticContext(n_plus={self.n_plus}, "
                f"n_minus={self.n_minus}, lambdas={self.lambdas}, "
                f"k={self.k}, h_max={self.h_max})")


def _double_factorial_odd(p):
    """(2p - 1)!! with the empty product equal to 1."""
    result = 1
    for j in range(1, 2 * p, 2):
        result *= j
    return result


def gaussian_moment(e, c):
    """Exact value of the one-dimensional moment integral x^e exp(-c x^2 / 2).

    Odd e gives 0; even e = 2p gives (2p-1)!! c^{-p} sqrt(2 pi / c).
    """
    if e % 2:
        return RadicalNumber()
    p = e // 2
    c = Fraction(c)
    if c <= 0:
        raise NotIntegrableError("Gaussian weight must be positive")
    rational = Fraction(_double_factorial_odd(p)) / c ** p
    # sqrt(2/c) = sqrt(2 * num * den) / num for c = num/den
    outer, core = squarefree_decompose(2 * c.numerator * c.denominator)
    return RadicalNumber({(0, 1, core): rational * outer / c.numerator})


def x_steps(e, c):
    """d/du of u^e exp(-c u^2/2): e at step -1, -c at +1, zeros left out."""
    if e:
        return ((-1, e), (1, -c)) if c else ((-1, e),)
    return ((1, -c),) if c else ()


def bump(xexp, a, step):
    """The exponent vector xexp with entry a moved by step."""
    return xexp[:a] + (xexp[a] + step,) + xexp[a + 1:]


class SuperFunction:
    """Exact superfunction over a SymplecticContext.

    ``terms`` maps (x_exponents, gauss_weight, xi_indices) to a Scalar.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        self.terms = {key: s for key, s in (terms or {}).items() if s}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @classmethod
    def term(cls, ctx, xexp=None, c=0, xi=(), scalar=None):
        if xexp is None:
            xexp = (0,) * ctx.n_plus
        xexp = tuple(xexp)
        if len(xexp) != ctx.n_plus or any(e < 0 for e in xexp):
            raise ValueError("bad x-exponent vector")
        c = int_if_integral(Fraction(c))
        if c < 0:
            raise ValueError("Gaussian weight must be nonnegative")
        xi = tuple(xi)
        if xi != tuple(sorted(set(xi))) or any(
                not 1 <= a <= ctx.n_minus for a in xi):
            raise ValueError("xi monomial must be sorted distinct indices")
        if scalar is None:
            scalar = Scalar.one(ctx.scalar_ctx)
        elif not isinstance(scalar, Scalar):
            scalar = Scalar.rational(ctx.scalar_ctx, scalar)
        return cls(ctx, {(xexp, c, xi): scalar})

    @classmethod
    def constant(cls, ctx, value):
        return cls.term(ctx, scalar=value if isinstance(value, Scalar)
                        else Scalar.rational(ctx.scalar_ctx, value))

    @classmethod
    def x(cls, ctx, i):
        if not 1 <= i <= ctx.n_plus:
            raise ValueError(f"x index {i} outside 1..{ctx.n_plus}")
        xexp = tuple(1 if j == i - 1 else 0 for j in range(ctx.n_plus))
        return cls.term(ctx, xexp=xexp)

    @classmethod
    def xi(cls, ctx, a):
        if not 1 <= a <= ctx.n_minus:
            raise ValueError(f"xi index {a} outside 1..{ctx.n_minus}")
        return cls.term(ctx, xi=(a,))

    @classmethod
    def gauss(cls, ctx, c):
        return cls.term(ctx, c=c)

    @classmethod
    def z_var(cls, ctx, a):
        """Collective variable z_a, 0-based over x then xi."""
        if a < ctx.n_plus:
            return cls.x(ctx, a + 1)
        return cls.xi(ctx, a - ctx.n_plus + 1)

    # -- basics ------------------------------------------------------------

    def _check(self, other):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatchError(
                f"contexts differ: {self.ctx} vs {other.ctx}")

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, SuperFunction):
            other = SuperFunction.constant(self.ctx, other)
        self._check(other)
        out = dict(self.terms)
        for key, scalar in other.terms.items():
            accumulate(out, key, scalar)
        return _with_terms(SuperFunction(self.ctx), out)

    __radd__ = __add__

    def __neg__(self):
        return _with_terms(SuperFunction(self.ctx),
                           {k: -s for k, s in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SuperFunction):
            other = SuperFunction.constant(self.ctx, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SuperFunction):
            return sf_mul(self, other)
        return self.scale_right(other)

    def __rmul__(self, other):
        return self.scale_left(other)

    def scale_left(self, scalar):
        """Multiply by a scalar standing to the left of every term."""
        if not isinstance(scalar, Scalar):
            scalar = Scalar.rational(self.ctx.scalar_ctx, scalar)
        return SuperFunction(self.ctx, {
            key: scalar * s for key, s in self.terms.items()})

    def scale_right(self, scalar):
        """Multiply by a scalar standing to the right of every term.

        Moving the scalar's odd theta part past the xi monomial costs the
        Koszul sign.
        """
        if not isinstance(scalar, Scalar):
            scalar = Scalar.rational(self.ctx.scalar_ctx, scalar)
        out = {}
        for (xexp, c, xi), s in self.terms.items():
            twisted = scalar.theta_twist(len(xi))
            out[(xexp, c, xi)] = s * twisted
        return SuperFunction(self.ctx, out)

    def __eq__(self, other):
        if isinstance(other, (Rational, Scalar)):
            other = SuperFunction.constant(self.ctx, other)
        elif not isinstance(other, SuperFunction):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, self.freeze()))

    def freeze(self):
        return tuple(sorted(
            (key, s.freeze()) for key, s in self.terms.items()))

    # -- grading -----------------------------------------------------------

    def eps(self):
        """Total Grassmann parity (xi-degree + theta-weight), or None."""
        parities = set()
        for (_, _, xi), s in self.terms.items():
            for key in s.coeffs:
                parities.add((len(xi) + key[1].bit_count()) % 2)
        if not parities:
            return 0
        return parities.pop() if len(parities) == 1 else None

    def epsilon(self):
        """The reversed parity used by the odd bracket."""
        e = self.eps()
        return None if e is None else (e + 1) % 2

    def homogeneous_components(self):
        """Split into a list of nonzero parity-homogeneous functions.

        The split is by total parity, so it serves both gradings.
        """
        parts = {0: {}, 1: {}}
        for (xexp, c, xi), s in self.terms.items():
            even, odd = s.split_theta_parity()
            for w, piece in ((0, even), (1, odd)):
                if not piece.is_zero():
                    parts[(len(xi) + w) % 2][(xexp, c, xi)] = piece
        return [_with_terms(SuperFunction(self.ctx), parts[p])
                for p in (0, 1) if parts[p]]

    # -- class flags -------------------------------------------------------

    def is_d_class(self):
        """True when every term is Gaussian-suppressed (for n_plus > 0)."""
        if self.ctx.n_plus == 0:
            return True
        return all(c > 0 for (_, c, _) in self.terms)

    def is_z_class(self):
        """True when the function is Gaussian-class plus a constant."""
        zero_x = (0,) * self.ctx.n_plus
        if self.ctx.n_plus == 0:
            return True
        return all(c > 0 or (xexp == zero_x and xi == ())
                   for (xexp, c, xi) in self.terms)

    def normalize_mod_Z(self):
        """Canonical representative modulo Gaussian-class terms and constants."""
        zero_x = (0,) * self.ctx.n_plus
        if self.ctx.n_plus == 0:
            return SuperFunction.zero(self.ctx)
        out = {}
        for (xexp, c, xi), s in self.terms.items():
            if c > 0:
                continue
            if xexp == zero_x and xi == ():
                continue
            out[(xexp, c, xi)] = s
        return SuperFunction(self.ctx, out)

    # -- hbar bookkeeping --------------------------------------------------

    def hbar_min_degree(self):
        degrees = [s.hbar_min_degree() for s in self.terms.values()]
        degrees = [d for d in degrees if d is not None]
        return min(degrees, default=None)

    def truncate_hbar(self, order):
        return SuperFunction(self.ctx, {
            key: s.truncate(order) for key, s in self.terms.items()})

    def theta_grade_part(self, weight):
        """Terms whose scalar theta-monomials have the given weight."""
        out = {}
        for key, s in self.terms.items():
            filtered = {k: q for k, q in s.coeffs.items()
                        if k[1].bit_count() == weight}
            if filtered:
                out[key] = _with_coeffs(s.ctx, filtered)
        return _with_terms(SuperFunction(self.ctx), out)

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
        if not 0 <= a < ctx.n_z:
            raise ValueError(f"variable index {a} outside 0..{ctx.n_z - 1}")
        out = {}
        if a < ctx.n_plus:
            for (xexp, c, xi), s in self.terms.items():
                for step, q in x_steps(xexp[a], c):
                    accumulate(out, (bump(xexp, a, step), c, xi), s * q)
            return _with_terms(SuperFunction(ctx), out)
        gen = a - ctx.n_plus + 1
        for (xexp, c, xi), s in self.terms.items():
            if gen not in xi:
                continue
            pos = xi.index(gen)
            if right:
                flips = len(xi) - pos - 1
            else:
                s, flips = s.theta_twist(1), pos
            # distinct xi monomials stay distinct without xi_gen
            out[xexp, c, xi[:pos] + xi[pos + 1:]] = -s if flips % 2 else s
        return _with_terms(SuperFunction(ctx), out)

    # -- integration -------------------------------------------------------

    def integral_bar(self, mod_centralizer=False):
        """Exact integral over x and xi (top xi-monomial normalization).

        Raises NotIntegrableError for any term the Gaussian class cannot
        integrate.  With ``mod_centralizer`` the pure constant term is
        dropped instead (the natural extension to the centralizer).
        """
        ctx = self.ctx
        top = tuple(range(1, ctx.n_minus + 1))
        zero_x = (0,) * ctx.n_plus
        half = ctx.n_plus // 2
        total = {}
        for (xexp, c, xi), s in self.terms.items():
            if ctx.n_plus > 0 and c == 0:
                if mod_centralizer and xexp == zero_x and xi == ():
                    continue
                raise NotIntegrableError(
                    "term without Gaussian suppression is not integrable: "
                    f"{self._render_term((xexp, c, xi), s)}")
            if xi != top or any(e % 2 for e in xexp):
                continue
            moment = Fraction(2) ** half / Fraction(c) ** (
                sum(xexp) // 2 + half)
            for e in xexp:
                moment *= _double_factorial_odd(e // 2)
            for (m, t, p, sp, r), q in s.coeffs.items():
                accumulate(total, (m, t, p + half, sp, r), q * moment)
        return _with_coeffs(ctx.scalar_ctx, total)

    # -- first-order operators (closed forms of the module doc) -----------

    def number_z(self):
        """Sum over all variables of z_a times the left derivative."""
        out = {}
        for (xexp, c, xi), s in self.terms.items():
            accumulate(out, (xexp, c, xi), s * (sum(xexp) + len(xi)))
            minus_c = s * -c
            for a in range(len(xexp) if c else 0):
                accumulate(out, (bump(xexp, a, 2), c, xi), minus_c)
        return _with_terms(SuperFunction(self.ctx), out)

    def number_xi(self):
        """Sum over the xi_a of xi_a times the left derivative."""
        return _with_terms(SuperFunction(self.ctx), {
            key: s * len(key[2]) for key, s in self.terms.items() if key[2]})

    def euler_E(self):
        """1 - (1/2) z d/dz, the operator whose kernel is degree two."""
        return self - self.number_z() * Fraction(1, 2)

    def delta_op(self):
        """Sum over i of d/dx_i d/dxi_i; needs n_plus == n_minus."""
        ctx = self.ctx
        if ctx.n_plus != ctx.n_minus:
            raise ValueError("delta operator requires n_plus == n_minus")
        out = {}
        for (xexp, c, xi), s in self.terms.items():
            twisted = s.theta_twist(1)
            for pos, gen in enumerate(xi):
                rest = xi[:pos] + xi[pos + 1:]
                for step, q in x_steps(xexp[gen - 1], c):
                    accumulate(out, (bump(xexp, gen - 1, step), c, rest),
                               twisted * (-q if pos & 1 else q))
        return _with_terms(SuperFunction(ctx), out)

    # -- rendering ---------------------------------------------------------

    def _render_term(self, key, scalar):
        xexp, c, xi = key
        factors = []
        text = scalar.render()
        if text != "1" or (all(e == 0 for e in xexp) and c == 0 and not xi):
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
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda k: (k[0], k[1], k[2]))
        return " + ".join(self._render_term(k, self.terms[k]) for k in keys)

    def __str__(self):
        return self.render()

    __repr__ = __str__


def sf_mul(f, g):
    """Supercommutative product with all Koszul signs."""
    f._check(g)
    out = {}
    for (xe1, c1, xi1), s1 in f.terms.items():
        deg1 = len(xi1)
        for (xe2, c2, xi2), s2 in g.terms.items():
            sign, xi = merge_odd_indices(xi1, xi2)
            if not sign:
                continue
            # the theta part of s2 moves left past xi1
            scalar = s1 * s2.theta_twist(deg1)
            key = (tuple(e1 + e2 for e1, e2 in zip(xe1, xe2)),
                   int_if_integral(c1 + c2), xi)
            accumulate(out, key, scalar if sign > 0 else -scalar)
    return _with_terms(SuperFunction(f.ctx), out)
