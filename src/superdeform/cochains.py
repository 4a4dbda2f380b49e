"""Graded multilinear skew forms.

A cochain knows its arity, its declared parity, and which grading its signs
use ('even' for the Poisson bracket parity, 'odd' for the reversed parity of
the antibracket).  It is its function ``fn`` on parity-homogeneous
arguments; a sum ``a + b``, a scalar multiple ``form.scaled(s)`` (which is
also how theta-prefixing is expressed) and a function multiple
``form.times(eta)`` are cochains whose ``fn`` calls the parts' ``fn``.
The sign factors are only defined on parity-homogeneous arguments, so
evaluation splits a mixed-parity argument (and only such an argument) into
its homogeneous components and sums over their combinations.
"""

from __future__ import annotations

from itertools import product

from .brackets import antibracket, bidiff_term, moyal_bracket, poisson_bracket
from .errors import ArityError
from .superfunc import SuperFunction, _own_scalar, sf_mul

EVEN, ODD = "even", "odd"


def grading_parity(f, grading):
    """The parity of a homogeneous function in the chosen grading."""
    return f.eps() if grading == EVEN else f.epsilon()


def _shift(parity, weight):
    """The parity of a form times a factor of parity ``weight``, or None."""
    if parity is None or weight is None:
        return None
    return (parity + weight) % 2


class Cochain:
    """A graded p-linear skew form, ``fn`` on homogeneous arguments."""

    def __init__(self, ctx, arity, parity, fn, grading=EVEN, name=None):
        self.ctx = ctx
        self.arity = arity
        self.parity = parity
        self.fn = fn
        self.grading = grading
        self.name = name or type(self).__name__
        self._cache = {}

    def evaluate(self, *args):
        if len(args) != self.arity:
            raise ArityError(
                f"{self.name} expects {self.arity} arguments, got {len(args)}")
        key = tuple(arg.freeze() for arg in args)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if all(arg.eps() is not None for arg in args):
            out = (SuperFunction.zero(self.ctx)
                   if any(arg.is_zero() for arg in args)
                   else self.fn(*args))
        else:
            out = SuperFunction.zero(self.ctx)
            pieces = [arg.homogeneous_components() for arg in args]
            for combo in product(*pieces):
                out = out + self.fn(*combo)
        if len(self._cache) > 4096:
            self._cache.clear()
        self._cache[key] = out
        return out

    __call__ = evaluate

    # -- combinators -------------------------------------------------------

    def __add__(self, other):
        if other.arity != self.arity:
            raise ArityError("summands must share one arity")
        if other.grading != self.grading:
            raise ValueError(f"{self.name} has the {self.grading} grading, "
                             f"but {other.name} the {other.grading} one")
        a, b = self.fn, other.fn
        parity = self.parity if self.parity == other.parity else None
        return Cochain(self.ctx, self.arity, parity,
                       lambda *args: a(*args) + b(*args), self.grading,
                       name=f"{self.name}+{other.name}")

    def scaled(self, scalar):
        """``scalar`` times this form, the scalar on the left."""
        scalar = _own_scalar(self.ctx, scalar)
        fn = self.fn
        return Cochain(self.ctx, self.arity,
                       _shift(self.parity, scalar.parity()),
                       lambda *args: fn(*args).scale_left(scalar),
                       self.grading, name=f"scaled({self.name})")

    def times(self, prefactor):
        """A fixed function times this form, as eta(z) times mu."""
        fn = self.fn

        def times_fn(*args):
            # the value must pass to the right of the prefactor; for the
            # named forms it is a constant, so only scalars are supported
            s = fn(*args).constant_scalar()
            if s is None:
                raise ValueError(
                    "function-scaled cochain needs a scalar-valued form")
            return prefactor.scale_right(s)

        return Cochain(self.ctx, self.arity,
                       _shift(self.parity, prefactor.eps()), times_fn,
                       self.grading, name=f"({prefactor})*{self.name}")

    def __repr__(self):
        return f"<{self.name}: arity {self.arity}, parity {self.parity}>"


# -- named forms -----------------------------------------------------------

def m0_form(ctx):
    return Cochain(ctx, 2, 0, poisson_bracket, EVEN, name="m0")


def anti_form(ctx):
    return Cochain(ctx, 2, 0, antibracket, ODD, name="anti")


def moyal_form(ctx, kappa=1):
    return Cochain(ctx, 2, 0, lambda f, g: moyal_bracket(f, g, kappa),
                    EVEN, name="moyal")


def m1(f, g):
    """First deformation correction: one sixth of the cubic bidifferential,
    P^3/3!, which the kernel forms in one pass as the t^3 coefficient of
    exp(tP) taken with weight 1."""
    return bidiff_term(f, g, 3, 1)


def m1_form(ctx):
    return Cochain(ctx, 2, 0, m1, EVEN, name="m1")


def zeta_form_parity(ctx, zeta):
    """eps(zeta) + n_minus, the parity of m_zeta and j_zeta (None when zeta
    is not homogeneous)."""
    zp = zeta.eps()
    return None if zp is None else (zp + ctx.n_minus) % 2


def _bar_pairing(ctx, op, parity, name):
    """The form op(f) gbar (-1)^{n_minus eps_f}
    - op(g) fbar (-1)^{eps_f eps_g + n_minus eps_g}, shared by m3
    (op = E), m_zeta (op = {zeta, .}) and j_zeta (op = m1(zeta, .)).

    A bar is nonzero only on the top-xi, even-x Gaussian slice, so on most
    arguments one or both bars vanish.  ``op`` meets only a nonzero bar:
    op(f) is evaluated only when gbar != 0 and op(g) only when fbar != 0.
    Both bars are always integrated, so a term the Gaussian class cannot
    integrate still raises NotIntegrableError, and the two arguments'
    contexts are checked first, so a mismatch raises even when both bars
    are zero."""
    n_minus = ctx.n_minus

    def fn(f, g):
        f._check(g)
        ef, eg = f.eps(), g.eps()
        fbar = f.integral_bar()
        gbar = g.integral_bar()
        out = SuperFunction.zero(f.ctx)
        if gbar:
            out = op(f).scale_right(gbar) * ((-1) ** (n_minus * ef))
        if fbar:
            term = op(g).scale_right(fbar)
            odd = (ef * eg + n_minus * eg) & 1
            out = out + term if odd else out - term
        return out

    return Cochain(ctx, 2, parity, fn, EVEN, name=name)


def m3_form(ctx):
    return _bar_pairing(ctx, SuperFunction.euler_E, ctx.n_minus % 2, "m3")


def mzeta_form(ctx, zeta):
    return _bar_pairing(ctx, lambda f: poisson_bracket(zeta, f),
                        zeta_form_parity(ctx, zeta), "mzeta")


def jzeta_form(ctx, zeta):
    return _bar_pairing(ctx, lambda f: m1(zeta, f),
                        zeta_form_parity(ctx, zeta), "jzeta")


def m23_form(ctx):
    """The odd antibracket cocycle built from 1 - N_xi."""
    if ctx.n_plus != ctx.n_minus:
        raise ValueError("this form requires n_plus == n_minus")

    def one_minus_nxi(f):
        return f - f.number_xi()

    def fn(f, g):
        sign = (-1) ** f.eps()
        return sf_mul(one_minus_nxi(f), one_minus_nxi(g)) * sign

    return Cochain(ctx, 2, 1, fn, ODD, name="m23")


def mu_form(ctx):
    def fn(f, g):
        fbar = f.integral_bar()
        gbar = g.integral_bar()
        value = (fbar * gbar) * ((-1) ** f.eps())
        return SuperFunction.constant(ctx, value)

    return Cochain(ctx, 2, 0, fn, EVEN, name="mu")


# -- Jacobiator and the adjoint differential -------------------------------

def jacobiator(p, q=None):
    """The trilinear obstruction built from one or two 2-cochains.

    With one argument it is the single-sum form; with two it symmetrizes
    over both orders of nesting.  Signs use the grading of ``p``.
    """
    if p.arity != 2 or (q is not None and q.arity != 2):
        raise ArityError("Jacobiators take 2-cochains")
    grading = p.grading
    ctx = p.ctx

    def fn(f, g, h):
        out = SuperFunction.zero(ctx)
        for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
            pa, pc = grading_parity(a, grading), grading_parity(c, grading)
            sign = (-1) ** (pa * pc)
            if q is None:
                nested = p.evaluate(p.evaluate(a, b), c)
            else:
                nested = p.evaluate(q.evaluate(a, b), c) + \
                    q.evaluate(p.evaluate(a, b), c)
            out = out + nested if sign == 1 else out - nested
        return out

    name = f"J({p.name},{q.name})" if q is not None else f"J({p.name})"
    return Cochain(ctx, 3, None, fn, grading, name=name)


def d_ad(m, bracket=None):
    """The cochain differential with coefficients in the adjoint action.

    Signs use the grading of ``m``, which must have a defined parity, and
    ``bracket`` defaults to the one of that grading: the Poisson bracket
    for 'even', the antibracket for 'odd'.  A bracket of the other grading
    gives the differential of neither complex and raises ValueError.
    """
    if m.parity is None:
        raise ValueError(f"{m.name} has undefined parity")
    ctx = m.ctx
    grading = m.grading
    if bracket is None:
        bracket = (m0_form if grading == EVEN else anti_form)(ctx)
    elif bracket.grading != grading:
        raise ValueError(f"{m.name} has the {grading} grading, but the "
                         f"bracket {bracket.name} the {bracket.grading} one")
    p = m.arity
    m_parity = m.parity

    def fn(*fs):
        parities = [grading_parity(f, grading) for f in fs]

        def psum(i, j):
            # inclusive 1-based range i..j of argument parities
            return sum(parities[i - 1:j])

        out = SuperFunction.zero(ctx)
        for j in range(1, p + 2):
            rest = fs[:j - 1] + fs[j:]
            sign = (-1) ** (j + parities[j - 1] * psum(1, j - 1)
                            + parities[j - 1] * m_parity)
            term = bracket.evaluate(fs[j - 1], m.evaluate(*rest))
            out = out - term if sign == 1 else out + term
        for i in range(1, p + 1):
            for j in range(i + 1, p + 2):
                sign = (-1) ** (j + parities[j - 1] * psum(i + 1, j - 1))
                br = bracket.evaluate(fs[i - 1], fs[j - 1])
                inner_args = (fs[:i - 1] + (br,) + fs[i:j - 1] + fs[j:])
                term = m.evaluate(*inner_args)
                out = out - term if sign == 1 else out + term
        return out

    return Cochain(ctx, p + 1, m_parity, fn, grading, name=f"d({m.name})")
