"""Graded multilinear skew forms.

A cochain knows its arity, its declared parity, and which grading its signs
use ('even' for the Poisson bracket parity, 'odd' for the reversed parity of
the antibracket).  It is its function ``fn`` on parity-homogeneous
arguments; a sum ``a + b`` of two forms over one context and a scalar
multiple ``form.scaled(s)`` (which is also how theta-prefixing is
expressed) are cochains whose ``fn`` calls the parts' ``fn``.  A form is
built in one call and never changed; it refuses operands over another
context by ``scalars.check_context``.
Every form is Lambda(theta)-linear: theta_1..theta_k pass through ``fn``
with the sign of their grade, so each term of fn(f, g, ...) carries the
theta-mask of the argument terms it was built from.  The kernels,
derivatives, bars and Delta multiply coefficients only through
``scalars.mul_into``, and E, N_z and N_xi carry each scalar key through,
so the built-in forms hold this by construction, and ``check_signs`` is
its test.  It lets ``scaled(s)`` drop the argument terms that s
annihilates (``superfunc._surviving``) before ``fn`` runs.
The sign factors are only defined on parity-homogeneous arguments, so
evaluation splits a mixed-parity argument (and only such an argument) into
its homogeneous components and sums over their combinations.  A sign +-1
is applied by choosing ``+`` or ``-``, or by a negation, never by a
product.
"""

from itertools import product

from .brackets import (_own_kappa, antibracket, bidiff_term, moyal_bracket,
                       poisson_bracket)
from .errors import ArityError, DeformationError
from .scalars import Scalar, check_context
from .superfunc import (SuperFunction, _own_scalar, _require_square,
                        _surviving, sf_mul)

EVEN, ODD = "even", "odd"


def _theta1(ctx):
    """The odd parameter theta_1, refused in a context without one."""
    if ctx.k < 1:
        raise DeformationError("an odd parameter theta_1 is required (k >= 1)",
                               relation="context")
    return Scalar.theta(ctx.scalar_ctx, 1)


def grading_parity(f, grading):
    """The parity of a homogeneous function in the chosen grading."""
    return f.eps() if grading == EVEN else f.epsilon()


class Cochain:
    """A graded p-linear skew form, ``fn`` on homogeneous arguments."""

    # perfbench/layertrace.py (_CacheHits) reads len(_cache); nothing is kept
    _cache = ()

    def __init__(self, ctx, arity, parity, fn, grading=EVEN, name=None,
                 params=None):
        self.ctx = ctx
        self.arity = arity
        self.parity = parity
        self.fn = fn
        self.grading = grading
        self.name = name or type(self).__name__
        self.params = {} if params is None else params

    @property
    def flavor(self):
        # perfbench/workloads.py reads a deformation's name as its flavor
        return self.name

    def evaluate(self, *args):
        """``fn`` on the arguments, after every argument's context is
        checked against the form's: a zero argument gives zero with no call,
        homogeneous arguments the very object ``fn`` returns, and a
        mixed-parity argument one call per combination of components.
        Nothing is kept between calls."""
        if len(args) != self.arity:
            raise ArityError(
                f"{self.name} expects {self.arity} arguments, got {len(args)}")
        ctx = self.ctx
        zero = mixed = False
        for arg in args:
            # before the zero return, so a zero argument is checked too
            if arg.ctx is not ctx:
                check_context(ctx, arg.ctx)
            if not arg.coeffs:
                zero = True
            elif arg.eps() is None:
                mixed = True
        if zero:
            return SuperFunction.zero(ctx)
        if not mixed:
            return self.fn(*args)
        out = SuperFunction.zero(ctx)
        for combo in product(*(a.homogeneous_components() for a in args)):
            out = out + self.fn(*combo)
        return out

    __call__ = evaluate

    # -- combinators -------------------------------------------------------

    def __add__(self, other):
        """The form a + b of two forms of one arity, grading and context,
        with their parity when they share one, else none; two arities raise
        ArityError, two gradings ValueError naming both, and two contexts
        ContextMismatchError."""
        if other.arity != self.arity:
            raise ArityError("summands must share one arity")
        if other.grading != self.grading:
            raise ValueError(f"{self.name} has the {self.grading} grading, "
                             f"but {other.name} the {other.grading} one")
        check_context(self.ctx, other.ctx)
        a, b = self.fn, other.fn
        parity = self.parity if self.parity == other.parity else None
        return Cochain(self.ctx, self.arity, parity,
                       lambda *args: a(*args) + b(*args), self.grading,
                       name=f"{self.name}+{other.name}")

    def scaled(self, scalar):
        """``scalar`` times this form, the scalar on the left.

        A term whose theta-mask meets every theta-monomial of ``scalar``
        adds only terms that the scalar annihilates (the Lambda(theta)-
        linearity of the module doc), so it is left out of each argument
        before ``fn`` runs; a scalar with a theta-free monomial keeps every
        term, and a zero scalar none.  An argument outside Z keeps its
        terms too, so a form that integrates it still raises
        NotIntegrableError.
        """
        scalar = _own_scalar(self.ctx, scalar)
        fn, weight = self.fn, scalar.parity()
        parity = (None if None in (self.parity, weight)
                  else (self.parity + weight) % 2)
        masks = {key[1] for key in scalar.coeffs}

        def scaled_fn(*args):
            return fn(*[_surviving(a, masks) for a in args]
                      ).scale_left(scalar)
        return Cochain(self.ctx, self.arity, parity, scaled_fn,
                       self.grading, name=f"scaled({self.name})")

    def __repr__(self):
        return f"<{self.name}: arity {self.arity}, parity {self.parity}>"


# -- named forms -----------------------------------------------------------

def m0_form(ctx):
    return Cochain(ctx, 2, 0, poisson_bracket, EVEN, name="m0")


def anti_form(ctx):
    _require_square(ctx, "anti")
    return Cochain(ctx, 2, 0, antibracket, ODD, name="anti")


def moyal_form(ctx, kappa=1):
    kappa = _own_kappa(ctx, kappa)
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
            term = op(f).scale_right(gbar)
            out = out - term if n_minus * ef & 1 else out + term
        if fbar:
            term = op(g).scale_right(fbar)
            out = out + term if (ef * eg + n_minus * eg) & 1 else out - term
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
    """The odd antibracket cocycle built from 1 - N_xi:
    (-1)^eps(f) ((1 - N_xi) f) ((1 - N_xi) g)."""
    _require_square(ctx, "m23")

    def fn(f, g):
        out = sf_mul(f.one_minus_number_xi(), g.one_minus_number_xi())
        return -out if f.eps() else out

    return Cochain(ctx, 2, 1, fn, ODD, name="m23")


def mu(f, g):
    """The scalar fbar gbar (-1)^eps(f), the value of mu_form; f and g
    must share one context, as in ``_bar_pairing``."""
    f._check(g)
    bars = f.integral_bar() * g.integral_bar()
    return -bars if f.eps() else bars


def mu_form(ctx):
    return Cochain(ctx, 2, 0,
                   lambda f, g: SuperFunction.constant(ctx, mu(f, g)),
                   EVEN, name="mu")


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
