"""Constructors for the named deformations of the Poisson superalgebra and
the antibracket, together with the constraint system of the k-odd-parameter
theorem.

Every builder enforces its membership preconditions (parameters vanishing in
the classical limit, even power series in h, parity assignments) and raises
DeformationError naming the violated clause.  A deformation is its bracket:
an arity-2 Cochain named by its flavor (C1, C1c, C3, ANTI_EVEN, ANTI_ODD,
GENERAL_ODD), whose ``grading`` says which parity its Jacobi identity uses
and whose ``params`` hold the data it was built from; its parity is its
parts' when they share one, else None (GENERAL_ODD at even n_minus).
Each is built in one Cochain call, around the ``fn`` of a sum of forms.
"""

from fractions import Fraction

from .brackets import _own_kappa, antibracket, moyal_bracket, poisson_bracket
from .cochains import (EVEN, ODD, Cochain, _theta1, anti_form, jzeta_form,
                       m0_form, m1, m1_form, m23_form, m3_form, mu,
                       mzeta_form)
from .errors import DeformationError
from .scalars import Scalar
from .superfunc import SuperFunction, _own_scalar, _require_square, sf_mul
from .verify import _run

C1, C1C, C3 = "C1", "C1c", "C3"
ANTI_EVEN, ANTI_ODD, GENERAL_ODD = "ANTI_EVEN", "ANTI_ODD", "GENERAL_ODD"


# -- membership predicates --------------------------------------------------

def _require_param(s, name):
    """A deformation parameter: even series in h, vanishing in the
    classical limit (no theta-free constant term)."""
    if not s.is_even_series(0):
        raise DeformationError(
            f"{name} must be an even power series in hbar", relation=name)
    if not s.theta_free_part().is_even_series(2):
        raise DeformationError(
            f"{name} must lie in hbar^2 K[[hbar^2]] modulo theta terms",
            relation=name)


def _require_even_fn(zeta, name):
    """zeta in hbar^2 E[[hbar^2]]: every coefficient an even series
    starting at order hbar^2."""
    if not zeta.is_even_series(2):
        raise DeformationError(
            f"{name} must lie in hbar^2 E[[hbar^2]]", relation=name)


def _require_parity(value, parity, name, message=None):
    """Refuse a nonzero value whose parity is not ``parity``; a value
    with parts of both parities has none, so it is refused too."""
    if value.is_zero():
        return
    p = value.eps() if isinstance(value, SuperFunction) else value.parity()
    if p != parity:
        word = "even" if parity == 0 else "odd"
        raise DeformationError(message or f"{name} must be {word}",
                               relation=name)


# -- Poisson-side deformations ---------------------------------------------

def build_C1(zeta, kappa=1):
    """C(f,g) = M(f + zeta*fbar, g + zeta*gbar), the Moyal bracket of the
    bar-extended arguments."""
    return _moyal_deformation(C1, zeta, kappa, None)


def build_C1c(zeta, kappa=1, c=0):
    """C1 plus the term c*fbar*gbar; M(zeta,zeta) + c lies in Z, as zeta is
    even and so M(zeta,zeta) = 0 by graded antisymmetry."""
    return _moyal_deformation(C1C, zeta, kappa, c)


def _moyal_deformation(flavor, zeta, kappa, c):
    """The C1 bracket, plus c*fbar*gbar unless ``c`` is None; no bracket is
    computed at build time."""
    ctx = zeta.ctx
    kappa = _own_kappa(ctx, kappa)
    _require_even_fn(zeta, "zeta")
    _require_parity(zeta, 0, "zeta")
    if not kappa.is_even_or_odd_series():
        raise DeformationError(
            "kappa must be an even or odd series in hbar so that "
            "c1 = (1/6) hbar^2 kappa^2 is an even series", relation="kappa")
    params = {"zeta": zeta, "kappa": kappa}
    if c is not None:
        c = _own_scalar(ctx, c)
        _require_param(c, "c")
        # no Z check: zeta is even, so M(zeta, zeta) = 0 and the sum is c
        params["c"] = c

    trivial = zeta.is_zero() and c is None

    def fn(f, g):
        if trivial:
            return moyal_bracket(f, g, kappa)
        fbar, gbar = f.integral_bar(), g.integral_bar()
        F = f + zeta.scale_right(fbar) if fbar else f
        G = g + zeta.scale_right(gbar) if gbar else g
        out = moyal_bracket(F, G, kappa)
        if c is not None:
            out = out + SuperFunction.constant(ctx, c * (fbar * gbar))
        return out

    return Cochain(ctx, 2, 0, fn, EVEN, name=flavor, params=params)


def build_C3(zeta, c3=0):
    """C = m0 + m_zeta + c3*m3."""
    ctx = zeta.ctx
    c3 = _own_scalar(ctx, c3)
    _require_even_fn(zeta, "zeta")
    _require_param(c3, "c3")
    # m_zeta and m3 have the parities eps(zeta) + n_minus and n_minus
    _require_parity(zeta, ctx.n_minus % 2, "zeta",
                    "zeta must make m_zeta even: eps(zeta) + n_minus must "
                    "be even")
    _require_parity(c3, ctx.n_minus % 2, "c3",
                    "c3 must make c3*m3 even: parity(c3) + n_minus must be "
                    "even")
    form = m0_form(ctx)
    if not zeta.is_zero():
        form = form + mzeta_form(ctx, zeta)
    if not c3.is_zero():
        form = form + m3_form(ctx).scaled(c3)
    return Cochain(ctx, 2, form.parity, form.fn, EVEN, name=C3,
                   params={"zeta": zeta, "c3": c3})


# -- antibracket deformations ----------------------------------------------

def build_anti_even(ctx, c):
    """Eq. (def): [f,g]* = [f,g]
    + (-1)^eps(f) {c/(1+c N_z/2) Delta f} E_z g
    + {E_z f} c/(1+c N_z/2) Delta g,
    with the inverse expanded as the geometric series
    sum_j c (-c N_z/2)^j u, which is finite after the h-truncation since c
    is of order hbar^2.

    Each operand is truncated to the h-order its later product can keep
    before Delta, N_z and E run, since none of them lowers the h-degree:
    the resolvent's input and each series step at h_max - deg(c), as each
    is then multiplied by c, and E_z of the other argument at h_max minus
    the lowest h-degree of the resolvent value it multiplies.  So the
    series stops at the truncation: a step whose truncation is zero has
    no successor.  At c = 0 the resolvent is zero and the bracket is the
    plain antibracket."""
    _require_square(ctx, "anti")
    c = _own_scalar(ctx, c)
    _require_param(c, "c")
    if not c.is_theta_free():
        raise DeformationError("c must be theta-free", relation="c")
    if c.is_zero():
        return Cochain(ctx, 2, 0, antibracket, ODD, name=ANTI_EVEN,
                       params={"c": c})
    half = c * Fraction(-1, 2)
    last = ctx.h_max - c.hbar_min_degree()

    def resolvent(u):
        # c/(1 + c N_z/2) applied to Delta u, as a geometric series in c
        total = term = u.truncate(last).delta_op().scale_left(c)
        while not (term := term.truncate(last)).is_zero():
            term = term.number_z().scale_left(half)
            total = total + term
        return total

    def euler(u, partner):
        # E_z u, kept only up to the order its product with partner keeps
        return u.truncate(ctx.h_max - partner.hbar_min_degree()).euler_E()

    def fn(f, g):
        out = antibracket(f, g)
        df = resolvent(f)
        if not df.is_zero():
            term = sf_mul(df, euler(g, df))
            out = out - term if f.eps() else out + term
        dg = resolvent(g)
        if not dg.is_zero():
            out = out + sf_mul(euler(f, dg), dg)
        return out

    return Cochain(ctx, 2, 0, fn, ODD, name=ANTI_EVEN, params={"c": c})


def build_anti_odd(ctx):
    """[f,g]* = [f,g] + theta*m_{2|3}(f,g); exact since theta^2 = 0."""
    form = anti_form(ctx) + m23_form(ctx).scaled(_theta1(ctx))
    return Cochain(ctx, 2, form.parity, form.fn, ODD, name=ANTI_ODD)


# -- the k-odd-parameter system --------------------------------------------

def _relation_one(zeta, eta, h1, h2, etabar):
    """eta + theta h1 m1(zeta,zeta) + theta[2E - (2+n+-n-)]zeta
    + etabar*zeta + {zeta,zeta} - h2."""
    ctx = zeta.ctx
    theta = _theta1(ctx)
    out = eta + m1(zeta, zeta).scale_left(theta * h1)
    euler = zeta.euler_E() * 2 - zeta * (2 + ctx.n_plus - ctx.n_minus)
    out = out + euler.scale_left(theta)
    out = out + zeta.scale_left(etabar)
    out = out + poisson_bracket(zeta, zeta)
    return out - SuperFunction.constant(ctx, h2)


def _theorem_scalars(zeta, h1, h2):
    """h1 and h2 as the context's scalars, once zeta, h1 and h2 pass the
    parity rules of the theorem: zeta and h1 odd, h2 even (in a context
    with theta_1, which is checked first)."""
    ctx = zeta.ctx
    _theta1(ctx)
    h1, h2 = _own_scalar(ctx, h1), _own_scalar(ctx, h2)
    _require_parity(zeta, 1, "zeta")
    _require_parity(h1, 1, "h1")
    _require_parity(h2, 0, "h2")
    return h1, h2


def check_constraints(zeta, eta, h1, h2):
    """The three relations of the final theorem and the D-class
    requirement on an even eta, as one check: a VerificationReport named
    constraints with a failure per nonzero relation (labelled i, ii, iii)
    and one labelled eta_class for a non-D eta; ``details`` holds each
    relation rendered (``constraints``) and ``eta_d_class``.  Only a
    refused input raises; a failed relation does not."""
    ctx = zeta.ctx
    h1, h2 = _theorem_scalars(zeta, h1, h2)
    _require_parity(eta, 0, "eta")
    theta = _theta1(ctx)
    # the bar of the non-D part need not exist; it is flagged separately
    etabar = eta.d_class_part().integral_bar()
    residuals = {
        "i": _relation_one(zeta, eta, h1, h2, etabar),
        "ii": SuperFunction.constant(ctx, theta * etabar),
        "iii": SuperFunction.constant(
            ctx, theta * ((1 + ctx.n_plus - ctx.n_minus) * h2)
            - etabar * h2),
    }
    rendered = {name: r.render() for name, r in residuals.items()}
    d_class = eta.is_d_class()

    def rule():
        for name, text in rendered.items():
            if text != "0":
                yield (name,), text
        if not d_class:
            yield ("eta_class",), (eta - eta.d_class_part()).render()

    return _run("constraints", ctx, [()], rule,
                {"constraints": rendered, "eta_d_class": d_class})


def solve_eta(zeta, h1, h2):
    """Solve relation (i) for eta:

        eta = -theta h1 m1(zeta,zeta) - theta[2E-(2+n+-n-)]zeta
              - etabar*zeta - {zeta,zeta} + h2

    in closed form, with etabar = 0.  Three bar identities make the bar of
    the right-hand side -etabar*zetabar: a bracket integrates to zero (so
    m1(zeta,zeta) and {zeta,zeta} do), so does [2E-(2+n+-n-)]f for every
    f, and the bar drops the constant h2.  So etabar = 0 solves the bar of
    (i), and check_constraints, which recomputes etabar from the returned
    eta, would show a failed identity as a nonzero relation (i).  The
    non-D terms that h2 must cancel are its eta_class failure.
    Returns (eta, report), the constraint report of eta.
    """
    h1, h2 = _theorem_scalars(zeta, h1, h2)
    eta = -_relation_one(zeta, SuperFunction.zero(zeta.ctx), h1, h2, 0)
    return eta, check_constraints(zeta, eta, h1, h2)


def _failed_relations(report):
    """The labels of a constraint report's failures, joined: "i, iii"."""
    return ", ".join(labels[0] for _index, labels, _text in report.failures)


def build_general_odd(zeta, eta, h1, h2):
    """C = m0 + theta h1 m1 + theta m3 + m_zeta + theta h1 j_zeta + eta*mu,
    valid whenever the constraint system is satisfied; otherwise
    DeformationError names the violated relations."""
    report = check_constraints(zeta, eta, h1, h2)
    if not report.passed:
        failed = _failed_relations(report)
        raise DeformationError(
            f"constraint system violated: {failed}", relation=failed)
    return _general_odd_bracket(zeta, eta, h1, h2)


def _general_odd_bracket(zeta, eta, h1, h2):
    """The bracket of build_general_odd, for data whose constraints were
    checked already, as the theorem command checks them once."""
    ctx = zeta.ctx
    theta = _theta1(ctx)
    th1 = theta * h1
    form = m0_form(ctx) + m1_form(ctx).scaled(th1) + \
        m3_form(ctx).scaled(theta)
    if not zeta.is_zero():
        form = form + mzeta_form(ctx, zeta) + \
            jzeta_form(ctx, zeta).scaled(th1)
    if not eta.is_zero():
        # eta is even, and mu(f, g) a scalar that passes to its right
        form = form + Cochain(ctx, 2, 0,
                              lambda f, g: eta.scale_right(mu(f, g)),
                              EVEN, name="eta*mu")
    return Cochain(ctx, 2, form.parity, form.fn, EVEN, name=GENERAL_ODD,
                   params={"zeta": zeta, "eta": eta, "h1": h1, "h2": h2})


# -- equivalence -----------------------------------------------------------

def t1_bar_multiplier(z0, a=1):
    """The family T1: f -> a * z0 * fbar."""
    ctx = z0.ctx
    scaled = z0.scale_left(_own_scalar(ctx, a))

    def fn(f):
        bar = f.integral_bar()
        return scaled.scale_right(bar) if bar.coeffs else \
            SuperFunction.zero(ctx)

    return Cochain(ctx, 1, z0.eps() or 0, fn, EVEN, name="T1_bar")


def t1_euler(ctx, a=1):
    """The family T1: f -> a * E_z f."""
    a = _own_scalar(ctx, a)
    return Cochain(ctx, 1, 0, lambda f: f.euler_E().scale_left(a),
                    EVEN, name="T1_euler")


def check_equivalence(defo1, defo2, t1, samples, order=None):
    """T = id + hbar^2 T1; the residual T C1(f,g) - C2(Tf,Tg), truncated
    at ``order`` (``h_max`` when None, where every value is truncated
    already), must vanish on every sample pair.

    ``details["t1_active_pairs"]`` counts the pairs on which T1 changes f,
    g or C1(f,g) within ``order``; only those pairs can tell a wrong T1
    from the right one.  (Each shift hbar^2 T1(u) is truncated at ``order``,
    which leaves the residual as it is: no bracket lowers the h-degree.)
    """
    ctx = defo1.ctx
    if order is None:
        order = ctx.h_max
    hbar2 = Scalar.hbar(ctx.scalar_ctx, 2)
    details = {"t1_active_pairs": 0}

    def shift(f):
        out = t1.evaluate(f)
        if not out.coeffs:
            return out
        return out.scale_left(hbar2).truncate(order)

    def rule(f, g):
        c1 = defo1.evaluate(f, g)
        dc, df, dg = (shift(u) for u in (c1, f, g))
        details["t1_active_pairs"] += not (
            dc.is_zero() and df.is_zero() and dg.is_zero())
        residual = (c1 + dc - defo2.evaluate(f + df, g + dg)).truncate(order)
        if not residual.is_zero():
            yield (), residual.render()

    return _run("equivalence", ctx, samples, rule, details)
