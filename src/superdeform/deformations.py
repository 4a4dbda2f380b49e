"""Constructors for the named deformations of the Poisson superalgebra and
the antibracket, together with the constraint system of the k-odd-parameter
theorem.

Every builder enforces its membership preconditions (parameters vanishing in
the classical limit, even power series in h, parity assignments) and raises
DeformationError naming the violated clause.  The constructed object wraps
an evaluable 2-cochain plus the parameter record.
"""

from __future__ import annotations

from fractions import Fraction

from .brackets import antibracket, moyal_bracket, poisson_bracket
from .cochains import (Cochain, EVEN, ODD, anti_form, jzeta_form, m0_form,
                       m1, m1_form, m23_form, m3_form, mu_form, mzeta_form,
                       zeta_form_parity)
from .errors import DeformationError, NotIntegrableError
from .scalars import Scalar
from .superfunc import SuperFunction, _own_scalar, sf_mul
from .verify import _run

C1, C1C, C3 = "C1", "C1c", "C3"
ANTI_EVEN, ANTI_ODD, GENERAL_ODD = "ANTI_EVEN", "ANTI_ODD", "GENERAL_ODD"

ETABAR_MAX_STEPS = 64  # solve_eta's bound on the etabar fixed-point steps


class Deformation:
    """A deformed bracket with its parameter record.

    ``bracket`` is an arity-2 cochain of total parity 0; its ``ctx`` is the
    deformation's context and its ``grading`` says which parity the Jacobi
    identity of this bracket uses.  ``params`` holds the data it was built
    from.
    """

    def __init__(self, flavor, bracket, params=None):
        self.flavor = flavor
        self.bracket = bracket
        self.params = {} if params is None else params

    def evaluate(self, f, g):
        return self.bracket.evaluate(f, g)

    __call__ = evaluate

    def __repr__(self):
        return f"<Deformation {self.flavor} at {self.bracket.ctx}>"


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


def _require_parity(value, parity, name):
    if value.is_zero():
        return
    p = value.eps() if isinstance(value, SuperFunction) else value.parity()
    if p is not None and p != parity:
        word = "even" if parity == 0 else "odd"
        raise DeformationError(f"{name} must be {word}", relation=name)


# -- Poisson-side deformations ---------------------------------------------

def build_C1(zeta, kappa=1):
    """C(f,g) = M(f + zeta*fbar, g + zeta*gbar), the Moyal bracket of the
    bar-extended arguments."""
    return _moyal_deformation(C1, zeta, kappa, None)


def build_C1c(zeta, kappa=1, c=0):
    """C1 plus the term c*fbar*gbar; the combination M(zeta,zeta) + c must
    land in Z."""
    return _moyal_deformation(C1C, zeta, kappa, c)


def _moyal_deformation(flavor, zeta, kappa, c):
    """The C1 bracket, with the term c*fbar*gbar unless ``c`` is None."""
    ctx = zeta.ctx
    kappa = _own_scalar(ctx, kappa)
    _require_even_fn(zeta, "zeta")
    _require_parity(zeta, 0, "zeta")
    if not kappa.is_theta_free():
        raise DeformationError("kappa must be theta-free", relation="kappa")
    if not kappa.is_even_or_odd_series():
        raise DeformationError(
            "kappa must be an even or odd series in hbar so that "
            "c1 = (1/6) hbar^2 kappa^2 is an even series", relation="kappa")
    params = {"zeta": zeta, "kappa": kappa}
    if c is not None:
        c = _own_scalar(ctx, c)
        _require_param(c, "c")
        probe = moyal_bracket(zeta, zeta, kappa) + c
        if not probe.is_z_class():
            raise DeformationError(
                "M(zeta, zeta) + c must lie in Z (Gaussian class plus "
                "constants)", relation="c")
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

    form = Cochain(ctx, 2, 0, fn, EVEN, name=flavor)
    return Deformation(flavor, form, params)


def build_C3(zeta, c3=0):
    """C = m0 + m_zeta + c3*m3."""
    ctx = zeta.ctx
    c3 = _own_scalar(ctx, c3)
    _require_even_fn(zeta, "zeta")
    _require_param(c3, "c3")
    if not zeta.is_zero() and zeta_form_parity(ctx, zeta) == 1:
        raise DeformationError(
            "zeta must make m_zeta even: eps(zeta) + n_minus must be even",
            relation="zeta")
    cp = c3.parity()
    if not c3.is_zero() and cp is not None and (cp + ctx.n_minus) % 2 != 0:
        raise DeformationError(
            "c3 must make c3*m3 even: parity(c3) + n_minus must be even",
            relation="c3")
    form = m0_form(ctx)
    if not zeta.is_zero():
        form = form + mzeta_form(ctx, zeta)
    if not c3.is_zero():
        form = form + m3_form(ctx).scaled(c3)
    form.name = "C3"
    params = {"zeta": zeta, "c3": c3}
    return Deformation(C3, form, params)


# -- antibracket deformations ----------------------------------------------

def build_anti_even(ctx, c):
    """Eq. (def): [f,g]* = [f,g]
    + (-1)^eps(f) {c/(1+c N_z/2) Delta f} E_z g
    + {E_z f} c/(1+c N_z/2) Delta g,
    with the inverse expanded as the geometric series
    sum_j c (-c N_z/2)^j u, which is finite after the h-truncation since c
    is of order hbar^2.

    The series stops at the truncation: N_z keeps the h-degree and each
    step multiplies by c, so a term t has a successor only while its
    lowest h-degree is at most h_max - deg(c); any later term lies above
    h_max and is zero.  At c = 0 the resolvent is zero and the bracket is
    the plain antibracket."""
    if ctx.n_plus != ctx.n_minus:
        raise DeformationError("the antibracket needs n_plus == n_minus",
                               relation="context")
    c = _own_scalar(ctx, c)
    _require_param(c, "c")
    if not c.is_theta_free():
        raise DeformationError("c must be theta-free", relation="c")
    if c.is_zero():
        form = Cochain(ctx, 2, 0, antibracket, ODD, name="anti_even")
        return Deformation(ANTI_EVEN, form, {"c": c})
    half = c * Fraction(-1, 2)
    last = ctx.h_max - c.hbar_min_degree()

    def resolvent(u):
        # c/(1 + c N_z/2) applied to u, as a geometric series in c
        total = term = u.scale_left(c)
        while not term.is_zero() and term.hbar_min_degree() <= last:
            term = term.number_z().scale_left(half)
            total = total + term
        return total

    def fn(f, g):
        out = antibracket(f, g)
        df = resolvent(f.delta_op())
        if not df.is_zero():
            out = out + sf_mul(df, g.euler_E()) * ((-1) ** f.eps())
        dg = resolvent(g.delta_op())
        if not dg.is_zero():
            out = out + sf_mul(f.euler_E(), dg)
        return out

    form = Cochain(ctx, 2, 0, fn, ODD, name="anti_even")
    return Deformation(ANTI_EVEN, form, {"c": c})


def build_anti_odd(ctx):
    """[f,g]* = [f,g] + theta*m_{2|3}(f,g); exact since theta^2 = 0."""
    if ctx.n_plus != ctx.n_minus:
        raise DeformationError("the antibracket needs n_plus == n_minus",
                               relation="context")
    if ctx.scalar_ctx.k < 1:
        raise DeformationError("an odd parameter theta_1 is required (k >= 1)",
                               relation="context")
    theta = Scalar.theta(ctx.scalar_ctx, 1)
    form = anti_form(ctx) + m23_form(ctx).scaled(theta)
    form.name = "anti_odd"
    return Deformation(ANTI_ODD, form)


# -- the k-odd-parameter system --------------------------------------------

class ConstraintReport:
    """Residuals of the three relations plus the D-class requirement."""

    def __init__(self, residuals, eta_d_class):
        self.residuals = residuals
        self.eta_d_class = eta_d_class

    @property
    def passed(self):
        return not self.failed_relations()

    def failed_relations(self):
        out = [name for name, r in self.residuals.items()
               if not r.is_zero()]
        if not self.eta_d_class:
            out.append("eta_class")
        return out

    def __repr__(self):
        failed = ", ".join(self.failed_relations()) or "none"
        return f"<ConstraintReport failed: {failed}>"


def _relation_one(zeta, eta, h1, h2, etabar):
    """eta + theta h1 m1(zeta,zeta) + theta[2E - (2+n+-n-)]zeta
    + etabar*zeta + {zeta,zeta} - h2."""
    ctx = zeta.ctx
    sctx = ctx.scalar_ctx
    theta = Scalar.theta(sctx, 1)
    out = eta
    m1zz = m1(zeta, zeta) if not zeta.is_zero() else SuperFunction.zero(ctx)
    out = out + m1zz.scale_left(theta * h1)
    euler = zeta.euler_E() * 2 - zeta * (2 + ctx.n_plus - ctx.n_minus)
    out = out + euler.scale_left(theta)
    out = out + zeta.scale_left(etabar)
    out = out + poisson_bracket(zeta, zeta)
    return out - SuperFunction.constant(ctx, h2)


def check_constraints(zeta, eta, h1, h2):
    """Evaluate the three relations of the final theorem and the D-class
    requirement on eta; all residuals are returned, nothing is raised."""
    ctx = zeta.ctx
    sctx = ctx.scalar_ctx
    h1 = _own_scalar(ctx, h1)
    h2 = _own_scalar(ctx, h2)
    _require_parity(zeta, 1, "zeta")
    _require_parity(eta, 0, "eta")
    _require_parity(h1, 1, "h1")
    _require_parity(h2, 0, "h2")
    theta = Scalar.theta(sctx, 1)
    # the bar of the non-D part need not exist; it is flagged separately
    etabar = eta.d_class_part().integral_bar()
    residuals = {
        "i": _relation_one(zeta, eta, h1, h2, etabar),
        "ii": SuperFunction.constant(ctx, theta * etabar),
        "iii": SuperFunction.constant(
            ctx, theta * ((1 + ctx.n_plus - ctx.n_minus) * h2)
            - etabar * h2),
    }
    return ConstraintReport(residuals, eta.is_d_class())


def solve_eta(zeta, h1, h2):
    """Solve relation (i) for eta:

        eta = -theta h1 m1(zeta,zeta) - theta[2E-(2+n+-n-)]zeta
              - etabar*zeta - {zeta,zeta} + h2

    The unknown scalar etabar is resolved by iterating the bar of the
    right-hand side to its fixed point (finitely many steps: the update is
    nilpotent in theta and raises the h-order).  Returns (eta, report)
    where the report lists the non-D obstruction terms that h2 must cancel.
    """
    ctx = zeta.ctx
    sctx = ctx.scalar_ctx
    h1 = _own_scalar(ctx, h1)
    h2 = _own_scalar(ctx, h2)
    _require_parity(zeta, 1, "zeta")
    _require_parity(h1, 1, "h1")
    _require_parity(h2, 0, "h2")
    zero = SuperFunction.zero(ctx)

    def rhs(etabar):
        return -_relation_one(zeta, zero, h1, h2, etabar)

    try:
        etabar = Scalar.zero(sctx)
        for _ in range(ETABAR_MAX_STEPS):
            new = rhs(etabar).integral_bar()
            if new == etabar:
                break
            etabar = new
        else:
            raise DeformationError(
                "etabar fixed point did not stabilize", relation="i")
        eta = rhs(etabar)
    except NotIntegrableError as exc:
        raise DeformationError(
            f"bar obstruction while solving for eta: {exc}",
            relation="i") from exc
    obstruction = eta - eta.d_class_part()
    report = check_constraints(zeta, eta, h1, h2)
    report.residuals["obstruction"] = obstruction
    return eta, report


def build_general_odd(zeta, eta, h1, h2):
    """C = m0 + theta h1 m1 + theta m3 + m_zeta + theta h1 j_zeta + eta*mu,
    valid whenever the constraint system is satisfied."""
    ctx = zeta.ctx
    sctx = ctx.scalar_ctx
    h1 = _own_scalar(ctx, h1)
    h2 = _own_scalar(ctx, h2)
    report = check_constraints(zeta, eta, h1, h2)
    if not report.passed:
        failed = ", ".join(report.failed_relations())
        raise DeformationError(
            f"constraint system violated: {failed}", relation=failed)
    theta = Scalar.theta(sctx, 1)
    th1 = theta * h1
    form = m0_form(ctx) + m1_form(ctx).scaled(th1) + \
        m3_form(ctx).scaled(theta)
    if not zeta.is_zero():
        form = form + mzeta_form(ctx, zeta) + \
            jzeta_form(ctx, zeta).scaled(th1)
    if not eta.is_zero():
        form = form + mu_form(ctx).times(eta)
    form.name = "general_odd"
    params = {"zeta": zeta, "eta": eta, "h1": h1, "h2": h2}
    return Deformation(GENERAL_ODD, form, params)


# -- equivalence -----------------------------------------------------------

def t1_bar_multiplier(z0, a=1):
    """The family T1: f -> a * z0 * fbar."""
    ctx = z0.ctx
    scaled = z0.scale_left(_own_scalar(ctx, a))
    return Cochain(ctx, 1, z0.eps() or 0,
                    lambda f: scaled.scale_right(f.integral_bar()),
                    EVEN, name="T1_bar")


def t1_euler(ctx, a=1):
    """The family T1: f -> a * E_z f."""
    a = _own_scalar(ctx, a)
    return Cochain(ctx, 1, 0, lambda f: f.euler_E().scale_left(a),
                    EVEN, name="T1_euler")


def check_equivalence(defo1, defo2, t1, samples, order=None):
    """T = id + hbar^2 T1; the residual T C1(f,g) - C2(Tf,Tg), truncated
    at ``order`` when given, must vanish on every sample pair.

    ``details["t1_active_pairs"]`` counts the pairs on which T1 changes f,
    g or C1(f,g); only those pairs can tell a wrong T1 from the right one.
    """
    ctx = defo1.bracket.ctx
    hbar2 = Scalar.hbar(ctx.scalar_ctx) ** 2
    details = {"t1_active_pairs": 0}

    def shift(f):
        return t1.evaluate(f).scale_left(hbar2)

    def rule(f, g):
        c1 = defo1.evaluate(f, g)
        dc, df, dg = (shift(u) for u in (c1, f, g))
        details["t1_active_pairs"] += not (
            dc.is_zero() and df.is_zero() and dg.is_zero())
        residual = c1 + dc - defo2.evaluate(f + df, g + dg)
        if order is not None:
            residual = residual.truncate(order)
        if not residual.is_zero():
            yield (), residual.render()

    return _run("equivalence", ctx, samples, rule, details)
