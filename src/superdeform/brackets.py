"""The three bracket structures: Poisson superbracket, antibracket, and the
Moyal-type superbracket given by the odd part of the exponential series of
the symplectic bidifferential operator P.

The Moyal kernel is block factored.  P is a sum of commuting channels, and
each channel couples one block of variables: an x-pair (y1, y2) =
(x_{2m-1}, x_{2m}) through d1 (x) d2 - d2 (x) d1, or a single xi_a through
lambda_a d_a (x) d_a.  A seed term s * x^e exp(-c|x|^2/2) * xi^I factors
over the same blocks, so for a pair of seed terms P^p/p! is the t^p
coefficient of a product of one series per block (the scalars and all
signs aside):

* an x-pair block gives sum_m t^m T[m], with T[m] = sum_{i+j=m} (-1)^j/(i! j!)
  (d1^i d2^j f_B)(d2^i d1^j g_B), built from one-variable derivative tables
  of u^a exp(-c u^2/2);
* an xi channel acts at most once (its square is zero) and only where xi_a
  stands on both sides: otherwise the derivative kills a side, or xi_a is
  left on both and the product vanishes.  So the odd channels give the one
  term t^|S| times the product of lambda_a over S = xi(f) & xi(g).

The signs come from the derivatives alone, since the metric couples only
variables of equal parity: the right derivative on f costs (-1)^(len + pos
+ 1) and the left derivative on g costs (-1)^pos, at the current length
and position of xi_a, taking S in increasing order; merging the two
remaining xi monomials costs the inversions between them; the theta part
of g's scalar moves left past the whole xi monomial of f.  For integral
Gaussian weights the tables hold integers: they are scaled by m!, blocks
combine with binomials, and each output term is divided by q! once.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .scalars import Scalar, _with_coeffs, _with_terms, int_if_integral
from .superfunc import SuperFunction, sf_mul


def poisson_bracket(f, g):
    """Sum over the metric channels of (f <-d_a) omega^{ab} (d_b g)."""
    f._check(g)
    out = SuperFunction.zero(f.ctx)
    for a, b, w in f.ctx.omega_channels():
        fa = f.right_deriv(a)
        if fa.is_zero():
            continue
        gb = g.left_deriv(b)
        if gb.is_zero():
            continue
        prod = sf_mul(fa, gb)
        out = out + (prod if w == 1 else -prod)
    return out


def antibracket(f, g):
    """The odd bracket pairing x_i with xi_i; needs n_plus == n_minus."""
    f._check(g)
    ctx = f.ctx
    if ctx.n_plus != ctx.n_minus:
        raise ValueError("antibracket requires n_plus == n_minus")
    out = SuperFunction.zero(ctx)
    for i in range(ctx.n_plus):
        xi_i = ctx.n_plus + i
        out = out + sf_mul(f.right_deriv(i), g.left_deriv(xi_i))
        out = out - sf_mul(f.right_deriv(xi_i), g.left_deriv(i))
    return out


# -- block-factored kernel ---------------------------------------------------
#
# Polynomials are dicts from exponents to coefficients, with the Gaussian
# factor left implicit.  ``memo`` lives for one bracket call; it holds the
# one-variable derivative tables under (e, c) and the block tables under
# (a1, a2, b1, b2, c_f, c_g).


def _derivs(memo, e, c, n):
    """The derivatives 0..n of u^e exp(-c u^2/2), as polynomials in u."""
    table = memo.setdefault((e, c), [{e: 1}])
    c = c.numerator if c.denominator == 1 else c  # integral weights as int
    while len(table) <= n:
        out = {}
        for k, q in table[-1].items():
            if k:
                out[k - 1] = out.get(k - 1, 0) + k * q
            if c:
                out[k + 1] = out.get(k + 1, 0) - c * q
        table.append({k: q for k, q in out.items() if q})
    return table


def _mul1(u, v):
    """Product of two one-variable polynomials."""
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return out


def _block_table(memo, fb, gb, cf, cg, m_max):
    """m! T[m] for m = 0..m_max on one x-pair block (variables y1, y2):

        T[m] = sum_{i+j=m} (-1)^j/(i! j!) (d1^i d2^j f_B)(d2^i d1^j g_B),

    with f_B = y1^a1 y2^a2 exp(-c_f |y|^2/2) and g_B likewise."""
    table = memo.setdefault(fb + gb + (cf, cg), [])
    if len(table) > m_max:
        return table
    f1, f2 = _derivs(memo, fb[0], cf, m_max), _derivs(memo, fb[1], cf, m_max)
    g1, g2 = _derivs(memo, gb[0], cg, m_max), _derivs(memo, gb[1], cg, m_max)
    while len(table) <= m_max:
        m = len(table)
        out = {}
        binom = 1
        for i in range(m + 1):
            j = m - i
            w = -binom if j & 1 else binom
            binom = binom * j // (i + 1)
            u = _mul1(f1[i], g1[j])
            v = _mul1(f2[j], g2[i])
            for e1, a in u.items():
                for e2, b in v.items():
                    out[e1, e2] = out.get((e1, e2), 0) + w * a * b
        table.append({k: q for k, q in out.items() if q})
    return table


def _x_tables(memo, fx, gx, cf, cg, q_max):
    """q! X[q] for q = 0..q_max, the t^q coefficient of the product over
    the x-pair blocks of sum_m t^m T_B[m]; block tables combine with
    binomials because they are scaled by m!."""
    xs = [{(): 1}] + [{}] * q_max
    for b in range(0, len(fx), 2):
        table = _block_table(memo, fx[b:b + 2], gx[b:b + 2], cf, cg, q_max)
        new = []
        for q in range(q_max + 1):
            out = {}
            binom = 1
            for r in range(q + 1):
                for k1, a in xs[q - r].items():
                    for k2, c in table[r].items():
                        key = k1 + k2
                        out[key] = out.get(key, 0) + binom * a * c
                binom = binom * (q - r) // (r + 1)
            new.append({k: v for k, v in out.items() if v})
        xs = new
    return xs


def _odd_factor(ctx, xf, xg):
    """Sign, lambda weight and merged xi monomial of the odd channels.

    Only the channels of S = xi(f) & xi(g) survive: any other leaves a
    repeated xi.  They act once each, in increasing order, as right
    derivatives on f (sign (-1)^(len + pos + 1) at the current length and
    position) and left derivatives on g (sign (-1)^pos; passing g's theta
    part is left to the caller).  Then the two remainders are merged.
    """
    shared = set(xf) & set(xg)
    n = len(shared)
    # the k-th derivative (from 0) meets length len - k and position pos - k
    odd = n * len(xf) + n + n * (n - 1) // 2
    odd += sum(pos for pos, i in enumerate(xf) if i in shared)
    odd += sum(pos for pos, i in enumerate(xg) if i in shared)
    rf = [i for i in xf if i not in shared]
    rg = [i for i in xg if i not in shared]
    odd += sum(1 for i in rf for j in rg if i > j)
    weight = -1 if odd & 1 else 1
    for i in shared:
        weight *= ctx.lambdas[i - 1]
    return n, weight, tuple(sorted(rf + rg))


def _iterate_pairs(f, g, emit, p_cap, weights):
    """Sum over the seed term pairs of sum_p weights(p) times the t^p
    coefficient of the factored exponential series.

    ``emit(p)`` says whether power p contributes and ``p_cap(min_h)``
    bounds p for seeds of minimal h-degree min_h.  The coefficients are
    collected per output term in the flat ``Scalar.coeffs`` layout and
    turned into Scalars once at the end.
    """
    ctx = f.ctx
    memo = {}
    acc = {}
    gterms = [(key, gs, gs.hbar_min_degree()) for key, gs in g.terms.items()]
    for (fx, cf, xf), fs in f.terms.items():
        f_min = fs.hbar_min_degree()
        for (gx, cg, xg), gs, g_min in gterms:
            p_max = p_cap(f_min + g_min)
            n, weight, xi = _odd_factor(ctx, xf, xg)
            powers = [p for p in range(max(n, 1), p_max + 1) if emit(p)]
            if not powers:
                continue
            # the theta part of g's scalar moves left past f's xi monomial
            prod = fs * gs.theta_twist(len(xf))
            xs = _x_tables(memo, fx, gx, cf, cg, p_max - n)
            c = int_if_integral(cf + cg)
            for p in powers:
                q = p - n
                if not xs[q]:
                    continue
                scale = Fraction(weight, factorial(q)) if q > 1 else weight
                coeffs = [(k, v * scale)
                          for k, v in (weights(p) * prod).coeffs.items()]
                for xexp, v in xs[q].items():
                    key = (xexp, c, xi)
                    slot = acc.get(key)
                    if slot is None:
                        slot = acc[key] = {}
                    for k, w in coeffs:
                        slot[k] = slot.get(k, 0) + w * v
    sctx = ctx.scalar_ctx
    out = {}
    for key, slot in acc.items():
        coeffs = {k: int_if_integral(v) for k, v in slot.items() if v}
        if coeffs:
            out[key] = _with_coeffs(sctx, coeffs)
    return _with_terms(SuperFunction(ctx), out)


def bidiff_power(f, g, p):
    """The p-th power of the symplectic bidifferential applied to (f, g)."""
    if p < 1:
        raise ValueError("the bidifferential power must be at least 1")
    f._check(g)
    weight = Scalar.rational(f.ctx.scalar_ctx, factorial(p))
    return _iterate_pairs(f, g,
                          emit=lambda q: q == p,
                          p_cap=lambda min_h: p,
                          weights=lambda q: weight)


def moyal_bracket(f, g, kappa=1):
    """Deformed bracket: sum over odd p of (h kappa)^(p-1)/p! times the p-th
    bidifferential power, truncated at the context order.

    kappa must be a theta-free series; at truncation order 0 the bracket
    reduces to the Poisson bracket.
    """
    f._check(g)
    ctx = f.ctx
    sctx = ctx.scalar_ctx
    if not isinstance(kappa, Scalar):
        kappa = Scalar.rational(sctx, kappa)
    if not kappa.is_theta_free():
        raise ValueError("kappa must be theta-free")
    hk = Scalar.hbar(sctx) * kappa
    hk_degree = hk.hbar_min_degree()
    hk_powers = {0: Scalar.one(sctx)}

    def weights(p):
        e = p - 1
        if e not in hk_powers:
            hk_powers[e] = weights(p - 2) * hk * hk
        return hk_powers[e]

    def p_cap(min_h):
        if hk_degree is None:
            return 1
        p = 1
        while (p + 1) * hk_degree + min_h <= ctx.h_max:
            p += 2
        return p

    return _iterate_pairs(f, g,
                          emit=lambda q: q % 2 == 1,
                          p_cap=p_cap,
                          weights=weights)
