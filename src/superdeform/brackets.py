"""The three bracket structures: Poisson superbracket, antibracket, and the
Moyal-type superbracket given by the odd part of the exponential series of
the symplectic bidifferential operator P.

The first-order brackets share one kernel over the term pairs of f and g.
Per pair, the channels give a rational map (x exponents, xi monomial) ->
coefficient from the derivative rules of superfunc (right xi-derivatives
on f, left ones on g), the inversions of merging the xi that remain, and
lambda_a on a xi channel of P.  In every channel of one bracket the theta
part of g's scalar moves left past len(xi(f)) + b odd factors: b = 0 for
P, whose xi channels take one xi from each side and twist g once more,
and b = 1 for the antibracket, whose channels take one xi from one side.
So a pair takes one product of its two scalars, ``mul_into`` with twist
len(xi(f)) + b.  The kernels read a function's terms through
``superfunc._grouped`` and build their result with ``superfunc._make``,
so the key layout of ``coeffs`` stays inside superfunc and scalars.

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

The signs follow the first-order rules above with b = 0, taking S in
increasing order at the current length and position of each xi_a.  The
odd channels of P itself are this factor at p = 1.  For integral
Gaussian weights the tables hold integers: they are scaled by m! and blocks
combine with binomials.  One bracket call works over one common
denominator den = q_max!, the largest q! any of its seed pairs can need: a
pair's table q! X[q] is scaled by the integer weight * den/q!, and each
output coefficient is divided by den once.  So Fractions enter only where
the inputs hold them (a weight 1/2, a rational kappa or coefficient).
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from operator import add

from .scalars import (Scalar, accumulate, int_if_integral, merge_odd_indices,
                      mul_into)
from .superfunc import (SuperFunction, _grouped, _make, _own_scalar, bump,
                        x_steps)


def poisson_bracket(f, g):
    """Sum over the metric channels of (f <-d_a) omega^{ab} (d_b g)."""
    return _first_order(f, g, 0, _poisson_channels)


def antibracket(f, g):
    """The odd bracket pairing x_i with xi_i; needs n_plus == n_minus."""
    if f.ctx.n_plus != f.ctx.n_minus:
        raise ValueError("antibracket requires n_plus == n_minus")
    return _first_order(f, g, 1, _anti_channels)


# -- first-order kernel ------------------------------------------------------


def _first_order(f, g, b, channels):
    """Sum over the term pairs of ``channels(ctx, f key, g key)``, {xi:
    {xexp: coefficient}} with all but the theta sign, times the product of
    the two scalars with g's theta part moved past len(xi(f)) + b."""
    f._check(g)
    ctx = f.ctx
    acc = {}
    gterms = list(_grouped(g).items())
    for fkey, fitems in _grouped(f).items():
        twist = len(fkey[2]) + b
        for gkey, gitems in gterms:
            polys = channels(ctx, fkey, gkey)
            if polys:
                prod = mul_into({}, (), fitems, gitems, ctx.h_max, 1,
                                twist).items()
                c = int_if_integral(fkey[1] + gkey[1])
                for xi, poly in polys.items():
                    _collect(acc, c, xi, poly, prod)
    return _make(ctx, acc)


def _poisson_channels(ctx, fkey, gkey):
    """The odd channels as in the Moyal kernel at p = 1; the x-pair
    channels d_{2m-1} (x) d_{2m} - d_{2m} (x) d_{2m-1} need S empty."""
    (fx, cf, xf), (gx, cg, xg) = fkey, gkey
    n, weight, xi = _odd_factor(ctx.lambdas, xf, xg)
    ex = tuple(map(add, fx, gx))
    if n:
        return {xi: {ex: weight}} if n == 1 else None
    poly = {}
    for a in range(0, len(ex), 2):
        for a1, a2, w in ((a, a + 1, weight), (a + 1, a, -weight)):
            for s1, u in x_steps(fx[a1], cf):
                for s2, v in x_steps(gx[a2], cg):
                    accumulate(poly, bump(bump(ex, a1, s1), a2, s2),
                               w * u * v)
    return {xi: poly} if poly else None


def _anti_channels(ctx, fkey, gkey):
    """(f <-d_{x_i})(d_{xi_i} g) - (f <-d_{xi_i})(d_{x_i} g) over i."""
    (fx, cf, xf), (gx, cg, xg) = fkey, gkey
    g_side, f_side = _anti_factor(xf, xg)
    if not (g_side or f_side):
        return None
    ex = tuple(map(add, fx, gx))
    out = {}
    for a, w, xi in g_side:
        for step, u in x_steps(fx[a], cf):
            accumulate(out.setdefault(xi, {}), bump(ex, a, step), w * u)
    for a, w, xi in f_side:
        for step, v in x_steps(gx[a], cg):
            accumulate(out.setdefault(xi, {}), bump(ex, a, step), w * v)
    return out


# entries of the cache of ``_anti_factor``
_ANTI_BOUND = 4096


@lru_cache(maxsize=_ANTI_BOUND)
def _anti_factor(xf, xg):
    """The xi part of ``_anti_channels`` for xi monomials xf and xg, which
    no x exponent or weight changes: per side, the (x index, sign, merged
    xi) of each channel i whose xi_i survives the merge.  The g side takes
    d_{xi_i} from the left of g and d_{x_i} of f; the f side takes d_{xi_i}
    from the right of f, with the minus of the second sum, and d_{x_i} of
    g."""
    g_side = []
    for pos, gen in enumerate(xg):
        sign, xi = merge_odd_indices(xf, xg[:pos] + xg[pos + 1:])
        if sign:
            g_side.append((gen - 1, -sign if pos & 1 else sign, xi))
    f_side = []
    for pos, gen in enumerate(xf):
        sign, xi = merge_odd_indices(xf[:pos] + xf[pos + 1:], xg)
        if sign:  # -(-1)^(len - pos - 1) sign
            f_side.append((gen - 1, -sign if (len(xf) - pos) & 1 else sign,
                           xi))
    return tuple(g_side), tuple(f_side)


def _collect(acc, c, xi, poly, coeffs):
    """Add poly[xexp] times the scalar ``coeffs`` (items of a flat
    ``Scalar.coeffs``) into the slot of term (xexp, c, xi); ``_make`` turns
    the slots into a SuperFunction."""
    for xexp, v in poly.items():
        key = (xexp, c, xi)
        slot = acc.get(key)
        if slot is None:
            slot = acc[key] = {}
        for k, w in coeffs:
            slot[k] = slot.get(k, 0) + w * v


# -- block-factored kernel ---------------------------------------------------
#
# Polynomials are dicts from exponents to coefficients, with the Gaussian
# factor left implicit.  ``tables`` holds the one-variable derivative
# tables under (e, c), the block tables under (a1, a2, b1, b2, c_f, c_g)
# and the x tables under (x exponents of f, x exponents of g, c_f, c_g).
# None depends on kappa, the scalars, the lambdas or the context order, so
# all Moyal brackets share ``_TABLES``, cleared before a bracket past
# ``_TABLE_BOUND`` keys; ``bidiff_power`` keeps tables per call, as its
# calls seldom meet a key twice.  A list is replaced, never extended.

_TABLES = {}
_TABLE_BOUND = 1024
# entries of the caches of ``_odd_factor`` and ``_moyal_weights``
_ODD_BOUND = 4096
_WEIGHTS_BOUND = 64


def _derivs(tables, e, c, n):
    """The derivatives 0..n of u^e exp(-c u^2/2), as polynomials in u."""
    table = tables.get((e, c)) or [{e: 1}]
    cq = c.numerator if c.denominator == 1 else c  # integral weights as int
    while len(table) <= n:
        out = {}
        for k, q in table[-1].items():
            for step, u in x_steps(k, cq):
                out[k + step] = out.get(k + step, 0) + u * q
        table = table + [{k: q for k, q in out.items() if q}]
    tables[e, c] = table
    return table


def _mul1(u, v):
    """Product of two one-variable polynomials."""
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return out


def _block_table(tables, fb, gb, cf, cg, m_max):
    """m! T[m] for m = 0..m_max on one x-pair block (variables y1, y2):

        T[m] = sum_{i+j=m} (-1)^j/(i! j!) (d1^i d2^j f_B)(d2^i d1^j g_B),

    with f_B = y1^a1 y2^a2 exp(-c_f |y|^2/2) and g_B likewise."""
    key = fb + gb + (cf, cg)
    table = tables.get(key) or []
    if len(table) > m_max:
        return table
    f1, f2 = (_derivs(tables, e, cf, m_max) for e in fb)
    g1, g2 = (_derivs(tables, e, cg, m_max) for e in gb)
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
        table = table + [{k: q for k, q in out.items() if q}]
    tables[key] = table
    return table


def _x_tables(tables, fx, gx, cf, cg, q_max):
    """q! X[q] for q = 0..q_max (or more, when a longer list is stored),
    the t^q coefficient of the product over the x-pair blocks of
    sum_m t^m T_B[m]; block tables combine with binomials because they are
    scaled by m!."""
    key = (fx, gx, cf, cg)
    xs = tables.get(key)
    if xs is not None and len(xs) > q_max:
        return xs
    xs = [{(): 1}] + [{}] * q_max
    for b in range(0, len(fx), 2):
        table = _block_table(tables, fx[b:b + 2], gx[b:b + 2], cf, cg, q_max)
        new = []
        for q in range(q_max + 1):
            out = {}
            binom = 1
            for r in range(q + 1):
                for k1, a in xs[q - r].items():
                    for k2, c in table[r].items():
                        xexp = k1 + k2
                        out[xexp] = out.get(xexp, 0) + binom * a * c
                binom = binom * (q - r) // (r + 1)
            new.append({k: v for k, v in out.items() if v})
        xs = new
    tables[key] = xs
    return xs


@lru_cache(maxsize=_ODD_BOUND)
def _odd_factor(lambdas, xf, xg):
    """Sign, lambda weight and merged xi monomial of the odd channels.

    Only the channels of S = xi(f) & xi(g) survive: any other leaves a
    repeated xi.  They act once each, in increasing order, as right
    derivatives on f (sign (-1)^(len + pos + 1) at the current length and
    position) and left derivatives on g (sign (-1)^pos; passing g's theta
    part is left to the caller).  Then the two remainders are merged.
    The result depends on the metric signs ``lambdas`` and the two xi
    monomials alone, so it is cached.
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
        weight *= lambdas[i - 1]
    return n, weight, tuple(sorted(rf + rg))


def _iterate_pairs(f, g, weights, tables):
    """Sum over the seed term pairs of sum_p w_p times the t^p coefficient
    of the factored exponential series; ``weights`` holds the pairs
    (p, w_p) in increasing p.

    A seed pair takes each power p whose weight's h-degree fits within
    h_max - (its minimal h-degree); den = (max p)! is a common denominator
    of all the 1/q! of the call.  Per pair and power, one ``mul_into``
    forms weight * scalar product * den/q!; ``_collect`` adds it into the
    slots of the output terms, and ``_make`` divides by den once at the
    end.  ``tables`` holds the derivative, block and x tables (see above).
    """
    ctx = f.ctx
    h_max = ctx.h_max
    den = factorial(weights[-1][0])
    powers = [(p, w.coeffs.items(), w.hbar_min_degree())
              for p, w in weights]
    acc = {}
    gterms = [(key, items, min(k[0] for k, _ in items))
              for key, items in _grouped(g).items()]
    for (fx, cf, xf), fitems in _grouped(f).items():
        f_min = min(k[0] for k, _ in fitems)
        for (gx, cg, xg), gitems, g_min in gterms:
            room = h_max - f_min - g_min
            n, weight, xi = _odd_factor(ctx.lambdas, xf, xg)
            kept = [(p, w) for p, w, degree in powers
                    if p >= max(n, 1) and degree <= room]
            if not kept:
                continue
            # the theta part of g's scalar moves left past f's xi monomial
            prod = mul_into({}, (), fitems, gitems, h_max, 1,
                            len(xf)).items()
            xs = _x_tables(tables, fx, gx, cf, cg, kept[-1][0] - n)
            c = int_if_integral(cf + cg)
            for p, w in kept:
                q = p - n
                if xs[q]:
                    scale = weight * (den // factorial(q))
                    _collect(acc, c, xi, xs[q],
                             mul_into({}, (), w, prod, h_max, scale).items())
    return _make(ctx, acc, den)


def bidiff_power(f, g, p):
    """The p-th power of the symplectic bidifferential applied to (f, g)."""
    return bidiff_term(f, g, p, factorial(p))


def bidiff_term(f, g, p, weight):
    """``weight`` times P^p/p!, the t^p coefficient of exp(tP) applied to
    (f, g); ``weight`` is a rational number."""
    if p < 1:
        raise ValueError("the bidifferential power must be at least 1")
    f._check(g)
    return _iterate_pairs(
        f, g, ((p, Scalar.rational(f.ctx.scalar_ctx, weight)),), {})


def moyal_bracket(f, g, kappa=1):
    """Deformed bracket: sum over odd p of (h kappa)^(p-1)/p! times the p-th
    bidifferential power, truncated at the context order.

    kappa must be a theta-free series; at truncation order 0 the bracket
    reduces to the Poisson bracket.
    """
    f._check(g)
    kappa = _own_scalar(f.ctx, kappa)
    if not kappa.is_theta_free():
        raise ValueError("kappa must be theta-free")
    if not (f.coeffs and g.coeffs):
        return SuperFunction.zero(f.ctx)
    if len(_TABLES) > _TABLE_BOUND:
        _TABLES.clear()
    return _iterate_pairs(f, g, _moyal_weights(kappa), _TABLES)


@lru_cache(maxsize=_WEIGHTS_BOUND)
def _moyal_weights(kappa):
    """The pairs (p, (h kappa)^(p-1)) for odd p, up to the first weight the
    truncation kills; kappa is a Scalar, so the key holds its context."""
    hk = Scalar.hbar(kappa.ctx) * kappa
    hk2 = hk * hk
    weights, w, p = [], Scalar.one(kappa.ctx), 1
    while not w.is_zero():
        weights.append((p, w))
        w, p = w * hk2, p + 2
    return tuple(weights)
