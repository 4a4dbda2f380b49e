"""The three bracket structures: Poisson superbracket, antibracket, and the
Moyal-type superbracket given by the odd part of the exponential series of
the symplectic bidifferential operator P.

The first-order brackets are two loops over the term pairs of f and g.  A
pair's channels give output terms (packed x exponents, xi mask; see
superfunc) with rational coefficients.  Their xi signs are those of
``superfunc.xi_deriv`` (from the right on f, from the left on g) and of
``theta_sign`` on the xi that remain, read from the cached ``_odd_factor`` or
``_anti_factor``; lambda_a weights a xi channel of P.  In every channel of
one bracket the theta part of g's scalar moves left past len(xi(f)) + b odd
factors: b = 0 for P, whose xi channels take one xi from each side and twist
g once more, and b = 1 for the antibracket, whose channels take one xi from
one side.  So a pair forms the product of its two scalars once, by one
``mul_into`` with twist len(xi(f)) + b, and each output term adds its
coefficient times that product straight into the result's flat dict, under
the prefix of the term.  The adds are plain sums that pop a sum once it
cancels, and ``_settled`` stores each integral Fraction as an int at the
end, so the result is clean.  A summed x exponent that could pass X_CAP
meets the context's guard.  The x steps come from ``x_steps``: the
antibracket takes them per channel, and the x-pair channels of P are the
m = 1 rows of the Moyal kernel's cached block rows (below), so both kernels
derive P's x part from the one x rule, once.  The kernels read a function's
terms through ``superfunc._grouped`` and the Moyal kernel builds its result
with ``superfunc._make``; of the scalar part of a key they know only that it
leads with the h-degree, which ``_iterate_pairs`` reads as min(items)[0][0].

The Moyal kernel is block factored.  P is a sum of commuting channels, and
each channel couples one block of variables: an x-pair (y1, y2) =
(x_{2m-1}, x_{2m}) through d1 (x) d2 - d2 (x) d1, or a single xi_a through
lambda_a d_a (x) d_a.  A seed term s * x^e exp(-c|x|^2/2) * xi^I factors
over the same blocks, so for a pair of seed terms P^p/p! is the t^p
coefficient of a product of one series per block (the scalars and all
signs aside):

* an x-pair block gives sum_m t^m T[m], with T[m] = sum_{i+j=m} (-1)^j/(i! j!)
  (d1^i d2^j f_B)(d2^i d1^j g_B), built from one-variable derivative rows
  of u^a exp(-c u^2/2);
* an xi channel acts at most once (its square is zero) and only where xi_a
  stands on both sides: otherwise the derivative kills a side, or xi_a is
  left on both and the product vanishes.  So the odd channels give the one
  term t^|S| times the product of lambda_a over S = xi(f) & xi(g).

The signs follow the first-order rules above with b = 0, ``xi_deriv``
taking the xi_a of S in increasing order.  The odd channels of P itself
are this factor at p = 1.  For integral Gaussian weights the rows hold
integers: they are scaled by m! and blocks combine with binomials.  One
bracket call works over one common denominator den = q_max!, the largest
q! any of its seed pairs can need.  A pair and power p form one product
f * (w_p * g) scaled by the integer weight * den/q!, and add each of its
coefficients times q! X[q] into the slot of its scalar key; each output
coefficient is divided by den once.  So Fractions enter only where the
inputs hold them (a weight 1/2, a rational kappa or coefficient).
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import DeformationError
from .scalars import (_RATIONAL, Scalar, exact, int_if_integral, mul_into,
                      theta_indices, theta_sign)
from .superfunc import (_CACHE_BOUND, OVER_CAP, X_BITS, SuperFunction,
                        _grouped, _make, _own_scalar, _require_square, pack_x,
                        unpack_x, x_field, x_steps, xi_deriv)


def poisson_bracket(f, g):
    """Sum over the metric channels of (f <-d_a) omega^{ab} (d_b g): the odd
    channels as in the Moyal kernel at p = 1, and where S is empty the
    x-pair channels d_{2m-1} (x) d_{2m} - d_{2m} (x) d_{2m-1}.  A block's
    row moves both exponents of that block by one and no other, so the
    keys of two blocks never meet."""
    f._check(g)
    ctx = f.ctx
    acc = {}
    gterms = list(_grouped(g).items())
    for (fx, cf, xf), fitems in _grouped(f).items():
        for (gx, cg, xg), gitems in gterms:
            n, weight, xi = _odd_factor(ctx.lambdas, xf, xg)
            if n > 1:
                continue
            ex = fx + gx
            if ex & ctx.x_guard:
                raise ValueError(OVER_CAP)
            c = int_if_integral(cf + cg)
            outs = [((ex, c, xi), weight)] if n else [
                # the row's block in place of the block of ex
                ((ex & ~(_BLOCK << b) | e << b, c, xi), weight * w)
                for b in range(0, X_BITS * ctx.n_plus, 2 * X_BITS)
                for e, w in _block_row(fx >> b & _BLOCK, gx >> b & _BLOCK,
                                       cf, cg, 1).items()]
            if outs:
                prod = mul_into({}, (), fitems, gitems, ctx.h_max, 1,
                                xf.bit_count()).items()
                for key, v in outs:
                    for k, u in prod:
                        k = key + k
                        q = acc.pop(k, 0) + v * u
                        if q:
                            acc[k] = q
    return _settled(ctx, acc)


def antibracket(f, g):
    """(f <-d_{x_i})(d_{xi_i} g) - (f <-d_{xi_i})(d_{x_i} g) over i, the odd
    bracket pairing x_i with xi_i; needs n_plus == n_minus."""
    _require_square(f.ctx, "antibracket")
    f._check(g)
    h_max, guard = f.ctx.h_max, f.ctx.x_guard
    acc = {}
    gterms = list(_grouped(g).items())
    for (fx, cf, xf), fitems in _grouped(f).items():
        for (gx, cg, xg), gitems in gterms:
            g_side, f_side = _anti_factor(xf, xg)
            if not (g_side or f_side):
                continue
            prod = mul_into({}, (), fitems, gitems, h_max, 1,
                            xf.bit_count() + 1).items()
            ex = fx + gx  # each stepped key meets the guard
            c = int_if_integral(cf + cg)
            for side, e, ce in ((g_side, fx, cf), (f_side, gx, cg)):
                for a, w, xi in side:
                    for step, u in x_steps(x_field(e, a), ce):
                        x = ex + (step << X_BITS * a)
                        if x & guard:
                            raise ValueError(OVER_CAP)
                        key = (x, c, xi)
                        for k, v in prod:
                            k = key + k
                            q = acc.pop(k, 0) + w * u * v
                            if q:
                                acc[k] = q
    return _settled(f.ctx, acc)


def _settled(ctx, acc):
    """The SuperFunction of ``acc``, a flat dict of nonzero sums, once each
    integral Fraction in it is stored as an int."""
    for k, q in acc.items():
        if q.__class__ is Fraction and q.denominator == 1:
            acc[k] = q.numerator
    return SuperFunction._of(ctx, acc)


@lru_cache(maxsize=_CACHE_BOUND)
def _anti_factor(xf, xg):
    """The xi part of ``antibracket`` for xi masks xf and xg, which no x
    exponent or weight changes: per side, the (x index, sign, merged xi
    mask) of each channel i whose xi_i survives the merge.  The g side
    takes ``xi_deriv`` of g by xi_i from the left and d_{x_i} of f; the f
    side takes ``xi_deriv`` of f by xi_i from the right, with the minus of
    the second sum, and d_{x_i} of g.  Each sign is the derivative's times
    that of ``theta_sign`` on f's and g's remaining xi."""
    g_side = []
    for gen in theta_indices(xg):
        d, rest = xi_deriv(xg, gen, False)
        sign = theta_sign(xf, rest)
        if sign:
            g_side.append((gen - 1, d * sign, xf | rest))
    f_side = []
    for gen in theta_indices(xf):
        d, rest = xi_deriv(xf, gen, True)
        sign = theta_sign(rest, xg)
        if sign:
            f_side.append((gen - 1, -d * sign, rest | xg))
    return tuple(g_side), tuple(f_side)


# -- block-factored kernel ---------------------------------------------------
#
# Polynomials are dicts from exponents to coefficients, the Gaussian factor
# left implicit; exponents are packed on a block (the two fields ``_BLOCK``
# masks) and on x, where blocks combine by shift and add.  Each row below is
# cached by its arguments and never changed: derivative rows by (e, c, i),
# block rows by (f's block, g's block, c_f, c_g, m) and x rows by (n_plus, x
# of f, x of g, c_f, c_g, q), as packed 0 is the zero vector at every
# n_plus.  None depends on kappa, the scalars, the lambdas or the context
# order, so every bracket of the module shares them.

_BLOCK = (1 << 2 * X_BITS) - 1


@lru_cache(maxsize=_CACHE_BOUND)
def _deriv(e, c, i):
    """Derivative i of u^e exp(-c u^2/2), a polynomial in u."""
    if not i:
        return {e: 1}
    out = {}
    for k, q in _deriv(e, c, i - 1).items():
        for step, u in x_steps(k, c):
            out[k + step] = out.get(k + step, 0) + u * q
    return {k: q for k, q in out.items() if q}


def _mul1(u, v):
    """Product of two one-variable polynomials."""
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return out


@lru_cache(maxsize=_CACHE_BOUND)
def _block_row(fb, gb, cf, cg, m):
    """m! T[m] on one x-pair block (variables y1, y2), clean:

        T[m] = sum_{i+j=m} (-1)^j/(i! j!) (d1^i d2^j f_B)(d2^i d1^j g_B),

    with f_B = y1^a1 y2^a2 exp(-c_f |y|^2/2) packed in fb, g_B likewise.
    At m = 1 it is the x-pair channel of P, (d1 f_B)(d2 g_B) - (d2
    f_B)(d1 g_B)."""
    (f1, f2), (g1, g2) = unpack_x(fb, 2), unpack_x(gb, 2)
    out = {}
    binom = 1
    for i in range(m + 1):
        j = m - i
        w = -binom if j & 1 else binom
        binom = binom * j // (i + 1)
        u = _mul1(_deriv(f1, cf, i), _deriv(g1, cg, j))
        v = _mul1(_deriv(f2, cf, j), _deriv(g2, cg, i))
        for e1, a in u.items():
            for e2, b in v.items():
                out[e1, e2] = out.get((e1, e2), 0) + w * a * b
    return {pack_x(k): int_if_integral(q) for k, q in out.items() if q}


@lru_cache(maxsize=_CACHE_BOUND)
def _x_row(n, fx, gx, cf, cg, q):
    """q! X[q], the t^q coefficient of the product over the n / 2 x-pair
    blocks of sum_m t^m T_B[m]: the top block's rows times the rows of the
    blocks below it, combined with binomials because all are scaled by m!."""
    if not n:
        return {} if q else {0: 1}
    shift = X_BITS * (n - 2)
    low = (1 << shift) - 1
    fb, gb = fx >> shift, gx >> shift
    out = {}
    binom = 1
    for r in range(q + 1):
        # each row is formed, used or not, so its exponents meet the x cap
        row = _block_row(fb, gb, cf, cg, r).items()
        for k1, a in _x_row(n - 2, fx & low, gx & low, cf, cg, q - r).items():
            for k2, c in row:
                x = k1 + (k2 << shift)
                out[x] = out.get(x, 0) + binom * a * c
        binom = binom * (q - r) // (r + 1)
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=_CACHE_BOUND)
def _odd_factor(lambdas, xf, xg):
    """Sign, lambda weight and merged xi mask of the odd channels.

    Only the channels of S = xi(f) & xi(g) survive: any other leaves a
    repeated xi.  They act once each, in increasing order, as ``xi_deriv``
    from the right on f and from the left on g (passing g's theta part is
    left to the caller), each with its lambda_a.  Then the two remainders,
    which share no xi, merge with the sign of ``theta_sign``.  The result
    depends on the metric signs ``lambdas`` and the two xi masks alone, so
    it is cached.
    """
    shared = theta_indices(xf & xg)
    weight = 1
    for i in shared:
        d, xf = xi_deriv(xf, i, True)
        e, xg = xi_deriv(xg, i, False)
        weight *= d * e * lambdas[i - 1]
    return len(shared), weight * theta_sign(xf, xg), xf | xg


def _iterate_pairs(f, g, powers):
    """Sum over the seed term pairs of sum_p w_p times the t^p coefficient
    of the factored exponential series; ``powers`` holds the triples (p,
    items of w_p, lowest h-degree of w_p) in increasing p, each w_p a
    nonzero theta-free Scalar.

    A seed pair with n shared xi takes each power p >= max(n, 1) whose
    weight's h-degree fits in room = h_max - (the pair's minimal
    h-degree); den = (max p)! is a common denominator of all the 1/q! of
    the call.  The kept powers depend on (n, room) alone, so each call
    plans them once per (n, room) as (index of p, q = p - n, den/q!).
    Each g term keeps w_p * g, formed when a pair first needs p: w_p
    meets no theta sign, and truncation commutes as h-degrees only add.
    Per pair and power, one ``mul_into`` forms weight * den/q! * f * (w_p
    * g), and each scalar key adds its coefficient times X[q] into its slot
    (gauss_weight, xi_mask) + scalar key: {packed x: coefficient};
    ``_make`` divides by den once.  X[q] is the cached ``_x_row``.
    """
    ctx = f.ctx
    h_max, n_plus = ctx.h_max, ctx.n_plus
    den = factorial(powers[-1][0]) if powers else 1
    plans = {}
    acc = {}
    # scalar keys are unique within a term and lead with the h-degree
    gterms = [(key, items, min(items)[0][0], [None] * len(powers))
              for key, items in _grouped(g).items()]
    for (fx, cf, xf), fitems in _grouped(f).items():
        f_min = min(fitems)[0][0]
        twist = xf.bit_count()
        for (gx, cg, xg), gitems, g_min, weighted in gterms:
            room = h_max - f_min - g_min
            n, weight, xi = _odd_factor(ctx.lambdas, xf, xg)
            plan = plans.get((n, room))
            if plan is None:
                plan = plans[n, room] = [
                    (i, p - n, den // factorial(p - n))
                    for i, (p, _w, degree) in enumerate(powers)
                    if p >= max(n, 1) and degree <= room]
            if not plan:
                continue
            head = (int_if_integral(cf + cg), xi)
            for i, q, scale in plan:
                poly = _x_row(n_plus, fx, gx, cf, cg, q)
                if not poly:
                    continue
                wg = weighted[i]
                if wg is None:
                    wg = weighted[i] = mul_into({}, (), powers[i][1], gitems,
                                                h_max).items()
                # the theta part of g's scalar moves left past f's xi monomial
                for k, u in mul_into({}, (), fitems, wg, h_max, weight * scale,
                                     twist).items():
                    key = head + k
                    slot = acc.get(key)
                    if slot is None:
                        acc[key] = {x: u * v for x, v in poly.items()}
                    else:
                        for x, v in poly.items():
                            slot[x] = slot.get(x, 0) + u * v
    return _make(ctx, acc, den)


def bidiff_power(f, g, p):
    """The p-th power of the symplectic bidifferential applied to (f, g).
    It stays public API beside ``bidiff_term``, which it calls with weight
    p!, as the exported name of P^p."""
    return bidiff_term(f, g, p, factorial(_power(p)))


def bidiff_term(f, g, p, weight):
    """``weight`` times P^p/p!, the t^p coefficient of exp(tP) applied to
    (f, g); ``weight`` is exact: 0 gives zero, and 0.0 raises ValueError."""
    _power(p)
    f._check(g)
    weight = exact(weight)
    return _iterate_pairs(
        f, g, ((p, ((_RATIONAL, weight),), 0),) if weight else ())


def _power(p):
    """p, refused with ValueError unless it is an int (not a bool) >= 1."""
    if p.__class__ is not int or p < 1:
        raise ValueError(
            f"the bidifferential power must be an int at least 1, got {p!r}")
    return p


def _own_kappa(ctx, kappa):
    """``kappa`` as a Scalar of ctx, refused when it carries a theta."""
    kappa = _own_scalar(ctx, kappa)
    if not kappa.is_theta_free():
        raise DeformationError("kappa must be theta-free", relation="kappa")
    return kappa


def moyal_bracket(f, g, kappa=1):
    """Deformed bracket: sum over odd p of (h kappa)^(p-1)/p! times the p-th
    bidifferential power, truncated at the context order.

    kappa must be a theta-free series, checked with the contexts even for
    a zero operand; at truncation order 0 the bracket reduces to Poisson.
    """
    f._check(g)
    kappa = _own_kappa(f.ctx, kappa)
    return _iterate_pairs(f, g, _moyal_weights(f.ctx.scalar_ctx, kappa))


@lru_cache(maxsize=_CACHE_BOUND)
def _moyal_weights(sctx, kappa):
    """The triples (p, items of w_p, lowest h-degree of w_p), w_p = (h
    kappa)^(p-1), for odd p up to the first weight the truncation kills;
    the key names sctx, as a rational kappa equals it over every context."""
    hk = Scalar.hbar(sctx) * kappa
    hk2 = hk * hk
    powers, w, p = [], Scalar.one(sctx), 1
    while not w.is_zero():
        powers.append((p, tuple(w.coeffs.items()), w.hbar_min_degree()))
        w, p = w * hk2, p + 2
    return tuple(powers)
