"""An even-sector reference for the Moyal bracket, computed with sympy.

At n+ = 2, n- = 0 the bracket is

    M(f, g) = sum over odd p of hbar^(p-1) / p! * P^p(f, g),
    P^p(f, g) = sum_j binom(p, j) (-1)^j (d1^(p-j) d2^j f) (d2^(p-j) d1^j g),

with P = d1 (x) d2 - d2 (x) d1.  Here sympy differentiates the functions
x1^a x2^b exp(-c (x1^2 + x2^2) / 2) itself; nothing is shared with either
bracket kernel of superdeform.
"""

import sympy as sp

X1, X2, HBAR = sp.symbols("x1 x2 hbar")
R2 = X1 ** 2 + X2 ** 2


def _function(terms):
    """The sympy expression of [x exponents, weight, hbar power, coeff]
    terms, as a polynomial times one Gaussian."""
    weights = {sp.Rational(c) for _xexp, c, _m, _q in terms}
    if len(weights) != 1:
        raise ValueError("the reference takes one Gaussian weight per function")
    poly = sum(sp.Rational(q) * HBAR ** m * X1 ** xexp[0] * X2 ** xexp[1]
               for xexp, _c, m, q in terms)
    return poly, weights.pop()


def _derivatives(poly, c, order):
    """d1^i d2^j (poly * gauss) / gauss for all i + j <= order."""
    gauss = sp.exp(-c * R2 / 2)
    out = {(0, 0): sp.expand(poly)}
    for n in range(1, order + 1):
        for i in range(n + 1):
            j = n - i
            src, var = (out[(i - 1, j)], X1) if i else (out[(i, j - 1)], X2)
            out[(i, j)] = sp.expand(sp.diff(src * gauss, var) / gauss)
    return out


def moyal_reference(f_terms, g_terms, h_max):
    """The bracket through hbar^h_max for hbar-free f and g, as
    (polynomial, Gaussian weight)."""
    pf, cf = _function(f_terms)
    pg, cg = _function(g_terms)
    p_max = h_max + 1 if h_max % 2 == 0 else h_max
    df = _derivatives(pf, cf, p_max)
    dg = _derivatives(pg, cg, p_max)
    total = 0
    for p in range(1, p_max + 1, 2):
        power = sum(sp.binomial(p, j) * (-1) ** j
                    * df[(p - j, j)] * dg[(j, p - j)] for j in range(p + 1))
        total += HBAR ** (p - 1) / sp.factorial(p) * power
    return sp.expand(total), cf + cg


def matches(f_terms, g_terms, value_terms, h_max):
    """Whether superdeform's bracket value equals the reference."""
    ref_poly, weight = moyal_reference(f_terms, g_terms, h_max)
    if value_terms:
        got_poly, got_weight = _function(value_terms)
        if got_weight != weight:
            return False
    else:
        got_poly = 0
    return sp.expand(got_poly - ref_poly) == 0
