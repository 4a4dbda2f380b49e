"""Exact coefficient ring.

A scalar is a finite sum of terms

    q * pi^p * sqrt(pi)^s * sqrt(r) * h^m * th_{i1}*...*th_{iw}

where q is rational, r is a square-free positive integer, h is the even
series variable truncated at a global order ``h_max``, and th_1..th_k are
anticommuting generators (th_j^2 = 0).  All arithmetic is exact; terms with
h-exponent above ``h_max`` are discarded by every operation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import ContextMismatchError


@lru_cache(maxsize=None)
def squarefree_decompose(n):
    """Return (outer, core) with n = outer**2 * core and core square-free."""
    if n <= 0:
        raise ValueError("expected a positive integer under the root")
    outer, core = 1, 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        outer *= d ** (e // 2)
        if e % 2:
            core *= d
        d += 1 if d == 2 else 2
    core *= n
    return outer, core


def merge_odd_indices(a, b):
    """Merge two sorted tuples of distinct generator indices.

    Returns (sign, merged) with the Koszul sign of sorting the concatenation,
    or (0, None) when an index repeats (the square of a generator is 0).
    """
    if set(a) & set(b):
        return 0, None
    inversions = 0
    for i in a:
        for j in b:
            if i > j:
                inversions += 1
    return (-1) ** inversions, tuple(sorted(a + b))


def accumulate(out, key, value):
    """Add ``value`` into ``out[key]``; an entry whose sum is zero is
    dropped, and a zero ``value`` changes nothing."""
    if not value:
        return
    if key in out:
        value = out[key] + value
        if not value:
            del out[key]
            return
    out[key] = value


def _with_terms(obj, terms):
    """Give an empty RadicalNumber, Scalar or SuperFunction a dict of terms
    that is already normalised (no zero values, canonical keys)."""
    obj.terms = terms
    return obj


class RadicalNumber:
    """Element of Q extended by sqrt(r) for square-free r and by sqrt(pi).

    ``terms`` maps (pi_power, sqrt_pi_exponent in {0,1}, square-free root)
    to a rational coefficient.  The key (0, 0, 1) is the rational part.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {key: Fraction(coeff)
                      for key, coeff in (terms or {}).items() if coeff}

    @classmethod
    def from_rational(cls, q):
        return cls({(0, 0, 1): Fraction(q)})

    @classmethod
    def sqrt_int(cls, r, coeff=1):
        outer, core = squarefree_decompose(int(r))
        return cls({(0, 0, core): Fraction(coeff) * outer})

    @classmethod
    def sqrt_pi(cls, coeff=1):
        return cls({(0, 1, 1): Fraction(coeff)})

    @classmethod
    def pi_power(cls, p, coeff=1):
        return cls({(p, 0, 1): Fraction(coeff)})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_rational(self):
        return all(k == (0, 0, 1) for k in self.terms)

    def rational_value(self):
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.terms[(0, 0, 1)]

    def __add__(self, other):
        if not isinstance(other, RadicalNumber):
            other = RadicalNumber.from_rational(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            accumulate(out, key, coeff)
        return _with_terms(RadicalNumber(), out)

    __radd__ = __add__

    def __neg__(self):
        return _with_terms(RadicalNumber(),
                           {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, RadicalNumber)
                       else -Fraction(other))

    def __mul__(self, other):
        if not isinstance(other, RadicalNumber):
            q = Fraction(other)
            if not q:
                return RadicalNumber()
            return _with_terms(RadicalNumber(),
                               {k: c * q for k, c in self.terms.items()})
        out = {}
        for (p1, s1, r1), c1 in self.terms.items():
            for (p2, s2, r2), c2 in other.terms.items():
                s = s1 + s2
                outer, core = squarefree_decompose(r1 * r2)
                accumulate(out, (p1 + p2 + s // 2, s % 2, core),
                           c1 * c2 * outer)
        return _with_terms(RadicalNumber(), out)

    __rmul__ = __mul__

    def __truediv__(self, q):
        q = Fraction(q)
        return _with_terms(RadicalNumber(),
                           {k: c / q for k, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, RadicalNumber):
            other = RadicalNumber.from_rational(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def freeze(self):
        return tuple(sorted(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (p, s, r), coeff in sorted(self.terms.items()):
            factors = []
            if coeff != 1 or (p == 0 and s == 0 and r == 1):
                factors.append(str(coeff))
            if p == 1:
                factors.append("pi")
            elif p > 1:
                factors.append(f"pi^{p}")
            if s:
                factors.append("sqrt(pi)")
            if r != 1:
                factors.append(f"sqrt({r})")
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


class ScalarContext:
    """Parameters of the coefficient ring: k theta generators, truncation."""

    __slots__ = ("k", "h_max")

    def __init__(self, k=0, h_max=6):
        if k < 0 or h_max < 0:
            raise ValueError("k and h_max must be nonnegative")
        self.k = k
        self.h_max = h_max

    def __eq__(self, other):
        return (isinstance(other, ScalarContext)
                and self.k == other.k and self.h_max == other.h_max)

    def __hash__(self):
        return hash((self.k, self.h_max))

    def __repr__(self):
        return f"ScalarContext(k={self.k}, h_max={self.h_max})"


class Scalar:
    """Element of the full coefficient ring over a ScalarContext.

    ``terms`` maps (h_exponent, theta_multi_index) to a RadicalNumber;
    theta multi-indices are sorted tuples of generator indices 1..k.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        self.terms = {}
        for (m, alpha), rad in (terms or {}).items():
            if not isinstance(rad, RadicalNumber):
                rad = RadicalNumber.from_rational(rad)
            if m <= ctx.h_max and rad:
                self.terms[m, tuple(alpha)] = rad

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @classmethod
    def rational(cls, ctx, q):
        return cls(ctx, {(0, ()): Fraction(q)})

    @classmethod
    def one(cls, ctx):
        return cls.rational(ctx, 1)

    @classmethod
    def from_radical(cls, ctx, rad):
        return cls(ctx, {(0, ()): rad})

    @classmethod
    def hbar(cls, ctx, power=1, coeff=1):
        return cls(ctx, {(power, ()): Fraction(coeff)})

    @classmethod
    def theta(cls, ctx, j):
        if not 1 <= j <= ctx.k:
            raise ValueError(f"theta index {j} outside 1..{ctx.k}")
        return cls(ctx, {(0, (j,)): Fraction(1)})

    @classmethod
    def sqrt(cls, ctx, r):
        return cls.from_radical(ctx, RadicalNumber.sqrt_int(r))

    @classmethod
    def sqrt_pi(cls, ctx):
        return cls.from_radical(ctx, RadicalNumber.sqrt_pi())

    @classmethod
    def pi(cls, ctx, power=1):
        return cls.from_radical(ctx, RadicalNumber.pi_power(power))

    # -- helpers -----------------------------------------------------------

    def _check(self, other):
        if self.ctx != other.ctx:
            raise ContextMismatchError(
                f"scalar contexts differ: {self.ctx} vs {other.ctx}")

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_theta_free(self):
        return all(not alpha for _, alpha in self.terms)

    def is_rational(self):
        return all(m == 0 and not alpha for m, alpha in self.terms) and \
            all(rad.is_rational() for rad in self.terms.values())

    def rational_value(self):
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.terms[(0, ())].rational_value()

    def parity(self):
        """Theta-weight mod 2 if homogeneous, else None."""
        if not self.terms:
            return 0
        weights = {len(alpha) % 2 for _, alpha in self.terms}
        return weights.pop() if len(weights) == 1 else None

    def split_theta_parity(self):
        """Return (even_part, odd_part) by theta-weight."""
        even, odd = {}, {}
        for key, rad in self.terms.items():
            (even if len(key[1]) % 2 == 0 else odd)[key] = rad
        return _with_terms(Scalar(self.ctx), even), \
            _with_terms(Scalar(self.ctx), odd)

    def theta_twist(self, q):
        """Multiply each term by (-1)**(q * theta_weight).

        This is the Koszul sign of moving q odd factors past the scalar.
        """
        if q % 2 == 0:
            return self
        return _with_terms(Scalar(self.ctx), {
            key: (-rad if len(key[1]) % 2 else rad)
            for key, rad in self.terms.items()})

    def hbar_min_degree(self):
        return min((m for m, _ in self.terms), default=None)

    def truncate(self, order):
        return _with_terms(Scalar(self.ctx), {
            key: rad for key, rad in self.terms.items() if key[0] <= order})

    def is_even_series(self, min_degree=0):
        """True when only even h-exponents >= min_degree are present."""
        return all(m % 2 == 0 and m >= min_degree for m, _ in self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar):
            other = Scalar.rational(self.ctx, other)
        self._check(other)
        out = dict(self.terms)
        for key, rad in other.terms.items():
            accumulate(out, key, rad)
        return _with_terms(Scalar(self.ctx), out)

    __radd__ = __add__

    def __neg__(self):
        return _with_terms(Scalar(self.ctx),
                           {k: -r for k, r in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            other = Scalar.rational(self.ctx, other)
        return self + (-other)

    def __rsub__(self, other):
        return Scalar.rational(self.ctx, other) - self

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            if isinstance(other, RadicalNumber):
                other = Scalar.from_radical(self.ctx, other)
            else:
                q = Fraction(other)
                if not q:
                    return Scalar(self.ctx)
                return _with_terms(Scalar(self.ctx),
                                   {k: r * q for k, r in self.terms.items()})
        self._check(other)
        h_max = self.ctx.h_max
        out = {}
        for (m1, a1), r1 in self.terms.items():
            for (m2, a2), r2 in other.terms.items():
                m = m1 + m2
                if m > h_max:
                    continue
                sign, alpha = merge_odd_indices(a1, a2)
                if sign:
                    rad = r1 * r2
                    accumulate(out, (m, alpha), rad if sign > 0 else -rad)
        return _with_terms(Scalar(self.ctx), out)

    __rmul__ = __mul__

    def __truediv__(self, q):
        if isinstance(q, Scalar):
            q = q.rational_value()
        q = Fraction(q)
        return _with_terms(Scalar(self.ctx),
                           {k: r / q for k, r in self.terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("scalar powers must be nonnegative integers")
        result = Scalar.one(self.ctx)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            other = Scalar.rational(self.ctx, other)
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, self.freeze()))

    def freeze(self):
        return tuple(sorted(
            (key, rad.freeze()) for key, rad in self.terms.items()))

    # -- rendering ---------------------------------------------------------

    def render(self):
        if not self.terms:
            return "0"
        pieces = []
        for (m, alpha), rad in sorted(self.terms.items()):
            for (p, s, r), coeff in sorted(rad.terms.items()):
                factors = []
                if p == 1:
                    factors.append("pi")
                elif p > 1:
                    factors.append(f"pi^{p}")
                if s:
                    factors.append("sqrt(pi)")
                if r != 1:
                    factors.append(f"sqrt({r})")
                if m == 1:
                    factors.append("hbar")
                elif m > 1:
                    factors.append(f"hbar^{m}")
                factors.extend(f"th{j}" for j in alpha)
                mag = abs(coeff)
                if mag != 1 or not factors:
                    factors.insert(0, str(mag))
                pieces.append((coeff < 0, "*".join(factors)))
        text = ""
        for negative, body in pieces:
            if not text:
                text = ("-" if negative else "") + body
            else:
                text += (" - " if negative else " + ") + body
        return text

    def __str__(self):
        return self.render()

    __repr__ = __str__


def theta_divisibility(a, j):
    """Witness z with a = th_j * z, when th_j * a == 0.

    Returns None when the precondition fails (th_j * a != 0).  The witness is
    the one with no th_j factor; signs follow from moving th_j to the front
    of each sorted monomial.
    """
    theta = Scalar.theta(a.ctx, j)
    if not (theta * a).is_zero():
        return None
    out = {}
    for (m, alpha), rad in a.terms.items():
        # th_j * a == 0 forces every monomial to contain th_j
        pos = alpha.index(j)
        rest = alpha[:pos] + alpha[pos + 1:]
        out[(m, rest)] = rad * ((-1) ** pos)
    return Scalar(a.ctx, out)
