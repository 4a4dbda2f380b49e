"""Exact coefficient ring.

A scalar is a finite sum of terms

    q * pi^p * sqrt(pi)^s * sqrt(r) * h^m * th_{i1}*...*th_{iw}

where q is rational, r is a square-free positive integer, h is the even
series variable truncated at a global order ``h_max``, and th_1..th_k are
anticommuting generators (th_j^2 = 0).  All arithmetic is exact; terms with
h-exponent above ``h_max`` are discarded by every operation.

A Scalar keeps them in one flat dict, ``coeffs``, keyed (m, theta_mask, p,
s, r), where bit j - 1 of the mask stands for th_j (in increasing order).
The sign of a theta product is the parity of its crossings
(``theta_sign``).  Rendering orders terms by (m, theta index tuple, p, s,
r).

Scalar and SuperFunction are both flat sums, a clean dict from monomial
key to rational, never changed once built; ``FlatSum`` states the
clean-dict rules once and holds everything the two do alike on that dict
(sums, negation, the h filters, ``freeze``).  This module and superfunc
are the only ones that know the key layout.  Scalar is the one
coefficient type and holds the one implementation of the product;
``mul_into`` also multiplies the coefficients of superfunction terms, whose
keys end in a Scalar key (see superfunc).  ``Scalar.terms`` is the nested
view {(m, theta index tuple): the theta-free, h-free Scalar of that
coefficient, over the same context}, built on each access.

Two rules of the whole package live here: ``check_context`` refuses
operands over two contexts (ContextMismatchError), and ``check_index`` an
index of a generator or variable that is not an int in its range
(ValueError).

An outside number enters the ring by one rule, ``exact``: the constructors,
``/`` and the operators of Scalar, on either side, all refuse a float or
a Decimal with ValueError, while comparing with one gives False.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd
from numbers import Number, Rational

from .errors import ContextMismatchError


MAX_RADICAND = 10 ** 12  # largest integer the ring factors under a root

# the key (m, theta_mask, p, s, r) of a rational: no h, theta, pi or root
_RATIONAL = (0, 0, 0, 0, 1)

# entries of each cache: squarefree_decompose here, _moment in superfunc, and
# in brackets _anti_factor, the Moyal rows _deriv, _block_row and _x_row,
# _odd_factor and _moyal_weights; a test holds every lru_cache to it
_CACHE_BOUND = 4096


@lru_cache(maxsize=_CACHE_BOUND, typed=True)  # typed: 8.0 is not the int 8
def squarefree_decompose(n):
    """Return (outer, core) with n = outer**2 * core and core square-free;
    n must be a positive int, and above MAX_RADICAND it is refused, as
    factoring is by trial division."""
    if n.__class__ is not int or n <= 0:
        raise ValueError("expected a positive integer under the root")
    if n > MAX_RADICAND:
        raise ValueError(f"radicand {n} is above {MAX_RADICAND}")
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


def theta_sign(a, b):
    """Sign of th^a * th^b = sign * th^(a | b) for theta (or xi) bitmasks a
    and b, the one Koszul sign rule: 0 when they share a generator, else -1
    to the number of crossings (a generator of a above one of b)."""
    if a & b:
        return 0
    crossings = 0
    while b:
        low = b & -b
        crossings += (a & -(low << 1)).bit_count()  # bits of a above low
        b ^= low
    return -1 if crossings & 1 else 1


def theta_mask(alpha):
    """Bitmask of a tuple of theta (or xi) indices."""
    return sum(1 << (j - 1) for j in alpha)


def theta_indices(mask):
    """Sorted tuple of the theta (or xi) indices in a bitmask."""
    return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


def int_if_integral(q):
    """q, as an int when it is an integral Fraction."""
    return q.numerator if q.__class__ is Fraction and q.denominator == 1 else q


def exact(x):
    """The ring rational of an outside number x: an int as it is, another
    Rational reduced; ValueError for a float (even 2.0), str or Decimal."""
    if x.__class__ is int:
        return x
    if isinstance(x, Rational):
        return int_if_integral(Fraction(x))
    raise ValueError(f"{x!r} is not an exact rational number")


def accumulate(out, key, value):
    """Add ``value`` into ``out[key]``; an entry whose sum is zero is
    dropped, a zero ``value`` changes nothing, and an integral Fraction is
    stored as an int."""
    if not value:
        return
    if key in out:
        value = out[key] + value
        if not value:
            del out[key]
            return
    if value.__class__ is Fraction and value.denominator == 1:
        value = value.numerator  # int_if_integral, inlined in the hot path
    out[key] = value


def mul_into(out, prefix, a_items, b_items, h_max, factor=1, twist=0):
    """Add factor * a * b into ``out`` under the keys prefix + (m, mask, p,
    s, r) and return ``out``; a and b are the items of two flat coefficient
    dicts.  The theta part of b first moves left past ``twist`` odd
    factors, so with odd ``twist`` each term of odd theta-weight in b
    changes sign: the one theta twist, which the products, xi-derivatives,
    Delta and bar of superfunc and the bracket kernels all take.  Terms
    above ``h_max`` are dropped."""
    twist &= 1
    for (m1, t1, p1, s1, r1), q1 in a_items:
        if factor != 1:
            q1 = q1 * factor
        for (m2, t2, p2, s2, r2), q2 in b_items:
            m = m1 + m2
            if m > h_max:
                continue
            q = q1 * q2
            if t2:
                if t1:
                    sign = theta_sign(t1, t2)
                    if not sign:
                        continue
                    if sign < 0:
                        q = -q
                if twist and t2.bit_count() & 1:
                    q = -q
            if r1 == 1 or r2 == 1:
                r = r1 * r2
            else:
                # square-free roots: sqrt(r1 r2) = g sqrt(r1 r2 / g^2)
                g = gcd(r1, r2)
                r = (r1 // g) * (r2 // g)
                q *= g
            s = s1 + s2
            accumulate(out, prefix + (m, t1 | t2, p1 + p2 + (s >> 1), s & 1,
                                      r), q)
    return out


def _check_monomial(m=0, p=0):
    """Raise ValueError unless h^m * pi^p is a canonical key: ints m, p >=
    0."""
    if type(m) is not int or type(p) is not int or min(m, p) < 0:
        raise ValueError(f"hbar^{m}*pi^{p} is not a canonical monomial")


def check_context(a, b):
    """The one context rule: refuse contexts a and b unless they are equal.
    Every site that meets operands over two contexts refuses them here,
    naming both; a hot path tests ``is`` before it calls this."""
    if a != b:
        raise ContextMismatchError(f"contexts differ: {a} vs {b}")


def check_index(i, lo, hi, message):
    """The one index rule: refuse i with ValueError(message) unless it is an
    int (not a bool) in lo..hi.  Every generator (th<j>, x<i>, xi<a>) and
    every derivative's variable is checked here, each in its own words."""
    if i.__class__ is not int or not lo <= i <= hi:
        raise ValueError(message)


class FlatSum:
    """A finite sum of monomials with rational coefficients over a context
    ``ctx``, kept in one flat dict ``coeffs`` {monomial key: coefficient}.

    The dict is clean: no zero value, an int for an integral value (a
    Fraction otherwise), and no h-exponent above ``ctx.h_max``.  Results
    are built on a clean dict by ``_of`` or a constructor and never changed
    in place: only those write ``coeffs``.  Code relies on that: a sum
    with zero may be the other summand itself, a difference with a zero
    subtrahend the minuend itself, and a SuperFunction keeps values
    computed from its dict (its parity and bar integral) for good.  The
    one fact this class knows about a key is that its h-exponent sits at
    index ``_HBAR``; a subclass turns an operand of another type into its
    own by ``_lift``, or answers NotImplemented, so that the operand's
    reflected method runs.
    """

    __slots__ = ("ctx", "coeffs")

    _HBAR = 0

    @classmethod
    def _of(cls, ctx, coeffs):
        """The sum on ``coeffs``, a dict that is already clean."""
        obj = cls.__new__(cls)
        obj.ctx = ctx
        obj.coeffs = coeffs
        return obj

    def _check(self, other):
        if self.ctx is not other.ctx:
            check_context(self.ctx, other.ctx)

    def _where(self, keep):
        """The terms whose key satisfies ``keep``."""
        return self._of(self.ctx, {key: q for key, q in self.coeffs.items()
                                   if keep(key)})

    def is_zero(self):
        return not self.coeffs

    def hbar_min_degree(self):
        i = self._HBAR
        return min((key[i] for key in self.coeffs), default=None)

    def is_even_series(self, min_degree=0):
        """True when only even h-exponents >= min_degree are present."""
        i = self._HBAR
        return all(key[i] % 2 == 0 and key[i] >= min_degree
                   for key in self.coeffs)

    def truncate(self, order):
        """The terms of h-exponent at most ``order``."""
        i = self._HBAR
        return self._where(lambda key: key[i] <= order)

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            other = self._lift(other)
            if other is NotImplemented:
                return NotImplemented
        if other.ctx is not self.ctx:
            check_context(self.ctx, other.ctx)
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        out = dict(self.coeffs)
        for key, q in other.coeffs.items():
            accumulate(out, key, q)
        return self._of(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return self._of(self.ctx, {k: -q for k, q in self.coeffs.items()})

    def __sub__(self, other):
        # as __add__, with each coefficient of other negated as it is added
        if other.__class__ is not self.__class__:
            other = self._lift(other)
            if other is NotImplemented:
                return NotImplemented
        if other.ctx is not self.ctx:
            check_context(self.ctx, other.ctx)
        if not other.coeffs:
            return self
        out = dict(self.coeffs)
        for key, q in other.coeffs.items():
            accumulate(out, key, -q)
        return self._of(self.ctx, out)

    def __rsub__(self, other):
        return -self + other

    def freeze(self):
        return tuple(sorted(self.coeffs.items()))

    def __str__(self):
        return self.render()

    __repr__ = __str__


class ScalarContext(namedtuple("ScalarContext", "k h_max")):
    """Parameters of the coefficient ring: k theta generators, truncation;
    a value that ``_make``, and so ``_replace``, checks as ``__new__`` does."""

    __slots__ = ()

    def __new__(cls, k=0, h_max=6):
        if type(k) is not int or type(h_max) is not int or min(k, h_max) < 0:
            raise ValueError("k and h_max must be nonnegative ints")
        return super().__new__(cls, k, h_max)

    # the namedtuple's own _make (and so _replace) skips __new__
    _make = classmethod(lambda cls, fields: cls(*fields))


class Scalar(FlatSum):
    """Element of the full coefficient ring over a ScalarContext.

    ``coeffs`` is the flat dict of the module doc.  Scalars are built by
    the class methods and the arithmetic, outside numbers by ``exact``; a
    monomial with a coefficient is a product, such as
    ``Scalar.hbar(ctx, m, q) * Scalar.theta(ctx, *alpha) * rad``.
    """

    __slots__ = ()

    @property
    def terms(self):
        """The nested view {(h_exponent, theta index tuple): theta-free,
        h-free Scalar over this context}."""
        nested = {}
        for (m, mask, p, s, r), q in self.coeffs.items():
            nested.setdefault((m, theta_indices(mask)), {})[0, 0, p, s, r] = q
        return {key: Scalar._of(self.ctx, flat)
                for key, flat in nested.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls._of(ctx, {})

    @classmethod
    def rational(cls, ctx, q):
        q = exact(q)
        return Scalar._of(ctx, {_RATIONAL: q} if q else {})

    @classmethod
    def one(cls, ctx):
        return cls.rational(ctx, 1)

    @classmethod
    def hbar(cls, ctx, power=1, coeff=1):
        _check_monomial(m=power)
        q = exact(coeff)
        return Scalar._of(ctx, {(power, 0, 0, 0, 1): q}
                            if q and power <= ctx.h_max else {})

    @classmethod
    def theta(cls, ctx, *indices):
        """th_{i1}*...*th_{iw}, the indices strictly increasing in 1..k."""
        mask = 0
        for j in indices:
            check_index(j, 1, ctx.k,
                        f"unknown parameter th{j!r} (k={ctx.k})")
            if mask >> (j - 1):
                raise ValueError(f"theta indices {indices} not increasing")
            mask |= 1 << (j - 1)
        return Scalar._of(ctx, {(0, mask, 0, 0, 1): 1})

    @classmethod
    def sqrt(cls, ctx, r):
        """sqrt(r) for a positive integer r up to MAX_RADICAND; a Rational r
        that is not an integer is refused, not truncated."""
        outer, core = squarefree_decompose(
            exact(r) if isinstance(r, Rational) else r)
        return Scalar._of(ctx, {(0, 0, 0, 0, core): outer})

    @classmethod
    def sqrt_pi(cls, ctx):
        return Scalar._of(ctx, {(0, 0, 0, 1, 1): 1})

    @classmethod
    def pi(cls, ctx, power=1):
        _check_monomial(p=power)
        return Scalar._of(ctx, {(0, 0, power, 0, 1): 1})

    # -- helpers -----------------------------------------------------------

    def _lift(self, value):
        if isinstance(value, Number):
            return Scalar.rational(self.ctx, value)  # refuses a float
        return NotImplemented

    def __bool__(self):
        return bool(self.coeffs)

    def is_theta_free(self):
        return not any(key[1] for key in self.coeffs)

    def theta_free_part(self):
        return self._where(lambda key: not key[1])

    def rational_value(self):
        if any(key != _RATIONAL for key in self.coeffs):
            raise ValueError(f"{self} is not rational")
        return Fraction(self.coeffs.get(_RATIONAL, 0))

    def parity(self):
        """Theta-weight mod 2 if homogeneous, else None."""
        if not self.coeffs:
            return 0
        weights = {key[1].bit_count() & 1 for key in self.coeffs}
        return weights.pop() if len(weights) == 1 else None

    def is_even_or_odd_series(self):
        """True when the h-exponents are all even or all odd."""
        return len({key[0] & 1 for key in self.coeffs}) < 2

    # -- arithmetic --------------------------------------------------------

    # bound in this class as well, so that Scalar.__dict__ holds each pair
    # of names for one function (the per-layer tracer wraps them there)
    __add__ = __radd__ = FlatSum.__add__

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            if other.__class__ is not int:
                if not isinstance(other, Rational):
                    # refuses a float; anything else runs its reflected method
                    return self._lift(other)
                other = exact(other)
            return Scalar._of(self.ctx, {
                k: int_if_integral(q * other)
                for k, q in self.coeffs.items()} if other else {})
        self._check(other)
        return Scalar._of(self.ctx, mul_into(
            {}, (), self.coeffs.items(), other.coeffs.items(),
            self.ctx.h_max))

    __rmul__ = __mul__

    def __truediv__(self, q):
        q = q.rational_value() if isinstance(q, Scalar) else exact(q)
        return self * Fraction(1, q)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("scalar powers must be nonnegative integers")
        result = Scalar.one(self.ctx)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, Rational):
                return NotImplemented  # a float is unequal, not refused
            other = self._lift(other)
        # a rational compares by value across contexts, the rest within one
        return self.coeffs == other.coeffs and (
            self.ctx == other.ctx or self.coeffs.keys() <= {_RATIONAL})

    def __hash__(self):
        # a rational Scalar equals its value, so it hashes as that number
        if self.coeffs.keys() <= {_RATIONAL}:
            return hash(self.coeffs.get(_RATIONAL, 0))
        return hash(self.freeze())

    # -- rendering ---------------------------------------------------------

    def render(self):
        return render_sum(self.coeffs.items())


def render_sum(items):
    """The text of the Scalar whose flat ``coeffs`` has these items."""
    pieces = []
    for (m, alpha, p, s, r), coeff in sorted(
            ((k[0], theta_indices(k[1])) + k[2:], q) for k, q in items):
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
        pieces.append((" - " if coeff < 0 else " + ") + "*".join(factors))
    text = "".join(pieces)
    return ("-" if text[1:2] == "-" else "") + text[3:] or "0"


# A stub kept only because perfbench/layertrace.py wraps
# RadicalNumber.__mul__/__rmul__ by name; nothing builds one.
class RadicalNumber:
    def __mul__(self, other):
        return NotImplemented

    __rmul__ = __mul__
