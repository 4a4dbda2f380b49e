"""Shared fixtures and independent oracles for the test suite."""

import contextlib
import itertools
import math
import os
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from superdeform import (NotIntegrableError, Scalar, SuperFunction,
                         SymplecticContext, brackets, sf_mul)
from superdeform.scalars import squarefree_decompose
from superdeform.verify import LCG_INC, LCG_MASK, LCG_MULT


@pytest.fixture
def ctx42():
    """Canonical desk-scale context (n_plus=4, n_minus=2, k=1)."""
    return SymplecticContext(4, 2, (1, 1), 1, 6)


@pytest.fixture
def ctx22():
    """Antibracket context n = 2."""
    return SymplecticContext(2, 2, (1, 1), 1, 6)


@pytest.fixture
def ctx45():
    return SymplecticContext(4, 5, (1, 1, 1, 1, 1), 2, 6)


class LCG:
    """The documented 64-bit linear congruential generator of
    ``superdeform.verify``, one method per draw; the oracle of the stream
    that ``sample_superfunctions`` draws with its state in a local."""

    def __init__(self, seed):
        self.state = seed & LCG_MASK

    def next_word(self):
        self.state = (LCG_MULT * self.state + LCG_INC) & LCG_MASK
        return self.state

    def randint(self, lo, hi):
        """Uniform-ish integer in [lo, hi] (top bits of the next word)."""
        span = hi - lo + 1
        return lo + (self.next_word() >> 33) % span

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]


def is_clean(flat):
    """The clean-dict rule of a FlatSum: no zero value and an int for every
    integral one."""
    return all(q and (q.__class__ is int or q.denominator != 1)
               for q in flat.coeffs.values())


def radical_float(rad):
    """Independent numeric value of a theta-free, h-free Scalar, an element
    of Q[sqrt(r), pi, sqrt(pi)]."""
    total = 0.0
    for (m, mask, p, s, r), coeff in rad.coeffs.items():
        assert m == mask == 0
        total += float(coeff) * math.pi ** (p + 0.5 * s) * math.sqrt(r)
    return total


def scalar_float(scalar, hbar=0.1):
    """Numeric value of a theta-free Scalar at a chosen hbar."""
    assert scalar.is_theta_free()
    return sum(radical_float(rad) * hbar ** m
               for (m, _), rad in scalar.terms.items())


def gaussian_moment(e, c, sctx):
    """Exact value of the one-dimensional moment integral x^e exp(-c x^2 / 2),
    a Scalar over ``sctx``.

    Odd e gives 0; even e = 2p gives (2p-1)!! c^{-p} sqrt(2 pi / c).
    """
    if e % 2:
        return Scalar.zero(sctx)
    p = e // 2
    c = Fraction(c)
    if c <= 0:
        raise NotIntegrableError("Gaussian weight must be positive")
    rational = Fraction(math.prod(range(1, 2 * p, 2))) / c ** p
    # sqrt(2/c) = sqrt(2 * num * den) / num for c = num/den
    outer, core = squarefree_decompose(2 * c.numerator * c.denominator)
    return (Scalar.sqrt(sctx, core) * Scalar.sqrt_pi(sctx)
            * (rational * outer / c.numerator))


def random_superfunction(rng, ctx, max_x_degree=2, xi_degree=None,
                         gauss_pool=(0, 1, 2), terms=1, theta=False):
    """A seeded random function, parity-homogeneous when xi_degree is set."""
    out = SuperFunction.zero(ctx)
    for _ in range(terms):
        xexp = tuple(rng.randint(0, max_x_degree)
                     for _ in range(ctx.n_plus))
        c = Fraction(rng.choice(gauss_pool))
        deg = xi_degree if xi_degree is not None \
            else rng.randint(0, min(2, ctx.n_minus))
        xi = tuple(sorted(rng.sample(range(1, ctx.n_minus + 1), deg)))
        s = Scalar.rational(ctx.scalar_ctx, rng.choice(
            [-3, -2, -1, 1, 2, 3]))
        if theta and rng.random() < 0.5:
            s = s * Scalar.theta(ctx.scalar_ctx, 1)
        out = out + SuperFunction(ctx, {(xexp, c, xi): s})
    return out


def omega_channels(ctx):
    """Nonzero entries (a, b, weight) of the symplectic metric, 0-based over
    the collective variables: the x-block pairs (x1,x2), (x3,x4), ...
    canonically, the xi-block lambda_alpha on the diagonal."""
    channels = []
    for m in range(ctx.n_plus // 2):
        channels.append((2 * m, 2 * m + 1, 1))
        channels.append((2 * m + 1, 2 * m, -1))
    for alpha in range(ctx.n_minus):
        a = ctx.n_plus + alpha
        channels.append((a, a, ctx.lambdas[alpha]))
    return channels


def naive_bidiff(f, g, p):
    """Word-by-word oracle for the p-th bidifferential power.

    Enumerates all channel words of length p with plain nested derivatives;
    exponential in p, used only on small inputs.
    """
    ctx = f.ctx
    out = SuperFunction.zero(ctx)
    for word in itertools.product(omega_channels(ctx), repeat=p):
        F, G = f, g
        weight = 1
        alive = True
        for a, b, w in word:
            F = F.right_deriv(a)
            if F.is_zero():
                alive = False
                break
            G = G.left_deriv(b)
            if G.is_zero():
                alive = False
                break
            weight *= w
        if alive:
            out = out + sf_mul(F, G) * weight
    return out


# the row caches of the Moyal kernel, which the Poisson bracket shares
KERNEL_ROWS = (brackets._deriv, brackets._block_row, brackets._x_row)


def clear_kernel_caches():
    """Empty the Moyal kernel's row caches, so that the next bracket builds
    every row afresh."""
    for cached in KERNEL_ROWS:
        cached.cache_clear()


def naive_merge(a, b):
    """The Koszul sign and the sorted merge of two increasing tuples of odd
    generator indices, from the count of inversions; (0, None) when an
    index repeats.  The oracle of ``theta_sign`` and the mask union."""
    if set(a) & set(b):
        return 0, None
    return (-1) ** sum(i > j for i in a for j in b), tuple(sorted(a + b))


def seeded(seed):
    return random.Random(seed)


@contextlib.contextmanager
def raised_exceptions():
    """Count the exceptions raised inside superdeform frames while the block
    runs, under ``sys.settrace``: a Counter {(type name, "module.py:line"):
    count} of each exception once, at the line of the frame it is first
    seen in.  A GeneratorExit that closes an abandoned generator counts
    too.  Line events are switched off, so a traced frame reports only its
    exceptions."""
    counts = Counter()
    seen = {}  # id -> each exception counted, kept so that no id is reused

    def local(frame, event, arg):
        if event == "exception" and id(arg[1]) not in seen:
            seen[id(arg[1])] = arg[1]
            where = (f"{os.path.basename(frame.f_code.co_filename)}:"
                     f"{frame.f_lineno}")
            counts[arg[0].__name__, where] += 1
        return local

    def call(frame, event, arg):
        if not frame.f_globals.get("__name__", "").startswith("superdeform"):
            return None
        frame.f_trace_lines = False
        return local

    old = sys.gettrace()
    sys.settrace(call)
    try:
        yield counts
    finally:
        sys.settrace(old)
