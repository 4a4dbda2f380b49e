"""Spans and counters around the public functions of each superdeform layer.

The package is not changed: ``Tracer.install`` rebinds, from outside, every
name under which a traced function is reachable.

* Module functions (``sf_mul``, the brackets, the builders, the checks, the
  parsers, ``cli.run``) are imported by name into other modules, so each
  wrapper is bound in every ``superdeform`` module that holds the original.
* Methods are wrapped on their class.  ``Scalar.__mul__``/``__rmul__``,
  ``Scalar.__add__``/``__radd__``, ``RadicalNumber.__mul__``/``__rmul__``
  and ``Cochain.evaluate``/``__call__`` are two names for one function
  each, so both names get the same wrapper.

Per metric name the tracer keeps ``calls``, ``self_s`` (a span's wall time
minus the time of its traced child spans) and exact counters
(``terms_in``, ``terms_out``, ``hits``).  Spans of the coarse layers (all
but ``scalars`` and ``superfunc``, whose calls run into the millions) are
also kept one by one, with their parent span, and written out at the end.
"""

import sys
import time
from collections import defaultdict

# Spans are stored one by one only up to this many; counts are always exact.
MAX_SPANS = 200_000

_AGGREGATE_ONLY = ("scalars.", "superfunc.")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self.dropped_spans = 0
        # one frame per open span: [child time, index of nearest kept span]
        self._stack = []

    # -- the span ------------------------------------------------------------

    def _wrap(self, name, fn, count=None):
        calls, self_s, counts = self.calls, self.self_s, self.counts
        stack, spans = self._stack, self.spans
        keep = not name.startswith(_AGGREGATE_ONLY)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1][1] if stack else -1
            index = parent
            if keep:
                if len(spans) < MAX_SPANS:
                    index = len(spans)
                    spans.append(None)
                else:
                    self.dropped_spans += 1
            frame = [0.0, index]
            stack.append(frame)
            token = count.before(args) if count else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if index != parent:
                    spans[index] = (name, parent, t0, t1)
            if count:
                count.after(counts, name, token, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- binding -------------------------------------------------------------

    def wrap_function(self, module, attr, name, count=None):
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "superdeform"
                                   or mod_name.startswith("superdeform.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def wrap_method(self, cls, attrs, name, count=None):
        original = cls.__dict__[attrs[0]]
        for attr in attrs[1:]:
            if cls.__dict__[attr] is not original:
                raise RuntimeError(f"{cls.__name__}.{attr} is not "
                                   f"{cls.__name__}.{attrs[0]}")
        wrapper = self._wrap(name, original, count)
        for attr in attrs:
            setattr(cls, attr, wrapper)

    def install(self):
        """Wrap the traced functions of every layer."""
        from superdeform import (brackets, cli, cochains, deformations,
                                 scalars, superfunc, verify)

        Scalar, Radical = scalars.Scalar, scalars.RadicalNumber
        self.wrap_method(Scalar, ("__mul__", "__rmul__"), "scalars.Scalar.mul")
        self.wrap_method(Scalar, ("__add__", "__radd__"), "scalars.Scalar.add")
        self.wrap_method(Radical, ("__mul__", "__rmul__"),
                         "scalars.RadicalNumber.mul")

        self.wrap_function(superfunc, "sf_mul", "superfunc.sf_mul", TERMS)
        for method in ("left_deriv", "right_deriv", "integral_bar",
                       "number_z"):
            self.wrap_method(superfunc.SuperFunction, (method,),
                             f"superfunc.{method}")

        for fn, count in (("moyal_bracket", TERMS), ("bidiff_power", TERMS),
                          ("poisson_bracket", None), ("antibracket", None)):
            self.wrap_function(brackets, fn, f"brackets.{fn}", count)

        self.wrap_method(cochains.Cochain, ("evaluate", "__call__"),
                         "cochains.evaluate", CACHE_HITS)

        for fn in ("build_C1", "build_C1c", "build_C3", "build_anti_even",
                   "build_anti_odd", "build_general_odd"):
            self.wrap_function(deformations, fn, "deformations.build")
        for fn in ("check_constraints", "check_equivalence"):
            self.wrap_function(deformations, fn, f"deformations.{fn}")

        self.wrap_function(verify, "sample_tuples", "verify.sample_tuples")
        for fn in ("check_jacobi", "check_cocycle", "check_d_squared",
                   "check_signs", "check_grading", "check_bar_vanishing"):
            self.wrap_function(verify, fn, "verify.check")

        for fn in ("parse_expression", "parse_scalar", "parse_deformation",
                   "parse_cochain", "parse_t1"):
            self.wrap_function(cli, fn, "cli.parse")
        self.wrap_function(cli, "run", "cli.run")

    # -- results -------------------------------------------------------------

    def snapshot(self):
        """Copies of the counters, for metrics taken before later work."""
        return dict(self.calls), dict(self.self_s), dict(self.counts)


class _Terms:
    """|f|*|g| terms in and the result's terms out of a binary operation."""

    @staticmethod
    def before(args):
        return None

    @staticmethod
    def after(counts, name, _token, args, result):
        counts[name + ".terms_in"] += len(args[0].terms) * len(args[1].terms)
        counts[name + ".terms_out"] += len(result.terms)


class _CacheHits:
    """An evaluate call that leaves ``_cache`` unchanged returned from it.

    A miss always stores its result (after clearing the cache when it holds
    more than 4096 entries), so the cache size changes on every miss.
    """

    @staticmethod
    def before(args):
        return len(args[0]._cache)

    @staticmethod
    def after(counts, name, token, args, _result):
        if len(args[0]._cache) == token:
            counts[name + ".hits"] += 1


TERMS = _Terms()
CACHE_HITS = _CacheHits()
